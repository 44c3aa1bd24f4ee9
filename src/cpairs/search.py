"""Shifted S-unit searches and bounded-height point enumeration on the line.

Both sweeps run one procedure over the S-units x (exponent vectors bounded
in sup-norm).  The shift x - 1 is factored once; its verdict comes from a
split rule applied to each exponent at a prime outside S, and the witness of
a rejection is the smallest prime whose exponent the rule refuses.  An
accepted x lifts u = 1 - x to u = a^2 * b^3, the same rule splitting each
exponent between the square and the cube:

* `search_shifted_units_2full` uses `split_2full` (x - 1 is 2-full away from
  S) and lifts to a point of the ambient model X;
* `search_shifted_units_2or3` uses `split_coprime` (every valuation outside S
  lies in 2Z or 3Z) and lifts to a coprime point of the quotient model Y.

Every accepted record is re-verified on the spot (product identity, unit
condition, coprimality for Y); a failure there is a hard internal error, not
a rejection.  Candidates are scanned serially, and records are sorted by
(|numerator|, denominator, sign) with sign ascending, so -x precedes x.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .arith import (
    PrimeFactorization,
    SIntegerContext,
    decompose_coprime_square_cube,
    decompose_square_cube,
    factor,
    format_rational,
    is_probable_prime,
    is_s_integer,
    is_s_unit,
    m_full_witness,  # noqa: F401 -- unused here, but perfbench/spans.py traces it by this name
    parse_rational,
    split_2full,
    split_coprime,
)
from .conditions import (
    CPairSpec,
    DivisorValuations,
    PointVerdict,
    check_generalized_point_dedekind,
)


@dataclass(frozen=True)
class SearchConfig:
    s_primes: tuple[int, ...]
    exponent_bound: int
    include_negative_units: bool = True
    include_support_points: bool = True

    def __init__(self, s_primes: Iterable[int] = (), exponent_bound: int = 0,
                 include_negative_units: bool = True, include_support_points: bool = True):
        ps = tuple(sorted(set(int(p) for p in s_primes)))
        for p in ps:
            if not is_probable_prime(p):
                raise ValueError(f"S must consist of primes, got {p}")
        if exponent_bound < 0:
            raise ValueError("exponent bound must be >= 0")
        object.__setattr__(self, "s_primes", ps)
        object.__setattr__(self, "exponent_bound", int(exponent_bound))
        object.__setattr__(self, "include_negative_units", bool(include_negative_units))
        object.__setattr__(self, "include_support_points", bool(include_support_points))

    def context(self) -> SIntegerContext:
        return SIntegerContext(self.s_primes)


@dataclass(frozen=True)
class PointRecord:
    """One sweep candidate: the unit x, the shift x - 1, verdict and witnesses.

    `shifted` is None exactly for x = 1 (the shift 0 has no factorization);
    `lift` is present on accepts, `witness_prime` on rejects.
    """

    x: Fraction
    shifted: "PrimeFactorization | None"
    verdict: str  # "accept" | "reject"
    target: str  # "X" | "Y"
    witness_prime: "int | None" = None
    lift: "tuple[Fraction, Fraction] | None" = None
    flags: tuple[str, ...] = ()

    def sort_key(self):
        return (abs(self.x.numerator), self.x.denominator, 1 if self.x > 0 else -1)

    def to_json_obj(self) -> dict:
        obj: dict = {"x": format_rational(self.x)}
        obj["shift"] = None if self.shifted is None else self.shifted.to_json_obj()
        obj["verdict"] = self.verdict
        if self.witness_prime is not None:
            obj["witness"] = self.witness_prime
        if self.lift is not None:
            obj["lift"] = [format_rational(self.lift[0]), format_rational(self.lift[1])]
        obj["target"] = self.target
        obj["flags"] = list(self.flags)
        return obj

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "PointRecord":
        lift = obj.get("lift")
        return cls(
            x=parse_rational(obj["x"]),
            shifted=None if obj.get("shift") is None else PrimeFactorization.from_json_obj(obj["shift"]),
            verdict=obj["verdict"],
            target=obj["target"],
            witness_prime=obj.get("witness"),
            lift=None if lift is None else (parse_rational(lift[0]), parse_rational(lift[1])),
            flags=tuple(obj.get("flags", ())),
        )


@dataclass(frozen=True)
class PointMembership:
    value: Fraction  # a^2 b^3 - 1
    on_x: bool
    on_y: bool


def _coprime_outside_s(a: Fraction, b: Fraction, ctx: SIntegerContext) -> bool:
    """gcd of a and b away from S is trivial (the gcd is an S-unit)."""
    if a == 0 and b == 0:
        return False
    if a == 0:
        return is_s_unit(b, ctx)
    if b == 0:
        return is_s_unit(a, ctx)
    na = ctx.strip(abs(a.numerator))
    nb = ctx.strip(abs(b.numerator))
    return math.gcd(na, nb) == 1


def verify_point_on_X(a: "Fraction | int", b: "Fraction | int", ctx: SIntegerContext) -> PointMembership:
    """Is (a, b) an S-point of the ambient model (a^2 b^3 = 1 + unit) or the quotient model?

    on_x needs a^2 b^3 - 1 to be an S-unit; on_y additionally needs
    (a, b) != (0, 0) and gcd(a, b) an S-unit.
    """
    a, b = Fraction(a), Fraction(b)
    for v in (a, b):
        if not is_s_integer(v, ctx):
            raise ValueError(f"{v} is not an S-integer for S = {sorted(ctx.primes)}")
    value = a * a * b * b * b - 1
    on_x = is_s_unit(value, ctx)
    on_y = on_x and _coprime_outside_s(a, b, ctx)
    return PointMembership(value=value, on_x=on_x, on_y=on_y)


# -- the sweeps ---------------------------------------------------------------


def _candidates(cfg: SearchConfig) -> list[Fraction]:
    b = cfg.exponent_bound
    exps = itertools.product(range(-b, b + 1), repeat=len(cfg.s_primes))
    xs = []
    for ev in exps:
        base = Fraction(1)
        for p, e in zip(cfg.s_primes, ev):
            base *= Fraction(p) ** e
        xs.append(base)
        if cfg.include_negative_units:
            xs.append(-base)
    return xs


def _record(x: Fraction, ctx: SIntegerContext, target: str, split, decompose) -> PointRecord:
    if x == 1:
        return PointRecord(x=x, shifted=None, verdict="accept", target=target,
                           lift=(Fraction(0), Fraction(1)), flags=("in_support",))
    fz = factor(x - 1)
    for p, e in fz.factors:
        # rejects dominate a sweep, so they stay cheap: no second factor, no raise
        if p not in ctx.primes and split(e) is None:
            return PointRecord(x=x, shifted=fz, verdict="reject", target=target, witness_prime=p)
    a, b = decompose(1 - x, ctx)
    _assert_lift(x, a, b, ctx, want_coprime=target == "Y")
    return PointRecord(x=x, shifted=fz, verdict="accept", target=target, lift=(a, b))


def _assert_lift(x: Fraction, a: Fraction, b: Fraction, ctx: SIntegerContext, want_coprime: bool) -> None:
    # an accepted candidate that fails to lift exposes a bug, so fail loudly
    if a * a * b * b * b != 1 - x:
        raise AssertionError(f"lift identity broken at x = {x}: ({a})^2 ({b})^3 != 1 - x")
    membership = verify_point_on_X(a, b, ctx)
    if not membership.on_x:
        raise AssertionError(f"lifted point of x = {x} left the ambient model")
    if want_coprime and not membership.on_y:
        raise AssertionError(f"coprime lift of x = {x} is not a quotient-model point")


def _run_search(cfg: SearchConfig, target: str, split, decompose) -> list[PointRecord]:
    ctx = cfg.context()
    return sorted((_record(x, ctx, target, split, decompose) for x in _candidates(cfg)
                   if cfg.include_support_points or x != 1), key=PointRecord.sort_key)


def search_shifted_units_2full(cfg: SearchConfig) -> list[PointRecord]:
    """Sweep S-units x, accepting those with x - 1 2-full away from S."""
    return _run_search(cfg, "X", split_2full, decompose_square_cube)


def search_shifted_units_2or3(cfg: SearchConfig) -> list[PointRecord]:
    """Sweep S-units x, accepting when each shift valuation outside S is in 2Z or 3Z."""
    return _run_search(cfg, "Y", split_coprime, decompose_coprime_square_cube)


# -- bounded-height points on the projective line ------------------------------


def parse_projective_point(text: str) -> tuple[int, int]:
    """Rational string or "inf" -> primitive pair (p, q), q >= 0, infinity = (1, 0)."""
    s = text.strip()
    if s == "inf":
        return (1, 0)
    x = parse_rational(s)
    return (x.numerator, x.denominator)


def format_projective_point(pt: tuple[int, int]) -> str:
    p, q = pt
    if q == 0:
        return "inf"
    return format_rational(Fraction(p, q))


def _canonical_pair(p: int, q: int) -> tuple[int, int]:
    g = math.gcd(p, q)
    if g:
        p, q = p // g, q // g
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return p, q


@dataclass(frozen=True)
class P1PointRecord:
    p: int
    q: int
    verdict: PointVerdict

    @property
    def height(self) -> int:
        return max(abs(self.p), self.q)

    @property
    def flags(self) -> tuple[str, ...]:
        return self.verdict.flags

    def to_json_obj(self) -> dict:
        return {
            "point": format_projective_point((self.p, self.q)),
            "height": self.height,
            "verdict": "accept" if self.verdict.accepted else "reject",
            "flags": list(self.flags),
        }


def point_valuation_vector(
    p: int, q: int, divisors: Sequence[tuple[tuple[int, int], object]], ctx: SIntegerContext
) -> dict[str, DivisorValuations]:
    """Local multiplicities of the primitive point (p : q) along each divisor.

    At a prime l outside S the multiplicity against the divisor point (a : b)
    is v_l(p*b - q*a); the point is contained in the divisor when that
    resultant vanishes.
    """
    vec: dict[str, DivisorValuations] = {}
    for (a, b), _cond in divisors:
        t = p * b - q * a
        label = format_projective_point((a, b))
        if t == 0:
            vec[label] = DivisorValuations(contained=True)
        else:
            mults = {pp: e for pp, e in factor(t).factors if pp not in ctx.primes and e >= 1}
            vec[label] = DivisorValuations(mults=mults)
    return vec


def enumerate_campana_points_p1(
    divisors: Sequence[tuple[tuple[int, int], object]],
    s_primes: Iterable[int],
    height: int,
    include_support_points: bool = True,
) -> list[P1PointRecord]:
    """Accepted points of the line pair up to height, sorted by (height, q, p).

    Divisor points must be primitive pairs in canonical form and pairwise
    distinct (a repeated divisor point is rejected as malformed input).
    Points run over primitive pairs (p : q) with max(|p|, q) <= height,
    q >= 0, and p = 1 when q = 0.
    """
    if height < 1:
        raise ValueError("height bound must be >= 1")
    seen = set()
    for (a, b), _ in divisors:
        if _canonical_pair(a, b) != (a, b):
            raise ValueError(f"divisor point ({a}, {b}) is not in canonical primitive form")
        if (a, b) in seen:
            raise ValueError(f"repeated divisor point {format_projective_point((a, b))}")
        seen.add((a, b))

    ctx = SIntegerContext(s_primes)
    spec = CPairSpec([(format_projective_point(pt), cond) for pt, cond in divisors])

    out = []
    for q in range(0, height + 1):
        ps = [1] if q == 0 else [p for p in range(-height, height + 1) if math.gcd(p, q) == 1]
        for p in ps:
            vec = point_valuation_vector(p, q, divisors, ctx)
            verdict = check_generalized_point_dedekind(spec, vec)
            if not verdict.accepted:
                continue
            if not include_support_points and "in_support" in verdict.flags:
                continue
            out.append(P1PointRecord(p=p, q=q, verdict=verdict))
    return sorted(out, key=lambda r: (r.height, r.q, r.p))
