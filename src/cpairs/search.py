"""Shifted S-unit searches and bounded-height point enumeration on the line.

Both sweeps run one procedure over the S-units x (exponent vectors bounded
in sup-norm).  Candidates are integer triples x = sign * u / v in lowest
terms, generated lazily from the exponent vectors, so v's factorization is
known without factoring.  The shift is x - 1 = t / v with t = sign * u - v
already reduced, so only t is factored: `factor_many` takes the distinct
|t| in one batch before the first record (x and 1/x share their |t|).  The
verdict comes from a split rule applied to each exponent at a prime outside
S, and the witness of a rejection, the smallest prime whose exponent the
rule refuses, is found once per |t| as well.  An accepted x lifts u = 1 - x
to u = a^2 * b^3, the same rule splitting each exponent between the square
and the cube:

* `search_shifted_units_2full` uses `split_2full` (x - 1 is 2-full away from
  S) and lifts to a point of the ambient model X;
* `search_shifted_units_2or3` uses `split_coprime` (every valuation outside S
  lies in 2Z or 3Z) and lifts to a coprime point of the quotient model Y.

Records stay integers from the candidate to the output line: the one
generator `shifted_unit_sweep` yields each as a tuple in `PointRecord` field
order, x = num / den and the shift's (sign, factors), so a reject builds no
`Fraction` and no `PrimeFactorization` (a `PointRecord` builds them only when
`x` or `shifted` is read), and `json_lines`, the one encoder, formats the
canonical JSON lines from those integers.  Every accepted record is still
re-verified before it is yielded (its validated shift multiplies out to x - 1,
and the lift passes the product identity, the unit condition and coprimality
for Y); a failure there is a hard internal error, not a rejection.  Candidates
come in the order of the integer key (u, v, sign), which is (|numerator|,
denominator, sign) with sign ascending, so -x precedes x: u walks the sorted
units over S and v the sorted units coprime to u, so nothing is sorted, and
they are scanned serially.

Line points (p : q) of a pair on P^1 come from one of two candidate
generators, chosen by the pair itself.  A divisor (a : b) is sparse when it is
LOG or every multiplicity its condition accepts is >= 2 (`>=m`, `div m` with
m >= 2, unions whose blocks all start at 2 or more).  With two sparse divisors
the sieve lists the few resultant values t = p*b - q*a each of them accepts
(+-(S-smooth part) * (core coprime to S with its exponents in the union),
plus 0 unless LOG), takes the two lists with the smallest size bounds and
solves the 2x2 system for (p, q); otherwise the box runs over every primitive pair up to the
height.  Either way an integer verdict runs one check per divisor that can
reject, built before the scan: a sparse divisor whose list-size bound is at
most what the plan already lists (the sieve pair's two bounds together, or
the box count) looks its resultant up in the set of its accepted values,
and any other (a larger bound, or an empty union that is not LOG) factors
it and stops at the first prime outside S whose exponent the condition
refuses.  The sieve pair and a union holding 1 accept every candidate, so
they are not checked.  Only accepts build valuation vectors, and
`check_generalized_point_dedekind` re-verifies each one; a disagreement is
a hard internal error.  A vector's entries are taken from `factor`'s output
as it stands (`DivisorValuations._of_factors`), so the re-check judges every
multiplicity without validating again what `factor` guarantees, and
`P1PointRecord.json_line` formats an accept's JSON line from its integers.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from ._value import Value, exact_bool, exact_int
from .arith import (
    PrimeFactorization,
    SIntegerContext,
    decompose_coprime_square_cube,
    decompose_square_cube,
    enumerate_m_full,
    factor,
    factor_many,
    format_rational,
    is_probable_prime,
    is_s_integer,
    is_s_unit,
    m_full_count_bound,
    m_full_witness,  # noqa: F401 -- unused here, but perfbench/spans.py traces it by this name
    parse_rational,
    split_2full,
    split_coprime,
)
from .conditions import (
    CPairSpec,
    DivisorValuations,
    LogCondition,
    check_generalized_point_dedekind,
)


class SearchConfig(Value):
    __slots__ = _fields = ("s_primes", "exponent_bound", "include_negative_units",
                           "include_support_points")
    s_primes: tuple[int, ...]
    exponent_bound: int
    include_negative_units: bool
    include_support_points: bool

    def __init__(self, s_primes: Iterable[int] = (), exponent_bound: int = 0,
                 include_negative_units: bool = True, include_support_points: bool = True):
        ps = tuple(sorted({exact_int(p, "a prime of S") for p in s_primes}))
        for p in ps:
            if not is_probable_prime(p):
                raise ValueError(f"S must consist of primes, got {p}")
        if exact_int(exponent_bound, "the exponent bound") < 0:
            raise ValueError("exponent bound must be >= 0")
        object.__setattr__(self, "s_primes", ps)
        object.__setattr__(self, "exponent_bound", exponent_bound)
        for name, flag in (("include_negative_units", include_negative_units),
                           ("include_support_points", include_support_points)):
            object.__setattr__(self, name, exact_bool(flag, name))

    def context(self) -> SIntegerContext:
        return SIntegerContext(self.s_primes)


class PointRecord(NamedTuple):
    """One sweep candidate as integers: x = num / den, its shift, verdict and witnesses.

    `shift` is (sign, factors) of x - 1 in `PrimeFactorization` form, None
    exactly for x = 1 (the shift 0 has no factorization); `lift` is present
    on accepts, `witness_prime` on rejects.  The `Fraction` x and the
    validated `shifted` factorization are built only when read, so a reject
    costs one tuple; `json_line` formats the canonical JSON line straight
    from the integers.
    """

    num: int
    den: int
    shift: "tuple[int, tuple[tuple[int, int], ...]] | None"
    verdict: str  # "accept" | "reject"
    target: str  # "X" | "Y"
    witness_prime: "int | None" = None
    lift: "tuple[Fraction, Fraction] | None" = None
    flags: tuple[str, ...] = ()

    @property
    def x(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def shifted(self) -> "PrimeFactorization | None":
        return None if self.shift is None else PrimeFactorization(*self.shift)

    def sort_key(self):
        return (abs(self.num), self.den, 1 if self.num > 0 else -1)

    def to_json_obj(self) -> dict:
        shifted = self.shifted
        obj: dict = {"x": format_rational(self.x)}
        obj["shift"] = None if shifted is None else shifted.to_json_obj()
        obj["verdict"] = self.verdict
        if self.witness_prime is not None:
            obj["witness"] = self.witness_prime
        if self.lift is not None:
            obj["lift"] = [format_rational(self.lift[0]), format_rational(self.lift[1])]
        obj["target"] = self.target
        obj["flags"] = list(self.flags)
        return obj

    def json_line(self) -> str:
        """`json.dumps(self.to_json_obj())`, by `json_lines`."""
        return next(json_lines((self,)))

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "PointRecord":
        x = parse_rational(obj["x"])
        shift = obj.get("shift")
        if shift is not None:
            shifted = PrimeFactorization.from_json_obj(shift)
            shift = (shifted.sign, shifted.factors)
        lift = obj.get("lift")
        return cls(
            num=x.numerator,
            den=x.denominator,
            shift=shift,
            verdict=obj["verdict"],
            target=obj["target"],
            witness_prime=obj.get("witness"),
            lift=None if lift is None else (parse_rational(lift[0]), parse_rational(lift[1])),
            flags=tuple(obj.get("flags", ())),
        )


def json_lines(records: Iterable[tuple]) -> Iterator[str]:
    """`json.dumps(PointRecord._make(r).to_json_obj())` of each record, formatted from its integers.

    Each (prime, exponent) entry's text is made once per call: x and 1/x
    share the factors of t, and the primes of S recur in every shift.  Every
    value is digits, "-", "/" or a fixed word, so nothing needs escaping.
    """
    entries: dict = {}
    for num, den, shift, verdict, target, witness, lift, flags in records:
        x = f"{num}/{den}" if den != 1 else num
        if shift is not None:
            factors = ", ".join([entries.get(pe) or entries.setdefault(pe, "[%d, %d]" % pe) for pe in shift[1]])
            shift = f'{{"sign": {shift[0]}, "factors": [{factors}]}}'
        extra = "" if witness is None else f', "witness": {witness}'
        if lift is not None:
            extra += f', "lift": ["{format_rational(lift[0])}", "{format_rational(lift[1])}"]'
        if flags:
            flags = ", ".join([f'"{f}"' for f in flags])
        yield (f'{{"x": "{x}", "shift": {shift or "null"}, "verdict": "{verdict}"{extra}, '
               f'"target": "{target}", "flags": [{flags or ""}]}}')


class PointMembership(NamedTuple):
    value: Fraction  # a^2 b^3 - 1
    on_x: bool
    on_y: bool


def _coprime_outside_s(a: Fraction, b: Fraction, ctx: SIntegerContext) -> bool:
    """gcd of the S-integers a and b away from S is trivial (the gcd is an S-unit)."""
    g = math.gcd(a.numerator, b.numerator)
    return g != 0 and ctx.strip(g) == 1


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


def _candidates(cfg: SearchConfig) -> Iterator[tuple[int, int, int, tuple[tuple[int, int], ...]]]:
    """Lazily yield (sign, u, v, den): x = sign * u / v in lowest terms, in (u, v, sign) order.

    den holds v's primes with their (negative) exponents in x and in x - 1.
    The units u = prod p^e, e in 0..b, are listed once for each set of
    primes that may divide them, (b + 2)^|S| entries in all, each list
    sorted; u walks the list for all of S, and v the list for the primes
    outside u's support, so the candidates are never held or sorted here.
    """
    b = cfg.exponent_bound
    signs = (-1, 1) if cfg.include_negative_units else (1,)
    # inside[mask]: (v, v's support mask, den) for every unit v whose primes lie in mask
    inside = [[(1, 0, ())]]
    for i, p in enumerate(cfg.s_primes):
        powers = [(p**e, 1 << i, ((p, -e),)) for e in range(1, b + 1)]
        inside += [vs + [(v * q, mask | bit, den + pe) for v, mask, den in vs for q, bit, pe in powers]
                   for vs in inside]
    for vs in inside:
        vs.sort()
    every = len(inside) - 1  # the mask of all of S
    for u, mask, _ in inside[every]:
        for v, _, den in inside[every ^ mask]:
            for sign in signs:
                yield sign, u, v, den


def _assert_lift(x: Fraction, a: Fraction, b: Fraction, ctx: SIntegerContext, want_coprime: bool) -> None:
    # an accepted candidate that fails to lift exposes a bug, so fail loudly
    if a * a * b * b * b != 1 - x:
        raise AssertionError(f"lift identity broken at x = {x}: ({a})^2 ({b})^3 != 1 - x")
    membership = verify_point_on_X(a, b, ctx)
    if not membership.on_x:
        raise AssertionError(f"lifted point of x = {x} left the ambient model")
    if want_coprime and not membership.on_y:
        raise AssertionError(f"coprime lift of x = {x} is not a quotient-model point")


def shifted_unit_sweep(cfg: SearchConfig, kind: str) -> Iterator[tuple]:
    """The records of the "2full" or "2or3" sweep as they are made, in output order.

    Each is a plain tuple in `PointRecord` field order (`PointRecord._make`
    gives the record); every accept is re-verified before it is yielded.
    """
    target, split, decompose = {"2full": ("X", split_2full, decompose_square_cube),
                                "2or3": ("Y", split_coprime, decompose_coprime_square_cube)}[kind]
    ctx = cfg.context()
    # x and 1/x share |t|: one factor_many batch, whose table takes one witness per |t| in place
    shifts = factor_many({t for sign, u, v, _ in _candidates(cfg) if (t := abs(sign * u - v))})
    for t, num in shifts.items():
        shifts[t] = num, next((p for p, e in num if p not in ctx.primes and split(e) is None), None)
    for sign, u, v, den in _candidates(cfg):
        t = sign * u - v
        if t == 0:  # x = 1
            if cfg.include_support_points:
                yield 1, 1, None, "accept", target, None, (Fraction(0), Fraction(1)), ("in_support",)
            continue
        num, witness = shifts[abs(t)]
        # gcd(t, v) = gcd(u, v) = 1, so v's primes are new to the shift
        shift = (1 if t > 0 else -1, tuple(sorted(num + den)) if den else num)
        if witness is not None:
            # rejects dominate a sweep, so they stay integers: no Fraction, no lift, no raise
            yield sign * u, v, shift, "reject", target, witness, None, ()
            continue
        x = Fraction(sign * u, v)
        if PrimeFactorization(*shift).value() != x - 1:
            raise AssertionError(f"shift factorization of x = {x} does not multiply out to x - 1")
        a, b = decompose(1 - x, ctx)
        _assert_lift(x, a, b, ctx, want_coprime=target == "Y")
        yield sign * u, v, shift, "accept", target, None, (a, b), ()


def search_shifted_units_2full(cfg: SearchConfig) -> list[PointRecord]:
    """Sweep S-units x, accepting those with x - 1 2-full away from S."""
    return list(map(PointRecord._make, shifted_unit_sweep(cfg, "2full")))


def search_shifted_units_2or3(cfg: SearchConfig) -> list[PointRecord]:
    """Sweep S-units x, accepting when each shift valuation outside S is in 2Z or 3Z."""
    return list(map(PointRecord._make, shifted_unit_sweep(cfg, "2or3")))


# -- bounded-height points on the projective line ------------------------------


def parse_projective_point(text: str) -> tuple[int, int]:
    """Rational string or "inf" -> primitive pair (p, q), q >= 0, infinity = (1, 0)."""
    s = text.strip()
    if s == "inf":
        return (1, 0)
    x = parse_rational(s)
    return (x.numerator, x.denominator)


def format_projective_point(pt: tuple[int, int]) -> str:
    """"inf" for q = 0, else the text of p / q in lowest terms (no `Fraction` for a canonical pair)."""
    p, q = pt
    if q == 0:
        return "inf"
    if type(p) is type(q) is int and q > 0 and math.gcd(p, q) == 1:
        return str(p) if q == 1 else f"{p}/{q}"
    return format_rational(Fraction(p, q))


class P1PointRecord(NamedTuple):
    """One accepted line point (p : q) and the flags of its verdict."""
    p: int
    q: int
    flags: tuple[str, ...]

    @property
    def height(self) -> int:
        return max(abs(self.p), self.q)

    def to_json_obj(self) -> dict:
        return {
            "point": format_projective_point((self.p, self.q)),
            "height": self.height,
            "verdict": "accept",
            "flags": list(self.flags),
        }

    def json_line(self) -> str:
        """`json.dumps(self.to_json_obj())`, formatted from the integers: the point is digits,
        "-", "/" or "inf" and each flag a fixed word, so nothing needs escaping."""
        flags = ", ".join([f'"{f}"' for f in self.flags])
        return (f'{{"point": "{format_projective_point((self.p, self.q))}", "height": {self.height}, '
                f'"verdict": "accept", "flags": [{flags}]}}')


def point_valuation_vector(
    p: int, q: int, divisors: Sequence[tuple[tuple[int, int], object]], ctx: SIntegerContext
) -> dict[str, DivisorValuations]:
    """Local multiplicities of the primitive point (p : q) along each divisor.

    At a prime l outside S the multiplicity against the divisor point (a : b)
    is v_l(p*b - q*a); the point is contained in the divisor when that
    resultant vanishes.  `factor` gives the primes ascending, so the
    multiplicities go to `DivisorValuations._of_factors` without revalidation.
    """
    vec: dict[str, DivisorValuations] = {}
    s = ctx.primes
    for (a, b), _cond in divisors:
        t = p * b - q * a
        label = format_projective_point((a, b))
        if t == 0:
            vec[label] = DivisorValuations(contained=True)
        else:
            vec[label] = DivisorValuations._of_factors(
                tuple([pe for pe in factor(t).factors if pe[0] not in s]))
    return vec


def _p1_setup(divisors, s_primes, height: int) -> tuple[SIntegerContext, CPairSpec]:
    """Validate a line pair and its height bound; return its context and spec."""
    if height < 1:
        raise ValueError("height bound must be >= 1")
    seen = set()
    for (a, b), _ in divisors:
        if math.gcd(a, b) != 1 or not (b > 0 or (a, b) == (1, 0)):
            raise ValueError(f"divisor point ({a}, {b}) is not in canonical primitive form")
        if (a, b) in seen:
            raise ValueError(f"repeated divisor point {format_projective_point((a, b))}")
        seen.add((a, b))
    labelled = tuple((format_projective_point(pt), cond) for pt, cond in divisors)
    return SIntegerContext(s_primes), CPairSpec(labelled)


def _values_bound(divisor, union, ctx: SIntegerContext, height: int) -> int:
    """At least the length of `_accepted_values` for this divisor, computed without building it."""
    (a, b), cond = divisor
    bound = height * (abs(a) + abs(b))
    smooth = 1  # exponent vectors with p^e <= bound for each p in S
    for p in ctx.primes:
        k, x = 1, p
        while x <= bound:
            k, x = k + 1, x * p
        smooth *= k
    if isinstance(cond, LogCondition):
        return 2 * smooth
    return 1 + 2 * smooth * m_full_count_bound(bound, union.min_element())


def _sparse_divisors(divisors, spec: CPairSpec, ctx: SIntegerContext, height: int) -> list[tuple[int, int]]:
    """(value-list bound, index) of every sparse divisor, smallest bound first.

    A divisor is sparse when it is LOG or its union's least element is >= 2.
    """
    sized = []
    for i, ((pt, cond), union) in enumerate(zip(divisors, spec.unions)):
        least = union.min_element()
        if isinstance(cond, LogCondition) or (least is not None and least >= 2):
            sized.append((_values_bound((pt, cond), union, ctx, height), i))
    return sorted(sized)


def _scan_count(sparse: list[tuple[int, int]], height: int) -> int:
    """The sieve's bound is the product of its two value-list bounds; the box
    examines 1 + (2 * height + 1) * height pairs."""
    return sparse[0][0] * sparse[1][0] if len(sparse) >= 2 else 1 + (2 * height + 1) * height


def p1_scan_count(divisors: Sequence[tuple[tuple[int, int], object]], s_primes: Iterable[int],
                  height: int) -> int:
    """A bound on the candidates `enumerate_campana_points_p1` examines, and on
    each accepted-value set its verdict builds, computed without building any."""
    ctx, spec = _p1_setup(divisors, s_primes, height)
    return _scan_count(_sparse_divisors(divisors, spec, ctx, height), height)


def _accepted_values(divisor, union, ctx: SIntegerContext, height: int) -> set[int]:
    """The resultant values t that a sparse divisor (a : b) accepts up to the height.

    |t| = |p * b - q * a| <= height * (|a| + |b|) =: bound, and t = +-s * c
    with s S-smooth and c coprime to S with every exponent in the union, so c
    is m-full for the union's least element m.  LOG takes c = 1 and excludes
    t = 0 (the point would lie on the divisor).
    """
    (a, b), cond = divisor
    bound = height * (abs(a) + abs(b))
    smooth = [1]
    for p in ctx.primes:
        grown = []
        for x in smooth:
            while x <= bound:
                grown.append(x)
                x *= p
        smooth = grown
    smooth.sort()  # ascending, so each core stops at its first s past the bound
    if isinstance(cond, LogCondition):
        cores, values = [1], set()
    else:
        cores = [c for c in enumerate_m_full(bound, union.min_element())
                 if all(p not in ctx.primes and union.contains(e) for p, e in factor(c).factors)]
        values = {0}
    for c in cores:
        for s in smooth:
            if s * c > bound:
                break
            values.update((s * c, -s * c))
    return values


def _t_range(c: int, lo: int, hi: int, limit: int) -> tuple[int, int]:
    """(first, last) of the integers t with lo <= c * t <= hi, where c = 0 and
    lo <= 0 <= hi give (-limit, limit), the range of every t looked up."""
    if c == 0:
        return (-limit, limit) if lo <= 0 <= hi else (1, 0)
    if c < 0:
        c, lo, hi = -c, -hi, -lo
    return -(-lo // c), hi // c


def _sieve_candidates(pt1, pt2, values1: list[int], values2: list[int],
                      height: int) -> Iterator[tuple[int, int]]:
    """Canonical primitive (p : q) up to the height whose resultants against
    pt1 and pt2 lie in values1 and values2 (ascending)."""
    (a1, b1), (a2, b2) = pt1, pt2
    det = a1 * b2 - a2 * b1  # nonzero: the divisor points are distinct and primitive
    q_lo, q_hi = sorted((0, height * det))
    p_hi = height * abs(det)
    t2_hi = height * (abs(a2) + abs(b2))  # |t2| = |p * b2 - q * a2| at any point up to the height
    for t1 in values1:
        # q * det = b1 * t2 - b2 * t1 with 0 <= q <= height; p * det = a1 * t2 - a2 * t1 with |p| <= height
        lo1, hi1 = _t_range(b1, b2 * t1 + q_lo, b2 * t1 + q_hi, t2_hi)
        lo2, hi2 = _t_range(a1, a2 * t1 - p_hi, a2 * t1 + p_hi, t2_hi)
        for t2 in values2[bisect_left(values2, max(lo1, lo2)):bisect_right(values2, min(hi1, hi2))]:
            p, rp = divmod(a1 * t2 - a2 * t1, det)
            if rp:  # p is not an integer, so q's division is not needed
                continue
            q, rq = divmod(b1 * t2 - b2 * t1, det)
            if rq == 0 and (q > 0 or p == 1) and math.gcd(p, q) == 1:
                yield p, q


def _box_candidates(height: int) -> Iterator[tuple[int, int]]:
    """Every canonical primitive (p : q) with max(|p|, q) <= height."""
    yield 1, 0
    for q in range(1, height + 1):
        for p in range(-height, height + 1):
            if math.gcd(p, q) == 1:
                yield p, q


def _p1_plan(divisors, spec: CPairSpec, ctx: SIntegerContext,
             height: int) -> tuple[Iterator[tuple[int, int]], list]:
    """The candidate generator and the reject checks `_integer_verdict` runs on it.

    With two or more sparse divisors the two with the smallest bounds feed the
    sieve, else every primitive pair in the box is a candidate.  A check is
    (a, b, log, values, union) for each divisor that can reject a candidate:
    values is the set of its accepted resultants when listing them costs no
    more than the plan already pays -- its list-size bound is at most the sum
    of the sieve pair's bounds, or at most the box count -- and None (factor
    the resultant) when it is larger or the divisor is not sparse.  Listing
    factors every m-full core up to the bound, which for a divisor far from
    the sieve pair costs more than factoring the few candidates the sieve
    yields.  The sieve pair accepts every candidate it yields, and a union
    holding 1 accepts every multiplicity; such a divisor only puts a point in
    the support, so it has no check.  Set lookups go first.
    """
    sparse = _sparse_divisors(divisors, spec, ctx, height)
    if len(sparse) >= 2:
        (_, i), (_, j) = sparse[:2]
        values1, values2 = (sorted(_accepted_values(divisors[k], spec.unions[k], ctx, height)) for k in (i, j))
        candidates = _sieve_candidates(divisors[i][0], divisors[j][0], values1, values2, height)
        skip, limit = {i, j}, sparse[0][0] + sparse[1][0]
    else:
        candidates, skip, limit = _box_candidates(height), set(), _scan_count(sparse, height)
    listed = {i for bound, i in sparse if bound <= limit}
    checks = []
    for k, (((a, b), cond), union) in enumerate(zip(divisors, spec.unions)):
        if k in skip or union.min_element() == 1:
            continue
        values = _accepted_values(divisors[k], union, ctx, height) if k in listed else None
        checks.append((a, b, isinstance(cond, LogCondition), values, union))
    checks.sort(key=lambda c: c[3] is None)
    return candidates, checks


def _integer_verdict(p: int, q: int, checks, s_primes: frozenset) -> bool:
    """Whether every check of `_p1_plan` accepts (p : q); the first rejection ends the scan.

    A zero resultant rejects on a LOG divisor.  A nonzero one is looked up in
    the divisor's accepted-value set when it has one; otherwise it is factored,
    and a prime outside S whose exponent the union refuses rejects (a LOG union
    contains no multiplicity).
    """
    for a, b, log, values, union in checks:
        t = p * b - q * a
        if t == 0:
            if log:
                return False
        elif values is not None:
            if t not in values:
                return False
        elif any(pr not in s_primes and not union.contains(e) for pr, e in factor(t).factors):
            return False
    return True


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
    ctx, spec = _p1_setup(divisors, s_primes, height)
    candidates, checks = _p1_plan(divisors, spec, ctx, height)
    out = []
    for p, q in candidates:
        if not _integer_verdict(p, q, checks, ctx.primes):
            continue
        in_support = any(p * b == q * a for (a, b), _ in divisors)
        if in_support and not include_support_points:
            continue
        verdict = check_generalized_point_dedekind(spec, point_valuation_vector(p, q, divisors, ctx))
        flags = verdict.flags
        if not verdict.accepted or ("in_support" in flags) != in_support:
            # an accept the condition check refuses exposes a bug, so fail loudly
            raise AssertionError(f"integer verdict and condition check disagree at ({p} : {q})")
        out.append(P1PointRecord(p, q, flags))
    out.sort(key=lambda r: (r.height, r.q, r.p))
    return out
