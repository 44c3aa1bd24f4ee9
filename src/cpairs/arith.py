"""Exact arithmetic over S-integers: factorization, valuations, m-full numbers.

Everything here is exact: rationals are `fractions.Fraction`, valuations are
Python ints (or the `INFINITY` sentinel for v_p(0)), and no floats appear
anywhere.  The factorization backend is trial division by small primes,
deterministic Miller-Rabin, and Brent's cycle variant of Pollard rho, which is
plenty for the desk-scale searches this package runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping


class ZeroFactorizationError(ValueError):
    """Raised when a factorization of 0 is requested."""


class NotAnSIntegerError(ValueError):
    """Raised when an argument must be an S-integer but is not.

    Carries the smallest prime outside S that divides the denominator.
    """

    def __init__(self, value: Fraction, prime: int):
        self.value = value
        self.prime = prime
        super().__init__(f"{value} is not an S-integer: prime {prime} divides the denominator")


class DecompositionError(ValueError):
    """Raised when a square-cube decomposition does not exist.

    `prime` is the smallest offending prime (valuation outside the allowed set).
    """

    def __init__(self, value: Fraction, prime: int, reason: str):
        self.value = value
        self.prime = prime
        super().__init__(f"cannot decompose {value}: {reason} at prime {prime}")


class _Infinity:
    """Order-only sentinel for the valuation of 0.

    Compares above every integer, equals only itself, and deliberately
    supports no arithmetic so that `INFINITY + 1` is a loud TypeError rather
    than a silently wrong big integer.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("cpairs-infinity")

    def __lt__(self, other: object) -> bool:
        self._check(other)
        return False

    def __le__(self, other: object) -> bool:
        self._check(other)
        return other is self

    def __gt__(self, other: object) -> bool:
        self._check(other)
        return other is not self

    def __ge__(self, other: object) -> bool:
        self._check(other)
        return True

    @staticmethod
    def _check(other: object) -> None:
        if not isinstance(other, (int, _Infinity)):
            raise TypeError(f"cannot compare infinity with {other!r}")


INFINITY = _Infinity()


def _sieve(limit: int) -> list[int]:
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


_TRIAL_PRIMES = _sieve(10_000)

# Deterministic Miller-Rabin witness set; proven sufficient for n < 3.317e24
# (Sorenson-Webster), far past anything this package factors.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24; strong-probable beyond."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """Return a nontrivial factor of composite n (deterministic parameter walk)."""
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        y, m, g, r, q = 2, 128, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1  # rare: cycle collapsed, rerun with the next polynomial


@lru_cache(maxsize=1 << 17)
def _factor_positive(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as a sorted tuple of (prime, exponent)."""
    if n < 1:
        raise ValueError(f"_factor_positive expects n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_probable_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            d = _brent_rho(m)
            stack.append(d)
            stack.append(m // d)
    return tuple(sorted(out.items()))


@dataclass(frozen=True)
class PrimeFactorization:
    """Signed factorization of a nonzero rational: sign * prod p^e, e != 0."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError("factor primes must be strictly ascending")
            if e == 0:
                raise ValueError(f"zero exponent stored for prime {p}")
            last = p

    def value(self) -> Fraction:
        v = Fraction(self.sign)
        for p, e in self.factors:
            v *= Fraction(p) ** e
        return v

    def exponent(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    def to_json_obj(self) -> dict:
        return {"sign": self.sign, "factors": [[p, e] for p, e in self.factors]}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "PrimeFactorization":
        return cls(sign=obj["sign"], factors=tuple((int(p), int(e)) for p, e in obj["factors"]))


def factor(x: "Fraction | int") -> PrimeFactorization:
    """Factor a nonzero rational; raises ZeroFactorizationError on 0."""
    x = Fraction(x)
    if x == 0:
        raise ZeroFactorizationError("0 has no prime factorization")
    sign = 1 if x > 0 else -1
    num = _factor_positive(abs(x.numerator))
    den = _factor_positive(x.denominator)
    merged = dict(num)
    for p, e in den:
        merged[p] = merged.get(p, 0) - e  # Fraction is reduced, so no cancellation
    return PrimeFactorization(sign=sign, factors=tuple(sorted(merged.items())))


def valuation(x: "Fraction | int", p: int) -> "int | _Infinity":
    """p-adic valuation v_p(x); v_p(0) is the INFINITY sentinel, never an int."""
    if not is_probable_prime(p):
        raise ValueError(f"valuation needs a prime, got {p}")
    x = Fraction(x)
    if x == 0:
        return INFINITY
    v = 0
    n = abs(x.numerator)
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


@dataclass(frozen=True)
class SIntegerContext:
    """A finite set S of excluded primes; S = empty set means plain integers."""

    primes: frozenset[int]

    def __init__(self, primes: Iterable[int] = ()):
        ps = frozenset(int(p) for p in primes)
        for p in ps:
            if not is_probable_prime(p):
                raise ValueError(f"S must consist of primes, got {p}")
        object.__setattr__(self, "primes", ps)

    def strip(self, n: int) -> int:
        """Divide all S-primes out of n > 0."""
        for p in self.primes:
            while n % p == 0:
                n //= p
        return n

    def sorted_primes(self) -> tuple[int, ...]:
        return tuple(sorted(self.primes))


def is_s_integer(x: "Fraction | int", ctx: SIntegerContext) -> bool:
    return ctx.strip(Fraction(x).denominator) == 1


def _s_integer_witness(x: Fraction, ctx: SIntegerContext) -> "int | None":
    """Smallest prime outside S dividing the denominator, or None."""
    d = ctx.strip(x.denominator)
    if d == 1:
        return None
    return _factor_positive(d)[0][0]


def is_s_unit(x: "Fraction | int", ctx: SIntegerContext) -> bool:
    """True iff x is a unit of the S-integers: x != 0 and supp(x) is inside S."""
    x = Fraction(x)
    if x == 0:
        return False
    return ctx.strip(abs(x.numerator)) == 1 and ctx.strip(x.denominator) == 1


def m_full_witness(x: "Fraction | int", m: int, ctx: SIntegerContext) -> "int | None":
    """Smallest prime p outside S with v_p(x) not in {0} union [m, inf), else None.

    x must be an S-integer (NotAnSIntegerError otherwise); x = 0 has every
    valuation infinite and therefore no witness.
    """
    if m < 1:
        raise ValueError(f"fullness degree must be >= 1, got {m}")
    x = Fraction(x)
    w = _s_integer_witness(x, ctx)
    if w is not None:
        raise NotAnSIntegerError(x, w)
    if x == 0:
        return None
    n = ctx.strip(abs(x.numerator))
    for p, e in _factor_positive(n):
        if 0 < e < m:
            return p
    return None


def is_m_full(x: "Fraction | int", m: int, ctx: SIntegerContext) -> bool:
    """m-full away from S: every prime outside S divides x to order 0 or >= m."""
    return m_full_witness(x, m, ctx) is None


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 0 or k < 1:
        raise ValueError("bad _iroot arguments")
    if n in (0, 1):
        return n
    if k == 2:
        return math.isqrt(n)
    # integer Newton from above: starts at a power of two >= the root and
    # decreases strictly until it reaches the floor
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def enumerate_m_full(bound: int, m: int) -> list[int]:
    """All m-full positive integers <= bound, ascending.

    Product sieve: walks canonical factorizations whose exponents are all
    >= m (each value is produced exactly once), instead of factoring every
    integer up to the bound.
    """
    if m < 1:
        raise ValueError(f"fullness degree must be >= 1, got {m}")
    if bound < 1:
        return []
    if m == 1:
        return list(range(1, bound + 1))
    primes = _sieve(_iroot(bound, m))
    out: list[int] = []

    def walk(start: int, acc: int) -> None:
        out.append(acc)
        for i in range(start, len(primes)):
            nxt = acc * primes[i] ** m
            if nxt > bound:
                break
            while nxt <= bound:
                walk(i + 1, nxt)
                nxt *= primes[i]

    walk(0, 1)
    return sorted(out)


def m_full_count_bound(bound: int, m: int) -> int:
    """An upper bound on the count of m-full integers in [1, bound], for bound >= 1.

    Each one is a^m * prod_{0<j<m} b_j^(m+j) for some integers a, b_j >= 1, so
    there are at most bound^(1/m) * prod_j zeta(1 + j/m) of them, and
    zeta(s) < s/(s-1) turns the product into C(2m-1, m).
    """
    r = _iroot(bound, m)
    return math.comb(2 * m - 1, m) * (r + (r**m < bound))


def _split_minimal(e: int) -> tuple[int, int]:
    """e = 2*alpha + 3*beta with the minimal beta = e mod 2."""
    return (e - 3 * (e % 2)) // 2, e % 2


def split_2full(e: int) -> "tuple[int, int] | None":
    """The minimal-beta split of e; None when e < 2 (so that alpha < 0)."""
    return None if e < 2 else _split_minimal(e)


def split_coprime(e: int) -> "tuple[int, int] | None":
    """All of e to the square when even (ties in 6Z included), else all to the cube.

    None when e is in neither 2Z nor 3Z.
    """
    if e % 2 == 0:
        return e // 2, 0
    if e % 3 == 0:
        return 0, e // 3
    return None


def _decompose(x: "Fraction | int", ctx: SIntegerContext, split, reason: str) -> tuple[Fraction, Fraction]:
    """Write the S-integer x as a^2 * b^3, splitting each exponent by its prime.

    At S-primes the split is free, so e takes the minimal beta = e mod 2 (e may
    be negative there); elsewhere `split` decides, and the smallest prime it
    rejects raises DecompositionError.  The sign rides on b; decompose(0) = (0, 1).
    """
    x = Fraction(x)
    if x == 0:
        return Fraction(0), Fraction(1)
    wit = _s_integer_witness(x, ctx)
    if wit is not None:
        raise NotAnSIntegerError(x, wit)
    fz = factor(x)
    a, b = Fraction(1), Fraction(fz.sign)
    for p, e in fz.factors:
        ab = _split_minimal(e) if p in ctx.primes else split(e)
        if ab is None:
            raise DecompositionError(x, p, reason)
        a *= Fraction(p) ** ab[0]
        b *= Fraction(p) ** ab[1]
    return a, b


def decompose_square_cube(
    x: "Fraction | int", ctx: SIntegerContext
) -> tuple[Fraction, Fraction]:
    """Write a 2-full S-integer x as a^2 * b^3 with S-integers a, b (rule `split_2full`)."""
    return _decompose(x, ctx, split_2full, "not 2-full away from S")


def decompose_coprime_square_cube(
    x: "Fraction | int", ctx: SIntegerContext
) -> tuple[Fraction, Fraction]:
    """Write x = a^2 * b^3 with gcd(a, b) an S-unit (rule `split_coprime` outside S)."""
    return _decompose(x, ctx, split_coprime, "exponent not in 2Z union 3Z")


def format_rational(x: "Fraction | int") -> str:
    """Lowest-terms decimal string "p/q" (just "p" when q = 1)."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """Inverse of format_rational; rejects floats and empty denominators."""
    s = text.strip()
    num, slash, den = s.partition("/")
    try:
        n = int(num)
        d = int(den) if slash else 1
    except ValueError:
        raise ValueError(f"not a rational literal: {text!r}") from None
    if d <= 0:
        raise ValueError(f"denominator must be positive: {text!r}")
    return Fraction(n, d)
