"""Exact arithmetic over S-integers: factorization, valuations, m-full numbers.

Everything here is exact: rationals are `fractions.Fraction`, valuations are
Python ints (or the `INFINITY` sentinel for v_p(0)), and no floats appear
anywhere.  The factorization backend is plenty for the desk-scale searches
this package runs:

* trial division by the primes below 10^4, batched by gcd: one gcd against
  the product of all of them, then one per block of 64, and division only
  inside the blocks that share a factor with n (only by that prime when the
  block shares just one); `factor_many` takes the first gcd for a whole list
  at once, from a remainder tree;
* a cofactor below 10007^2 (10007 is the first prime past the trial primes)
  with no trial-prime factor is prime outright;
* `factor_many` runs a second stage of the same kind on the cofactors still
  >= 10007^2: one remainder tree against the product of the primes in
  (10^4, 10^5), built on first use, gives each cofactor's distinct primes in
  that range, and what is left below 100003^2 (100003 is the first prime past
  10^5) is prime outright as well;
* Miller-Rabin above that, on the shortest prefix of the prime bases
  2, 3, ..., 41 proven for n, and Brent's cycle variant of Pollard rho to
  split what it finds composite.

The first k prime bases decide every n below psi_k, the least strong
pseudoprime to all of them (OEIS A014233; Jaeschke, "On strong pseudoprimes
to several bases", Math. Comp. 1993; Sorenson and Webster, "Strong
pseudoprimes to twelve prime bases", Math. Comp. 2017).  The tiers:

    n < psi_4  = 3,215,031,751                        4 bases (2..7)
    n < psi_5  = 2,152,302,898,747                    5 bases (2..11)
    n < psi_6  = 3,474,749,660,383                    6 bases (2..13)
    n < psi_7  = 341,550,071,728,321 (= psi_8)        7 bases (2..17)
    n < psi_9  = 3,825,123,056,546,413,051 (= psi_11) 9 bases (2..23)
    n < psi_12 = 318,665,857,834,031,151,167,461      12 bases (2..37)
    n < psi_13 = 3,317,044,064,679,887,385,961,981    13 bases (2..41)

From psi_13 on, n must also pass a strong Lucas test with Selfridge's
parameters, which makes a Baillie-PSW test (base 2 among the 13): no
composite is known to pass it, and psi_13 itself, which passes all 13 bases,
fails it.

`factor` takes ints without going through `Fraction`.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from fractions import Fraction
from functools import cache, lru_cache
from typing import Iterable, Iterator, Mapping

from ._value import Value, exact_int


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


_TRIAL_LIMIT = 10_000
_TRIAL_PRIMES = _sieve(_TRIAL_LIMIT)
_TRIAL_PRIME_SET = frozenset(_TRIAL_PRIMES)
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)
_TRIAL_BLOCKS = tuple((tuple(block), math.prod(block))
                      for block in (_TRIAL_PRIMES[i : i + 64] for i in range(0, len(_TRIAL_PRIMES), 64)))
# An integer below the square of the first prime past the trial primes with no
# trial-prime factor is prime; that first prime is the first such integer.
_PRIME_BELOW = next(n for n in itertools.count(_TRIAL_LIMIT) if math.gcd(n, _TRIAL_PRODUCT) == 1) ** 2
# The same for the second trial stage of `factor_many`, the primes in (10^4, 10^5): below 10007^2 an
# integer with no trial-prime factor is prime, so this is the square of the first prime past 10^5.
_STAGE2_LIMIT = 100_000
_STAGE2_PRIME_BELOW = next(n for n in itertools.count(_STAGE2_LIMIT) if math.gcd(n, _TRIAL_PRODUCT) == 1) ** 2

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (psi_k, the first k bases): those bases are proven below psi_k (module docstring)
_MR_TIERS = tuple((psi, _MR_BASES[:k]) for psi, k in (
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
))


def is_probable_prime(n: int) -> bool:
    """Exact below 10007^2 by the trial primes; above that, Miller-Rabin on the
    first k prime bases, k the least with n < psi_k (4 bases below psi_4 =
    3,215,031,751, then 5, 6, 7, 9, 12 and 13), which is deterministic below
    psi_13 ~ 3.3e24 (OEIS A014233, Sorenson-Webster 2017); beyond, one gcd
    refuses any n a trial prime divides, then the 13 bases 2..41 and a strong
    Lucas test, with no known counterexample."""
    if n <= _TRIAL_PRIMES[-1]:
        return n in _TRIAL_PRIME_SET
    if n < _PRIME_BELOW:
        return math.gcd(n, _TRIAL_PRODUCT) == 1
    if n >= _MR_TIERS[-1][0] and math.gcd(n, _TRIAL_PRODUCT) != 1:
        return False  # one round on a 4,000-digit n takes seconds; below psi_13 the rounds are exact and cheap
    for psi, bases in _MR_TIERS:
        if n < psi:
            break  # past the last tier, `bases` keeps all 13
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in bases:  # a base dividing n leaves x = 0, which rejects
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_TIERS[-1][0] or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test on odd n > 5 with Selfridge's parameters:
    D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4
    (Baillie and Wagstaff, "Lucas pseudoprimes", Math. Comp. 1980)."""
    if math.isqrt(n) ** 2 == n:  # no D would have (D/n) = -1
        return False
    d = 5
    while (j := _jacobi(d, n)) == 1:
        d = -d - 2 if d > 0 else 2 - d
    if j == 0:
        return n == abs(d)
    q = (1 - d) // 4
    k = n + 1
    s = (k & -k).bit_length() - 1
    k >>= s
    u, v, qk = 0, 2, 1  # U_0, V_0, Q^0; P = 1, and halving mod odd n adds n to odd values
    for bit in bin(k)[2:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (d * u + v) % n
            u, v = (u + n * (u & 1)) // 2, (v + n * (v & 1)) // 2
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


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
    out, n = _trial(n, math.gcd(n, _TRIAL_PRODUCT))
    if n > 1:
        _split(n, out, _PRIME_BELOW)
    return tuple(sorted(out.items()))


def _trial(n: int, g: int) -> tuple[dict[int, int], int]:
    """({trial prime: exponent}, cofactor) of n, given g = gcd(n, _TRIAL_PRODUCT),
    the product of n's distinct trial primes."""
    out: dict[int, int] = {}
    for block, product in _TRIAL_BLOCKS:
        if g == 1:
            break
        h = math.gcd(g, product)
        if h == 1:
            continue
        g //= h
        for p in (h,) if h in _TRIAL_PRIME_SET else block:
            if h % p == 0:
                n = _divide_out(n, p, out)
    return out, n


def _divide_out(n: int, p: int, out: dict[int, int]) -> int:
    """n with every factor of the prime p divided out; p | n, and out[p] gets its exponent."""
    n //= p
    e = 1
    while n % p == 0:
        n //= p
        e += 1
    out[p] = e
    return n


def _split(n: int, out: dict[int, int], prime_below: int) -> None:
    """Add the prime factorization of n > 1 to out.  prime_below is a prime's
    square and n has no prime factor below that prime, so a factor of n below
    prime_below is prime."""
    stack = [n]
    while stack:
        m = stack.pop()
        if m < prime_below or is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        # an exact power r^k splits by its k-th root, where rho would take about sqrt(r) steps;
        # every prime factor left exceeds 10^4 > 2^13, so m = r^k needs 13 * k < m.bit_length()
        for k in itertools.takewhile(lambda k: 13 * k < m.bit_length(), _TRIAL_PRIMES):
            r = _iroot(m, k)
            if r**k == m:
                stack += [r] * k
                break
        else:
            d = _brent_rho(m)
            stack += (d, m // d)


def _product_tree(xs: list[int]) -> list[list[int]]:
    """[xs, the products of its pairs, ..., [prod(xs)]] for nonempty xs."""
    tree = [xs]
    while len(tree[-1]) > 1:
        level = tree[-1]
        tree.append([math.prod(level[j : j + 2]) for j in range(0, len(level), 2)])
    return tree


def _residues(ns: list[int], product: int) -> Iterator[int]:
    """product % n for each n in ns, reduced down a product tree of each chunk of 128 values."""
    for i in range(0, len(ns), 128):
        tree = _product_tree(ns[i : i + 128])
        residues = [product]
        for level in reversed(tree):
            residues = [residues[j // 2] % x for j, x in enumerate(level)]
        yield from residues


@cache
def _stage2_product() -> int:
    """The product of the primes in (10^4, 10^5), built on the first `factor_many` that needs it."""
    return _product_tree([p for p in _sieve(_STAGE2_LIMIT) if p > _TRIAL_LIMIT])[-1][0]


def factor_many(ns: Iterable[int]) -> dict[int, tuple[tuple[int, int], ...]]:
    """{n: `_factor_positive(n)`} for distinct n >= 1, with the trial gcds taken in batches.

    Each chunk of 128 values is multiplied up a product tree, and
    _TRIAL_PRODUCT is reduced down it to its residue r mod each n, so that
    gcd(r, n) = gcd(_TRIAL_PRODUCT, n) comes from numbers the size of n
    (Bernstein, "How to find smooth parts of integers", 2004).  The cofactors
    still >= 10007^2 then go down trees of their own against the product of
    the primes in (10^4, 10^5), built on first use: the gcd of a residue with
    its cofactor is the product of the cofactor's distinct primes in that
    range, which `_split` takes apart at once, and once they are divided out
    a cofactor below 100003^2 is prime.  Each n's tuple enters the returned
    dict as soon as n is done, after whichever stage finishes it.  The LRU
    cache of `_factor_positive` is neither read nor filled.
    """
    ns = list(ns)
    if ns and min(ns) < 1:
        raise ValueError(f"factor_many expects n >= 1, got {min(ns)}")
    found = {}
    big = []  # (n, factors so far, cofactor >= _PRIME_BELOW)
    for n, r in zip(ns, _residues(ns, _TRIAL_PRODUCT)):
        out, m = _trial(n, math.gcd(r, n))
        if m >= _PRIME_BELOW:
            big.append((n, out, m))
            continue
        if m > 1:
            out[m] = 1
        found[n] = tuple(sorted(out.items()))
    if big:
        for (n, out, m), r in zip(big, _residues([m for *_, m in big], _stage2_product())):
            h = math.gcd(r, m)
            if h > 1:
                primes: dict[int, int] = {}
                _split(h, primes, _PRIME_BELOW)
                for p in primes:
                    m = _divide_out(m, p, out)
            if m > 1:
                _split(m, out, _STAGE2_PRIME_BELOW)
            found[n] = tuple(sorted(out.items()))
    return found


class PrimeFactorization(Value):
    """Signed factorization of a nonzero rational: sign * prod p^e, e != 0."""

    __slots__ = _fields = ("sign", "factors")
    sign: int
    factors: tuple[tuple[int, int], ...]

    def __init__(self, sign: int, factors: tuple[tuple[int, int], ...]):
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        last = 1
        for p, e in factors:
            if p <= last:
                raise ValueError("factor primes must be strictly ascending")
            if e == 0:
                raise ValueError(f"zero exponent stored for prime {p}")
            last = p
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "factors", factors)

    def value(self) -> Fraction:
        v = Fraction(self.sign)
        for p, e in self.factors:
            v *= Fraction(p) ** e
        return v

    def to_json_obj(self) -> dict:
        return {"sign": self.sign, "factors": [[p, e] for p, e in self.factors]}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "PrimeFactorization":
        factors = tuple((exact_int(p, "a prime"), exact_int(e, "an exponent")) for p, e in obj["factors"])
        return cls(sign=obj["sign"], factors=factors)


def factor(x: "Fraction | int") -> PrimeFactorization:
    """Factor a nonzero rational; raises ZeroFactorizationError on 0."""
    if type(x) is int:
        if x == 0:
            raise ZeroFactorizationError("0 has no prime factorization")
        return PrimeFactorization(sign=1 if x > 0 else -1, factors=_factor_positive(abs(x)))
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


class SIntegerContext(Value):
    """A finite set S of excluded primes; S = empty set means plain integers."""

    __slots__ = _fields = ("primes",)
    primes: frozenset[int]

    def __init__(self, primes: Iterable[int] = ()):
        ps = frozenset(exact_int(p, "a prime of S") for p in primes)
        for p in ps:
            if not is_probable_prime(p):
                raise ValueError(f"S must consist of primes, got {p}")
        object.__setattr__(self, "primes", ps)

    def strip(self, n: int) -> int:
        """Divide all S-primes out of n > 0."""
        if n < 1:
            raise ValueError(f"strip expects n >= 1, got {n}")
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
    if n.bit_length() <= k:  # n < 2^k, so the root is 0 or 1; no 2^(k-1) from Newton
        return min(n, 1)
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

    Each is a^m * r in exactly one way, with r a product of distinct primes to
    exponents m+1..2m-1 (r = b^3, b squarefree, for m = 2): a prime's exponent
    in r is the one of 0, m+1..2m-1 congruent to its exponent e in n mod m, so
    an e that m divides puts nothing in r, and any other e >= m puts
    m + (e mod m) in r and floor(e/m) - 1 in a.  The few r up to the bound are
    walked over the primes up to bound^(1/(m+1)); each takes every a^m <= bound/r.
    """
    if m < 1:
        raise ValueError(f"fullness degree must be >= 1, got {m}")
    if bound < 1:
        return []
    if m == 1:
        return list(range(1, bound + 1))
    primes = _sieve(_iroot(bound, m + 1))
    cores, stack = [], [(0, 1)]
    while stack:
        start, r = stack.pop()
        cores.append(r)
        for i in range(start, len(primes)):
            x = r * primes[i] ** (m + 1)
            if x > bound:
                break
            for _ in range(m - 1):  # exponents m+1..2m-1
                stack.append((i + 1, x))
                x *= primes[i]
                if x > bound:
                    break
    powers = [a**m for a in range(1, _iroot(bound, m) + 1)]
    out = [r * x for r in cores for x in powers[: bisect_right(powers, bound // r)]]
    out.sort()
    return out


def m_full_count_bound(bound: int, m: int) -> int:
    """An upper bound on the count of m-full integers in [1, bound], for bound >= 1.

    Each one is a^m * prod_{0<j<m} b_j^(m+j) for some integers a, b_j >= 1, so
    there are at most bound^(1/m) * prod_j zeta(1 + j/m) of them, and
    zeta(s) < s/(s-1) turns the product into C(2m-1, m).  Below 2^m only 1 is
    m-full, which keeps the bound exact (and cheap) for large m.
    """
    if bound.bit_length() <= m:
        return 1
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
    if not isinstance(x, Fraction):
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
