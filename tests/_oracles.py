"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the code paths under test: factorization
goes through sympy (or a smallest-prime-factor sieve), m-full numbers through
a walk over their factorizations, semigroup membership through breadth-first
closure, search verdicts and sweep candidates through a direct loop over
sign and exponent vectors, and kernel lattices through a general row Hermite
normal form of sequential-Euclid rows.
"""

from fractions import Fraction
import itertools
import math

import sympy


# -- m-full numbers by factorization filter and by walk ------------------------


def spf_sieve(limit: int) -> list[int]:
    """smallest prime factor for every n <= limit (spf[0] = spf[1] = 0)."""
    spf = list(range(limit + 1))
    for i in range(2, int(limit**0.5) + 1):
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
    spf[0] = 0
    if limit >= 1:
        spf[1] = 0
    return spf


def mfull_by_filter(bound: int, m: int) -> list[int]:
    """Factor every integer up to the bound and keep those with all exponents >= m."""
    spf = spf_sieve(bound)
    out = []
    for n in range(1, bound + 1):
        k, ok = n, True
        while k > 1:
            p = spf[k]
            e = 0
            while k % p == 0:
                k //= p
                e += 1
            if e < m:
                ok = False
                break
        if ok:
            out.append(n)
    return out


def mfull_by_walk(bound: int, m: int) -> list[int]:
    """Walk every factorization whose exponents are all >= m, one call per value.

    The reference for `enumerate_m_full`, which lists the same numbers as a^m * r.
    """
    if bound < 1:
        return []
    primes = list(sympy.primerange(2, sympy.integer_nthroot(bound, m)[0] + 1))
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


# -- rational valuations via sympy ----------------------------------------------


def sympy_valuations(x: Fraction) -> dict[int, int]:
    """All nonzero p-adic valuations of a nonzero rational."""
    vals: dict[int, int] = {}
    for p, e in sympy.factorint(abs(x.numerator)).items():
        vals[int(p)] = int(e)
    for p, e in sympy.factorint(x.denominator).items():
        vals[int(p)] = vals.get(int(p), 0) - int(e)
    return {p: e for p, e in vals.items() if e}


# -- semigroup membership by breadth-first closure -------------------------------


def naive_semigroup_elements(generators, bound: int) -> set[int]:
    """Additive closure of the generators inside [1, bound], by worklist."""
    gens = sorted(set(g for g in generators if g <= bound))
    seen: set[int] = set()
    work = list(gens)
    while work:
        n = work.pop()
        if n in seen or n > bound:
            continue
        seen.add(n)
        for g in gens:
            if n + g <= bound:
                work.append(n + g)
    return seen


def naive_atoms(generators) -> tuple[int, ...]:
    """Elements of the semigroup that are not sums of two elements."""
    if not generators:
        return ()
    bound = 2 * max(generators)
    els = naive_semigroup_elements(generators, bound)
    return tuple(sorted(e for e in els if not any(e - f in els for f in els if f < e)))


def naive_frobenius(generators) -> int:
    """Largest gap, scanning far enough past where gaps can occur."""
    assert math.gcd(*generators) == 1
    bound = max(generators) * min(generators) + 2 * max(generators)
    els = naive_semigroup_elements(generators, bound)
    gaps = [n for n in range(1, bound + 1) if n not in els]
    return max(gaps) if gaps else -1


# -- kernel lattices by a general row Hermite normal form ----------------------


def euclid_kernel_rows(a) -> list[list[int]]:
    """r - 1 rows spanning {v in Z^r : a.v = 0}, by sequential Euclid over a's prefixes.

    Row i - 1 pairs index i with the prefix: (a_i/g') c - (g/g') e_i, where c has
    a.c = g = gcd(a_1, ..., a_{i-1}) and g' = gcd(g, a_i).
    """
    r = len(a)
    g = a[0]
    c = [1] + [0] * (r - 1)
    rows = []
    for i in range(1, r):
        s, t, gi = (int(x) for x in sympy.gcdex(g, a[i]))
        row = [(a[i] // gi) * x for x in c]
        row[i] -= g // gi
        rows.append(row)
        c = [s * x for x in c]
        c[i] += t
        g = gi
    return rows


def row_hnf(rows) -> tuple[tuple[int, ...], ...]:
    """Row-style Hermite normal form: positive pivots, entries above reduced."""
    mat = [list(map(int, r)) for r in rows]
    if not mat:
        return ()
    nrows, ncols = len(mat), len(mat[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, nrows):
            while mat[i][c] != 0:
                q = mat[r][c] // mat[i][c]
                mat[r] = [x - q * y for x, y in zip(mat[r], mat[i])]
                mat[r], mat[i] = mat[i], mat[r]
        if mat[r][c] < 0:
            mat[r] = [-x for x in mat[r]]
        for i in range(r):
            q = mat[i][c] // mat[r][c]
            if q:
                mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
        r += 1
    return tuple(tuple(row) for row in mat[:r])


# -- shifted-unit search verdicts, the long way ----------------------------------


def coprime_outside_s_by_cases(a: Fraction, b: Fraction, s_primes) -> bool:
    """Is the gcd of the S-integers a and b an S-unit?  Split on which of them is 0."""

    def strip(n: int) -> int:  # n != 0
        for p in s_primes:
            while n % p == 0:
                n //= p
        return abs(n)

    def is_unit(x: Fraction) -> bool:
        return x != 0 and strip(x.numerator) == 1 and strip(x.denominator) == 1

    if a == 0 and b == 0:
        return False
    if a == 0:
        return is_unit(b)
    if b == 0:
        return is_unit(a)
    return math.gcd(strip(a.numerator), strip(b.numerator)) == 1



def _shift_ok_2full(vals: dict[int, int], s_primes) -> "int | None":
    """Witness prime outside S with valuation in (0, 2), else None."""
    bad = [p for p, e in vals.items() if p not in s_primes and 0 < e < 2]
    return min(bad) if bad else None


def _shift_ok_2or3(vals: dict[int, int], s_primes) -> "int | None":
    bad = [p for p, e in vals.items() if p not in s_primes and e % 2 != 0 and e % 3 != 0]
    return min(bad) if bad else None


def oracle_search(kind: str, s_primes, bound: int, include_negative=True, include_support=True):
    """{x: (verdict, witness)} for every S-unit in the sweep, via sympy only."""
    check = {"2full": _shift_ok_2full, "2or3": _shift_ok_2or3}[kind]
    out: dict[Fraction, tuple[str, "int | None"]] = {}
    primes = tuple(sorted(s_primes))
    for ev in itertools.product(range(-bound, bound + 1), repeat=len(primes)):
        base = Fraction(1)
        for p, e in zip(primes, ev):
            base *= Fraction(p) ** e
        for sign in (1, -1) if include_negative else (1,):
            x = sign * base
            if x == 1:
                if include_support:
                    out[x] = ("accept", None)
                continue
            w = check(sympy_valuations(x - 1), primes)
            out[x] = ("accept" if w is None else "reject", w)
    return out


def sorted_sweep_candidates(cfg) -> list:
    """The sweep's (sign, u, v, den) candidates the long way: every exponent vector
    in the box, x = sign * u / v, then sorted on (u, v, sign)."""
    b = cfg.exponent_bound
    signs = (-1, 1) if cfg.include_negative_units else (1,)
    cands = []
    for ev in itertools.product(range(-b, b + 1), repeat=len(cfg.s_primes)):
        u = v = 1
        den = []
        for p, e in zip(cfg.s_primes, ev):
            if e > 0:
                u *= p**e
            elif e < 0:
                v *= p**-e
                den.append((p, e))
        cands += [(sign, u, v, tuple(den)) for sign in signs]
    cands.sort(key=lambda c: (c[1], c[2], c[0]))
    return cands


# -- line points, the long way ----------------------------------------------------


def oracle_p1_accepts(divisors, s_primes, height: int, include_support=True) -> set[tuple[int, int]]:
    """Accepted primitive pairs for AtLeast conditions, computed arithmetically.

    divisors: sequence of ((a, b) primitive pair, m or None) where None means
    the divisor must be avoided (log condition) and m >= 1 demands valuation
    at least m at every prime outside S.
    """
    import math

    s = set(s_primes)
    accepted = set()
    for q in range(0, height + 1):
        ps = [1] if q == 0 else [p for p in range(-height, height + 1) if math.gcd(p, q) == 1]
        for p in ps:
            ok, in_support = True, False
            for (a, b), m in divisors:
                t = p * b - q * a
                if t == 0:
                    in_support = True
                    if m is None:
                        ok = False
                    continue
                vals = {pp: e for pp, e in sympy.factorint(abs(t)).items() if pp not in s}
                if m is None:
                    if vals:
                        ok = False
                elif any(e < m for e in vals.values()):
                    ok = False
            if ok and (include_support or not in_support):
                accepted.add((p, q))
    return accepted


def box_p1_records(divisors, s_primes, height: int, include_support_points=True):
    """`enumerate_campana_points_p1` the long way: every primitive pair in the box.

    This is the enumerator's former loop, kept as the reference for its
    candidate generators: each pair's valuation vector is built with
    `point_valuation_vector` and judged by `check_generalized_point_dedekind`.
    """
    import math

    from cpairs.arith import SIntegerContext
    from cpairs.conditions import CPairSpec, check_generalized_point_dedekind
    from cpairs.search import P1PointRecord, format_projective_point, point_valuation_vector

    ctx = SIntegerContext(s_primes)
    spec = CPairSpec([(format_projective_point(pt), cond) for pt, cond in divisors])
    out = []
    for q in range(0, height + 1):
        ps = [1] if q == 0 else [p for p in range(-height, height + 1) if math.gcd(p, q) == 1]
        for p in ps:
            verdict = check_generalized_point_dedekind(spec, point_valuation_vector(p, q, divisors, ctx))
            if verdict.accepted and (include_support_points or "in_support" not in verdict.flags):
                out.append(P1PointRecord(p, q, verdict.flags))
    return sorted(out, key=lambda r: (r.height, r.q, r.p))
