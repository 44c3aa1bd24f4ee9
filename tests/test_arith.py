"""Factorization, valuations, m-full numbers, and square-cube decompositions."""

import ast
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.ntheory.primetest import is_strong_lucas_prp, mr

from cpairs.arith import (
    INFINITY,
    DecompositionError,
    NotAnSIntegerError,
    PrimeFactorization,
    SIntegerContext,
    ZeroFactorizationError,
    decompose_coprime_square_cube,
    decompose_square_cube,
    enumerate_m_full,
    factor,
    format_rational,
    is_m_full,
    is_probable_prime,
    is_s_integer,
    is_s_unit,
    m_full_count_bound,
    m_full_witness,
    parse_rational,
    split_2full,
    split_coprime,
    valuation,
)
from cpairs import arith
from cpairs.arith import _TRIAL_BLOCKS, _TRIAL_PRIMES, _factor_positive, _iroot, _strong_lucas, factor_many

from _oracles import mfull_by_filter, mfull_by_walk, sympy_valuations

Z = SIntegerContext()
S2 = SIntegerContext([2])
S23 = SIntegerContext([2, 3])

nonzero_rationals = st.fractions(
    min_value=Fraction(-10**9), max_value=Fraction(10**9), max_denominator=10**6
).filter(lambda x: x != 0)


def test_factor_fixtures():
    assert factor(72) == PrimeFactorization(1, ((2, 3), (3, 2)))
    assert factor(Fraction(-9, 8)) == PrimeFactorization(-1, ((2, -3), (3, 2)))
    assert factor(1) == PrimeFactorization(1, ())
    assert factor(-1) == PrimeFactorization(-1, ())


def test_factor_zero_is_a_distinct_error():
    with pytest.raises(ZeroFactorizationError):
        factor(0)
    with pytest.raises(ZeroFactorizationError):
        factor(Fraction(0))


@given(nonzero_rationals)
def test_factor_matches_sympy(x):
    fz = factor(x)
    assert dict(fz.factors) == sympy_valuations(x)
    assert fz.sign == (1 if x > 0 else -1)


@given(nonzero_rationals)
def test_factor_value_roundtrip(x):
    assert factor(x).value() == x


def test_factor_handles_large_semiprimes():
    n = 1_000_003 * 1_000_033  # both prime, beyond the trial-division bound
    assert factor(n).factors == ((1_000_003, 1), (1_000_033, 1))


@pytest.mark.parametrize("n,factors", [
    (9973**2, ((9973, 2),)),
    (9967 * 9973, ((9967, 1), (9973, 1))),
    (9973 * 10007, ((9973, 1), (10007, 1))),
    (10007**2, ((10007, 2),)),
    (10007 * 10009, ((10007, 1), (10009, 1))),
    (2**40 * 10007, ((2, 40), (10007, 1))),
    (10**8 + 7, ((10**8 + 7, 1),)),
    (9973**5, ((9973, 5),)),
])
def test_factor_at_the_trial_division_boundary(n, factors):
    # the trial primes end at 9973; 10007 is the next prime, and a cofactor
    # below 10007^2 with no trial-prime factor is taken as prime without a test
    assert factor(n) == PrimeFactorization(1, factors)
    assert factor(-n) == PrimeFactorization(-1, factors)


def test_primality_across_the_table_boundaries():
    # by the trial-prime table up to 9973, by one gcd below 10007^2, Miller-Rabin above
    ns = list(range(-2, 20_000)) + [10007**2 + d for d in range(-60, 61)]
    assert [n for n in ns if is_probable_prime(n)] == [n for n in ns if sympy.isprime(n)]


# psi_k (OEIS A014233): the least strong pseudoprime to all of the first k prime bases
PSI = {1: 2047, 2: 1373653, 3: 25326001, 4: 3215031751, 5: 2152302898747, 6: 3474749660383,
       7: 341550071728321, 8: 341550071728321, 9: 3825123056546413051,
       10: 3825123056546413051, 11: 3825123056546413051, 12: 318665857834031151167461,
       13: 3317044064679887385961981}


@pytest.mark.parametrize("k", range(1, 13))
def test_strong_pseudoprimes_to_the_first_bases_are_composite(k):
    assert not is_probable_prime(PSI[k])


def test_psi_12_factors_into_two_primes():
    # the 12 bases 2..37 pass psi_12, so it needs the 13th base, 41
    assert factor(PSI[12]) == PrimeFactorization(1, ((399165290221, 1), (798330580441, 1)))


def test_psi_13_passes_all_13_bases():
    # the 13 bases 2..41 all pass psi_13; the strong Lucas test past psi_13 finds it composite
    assert mr(PSI[13], [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41])
    assert not is_probable_prime(PSI[13])
    assert factor(PSI[13]) == PrimeFactorization(1, ((1287836182261, 1), (2575672364521, 1)))


def test_a_trial_factor_refuses_a_huge_key_at_once():
    # 3 divides 10^4000 - 1, so one gcd with the trial product answers before any modular power
    start = time.perf_counter()
    assert not is_probable_prime(10**4000 - 1)
    assert not is_probable_prime(9973 * (2**521 - 1))
    assert is_probable_prime(2**521 - 1)
    assert time.perf_counter() - start < 2


@given(st.sampled_from(_TRIAL_PRIMES), st.integers(min_value=10007**2 // 2, max_value=2**200))
def test_a_trial_factor_is_never_prime(p, m):
    # below psi_13 the exact bases refuse it, past psi_13 the gcd does
    assert not is_probable_prime(p * m)


@pytest.mark.parametrize("start", [PSI[13], 7 * 10**27, 2**127 - 300])
def test_primality_above_psi_13_matches_sympy(start):
    ns = range(start + 1, start + 601)
    assert [n for n in ns if is_probable_prime(n)] == [n for n in ns if sympy.isprime(n)]


def test_strong_lucas_matches_sympy():
    # on its own, so that the composites the 13 bases already reject still exercise it;
    # the strong Lucas pseudoprimes (5459, 5777, ...) pass both
    odd = list(range(7, 30_000, 2)) + [PSI[13], 2**89 - 1, 2**89 + 1]
    assert [n for n in odd if _strong_lucas(n)] == [n for n in odd if is_strong_lucas_prp(n)]


@pytest.mark.parametrize("k", [4, 5, 6, 7, 9, 12, 13])
def test_primality_either_side_of_each_bases_tier(k):
    ns = [PSI[k] + d for d in range(-300, 301) if d]
    assert [n for n in ns if is_probable_prime(n)] == [n for n in ns if sympy.isprime(n)]


@given(st.integers(min_value=1, max_value=2**64))
def test_factor_integers_match_sympy(n):
    assert dict(factor(n).factors) == sympy_valuations(Fraction(n))


# primes on either side of each 64-prime trial block edge, and past the trial primes
_EDGE_PRIMES = sorted({p for block, _ in _TRIAL_BLOCKS for p in (block[0], block[-1])})
_factor_many_terms = st.one_of(
    st.sampled_from(_TRIAL_PRIMES), st.sampled_from(_EDGE_PRIMES),
    st.sampled_from([10007, 10009, 10037, 1000003]),  # cofactors past 10007^2, cheap for rho
    st.sampled_from([2**31 - 1, 10**12 + 39]),  # their powers go by an integer root, not by rho
    st.sampled_from([99991, 100003, 100019]),  # either side of 10^5, where the second trial stage ends
).flatmap(lambda p: st.integers(1, 4).map(lambda e: p**e))
_factor_many_inputs = st.lists(
    st.lists(_factor_many_terms, max_size=4).map(math.prod), max_size=100, unique=True)


@settings(max_examples=40, deadline=None)
@given(_factor_many_inputs)
def test_factor_many_matches_factor_positive_and_sympy(ns):
    got = factor_many(ns)  # an empty product in the strategy gives n = 1
    assert got == {n: _factor_positive(n) for n in ns}
    assert all(dict(got[n]) == sympy.factorint(n) for n in ns)


@pytest.mark.parametrize("n", [(10**12 + 39) ** 2, (2**31 - 1) ** 3, 3 * 10007**5,
                               (10**12 + 39) ** 6, 2**64 * (2**61 - 1) ** 7])
def test_prime_powers_split_without_rho(n, monkeypatch):
    # rho needs about sqrt(p) steps on p^k; the k-th root finds p at once
    monkeypatch.setattr(arith, "_brent_rho", lambda m: pytest.fail(f"rho called on {m}"))
    assert dict(_factor_positive.__wrapped__(n)) == sympy.factorint(n)
    assert factor_many([n]) == {n: tuple(sorted(sympy.factorint(n).items()))}


def test_factor_many_across_chunks():
    # 1 to 3000 spans 24 chunks of 128; products of the primes at each block edge span two blocks
    ns = list(range(1, 3001)) + [p * q * 10007**2 for p, q in zip(_EDGE_PRIMES, _EDGE_PRIMES[1:])]
    assert factor_many(ns) == {n: _factor_positive(n) for n in ns}


@pytest.mark.parametrize("n,factors", [
    (100003**2, ((100003, 2),)),  # the least composite the second stage leaves, so never taken as prime
    (99991 * 100003, ((99991, 1), (100003, 1))),
    (10007 * 10009 * 100003**2 * 7, ((7, 1), (10007, 1), (10009, 1), (100003, 2))),
    (99991**3, ((99991, 3),)),
])
def test_factor_many_at_the_second_stage_boundary(n, factors):
    # the second stage divides out the primes in (10^4, 10^5); 100003 is the next prime,
    # and a cofactor below 100003^2 left after it is taken as prime without a test
    assert factor_many([n]) == {n: factors}
    assert _factor_positive(n) == factors
    assert dict(factors) == sympy.factorint(n)


def test_factor_many_second_stage_across_chunks():
    # 300 cofactors past 10007^2 reach the second stage, so its remainder trees span three chunks
    primes = list(sympy.primerange(10**4, 10**5))
    ns = [p * q for p, q in zip(primes[:150], primes[::-1])]
    ns += [p * 100003 * 3 for p in primes[150:250]] + [p * 1_000_003 for p in primes[250:300]]
    got = factor_many(ns)
    assert got == {n: _factor_positive(n) for n in ns}
    assert all(dict(got[n]) == sympy.factorint(n) for n in ns)


def test_second_stage_product_is_built_only_by_factor_many():
    # start-up, the parser and a line command never build the product of the primes up to 10^5
    argv = ["p1", "enumerate", "--pair", "0: >=2; 1: >=2; inf: >=2", "--height", "30"]
    code = ("import cpairs.cli, contextlib, io\n"
            "cpairs.cli.build_parser()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cpairs.cli.main({argv!r}) == 0\n"
            "print(cpairs.arith._stage2_product.cache_info().currsize)\n"
            "cpairs.arith.factor_many([10007**3])\n"
            "print(cpairs.arith._stage2_product.cache_info().currsize)\n")
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "1"]


def test_factor_many_refuses_nonpositive():
    with pytest.raises(ValueError):
        factor_many([5, 0])


def test_valuation_fixtures():
    assert valuation(0, 5) is INFINITY
    assert valuation(72, 2) == 3
    assert valuation(Fraction(-9, 8), 2) == -3
    assert valuation(7, 3) == 0
    with pytest.raises(ValueError):
        valuation(10, 6)


@given(nonzero_rationals, st.sampled_from([2, 3, 5, 7, 11, 97]))
def test_valuation_matches_sympy(x, p):
    assert valuation(x, p) == sympy_valuations(x).get(p, 0)


def test_infinity_is_a_sentinel_not_a_number():
    assert valuation(0, 2) is valuation(0, 97)
    assert INFINITY == INFINITY
    assert INFINITY > 10**100 and 10**100 < INFINITY
    assert not INFINITY > INFINITY
    assert INFINITY >= INFINITY
    assert INFINITY != 10**100
    with pytest.raises(TypeError):
        INFINITY + 1  # no silent arithmetic on the sentinel
    with pytest.raises(TypeError):
        INFINITY < "x"


def test_s_integer_and_s_unit():
    assert is_s_integer(Fraction(3, 8), S2)
    assert not is_s_integer(Fraction(1, 3), S2)
    assert is_s_unit(Fraction(-1, 8), S2)
    assert is_s_unit(-1, Z)
    assert not is_s_unit(0, S2)
    assert not is_s_unit(3, S2)
    with pytest.raises(ValueError):
        SIntegerContext([4])


def test_strip_refuses_nonpositive():
    # 0 % p == 0 for every p, so stripping 0 would divide for ever
    assert S23.strip(72 * 5) == 5 and S23.strip(1) == 1 and Z.strip(12) == 12
    for n in (0, -6):
        with pytest.raises(ValueError, match="n >= 1"):
            S2.strip(n)


def test_m_full_basics():
    assert is_m_full(0, 2, Z)  # v_p(0) = infinity everywhere
    assert is_m_full(72, 2, Z)
    assert not is_m_full(12, 2, Z)
    assert m_full_witness(12, 2, Z) == 3
    assert m_full_witness(2 * 9 * 5, 2, Z) == 2  # smallest failing prime
    assert is_m_full(Fraction(9, 8), 2, S2)
    assert is_m_full(-8, 2, Z) and not is_m_full(-8, 4, Z)


def test_m_full_rejects_non_s_integers_with_witness():
    with pytest.raises(NotAnSIntegerError) as e:
        is_m_full(Fraction(1, 15), 2, S23)
    assert e.value.prime == 5


def test_enumerate_m_full_fixtures():
    assert enumerate_m_full(100, 2) == [1, 4, 8, 9, 16, 25, 27, 32, 36, 49, 64, 72, 81, 100]
    assert len(enumerate_m_full(100, 2)) == 14
    assert enumerate_m_full(32, 3) == [1, 8, 16, 27, 32]
    assert enumerate_m_full(0, 2) == []
    assert enumerate_m_full(7, 3) == [1]
    assert enumerate_m_full(5, 1) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_enumerate_matches_filter_oracle(m):
    assert enumerate_m_full(2000, m) == mfull_by_filter(2000, m)


@given(st.integers(min_value=0, max_value=10**5), st.integers(min_value=1, max_value=8))
def test_enumerate_matches_walk_oracle(bound, m):
    assert enumerate_m_full(bound, m) == mfull_by_walk(bound, m)


@pytest.mark.parametrize("bound,m,count", [(10**7, 2, 6553), (10**7, 3, 713), (10**9, 2, 67231)])
def test_enumerate_m_full_counts(bound, m, count):
    values = enumerate_m_full(bound, m)
    assert len(values) == count and values == mfull_by_walk(bound, m)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 64])
def test_iroot_below_two_to_the_k(k):
    assert _iroot(2**k - 1, k) == 1
    assert _iroot(2**k, k) == 2


def test_iroot_of_huge_degree_is_immediate():
    assert _iroot(10, 10**14) == 1
    assert _iroot(10**400, 10**14) == 1


@pytest.mark.parametrize("k", [2, 3, 5])
def test_iroot_exact_beyond_float_range(k):
    assert _iroot(10**400, 2) == 10**200
    for r in (2**64 + 1, 10**120 + 7, 3**500):
        assert _iroot(r**k - 1, k) == r - 1
        assert _iroot(r**k, k) == r


@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=2, max_value=4))
def test_enumerate_prefix_property(bound, m):
    full = enumerate_m_full(3000, m)
    assert enumerate_m_full(bound, m) == [n for n in full if n <= bound]


@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=14))
def test_m_full_count_bound_holds(bound, m):
    assert len(enumerate_m_full(bound, m)) <= m_full_count_bound(bound, m)


@pytest.mark.parametrize("split,rejects", [
    (split_2full, lambda e: e < 2),
    (split_coprime, lambda e: e % 2 and e % 3),
])
@given(e=st.integers(min_value=1, max_value=200))
def test_split_rules(split, rejects, e):
    ab = split(e)
    assert (ab is None) == bool(rejects(e))
    if ab is not None:
        alpha, beta = ab
        assert alpha >= 0 and beta >= 0 and 2 * alpha + 3 * beta == e


def test_decompose_square_cube_fixtures():
    assert decompose_square_cube(72, Z) == (3, 2)
    assert decompose_square_cube(8, Z) == (1, 2)
    assert decompose_square_cube(-9, Z) == (3, -1)
    assert decompose_square_cube(0, Z) == (0, 1)
    assert decompose_square_cube(Fraction(1, 2), S2) == (Fraction(1, 4), 2)


def test_decompose_coprime_fixtures():
    assert decompose_coprime_square_cube(108, Z) == (2, 3)
    assert decompose_coprime_square_cube(64, Z) == (8, 1)  # 6Z tie-break goes to the square
    assert decompose_coprime_square_cube(72, Z) == (3, 2)
    assert decompose_coprime_square_cube(-8, Z) == (1, -2)
    assert decompose_coprime_square_cube(0, Z) == (0, 1)


def test_decompose_errors_carry_witness():
    with pytest.raises(DecompositionError) as e:
        decompose_square_cube(12, Z)
    assert e.value.prime == 3
    with pytest.raises(DecompositionError) as e:
        decompose_coprime_square_cube(32, Z)  # exponent 5 is in neither 2Z nor 3Z
    assert e.value.prime == 2


small_exponents = st.dictionaries(
    st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(min_value=2, max_value=7),
    min_size=0, max_size=4,
)


@given(small_exponents, st.sampled_from([1, -1]))
def test_decompose_square_cube_properties(exps, sign):
    x = Fraction(sign)
    for p, e in exps.items():
        x *= Fraction(p) ** e
    a, b = decompose_square_cube(x, Z)
    assert a * a * b * b * b == x
    assert a > 0
    # away from S the cube part is squarefree
    for p, e in factor(b).factors if b not in (1, -1) else ():
        assert e == 1


@given(st.dictionaries(st.sampled_from([3, 5, 7, 11]),
                       st.sampled_from([2, 3, 4, 6, 8, 9]), min_size=0, max_size=4),
       st.integers(min_value=-4, max_value=4), st.sampled_from([1, -1]))
def test_decompose_coprime_properties(exps, e2, sign):
    x = Fraction(sign) * Fraction(2) ** e2
    for p, e in exps.items():
        x *= Fraction(p) ** e
    a, b = decompose_coprime_square_cube(x, S2)
    assert a * a * b * b * b == x
    assert is_s_integer(a, S2) and is_s_integer(b, S2)
    shared = set(p for p, _ in factor(a).factors if a != 0) & set(p for p, _ in factor(b).factors)
    assert shared <= {2}  # coprime away from S


def test_rational_strings():
    assert format_rational(Fraction(-9, 8)) == "-9/8"
    assert format_rational(Fraction(4, 2)) == "2"
    assert parse_rational("-9/8") == Fraction(-9, 8)
    assert parse_rational("7") == 7
    for bad in ("1.5", "1/0", "1/-2", "", "x"):
        with pytest.raises(ValueError):
            parse_rational(bad)


@given(nonzero_rationals)
def test_rational_string_roundtrip(x):
    assert parse_rational(format_rational(x)) == x


@given(nonzero_rationals)
def test_factorization_json_roundtrip(x):
    fz = factor(x)
    assert PrimeFactorization.from_json_obj(fz.to_json_obj()) == fz


def _float_uses(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, repr(node.value)
        elif (isinstance(node, ast.Attribute) and node.attr in ("inf", "nan")
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, "float("
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "/"


def test_no_float_in_the_package():
    src = Path(__file__).resolve().parent.parent / "src" / "cpairs"
    found = [f"{path.name}:{line} {what}" for path in sorted(src.glob("*.py"))
             for line, what in _float_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
