"""Factorization, valuations, m-full numbers, and square-cube decompositions."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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
    is_s_integer,
    is_s_unit,
    m_full_count_bound,
    m_full_witness,
    parse_rational,
    split_2full,
    split_coprime,
    valuation,
)
from cpairs.arith import _iroot

from _oracles import mfull_by_filter, sympy_valuations

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


@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=6))
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
