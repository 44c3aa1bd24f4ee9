"""Shifted-unit sweeps, lifts, and bounded-height line points."""

import hashlib
from fractions import Fraction

import pytest

from cpairs.arith import SIntegerContext
from cpairs.cli import json_line
from cpairs.conditions import AtLeast, LOG
from cpairs.search import (
    PointRecord,
    SearchConfig,
    enumerate_campana_points_p1,
    parse_projective_point,
    format_projective_point,
    search_shifted_units_2full,
    search_shifted_units_2or3,
    verify_point_on_X,
)

from _oracles import oracle_p1_accepts, oracle_search

S2B4 = SearchConfig(s_primes=[2], exponent_bound=4)


def _by_x(records):
    return {r.x: r for r in records}


def test_2full_fixtures_s2_bound4():
    recs = _by_x(search_shifted_units_2full(S2B4))
    assert recs[Fraction(2)].verdict == "accept"
    assert recs[Fraction(2)].lift == (1, -1)
    assert recs[Fraction(-8)].verdict == "accept"
    assert recs[Fraction(-8)].lift == (3, 1)
    assert recs[Fraction(4)].verdict == "reject"
    assert recs[Fraction(4)].witness_prime == 3
    assert recs[Fraction(16)].verdict == "reject"
    assert recs[Fraction(16)].witness_prime == 3
    accepts = [r.x for r in recs.values() if r.verdict == "accept"]
    assert set(accepts) == {Fraction(-1), 1, Fraction(1, 2), Fraction(-1, 8), 2, -8}


def test_support_point_record():
    recs = _by_x(search_shifted_units_2full(S2B4))
    one = recs[Fraction(1)]
    assert one.verdict == "accept" and one.flags == ("in_support",)
    assert one.shifted is None and one.lift == (0, 1)
    # and it can be dropped
    cfg = SearchConfig(s_primes=[2], exponent_bound=4, include_support_points=False)
    assert Fraction(1) not in _by_x(search_shifted_units_2full(cfg))


def test_negative_units_toggle():
    cfg = SearchConfig(s_primes=[2], exponent_bound=4, include_negative_units=False)
    assert all(r.x > 0 for r in search_shifted_units_2full(cfg))


def test_record_ordering():
    recs = search_shifted_units_2full(S2B4)
    keys = [r.sort_key() for r in recs]
    assert keys == sorted(keys)
    assert recs[0].x == -1 and recs[1].x == 1  # negative first at equal magnitude


@pytest.mark.parametrize("kind,fn", [("2full", search_shifted_units_2full),
                                     ("2or3", search_shifted_units_2or3)])
@pytest.mark.parametrize("primes,bound", [((), 0), ((2,), 4), ((3,), 5), ((2, 5), 3)])
def test_search_matches_oracle(kind, fn, primes, bound):
    cfg = SearchConfig(s_primes=primes, exponent_bound=bound)
    got = {r.x: (r.verdict, r.witness_prime) for r in fn(cfg)}
    assert got == oracle_search(kind, primes, bound)


def test_2or3_is_stricter_than_2full():
    # v_p = 5 away from S: 2-full but in neither 2Z nor 3Z
    cfg = SearchConfig(s_primes=[7, 41], exponent_bound=1)
    full = _by_x(search_shifted_units_2full(cfg))
    coarse = _by_x(search_shifted_units_2or3(cfg))
    x = Fraction(-287)  # 1 - x = 288 = 2^5 * 3^2
    assert full[x].verdict == "accept"
    assert coarse[x].verdict == "reject" and coarse[x].witness_prime == 2
    accepts_full = {x for x, r in full.items() if r.verdict == "accept"}
    accepts_coarse = {x for x, r in coarse.items() if r.verdict == "accept"}
    assert accepts_coarse <= accepts_full


def test_2or3_lifts_are_coprime():
    cfg = SearchConfig(s_primes=[2, 3], exponent_bound=4)
    ctx = cfg.context()
    for r in search_shifted_units_2or3(cfg):
        if r.verdict != "accept":
            continue
        a, b = r.lift
        assert a * a * b * b * b == 1 - r.x
        assert verify_point_on_X(a, b, ctx).on_y


# sha256 of the canonical JSON lines the CLI prints; pins every verdict,
# witness and lift byte for byte, the minimal-beta split at S-primes included
GOLDEN_SWEEPS = {
    ("2full", (2, 3), 4): "e24facef35e9490bf5bb964d5745214afdcf3668bfc06771e56e6fba1ebcf8ca",
    ("2or3", (2, 3), 4): "c4dc6ad31de459397f1957d9ff75a005398b7c18ee01d57a44d9ef9af809a820",
    ("2full", (7, 41), 1): "2dd7c9dc83933e3e205b948cc7aabc2000f1378345d047481ecd76d966c02bc9",
    ("2or3", (7, 41), 1): "aeaa7b3f8609955b5771d1c2dee35fd682a3b1f2d187fa781bdcf25b62c3e37b",
}


@pytest.mark.parametrize("kind,primes,bound", sorted(GOLDEN_SWEEPS),
                         ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_sweep_output_is_pinned(kind, primes, bound):
    fn = {"2full": search_shifted_units_2full, "2or3": search_shifted_units_2or3}[kind]
    records = fn(SearchConfig(s_primes=primes, exponent_bound=bound))
    text = "".join(json_line(r.to_json_obj()) + "\n" for r in records)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SWEEPS[kind, primes, bound]


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(s_primes=[4], exponent_bound=1)
    with pytest.raises(ValueError):
        SearchConfig(s_primes=[2], exponent_bound=-1)


def test_point_record_json_roundtrip():
    for r in search_shifted_units_2full(S2B4) + search_shifted_units_2or3(S2B4):
        assert PointRecord.from_json_obj(r.to_json_obj()) == r


# -- membership checks ------------------------------------------------------------


def test_verify_point_fixtures():
    ctx = SIntegerContext([2])
    m = verify_point_on_X(3, 1, ctx)
    assert m.value == 8 and m.on_x and m.on_y
    m = verify_point_on_X(1, -1, ctx)
    assert m.value == -2 and m.on_x and m.on_y
    m = verify_point_on_X(0, 1, ctx)
    assert m.value == -1 and m.on_x and m.on_y
    m = verify_point_on_X(2, 3, SIntegerContext())
    assert not m.on_x and not m.on_y


def test_verify_point_coprimality():
    ctx = SIntegerContext([107])
    m = verify_point_on_X(Fraction(2), Fraction(3), ctx)  # 4*27 - 1 = 107
    assert m.on_x and m.on_y
    ctx2 = SIntegerContext([2011])
    m2 = verify_point_on_X(Fraction(15), Fraction(-2), ctx2)  # 225*(-8) - 1 = -1801... not unit
    assert not m2.on_x


def test_verify_point_rejects_non_s_integers():
    with pytest.raises(ValueError):
        verify_point_on_X(Fraction(1, 3), 1, SIntegerContext([2]))


def test_verify_point_shared_factor():
    # 6^2 * 6^3 - 1 = 7775 = 5^2 * 311
    ctx = SIntegerContext([5, 311])
    m = verify_point_on_X(6, 6, ctx)
    assert m.on_x and not m.on_y  # gcd(6, 6) = 6 is not an S-unit


# -- line points -------------------------------------------------------------------


HALF = [(parse_projective_point(t), AtLeast(2)) for t in ("0", "1", "inf")]


def test_projective_point_strings():
    assert parse_projective_point("inf") == (1, 0)
    assert parse_projective_point("-9/8") == (-9, 8)
    assert format_projective_point((1, 0)) == "inf"
    assert format_projective_point((0, 1)) == "0"


def test_p1_fixture_small_height():
    recs = enumerate_campana_points_p1(HALF, (), 10)
    pts = {(r.p, r.q) for r in recs}
    assert (9, 8) in pts and (-8, 1) in pts and (9, 1) in pts
    assert (0, 1) in pts and (1, 1) in pts and (1, 0) in pts  # support points
    flagged = {(r.p, r.q) for r in recs if "in_support" in r.flags}
    assert flagged == {(0, 1), (1, 1), (1, 0)}
    # (2:1): 2-1=1 ok for [1], v_2(2)=1 fails [0]
    assert (2, 1) not in pts


def test_p1_matches_oracle():
    cases = [
        (25, [((0, 1), 2), ((1, 1), 2), ((1, 0), 2)]),
        # a large m at 0 and a different m at infinity, at a small height
        (12, [((0, 1), 40), ((1, 1), 2), ((1, 0), 3)]),
    ]
    for height, oracle_divisors in cases:
        divisors = [(pt, AtLeast(m)) for pt, m in oracle_divisors]
        for s in ((), (2,)):
            got = {(r.p, r.q) for r in enumerate_campana_points_p1(divisors, s, height)}
            assert got == oracle_p1_accepts(oracle_divisors, s, height)


def test_p1_log_divisor():
    divisors = [(parse_projective_point("0"), LOG), (parse_projective_point("inf"), AtLeast(2))]
    recs = enumerate_campana_points_p1(divisors, (), 10)
    pts = {(r.p, r.q) for r in recs}
    assert (0, 1) not in pts  # contained in a log divisor
    assert all(p in (1, -1) for p, q in pts)  # v_p(numerator) must vanish


def test_p1_input_validation():
    with pytest.raises(ValueError):
        enumerate_campana_points_p1([((0, 1), AtLeast(2)), ((0, 1), AtLeast(3))], (), 5)
    with pytest.raises(ValueError):
        enumerate_campana_points_p1([((2, 4), AtLeast(2))], (), 5)
    with pytest.raises(ValueError):
        enumerate_campana_points_p1(HALF, (), 0)


def test_p1_support_toggle_and_order():
    recs = enumerate_campana_points_p1(HALF, (), 10, include_support_points=False)
    assert all("in_support" not in r.flags for r in recs)
    keys = [(r.height, r.q, r.p) for r in recs]
    assert keys == sorted(keys)
