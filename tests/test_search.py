"""Shifted-unit sweeps, lifts, and bounded-height line points."""

import contextlib
import csv
import hashlib
import io
import json
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cpairs import search
from cpairs.arith import SIntegerContext, _factor_positive, factor, factor_many, format_rational
from cpairs.cli import _search_cells, emit, main
from cpairs.conditions import (
    AtLeast, DivisibleBy, DivisorValuations, LOG, condition_element_union, parse_condition, parse_pair_spec)
from cpairs.search import (
    P1PointRecord,
    PointRecord,
    SearchConfig,
    _accepted_values,
    _candidates,
    _p1_plan,
    _p1_setup,
    _values_bound,
    enumerate_campana_points_p1,
    p1_scan_count,
    parse_projective_point,
    format_projective_point,
    json_lines,
    search_shifted_units_2full,
    search_shifted_units_2or3,
    shifted_unit_sweep,
    verify_point_on_X,
)

from _oracles import (
    box_p1_records, coprime_outside_s_by_cases, oracle_p1_accepts, oracle_search, sorted_sweep_candidates)

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
    text = "".join(json.dumps(r.to_json_obj()) + "\n" for r in records)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SWEEPS[kind, primes, bound]


# the same for the csv and table formats, whose cells the CLI builds apart from the JSON
GOLDEN_SWEEP_FORMATS = {
    ("2full", "csv"): "5b851f47df08c17c5263522212e758172241f59298ce6959fc2283f10aa81576",
    ("2full", "table"): "1b68c0286403ab251d5c220ee581d6afab8bba9bbb667e68f1f50f2ff8e6eda2",
    ("2or3", "csv"): "ed95615faaa80ddacc088eab898d22bd69d7a4f299f79afcccd9bc9f16876493",
    ("2or3", "table"): "92348fca0b55b9cf2fcc80bbc56ff5f52c8a20aa685f7cdb4ef21cd06e7b9d21",
}


@pytest.mark.parametrize("kind,fmt", sorted(GOLDEN_SWEEP_FORMATS))
def test_sweep_formats_are_pinned(kind, fmt, capsys):
    assert main(["search", kind, "--s", "2,3", "--bound", "4", "--format", fmt]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SWEEP_FORMATS[kind, fmt]


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(s_primes=[4], exponent_bound=1)
    with pytest.raises(ValueError):
        SearchConfig(s_primes=[2], exponent_bound=-1)


def test_point_record_json_roundtrip():
    for r in search_shifted_units_2full(S2B4) + search_shifted_units_2or3(S2B4):
        assert PointRecord.from_json_obj(r.to_json_obj()) == r


SWEEPS = {"2full": search_shifted_units_2full, "2or3": search_shifted_units_2or3}


def _assert_record_routes_agree(records):
    """The integer line writer against the Fraction/factorization reference, record by record."""
    assert records
    for r in records:
        assert r.json_line() == json.dumps(r.to_json_obj())
        assert (r.shift is None) == (r.x == 1)
        if r.x != 1:
            assert r.shifted.value() == r.x - 1
        assert PointRecord.from_json_obj(r.to_json_obj()) == r


@pytest.mark.parametrize("kind", sorted(SWEEPS))
@pytest.mark.parametrize("primes,bound", [((2, 3, 5), 6), ((2, 3, 5, 7), 3)])
def test_json_line_matches_reference(kind, primes, bound):
    _assert_record_routes_agree(SWEEPS[kind](SearchConfig(s_primes=primes, exponent_bound=bound)))


@st.composite
def _small_sweeps(draw):
    bound = draw(st.integers(0, 3))
    # (2 * bound + 1) ** |S| exponent vectors, at most 7 ** 4 = 2,401
    size = {0: 6, 1: 6, 2: 4, 3: 4}[bound]
    primes = draw(st.sets(st.sampled_from((2, 3, 5, 7, 11, 13)), max_size=size))
    return SearchConfig(s_primes=primes, exponent_bound=bound,
                        include_negative_units=draw(st.booleans()),
                        include_support_points=draw(st.booleans()))


@settings(max_examples=30, deadline=None)
@given(cfg=_small_sweeps(), kind=st.sampled_from(sorted(SWEEPS)))
def test_json_line_matches_reference_over_small_sweeps(cfg, kind):
    records = SWEEPS[kind](cfg)
    if records:
        _assert_record_routes_agree(records)


@settings(max_examples=40, deadline=None)
@given(cfg=_small_sweeps())
def test_candidates_come_in_output_order(cfg):
    # the unit lists yield the box of exponent vectors already sorted on (u, v, sign)
    got = list(_candidates(cfg))
    assert got == sorted_sweep_candidates(cfg)
    signs = 2 if cfg.include_negative_units else 1
    assert len(got) == signs * (2 * cfg.exponent_bound + 1) ** len(cfg.s_primes)


@pytest.mark.parametrize("kind", sorted(SWEEPS))
def test_csv_and_table_agree_with_json_lines(kind, capsys):
    argv = ["search", kind, "--s", "2,3,5", "--bound", "4"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert main(argv + ["--format", "csv"]) == 0
    header, *body = csv.reader(io.StringIO(capsys.readouterr().out))
    assert len(body) == len(lines) == 2 * 9**3
    cells = [_search_cells(json.loads(line)) for line in lines]
    for row, want in zip(body, cells):
        assert row == [str(want.get(c, "")) for c in header]
    assert main(argv + ["--format", "table"]) == 0
    table = capsys.readouterr().out
    emit([], header, "table", rows=cells)
    assert table == capsys.readouterr().out


SWEEP_COLUMNS = ["x", "shift", "verdict", "witness", "lift_a", "lift_b", "target", "flags"]


def _list_path_output(records, fmt: str) -> str:
    """What the CLI printed when it built the record list first: json.dumps of each
    record's JSON object, or csv/table rows of its `_search_cells`."""
    if fmt == "json":
        return "".join(json.dumps(r.to_json_obj()) + "\n" for r in records)
    cells = [_search_cells(r.to_json_obj()) for r in records]
    out = io.StringIO()
    if fmt == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(SWEEP_COLUMNS)
        w.writerows([row.get(c, "") for c in SWEEP_COLUMNS] for row in cells)
    else:
        with contextlib.redirect_stdout(out):
            emit([], SWEEP_COLUMNS, "table", rows=cells)
    return out.getvalue()


def _cli_output(kind: str, cfg: SearchConfig, fmt: str) -> str:
    argv = ["search", kind, "--s", ",".join(map(str, cfg.s_primes)), "--bound", str(cfg.exponent_bound),
            "--format", fmt]
    argv += ["--no-negative"] * (not cfg.include_negative_units) + ["--no-support"] * (not cfg.include_support_points)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@settings(max_examples=25, deadline=None)
@given(cfg=_small_sweeps(), kind=st.sampled_from(sorted(SWEEPS)), fmt=st.sampled_from(["json", "csv", "table"]))
def test_streamed_cli_output_equals_the_list_path(cfg, kind, fmt):
    # the CLI writes each row as the sweep makes it; the reference builds the public list first
    assert _cli_output(kind, cfg, fmt) == _list_path_output(SWEEPS[kind](cfg), fmt)


@pytest.mark.parametrize("kind", sorted(SWEEPS))
@pytest.mark.parametrize("negative,support", [(True, True), (True, False), (False, True), (False, False)])
@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_streamed_cli_output_equals_the_list_path_at_s235(kind, negative, support, fmt):
    cfg = SearchConfig((2, 3, 5), 3, include_negative_units=negative, include_support_points=support)
    assert _cli_output(kind, cfg, fmt) == _list_path_output(SWEEPS[kind](cfg), fmt)


@settings(max_examples=30, deadline=None)
@given(cfg=_small_sweeps(), kind=st.sampled_from(sorted(SWEEPS)))
def test_json_lines_equals_json_dumps_record_by_record(cfg, kind):
    # one call over the whole sweep, so the (prime, exponent) texts made once are shared across records
    records = SWEEPS[kind](cfg)
    want = [json.dumps(r.to_json_obj()) for r in records]
    assert list(json_lines(records)) == want
    assert list(json_lines(shifted_unit_sweep(cfg, kind))) == want
    assert all(type(r) is PointRecord for r in records)


@pytest.mark.parametrize("kind,decomposer", [("2full", "decompose_square_cube"),
                                             ("2or3", "decompose_coprime_square_cube")])
def test_a_wrong_lift_fails_loudly_on_both_paths(kind, decomposer, monkeypatch, capsys):
    # x = -8 is accepted by both sweeps at S={2} b=4; a lift that does not multiply out is a bug
    monkeypatch.setattr(search, decomposer, lambda u, ctx: (Fraction(1), Fraction(1)))
    with pytest.raises(AssertionError, match="lift identity broken"):
        SWEEPS[kind](S2B4)
    for fmt in ("json", "csv", "table"):
        with pytest.raises(AssertionError, match="lift identity broken"):
            main(["search", kind, "--s", "2", "--bound", "4", "--format", fmt])
    capsys.readouterr()


@pytest.mark.parametrize("primes,bound", [((2, 3, 5), 12), ((2, 3, 5, 7), 8)])
def test_factor_many_on_every_sweep_shift(primes, bound):
    # the batch the sweep reads against one _factor_positive call per distinct |t|
    ts = {abs(sign * u - v) for sign, u, v, _ in _candidates(SearchConfig(primes, bound))} - {0}
    assert factor_many(ts) == {t: _factor_positive(t) for t in ts}


@pytest.mark.parametrize("kind", ["2full", "2or3"])
@pytest.mark.parametrize("primes,bound", [((2, 3, 5), 6), ((2, 3, 5, 7), 3)])
def test_inverse_shares_verdict_and_witness(kind, primes, bound):
    # 1 - 1/x = -(1 - x)/x with x an S-unit: x and 1/x share |t|, so one shift table entry
    recs = {r.x: r for r in SWEEPS[kind](SearchConfig(primes, bound))}
    for x, r in recs.items():
        inv = recs[1 / x]
        assert (inv.verdict, inv.witness_prime) == (r.verdict, r.witness_prime), x
        if inv.verdict == "accept":
            a, b = inv.lift
            assert a * a * b**3 == 1 - 1 / x, x


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


@st.composite
def _s_and_two_s_integers(draw):
    s_primes = draw(st.sets(st.sampled_from([2, 3, 5, 7, 11])))

    def s_integer():
        num = draw(st.one_of(st.just(0), st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), max_size=5).map(math.prod)))
        den = math.prod(draw(st.lists(st.sampled_from(sorted(s_primes)), max_size=3))) if s_primes else 1
        return Fraction(draw(st.sampled_from([1, -1])) * num, den)

    return s_primes, s_integer(), s_integer()


@given(_s_and_two_s_integers())
def test_coprime_outside_s_matches_the_case_split(drawn):
    s_primes, a, b = drawn
    got = search._coprime_outside_s(a, b, SIntegerContext(s_primes))
    assert got == coprime_outside_s_by_cases(a, b, s_primes)


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
    assert format_projective_point((True, 1)) == "1"  # not canonical: an int subclass goes through Fraction


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
        enumerate_campana_points_p1(HALF, (), 0)


@pytest.mark.parametrize("point,canonical", [
    ((0, 0), False), ((-1, 0), False), ((1, -2), False), ((2, 4), False),
    ((0, 1), True), ((1, 0), True), ((-3, 2), True),
])
def test_p1_divisor_points_must_be_canonical(point, canonical):
    # canonical: gcd(a, b) = 1 and b > 0, or (1, 0); (0, 0) is no point at all
    for fn in (enumerate_campana_points_p1, p1_scan_count):
        if canonical:
            assert fn([(point, AtLeast(2))], (), 3)
        else:
            with pytest.raises(ValueError, match="canonical primitive form"):
                fn([(point, AtLeast(2))], (), 3)
            with pytest.raises(ValueError, match="canonical primitive form"):
                fn([((1, 0), AtLeast(2)), (point, AtLeast(2))], (), 3)


def test_p1_records_hold_only_what_is_printed():
    recs = enumerate_campana_points_p1(HALF, (), 10)
    assert P1PointRecord._fields == ("p", "q", "flags")
    assert recs[1] == P1PointRecord(0, 1, ("in_support",)) and recs[3] == P1PointRecord(-8, 1, ())
    assert recs[3].to_json_obj() == {"point": "-8", "height": 8, "verdict": "accept", "flags": []}


def test_p1_support_toggle_and_order():
    recs = enumerate_campana_points_p1(HALF, (), 10, include_support_points=False)
    assert all("in_support" not in r.flags for r in recs)
    keys = [(r.height, r.q, r.p) for r in recs]
    assert keys == sorted(keys)


P1_POINTS = [(1, 0)] + [(p, q) for q in range(1, 4) for p in range(-4, 5) if math.gcd(p, q) == 1]
P1_CONDITIONS = [*map(AtLeast, (1, 2, 3, 4, 40)), *map(DivisibleBy, (1, 2, 3)), LOG,
                 parse_condition("union <2,7>|<3>"), parse_condition("union <2>|<3>")]


P1_PAIRS = dict(points=st.lists(st.sampled_from(P1_POINTS), min_size=1, max_size=4, unique=True),
                conds=st.lists(st.sampled_from(P1_CONDITIONS), min_size=4, max_size=4),
                s=st.sets(st.sampled_from((2, 3, 5))), height=st.integers(1, 25))


def _assert_p1_matches_the_box(divisors, s, height, support=True):
    got = enumerate_campana_points_p1(divisors, sorted(s), height, include_support_points=support)
    want = box_p1_records(divisors, sorted(s), height, include_support_points=support)
    assert [r.to_json_obj() for r in got] == [r.to_json_obj() for r in want]
    assert got == want  # the verdicts behind the JSON too


@settings(max_examples=200)
@given(**P1_PAIRS, support=st.booleans())
def test_p1_generators_match_the_box(points, conds, s, height, support):
    # the sieve (two or more sparse divisors) and the box fallback against the former loop
    _assert_p1_matches_the_box(list(zip(points, conds)), s, height, support)


def _plan(divisors, s, height):
    ctx, spec = _p1_setup(divisors, s, height)
    return _p1_plan(divisors, spec, ctx, height)


@settings(max_examples=200, deadline=None)
@given(**P1_PAIRS)
def test_p1_scan_count_bounds_candidates_and_sets(points, conds, s, height):
    # the size guard reads p1_scan_count, so it must bound the scan and each set the verdict holds
    divisors = list(zip(points, conds))
    scan = p1_scan_count(divisors, s, height)
    candidates, checks = _plan(divisors, s, height)
    assert sum(1 for _ in candidates) <= scan
    assert all(len(values) <= scan for *_, values, _ in checks if values is not None)


def _pair(text):
    return [(parse_projective_point(lbl), cond) for lbl, cond in parse_pair_spec(text).divisors]


@pytest.mark.parametrize("text,height,s,factored", [
    # the sparse divisor at 100000 would list more values than the sieve pair on 0 and inf
    ("0: >=2; inf: >=2; 100000: >=2", 20, (), 1),
    ("0: inf; inf: >=2; 100000: >=2", 20, (2,), 1),
    # an empty union that is not LOG is not sparse: it accepts S-smooth resultants and 0
    ("0: >=2; 1: union {}; inf: div 2", 30, (2, 3), 1),
    ("0: union {}; 1: >=1", 12, (3,), 1),
    # on the box a single sparse divisor is a set lookup; the unions holding 1 have no check
    ("0: >=2; 1: union <1>; inf: div 1", 30, (2,), 0),
    # the sieve yields (1 : 1), which lies on the LOG divisor checked by factoring, then by its set
    ("0: >=40; inf: >=40; 1: inf", 10, (11, 13, 17, 19), 1),
    ("0: >=40; inf: >=40; 1: inf", 5, (2,), 0),
], ids=["far-2full", "far-with-log", "empty-union-sieve", "empty-union-box", "box-listed", "on-log-factored",
       "on-log-listed"])
def test_p1_checks_match_the_box(text, height, s, factored):
    divisors = _pair(text)
    _, checks = _plan(divisors, s, height)
    assert sum(values is None for *_, values, _ in checks) == factored
    _assert_p1_matches_the_box(divisors, s, height)


LINE_PAIRS = [("0: >=2; 1: >=2; inf: >=2", 100, (), 0), ("0: >=40; 1: >=2; inf: >=2", 25, (), 1),
              ("0: >=2; 1: union <2,7>|<3>; inf: div 2; -1: inf", 100, (2, 3), 1)]


@pytest.mark.parametrize("text,height,s,factored", LINE_PAIRS, ids=["2-2-2", "40-2-2", "union-div-log"])
def test_p1_verdict_factors_only_unlisted_divisors(text, height, s, factored, monkeypatch):
    # the verdict factors a candidate's resultant only against a divisor whose values it did not
    # list (the benchmark's pairs take both kinds of check); accepted points are factored once per
    # divisor they do not lie on; listing the sparse divisors' values factors their m-full cores
    divisors = _pair(text)
    candidates, checks = _plan(divisors, s, height)
    unlisted = [(a, b) for a, b, _, values, _ in checks if values is None]
    assert len(unlisted) == factored
    candidates = list(candidates)
    resultants = {p * b - q * a for p, q in candidates for a, b in unlisted}
    calls = []

    def counted(x):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension has its own frame
            frame = frame.f_back
        calls.append((frame.f_code.co_name, x))
        return factor(x)

    monkeypatch.setattr(search, "factor", counted)
    records = enumerate_campana_points_p1(divisors, s, height)
    callers = Counter(name for name, _ in calls)
    assert set(callers) <= {"point_valuation_vector", "_accepted_values", "_integer_verdict"}
    assert callers["point_valuation_vector"] == sum(r.p * b != r.q * a for r in records for (a, b), _ in divisors)
    assert all(x in resultants for name, x in calls if name == "_integer_verdict")
    verdict_calls = callers["_integer_verdict"]
    assert (verdict_calls > 0) == (factored > 0) and verdict_calls <= len(candidates) * factored


@pytest.mark.parametrize("text,height,s,_", LINE_PAIRS, ids=["2-2-2", "40-2-2", "union-div-log"])
def test_p1_recheck_catches_one_extra_accept(text, height, s, _, monkeypatch):
    # a verdict that also accepts the first candidate it rejects must meet the condition check's refusal
    verdict, extra = search._integer_verdict, []

    def accepts_one_more(p, q, checks, s_primes):
        if verdict(p, q, checks, s_primes):
            return True
        extra.append((p, q))
        return len(extra) == 1

    monkeypatch.setattr(search, "_integer_verdict", accepts_one_more)
    with pytest.raises(AssertionError, match="disagree"):
        enumerate_campana_points_p1(_pair(text), s, height)
    assert len(extra) == 1


@pytest.mark.parametrize("text,height,s,_", LINE_PAIRS, ids=["2-2-2", "40-2-2", "union-div-log"])
def test_p1_recheck_catches_a_lost_support_flag(text, height, s, _, monkeypatch):
    # vectors that put a point on a divisor off it (no multiplicities) drop its in_support flag
    vector = search.point_valuation_vector

    def off_every_divisor(*args):
        return {lbl: DivisorValuations() if dv.contained else dv for lbl, dv in vector(*args).items()}

    monkeypatch.setattr(search, "point_valuation_vector", off_every_divisor)
    with pytest.raises(AssertionError, match="disagree"):
        enumerate_campana_points_p1(_pair(text), s, height)


CANONICAL_POINTS = st.one_of(
    st.just((1, 0)),
    st.tuples(st.integers(-10**30, 10**30), st.just(1)),
    st.tuples(st.integers(-10**30, 10**30), st.integers(1, 10**30)).filter(lambda pq: math.gcd(*pq) == 1))


@given(pt=CANONICAL_POINTS, flags=st.sampled_from([(), ("in_support",)]))
def test_p1_json_line_equals_json_dumps(pt, flags):
    r = P1PointRecord(*pt, flags)
    assert r.json_line() == json.dumps(r.to_json_obj())


@given(p=st.integers(-10**30, 10**30), q=st.integers(-10**30, 10**30).filter(bool))
def test_projective_point_text_is_that_of_the_fraction(p, q):
    # canonical pairs skip the Fraction, every other pair reduces through it
    assert format_projective_point((p, q)) == format_rational(Fraction(p, q))
    assert format_projective_point((p, 0)) == "inf"


@settings(max_examples=200)
@given(p=st.integers(-10**6, 10**6), q=st.integers(0, 10**6), s=st.sets(st.sampled_from((2, 3, 5, 7))))
def test_point_valuation_vector_equals_validated_data(p, q, s):
    # the entries built from factor's output equal those the validating constructor builds from sympy
    divisors = [(pt, LOG) for pt in ((0, 1), (1, 0), (1, 1), (-3, 2), (7, 5))]
    vec = search.point_valuation_vector(p, q, divisors, SIntegerContext(s))
    assert list(vec) == [format_projective_point(pt) for pt, _ in divisors]
    for ((a, b), _), got in zip(divisors, vec.values()):
        t = p * b - q * a
        want = DivisorValuations(contained=True) if t == 0 else \
            DivisorValuations(mults={l: e for l, e in sympy.factorint(abs(t)).items() if l not in s})
        assert (got, hash(got), got.to_json_obj()) == (want, hash(want), want.to_json_obj())


@pytest.mark.parametrize("oracle_divisors,s", [
    ([((0, 1), 2), ((1, 1), 2), ((1, 0), 2)], ()),
    ([((0, 1), None), ((1, 1), 2), ((1, 0), 2)], (2,)),  # LOG at 0
], ids=["2-2-2", "log-2-2"])
def test_p1_sieve_matches_oracle_at_height_300(oracle_divisors, s):
    divisors = [(pt, LOG if m is None else AtLeast(m)) for pt, m in oracle_divisors]
    got = {(r.p, r.q) for r in enumerate_campana_points_p1(divisors, s, 300)}
    assert got == oracle_p1_accepts(oracle_divisors, s, 300)


SPARSE_CONDITIONS = [LOG, *map(AtLeast, (2, 3, 40)), *map(DivisibleBy, (2, 3)),
                     parse_condition("union <2,7>|<3>"), parse_condition("union <2>|<3>")]


@settings(max_examples=200, deadline=None)
@given(point=st.sampled_from(P1_POINTS), cond=st.sampled_from(SPARSE_CONDITIONS),
       s=st.sets(st.sampled_from((2, 3, 5, 7))), height=st.integers(1, 300))
def test_values_bound_holds(point, cond, s, height):
    # p1_scan_count is a product of these bounds, so each must hold its list
    ctx, union = SIntegerContext(s), condition_element_union(cond)
    assert _values_bound((point, cond), union, ctx, height) >= \
        len(_accepted_values((point, cond), union, ctx, height))


def test_values_bound_for_log_counts_both_signs():
    # the 40 3-smooth numbers up to 1000, each with both signs, under 10 * 7 exponent pairs, doubled
    divisor, ctx = ((0, 1), LOG), SIntegerContext([2, 3])
    union = condition_element_union(LOG)
    assert len(_accepted_values(divisor, union, ctx, 1000)) == 80
    assert _values_bound(divisor, union, ctx, 1000) == 140


def test_p1_census_at_height_1000():
    # squareful p, q and p - q (or zero), support points included
    assert len(enumerate_campana_points_p1(HALF, (), 1000)) == 123
