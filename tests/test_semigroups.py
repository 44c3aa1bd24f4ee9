"""Numerical semigroups: membership, atoms, frobenius, unions, text grammar."""

import copy
import math
import pickle

import pytest
from hypothesis import example, given, strategies as st

from cpairs.semigroups import (
    MAX_APERY,
    NumericalSemigroup,
    SemigroupUnion,
    _round_robin,
    format_semigroup,
    format_union,
    parse_semigroup,
    parse_union,
)

from _oracles import naive_atoms, naive_frobenius, naive_semigroup_elements


@st.composite
def _gen_sets(draw):
    """Generator sets whose smallest element reaches 60 before scaling, so
    Apery sets have up to 60 residues; some share a factor (gcd > 1) and some
    carry a redundant generator, the sum of two others."""
    gens = draw(st.sets(st.integers(min_value=1, max_value=60), min_size=1, max_size=5))
    scale = draw(st.sampled_from([1, 1, 2, 3]))
    gens = {scale * g for g in gens}
    if draw(st.booleans()):
        pool = sorted(gens)
        gens.add(draw(st.sampled_from(pool)) + draw(st.sampled_from(pool)))
    return gens


gen_sets = _gen_sets()


@given(gen_sets)
def test_membership_matches_naive_closure(gens):
    s = NumericalSemigroup(gens)
    lim = 4 * max(gens) + 7
    want = naive_semigroup_elements(gens, lim)
    assert set(s.elements_up_to(lim)) == want


@given(gen_sets)
def test_membership_beyond_the_table(gens):
    # spot-check large values against divisibility structure via the naive closure
    s = NumericalSemigroup(gens)
    lim = 40 * max(gens)
    want = naive_semigroup_elements(gens, lim)
    for n in range(lim - 10, lim + 1):
        assert s.contains(n) == (n in want)


@given(gen_sets)
def test_atoms_match_naive(gens):
    assert NumericalSemigroup(gens).atoms() == naive_atoms(gens)


def test_atoms_of_lower_bound_sets():
    for m in range(1, 65):
        s = NumericalSemigroup.from_lower_bound(m)
        assert s.atoms() == tuple(range(m, 2 * m))
        assert tuple(s.generators) == tuple(range(m, 2 * m))


@st.composite
def _ordinary_sets(draw):
    """Every form of an ordinary semigroup g*<m..: the generators m..2m-1 as a range
    (step g) or as a tuple, alone or with larger generators, times g in {1, 2, 3, 7}."""
    m = draw(st.integers(min_value=1, max_value=40))
    g = draw(st.sampled_from([1, 1, 2, 3, 7]))
    form = draw(st.sampled_from(["range", "tuple", "extra"]))
    if form == "range":
        return range(g * m, 2 * g * m, g)
    gens = set(range(m, 2 * m))
    if form == "extra":
        gens |= draw(st.sets(st.integers(min_value=m, max_value=6 * m), min_size=1, max_size=8))
    return tuple(g * x for x in gens)


@given(_ordinary_sets())
@example(range(1, 2))
@example((7,))
def test_ordinary_semigroups_in_closed_form(gens):
    s = NumericalSemigroup(gens)
    g, a1, ap = s._scaled
    assert ap is None and g == math.gcd(*gens)
    table = _round_robin(a1, [x // g for x in s.generators[1:]])
    for n in range(1, g * (3 * a1 + 2)):
        assert s.contains(n) == (n % g == 0 and n // g >= table[n // g % a1])
    assert s.atoms() == naive_atoms(gens)
    if g == 1:
        assert s.frobenius() == naive_frobenius(gens)


def test_seed_is_refused_when_a_class_misses_below_2a1():
    # 9 = 1 mod 4 but 9 >= 8, and 5 = 4 + 1 is not in <4,6,9>: round-robin must run
    assert NumericalSemigroup([4, 6, 9])._scaled == (1, 4, [0, 9, 6, 15]) == (1, 4, _round_robin(4, [6, 9]))


def test_interval_generators_are_held_as_the_lower_bound_range():
    s, t = NumericalSemigroup([3, 5, 4]), parse_semigroup("<3..")
    assert s.generators == t.generators == range(3, 6) and s == t and hash(s) == hash(t)
    assert s.contains(4) and repr(s) == "NumericalSemigroup([3, 4, 5])"
    assert copy.copy(s) == t and pickle.loads(pickle.dumps(s)) == t == copy.deepcopy(s)
    r = range(5, 10)
    assert NumericalSemigroup(r).generators is r
    assert NumericalSemigroup(range(2, 10)).generators == tuple(range(2, 10))
    assert NumericalSemigroup(range(0)).is_empty


def test_large_lower_bound_answers():
    s = NumericalSemigroup.from_lower_bound(10000)
    assert s.frobenius() == 9999
    assert not s.contains(5000) and s.contains(10000)
    assert len(s.atoms()) == 10000


def test_atoms_do_not_scan_up_to_a_large_generator():
    assert NumericalSemigroup([2, 100000001]).atoms() == (2, 100000001)
    assert NumericalSemigroup([1000, 1000000001]).atoms() == (1000, 1000000001)


def test_atoms_drop_redundant_generators():
    assert NumericalSemigroup([2, 3, 4]).atoms() == (2, 3)
    assert NumericalSemigroup([4, 6, 10]).atoms() == (4, 6)  # 10 = 4 + 6
    assert NumericalSemigroup([4, 6, 9]).atoms() == (4, 6, 9)
    assert NumericalSemigroup([1, 5]).atoms() == (1,)


def test_frobenius_fixtures():
    assert NumericalSemigroup([2, 3]).frobenius() == 1
    assert NumericalSemigroup([2, 7]).frobenius() == 5
    assert NumericalSemigroup([1]).frobenius() == -1
    assert NumericalSemigroup([3, 5]).frobenius() == 7


@given(gen_sets.filter(lambda g: __import__("math").gcd(*g) == 1))
def test_frobenius_matches_naive(gens):
    assert NumericalSemigroup(gens).frobenius() == naive_frobenius(gens)


def test_cofinite_iff_gcd_one():
    assert NumericalSemigroup([2, 3]).is_cofinite
    assert not NumericalSemigroup([2, 4]).is_cofinite
    assert not NumericalSemigroup([]).is_cofinite
    with pytest.raises(ValueError):
        NumericalSemigroup([2, 4]).frobenius()


def test_empty_semigroup():
    e = NumericalSemigroup()
    assert e.is_empty and e.atoms() == () and e.min_element() is None
    assert not e.contains(5)
    assert e.elements_up_to(10) == []


def test_membership_domain():
    with pytest.raises(ValueError):
        NumericalSemigroup([2]).contains(0)
    with pytest.raises(ValueError):
        NumericalSemigroup([0, 2])


def test_scaled_membership():
    s = NumericalSemigroup([4, 6])  # 2 * <2,3>
    assert [n for n in range(1, 20) if s.contains(n)] == [4, 6, 8, 10, 12, 14, 16, 18]
    assert 2 * 10**9 + 1 not in s
    assert 2 * 10**9 in s


# -- unions --------------------------------------------------------------------


def test_union_membership_and_min():
    u = parse_union("<2>|<3>")
    assert set(u.elements_up_to(12)) == {2, 3, 4, 6, 8, 9, 10, 12}
    assert u.min_element() == 2
    assert 7 not in u


def test_union_cofinite_means_generated_semigroup():
    # the union <2>|<3> is not cofinite as a set, but it generates Z>=2
    assert parse_union("<2>|<3>").is_cofinite
    assert not parse_union("<2>|<4>").is_cofinite
    assert not SemigroupUnion([]).is_cofinite


def test_union_block_data_is_preserved():
    u = parse_union("<3>|<2,7>")
    assert u.blocks == (NumericalSemigroup([3]), NumericalSemigroup([2, 7]))
    assert u.atoms_per_block() == ((3,), (2, 7))


def test_union_rejects_mixed_empty_blocks():
    with pytest.raises(ValueError):
        SemigroupUnion([NumericalSemigroup(), NumericalSemigroup([2])])
    with pytest.raises(TypeError, match="blocks must be NumericalSemigroup, got int"):
        SemigroupUnion([3])
    only_empty = SemigroupUnion([NumericalSemigroup()])
    assert only_empty.is_empty and not only_empty.contains(3)


# -- text grammar ----------------------------------------------------------------


def test_parse_fixtures():
    assert parse_semigroup("<2,7>") == NumericalSemigroup([2, 7])
    assert parse_semigroup("<4..") == NumericalSemigroup([4, 5, 6, 7])
    assert parse_semigroup("{}") == NumericalSemigroup()
    assert parse_semigroup(" < 2 , 7 > ") == NumericalSemigroup([2, 7])
    u = parse_union("<2,7>|<3>")
    assert u.blocks == (NumericalSemigroup([2, 7]), NumericalSemigroup([3]))


def test_parse_errors():
    for bad in ("", "<>", "2,3", "<2,", "<2..3", "[2]"):
        with pytest.raises(ValueError):
            parse_semigroup(bad)


def test_parse_refuses_apery_sets_past_the_limit():
    # the limit is on a1 / gcd; the generators at the limit parse (no table is built yet)
    assert parse_semigroup(f"<{2 * MAX_APERY},{2 * MAX_APERY + 2}>").gcd == 2
    for bad in (f"<{MAX_APERY + 1}..", f"<{MAX_APERY + 1},{MAX_APERY + 2}>",
                f"<{3 * MAX_APERY + 3},{3 * MAX_APERY + 6}>", "<2>|<1000000000.."):
        with pytest.raises(ValueError, match=str(MAX_APERY)):
            parse_union(bad)
    with pytest.raises(ValueError, match=str(MAX_APERY)):
        NumericalSemigroup.from_lower_bound(10**9)


def test_format_roundtrip():
    for text in ("<2,7>", "<4..", "{}", "<1..", "<3,5>"):
        assert format_semigroup(parse_semigroup(text)) == text
    for text in ("<2,7>|<3>", "{}", "<2..|<3,4,7>"):
        assert format_union(parse_union(text)) == text
    # generators that happen to form a full interval print in lower-bound form
    assert format_semigroup(NumericalSemigroup([2, 3])) == "<2.."
    assert format_semigroup(NumericalSemigroup([3, 4, 6])) == "<3,4,6>"
