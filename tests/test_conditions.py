"""Multiplicity conditions, point checks, and divisor-configuration checks."""

import copy
import pickle
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cpairs.conditions import (
    LOG,
    AtLeast,
    CPairSpec,
    DivisibleBy,
    DivisorConfiguration,
    DivisorValuations,
    UnionCondition,
    check_campana_point,
    check_darmon_point,
    check_generalized_configuration,
    check_generalized_point_dedekind,
    condition_element_union,
    condition_inf,
    cpair_coefficient,
    cpair_divisor,
    format_condition,
    format_pair_spec,
    parse_condition,
    parse_pair_spec,
    vector_from_json_obj,
    vector_to_json_obj,
)
from cpairs.arith import INFINITY, PrimeFactorization, SIntegerContext
from cpairs.geometry import FibreDecomposition, campana_weights, classify_xa_family, weakly_special_checklist
from cpairs.search import SearchConfig
from cpairs.semigroups import NumericalSemigroup, parse_union


def test_condition_element_sets():
    assert condition_element_union(AtLeast(3)).elements_up_to(8) == [3, 4, 5, 6, 7, 8]
    assert condition_element_union(DivisibleBy(3)).elements_up_to(10) == [3, 6, 9]
    assert condition_element_union(LOG).elements_up_to(10) == []
    u = UnionCondition(parse_union("<2>|<3>"))
    assert condition_element_union(u).contains(9) and not condition_element_union(u).contains(7)
    assert condition_inf(AtLeast(4)) == 4
    assert condition_inf(LOG) is INFINITY


def test_coefficients():
    assert cpair_coefficient(AtLeast(1)) == 0
    assert cpair_coefficient(AtLeast(2)) == Fraction(1, 2)
    assert cpair_coefficient(DivisibleBy(3)) == Fraction(2, 3)
    assert cpair_coefficient(UnionCondition(parse_union("<2>|<3>"))) == Fraction(1, 2)
    assert cpair_coefficient(LOG) == 1


def test_condition_text_roundtrip():
    for text in (">=2", "div 3", "inf", "union <2,7>|<3>"):
        assert format_condition(parse_condition(text)) == text
    assert parse_condition(">= 5") == AtLeast(5)
    with pytest.raises(ValueError):
        parse_condition("at least 2")
    with pytest.raises(ValueError):
        parse_condition(">=0")


def test_pair_spec_parsing():
    spec = parse_pair_spec("0: >=2; 1: inf; inf: union <2,7>|<3>")
    assert spec.labels() == ("0", "1", "inf")
    assert spec.condition("1") == LOG
    assert format_pair_spec(spec) == "0: >=2; 1: inf; inf: union <2,7>|<3>"
    with pytest.raises(ValueError):
        parse_pair_spec("0: >=2; 0: >=3")
    with pytest.raises(ValueError):
        parse_pair_spec("just text")


def test_valuation_data_validation():
    with pytest.raises(ValueError):
        DivisorValuations(mults={4: 2})  # 4 is not prime
    with pytest.raises(ValueError):
        DivisorValuations(mults={3: 0})  # zero multiplicities are omitted, not stored
    with pytest.raises(ValueError):
        DivisorValuations(contained=True, mults={3: 1})
    dv = DivisorValuations(mults={5: 2, 3: 4})
    assert dv.mults == ((3, 4), (5, 2))


def test_vector_json_roundtrip():
    vec = {"0": DivisorValuations(mults={3: 2}), "inf": DivisorValuations(contained=True)}
    obj = vector_to_json_obj(vec)
    assert obj == {"0": {"contained": False, "mults": [[3, 2]]},
                   "inf": {"contained": True, "mults": []}}
    assert vector_from_json_obj(obj) == vec


def _vec(**kw):
    return {k: DivisorValuations(mults=v) if isinstance(v, dict)
            else DivisorValuations(contained=True) for k, v in kw.items()}


def test_check_campana_point():
    spec = CPairSpec([("D", AtLeast(2)), ("E", LOG)])
    good = check_campana_point(spec, _vec(D={3: 2, 7: 5}, E={}))
    assert good.accepted and good.flags == ()
    bad = check_campana_point(spec, _vec(D={3: 2, 5: 1, 2: 1}, E={}))
    assert not bad.accepted
    assert bad.divisors[0].witness_prime == 2  # smallest failing prime
    # zero multiplicity everywhere is fine for AtLeast
    assert check_campana_point(spec, _vec(D={}, E={})).accepted


def test_contained_points_are_flagged():
    spec = CPairSpec([("D", AtLeast(2)), ("E", LOG)])
    v = check_campana_point(spec, _vec(D="contained", E={}))
    assert v.accepted and v.flags == ("in_support",)
    # a log divisor must be avoided: containment rejects
    v2 = check_campana_point(spec, _vec(D={}, E="contained"))
    assert not v2.accepted and v2.divisors[1].in_support


def test_log_divisor_needs_zero_multiplicity():
    spec = CPairSpec([("E", LOG)])
    assert check_campana_point(spec, _vec(E={})).accepted
    v = check_campana_point(spec, _vec(E={5: 1}))
    assert not v.accepted and v.divisors[0].witness_prime == 5


def test_checker_condition_kinds():
    vec = _vec(D={3: 2})
    with pytest.raises(ValueError):
        check_campana_point(CPairSpec([("D", DivisibleBy(2))]), vec)
    with pytest.raises(ValueError):
        check_darmon_point(CPairSpec([("D", AtLeast(2))]), vec)
    # dedekind takes anything
    assert check_generalized_point_dedekind(CPairSpec([("D", AtLeast(2))]), vec).accepted


def test_checkers_compare_labels_with_the_pairs():
    spec = CPairSpec([("D", AtLeast(2)), ("E", AtLeast(2))])
    for vec in (_vec(D={3: 2}), _vec(D={3: 2}, E={}, F={}), _vec(D={3: 2}, F={})):
        for check in (check_campana_point, check_generalized_point_dedekind):
            with pytest.raises(ValueError, match="do not match pair labels"):
                check(spec, vec)
    # a copied or unpickled pair carries its label set along
    for same in (spec, copy.copy(spec), pickle.loads(pickle.dumps(spec))):
        assert check_generalized_point_dedekind(same, _vec(E={}, D={3: 2})).accepted


def test_check_darmon_point():
    spec = CPairSpec([("D", DivisibleBy(3))])
    assert check_darmon_point(spec, _vec(D={2: 6, 5: 3})).accepted
    v = check_darmon_point(spec, _vec(D={2: 6, 5: 4}))
    assert not v.accepted and v.divisors[0].witness_prime == 5


def test_vector_labels_must_match():
    spec = CPairSpec([("D", AtLeast(2))])
    with pytest.raises(ValueError):
        check_campana_point(spec, _vec(E={}))
    with pytest.raises(ValueError):
        check_campana_point(spec, _vec(D={}, E={}))


def test_cpair_divisor_fixture():
    spec = parse_pair_spec("0: >=2; 1: inf; 2: >=1; 3: union <2>|<3>")
    assert cpair_divisor(spec) == [
        ("0", Fraction(1, 2)), ("1", Fraction(1)), ("2", Fraction(0)), ("3", Fraction(1, 2)),
    ]


mult_maps = st.dictionaries(st.sampled_from([2, 3, 5, 7, 11, 13]),
                            st.integers(min_value=1, max_value=30), max_size=4)


@given(mult_maps, st.integers(min_value=1, max_value=9))
def test_dedekind_union_agrees_with_campana(mults, m):
    """Union({Z>=m}) and AtLeast(m) accept exactly the same vectors."""
    vec = _vec(D=mults)
    a = check_campana_point(CPairSpec([("D", AtLeast(m))]), vec)
    u = UnionCondition(parse_union(f"<{m}.."))
    b = check_generalized_point_dedekind(CPairSpec([("D", u)]), vec)
    assert a.accepted == b.accepted


@given(mult_maps, st.integers(min_value=1, max_value=9),
       st.sets(st.integers(min_value=1, max_value=12), max_size=2))
def test_refinement_chain(mults, m, extra):
    """divisible-by-m implies at-least-m implies membership in any superset union."""
    vec = _vec(D=mults)
    darmon = check_darmon_point(CPairSpec([("D", DivisibleBy(m))]), vec).accepted
    campana = check_campana_point(CPairSpec([("D", AtLeast(m))]), vec).accepted
    u = parse_union(f"<{m}..") if not extra else parse_union(
        f"<{m}..|" + "|".join(f"<{e}>" for e in sorted(extra)))
    union = check_generalized_point_dedekind(CPairSpec([("D", UnionCondition(u))]), vec).accepted
    assert (not darmon or campana) and (not campana or union)


# -- configurations ---------------------------------------------------------------


FIX = DivisorConfiguration(components=[("F2", 2), ("F7", 7), ("F3", 3)],
                           edges=[("F2", "F7")])


def test_configuration_fixture_accepts_and_rejects():
    ok = check_generalized_configuration(parse_union("<2,7>|<3>"), FIX)
    assert ok.accepted
    assert ok.assignment == ((("F2", "F7"), 1), (("F3",), 2))
    bad = check_generalized_configuration(parse_union("<2>|<3,4,7>"), FIX)
    assert not bad.accepted
    assert bad.failing_component == ("F2", "F7")


def test_configuration_blocks_can_repeat():
    cfg = DivisorConfiguration(components=[("A", 2), ("B", 4)], edges=[])
    v = check_generalized_configuration(parse_union("<2>|<3>"), cfg)
    assert v.accepted and v.assignment == ((("A",), 1), (("B",), 1))


def test_configuration_connectivity_matters():
    # same multiplicities; with the edge the component {A, B} needs one block for both
    comps = [("A", 2), ("B", 3)]
    u = parse_union("<2>|<3>")
    free = check_generalized_configuration(u, DivisorConfiguration(comps, []))
    joined = check_generalized_configuration(u, DivisorConfiguration(comps, [("A", "B")]))
    assert free.accepted and not joined.accepted


def test_configuration_validation():
    with pytest.raises(ValueError):
        DivisorConfiguration([("A", 2), ("A", 3)], [])
    with pytest.raises(ValueError):
        DivisorConfiguration([("A", 2)], [("A", "A")])
    with pytest.raises(ValueError):
        DivisorConfiguration([("A", 2)], [("A", "B")])
    with pytest.raises(ValueError):
        DivisorConfiguration([("A", 0)], [])


def test_configuration_of_many_singletons_in_linear_time():
    # one component per vertex, no edges: each multiplicity is read from one dict, not a scan
    cfg = DivisorConfiguration([(f"C{i}", (2, 3, 4, 6)[i % 4]) for i in range(30000)], [])
    start = time.perf_counter()
    v = check_generalized_configuration(parse_union("<2>|<3>"), cfg)
    assert time.perf_counter() - start < 2
    assert v.accepted and len(v.assignment) == 30000
    assert v.assignment[:4] == ((("C0",), 1), (("C1",), 2), (("C2",), 1), (("C3",), 1))


def test_configuration_json_roundtrip():
    obj = FIX.to_json_obj()
    assert DivisorConfiguration.from_json_obj(obj) == FIX
    assert obj == {"components": [["F2", 2], ["F7", 7], ["F3", 3]],
                   "edges": [["F2", "F7"]]}


def test_value_types_keep_frozen_dataclass_semantics():
    """Equal only within one type, hash agrees with equality, immutable, validated."""
    assert AtLeast(2) != DivisibleBy(2) and AtLeast(2) != (2,)
    assert AtLeast(2) == AtLeast(2) and hash(AtLeast(2)) == hash(AtLeast(2))
    assert len({AtLeast(2), AtLeast(2), DivisibleBy(2), LOG, LOG}) == 3
    assert repr(AtLeast(2)) == "AtLeast(m=2)"
    # the element unions take no part in a pair's equality
    spec = CPairSpec([("D", AtLeast(2))])
    same = CPairSpec([("D", AtLeast(2))])
    assert spec.unions is not same.unions and spec == same and hash(spec) == hash(same)
    assert spec != CPairSpec([("D", AtLeast(3))])
    assert repr(spec) == "CPairSpec(divisors=(('D', AtLeast(m=2)),))"
    for value, field in [(AtLeast(2), "m"), (spec, "unions"), (PrimeFactorization(1, ()), "sign"),
                         (SIntegerContext([2]), "primes"), (NumericalSemigroup([2, 3]), "generators"),
                         (SearchConfig([2], 1), "exponent_bound")]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert copy.copy(value) == value and pickle.loads(pickle.dumps(value)) == value
    with pytest.raises(ValueError):
        AtLeast(0)
    with pytest.raises(ValueError):
        DivisibleBy(0)
    with pytest.raises(ValueError):
        PrimeFactorization(1, ((3, 1), (2, 1)))
    # the cached Apery set lives beside the fields, outside equality
    sg = NumericalSemigroup([2, 3])
    assert sg.contains(5) and sg == NumericalSemigroup([3, 2])


# one call per site that reads an integer input, with x in the place under test; x = 2 is valid
EXACT_INT_SITES = {
    "SIntegerContext": lambda x: SIntegerContext([2, x]),
    "NumericalSemigroup": lambda x: NumericalSemigroup([x, 3]),
    "DivisorValuations prime": lambda x: DivisorValuations(mults={x: 2}),
    "DivisorValuations multiplicity": lambda x: DivisorValuations(mults={3: x}),
    "DivisorConfiguration": lambda x: DivisorConfiguration([("A", x)]),
    "FibreDecomposition": lambda x: FibreDecomposition([x]),
    "classify_xa_family": lambda x: classify_xa_family([x, 3]),
    "campana_weights weight": lambda x: campana_weights([x, 3]),
    "campana_weights block size": lambda x: campana_weights([2, 3, 5], [x, 1]),
    "PrimeFactorization prime": lambda x: PrimeFactorization.from_json_obj({"sign": 1, "factors": [[x, 1]]}),
    "PrimeFactorization exponent": lambda x: PrimeFactorization.from_json_obj({"sign": 1, "factors": [[2, x]]}),
    "SearchConfig prime": lambda x: SearchConfig([x], 2),
    "SearchConfig bound": lambda x: SearchConfig([2], x),
}


@pytest.mark.parametrize("site", EXACT_INT_SITES)
@pytest.mark.parametrize("value", [2.5, 2.0, Fraction(5, 2), "2", True], ids=repr)
def test_integer_inputs_must_be_exact(site, value):
    # int() would truncate 2.5 to 2 and read True as 1; each site refuses them instead
    build = EXACT_INT_SITES[site]
    build(2)
    with pytest.raises(ValueError, match="must be an integer"):
        build(value)


# one call per site that reads a flag, with x in the place under test; x = False is valid
EXACT_BOOL_SITES = {
    "DivisorValuations contained": lambda x: DivisorValuations(contained=x),
    "FibreDecomposition has_exceptional_part": lambda x: FibreDecomposition([2], has_exceptional_part=x),
    "FibreDecomposition empty": lambda x: FibreDecomposition([2], empty=x),
    "weakly_special_checklist base": lambda x: weakly_special_checklist(x, True, [("D", FibreDecomposition([1]))]),
    "weakly_special_checklist dense": lambda x: weakly_special_checklist(True, x, [("D", FibreDecomposition([1]))]),
    "SearchConfig negative units": lambda x: SearchConfig([2], 1, include_negative_units=x),
    "SearchConfig support points": lambda x: SearchConfig([2], 1, include_support_points=x),
}


@pytest.mark.parametrize("site", EXACT_BOOL_SITES)
@pytest.mark.parametrize("value", ["no", 1, 0, None], ids=repr)
def test_flag_inputs_must_be_exact(site, value):
    # bool() would read "no" and 1 as True, and 0 and None as False; each site refuses them instead
    build = EXACT_BOOL_SITES[site]
    build(False)
    with pytest.raises(ValueError, match="must be True or False"):
        build(value)


def test_flags_are_kept_as_given():
    assert DivisorValuations(contained=True).contained is True
    fibre = FibreDecomposition([2], has_exceptional_part=True)
    assert fibre.has_exceptional_part is True and fibre.empty is False
    assert FibreDecomposition(empty=True).empty is True
    report = weakly_special_checklist(False, True, [("D", FibreDecomposition([1]))])
    assert (report.base_weakly_special, report.weakly_special_fibres_dense) == (False, True)
    cfg = SearchConfig([2], 1, include_negative_units=False)
    assert (cfg.include_negative_units, cfg.include_support_points) == (False, True)
