"""Fibre classification, orbifold bases, the x^a family, and weight lattices."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cpairs.arith import INFINITY
from cpairs.conditions import LOG, AtLeast, DivisibleBy, UnionCondition
from cpairs.geometry import (
    KODAIRA_MULTIPLICITIES,
    FibreDecomposition,
    KodairaStarredType,
    campana_space_report,
    campana_weights,
    classify_fibre,
    classify_xa_family,
    fibre_from_json_obj,
    fibre_to_json_obj,
    kodaira_reduced_removal,
    orbifold_base,
    weakly_special_checklist,
)
from cpairs.semigroups import parse_union

from _oracles import euclid_kernel_rows, row_hnf


def test_fibre_validation():
    with pytest.raises(ValueError):
        FibreDecomposition(empty=True, multiplicities=[2])
    with pytest.raises(ValueError):
        FibreDecomposition(empty=True, has_exceptional_part=True)
    with pytest.raises(ValueError):
        FibreDecomposition([])  # nonempty fibres dominate through some component
    with pytest.raises(ValueError):
        FibreDecomposition([0, 2])
    assert FibreDecomposition([3, 2, 2]).multiplicities == (2, 2, 3)


def test_fibre_is_an_immutable_value():
    fibre = FibreDecomposition([3, 2], has_exceptional_part=True)
    assert fibre == FibreDecomposition([2, 3], True) and hash(fibre) == hash(FibreDecomposition([2, 3], True))
    assert fibre != ((2, 3), True, False) and fibre != FibreDecomposition([2, 3])
    assert repr(fibre) == "FibreDecomposition(multiplicities=(2, 3), has_exceptional_part=True, empty=False)"
    assert copy.copy(fibre) == fibre and pickle.loads(pickle.dumps(fibre)) == fibre
    for field in ("multiplicities", "empty"):
        with pytest.raises(AttributeError):
            setattr(fibre, field, ())
        with pytest.raises(AttributeError):
            delattr(fibre, field)


def test_classification_fixtures():
    c = classify_fibre(FibreDecomposition([2, 3]))
    assert (c.inf_mult, c.gcd_mult) == (2, 1)
    assert c.coefficient == Fraction(1, 2)
    assert c.inf_multiple and not c.divisible

    c = classify_fibre(FibreDecomposition([2, 2]))
    assert c.divisible and c.inf_multiple and c.gcd_mult == 2

    c = classify_fibre(FibreDecomposition([1, 5]))
    assert not c.inf_multiple and not c.divisible and c.coefficient == 0

    c = classify_fibre(FibreDecomposition(empty=True))
    assert c.inf_mult is INFINITY and c.gcd_mult is INFINITY
    assert c.coefficient == 1 and c.inf_multiple and c.divisible


@given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=6))
def test_classification_properties(mults):
    c = classify_fibre(FibreDecomposition(mults))
    assert c.inf_mult == min(mults) and c.gcd_mult == math.gcd(*mults)
    assert c.inf_mult % c.gcd_mult == 0
    assert c.coefficient == 1 - Fraction(1, min(mults))
    if c.divisible:
        assert c.inf_multiple  # gcd >= 2 forces min >= 2


def test_orbifold_base_of_the_square_cube_fibration():
    fibres = [
        ("0", FibreDecomposition([2, 3])),
        ("1", FibreDecomposition(empty=True)),
        ("inf", FibreDecomposition(empty=True)),
    ]
    rep = orbifold_base(fibres)
    assert [e.label for e in rep.entries] == ["0", "1", "inf"]
    assert [e.classification.coefficient for e in rep.entries] == [Fraction(1, 2), 1, 1]
    assert rep.coefficient("0") == Fraction(1, 2)
    with pytest.raises(ValueError):
        orbifold_base(fibres + [("0", FibreDecomposition([2]))])


def test_checklist():
    fibres = [("0", FibreDecomposition([2, 3])), ("generic", FibreDecomposition([1]))]
    rep = weakly_special_checklist(True, True, fibres)
    assert rep.certified and rep.no_divisible_fibre and rep.divisible_witness is None

    rep = weakly_special_checklist(True, True, fibres + [("bad", FibreDecomposition([2, 4]))])
    assert not rep.certified and rep.divisible_witness == "bad"

    rep = weakly_special_checklist(False, True, fibres)
    assert not rep.certified and rep.no_divisible_fibre
    with pytest.raises(ValueError, match="divisor labels must be unique"):
        weakly_special_checklist(True, True, fibres + [("0", FibreDecomposition([4]))])


def test_xa_family():
    c = classify_xa_family([2, 3])
    assert c.weakly_special and not c.special
    assert classify_xa_family([1, 7]).special
    assert classify_xa_family([1]).special
    for bad in ([], [0, 1], [3, 2], [2, 4]):
        with pytest.raises(ValueError):
            classify_xa_family(bad)


def test_kodaira_tables():
    assert KODAIRA_MULTIPLICITIES[KodairaStarredType.II_STAR] == (1, 2, 3, 4, 5, 6, 4, 3, 2)
    assert KODAIRA_MULTIPLICITIES[KodairaStarredType.III_STAR] == (1, 2, 3, 4, 3, 2, 1, 2)
    assert KODAIRA_MULTIPLICITIES[KodairaStarredType.IV_STAR] == (1, 1, 1, 2, 2, 2, 3)


def test_kodaira_reductions():
    expected_removed = {"II*": 1, "III*": 2, "IV*": 3}
    for name, removed in expected_removed.items():
        r = kodaira_reduced_removal(name)
        assert r.removed_components == removed
        assert (r.classification.inf_mult, r.classification.gcd_mult) == (2, 1)
        assert r.classification.inf_multiple and not r.classification.divisible
        assert min(r.fibre.multiplicities) == 2


def test_kodaira_rejects_other_types():
    for bad in ("I0", "I1", "II", "III", "IV", "I0*", "mI3"):
        with pytest.raises(ValueError) as e:
            kodaira_reduced_removal(bad)
        assert "mI_n" in str(e.value)


# -- weight lattices -----------------------------------------------------------


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def test_weights_fixture_2_3():
    w = campana_weights([2, 3], (1, 1))
    assert w.kernel_basis == ((3, -2),)
    assert w.splitting == (-1, 1)
    assert _dot(w.splitting, (2, 3)) == 1
    assert w.strata == ((1, 2),)
    assert (w.inf_mult, w.gcd_mult) == (2, 1)


def test_weights_rank_one():
    w = campana_weights([1])
    assert w.kernel_basis == () and w.splitting == (1,)
    w = campana_weights([2])
    assert w.kernel_basis == () and w.splitting is None and w.gcd_mult == 2


def test_weights_no_splitting_when_gcd_not_one():
    w = campana_weights([2, 4])
    assert w.splitting is None
    assert w.kernel_basis == ((2, -1),)
    assert w.gcd_mult == 2


def test_weights_input_validation():
    with pytest.raises(ValueError):
        campana_weights([])
    with pytest.raises(ValueError):
        campana_weights([2, 0])
    with pytest.raises(ValueError):
        campana_weights([2, 3], (1, 2))  # sizes must cover exactly


def test_strata_cross_blocks_only():
    w = campana_weights([2, 7, 3], (2, 1))
    assert w.strata == ((1, 3), (2, 3))
    assert campana_weights([2, 3, 5]).strata == ()


def _random_unimodular_mix(rows, rng):
    rows = [list(r) for r in rows]
    for _ in range(8):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        if i == j:
            continue
        q = rng.randint(-3, 3)
        rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return rows


def _lattice_checks(a, rng):
    r = len(a)
    cuts = sorted(rng.sample(range(1, r), rng.randint(0, r - 1)))
    sizes = [end - start for start, end in zip([0, *cuts], [*cuts, r])]
    w = campana_weights(a, sizes)
    block = [b for b, size in enumerate(sizes) for _ in range(size)]
    assert w.strata == tuple((i + 1, j + 1) for i in range(r) for j in range(i + 1, r) if block[i] != block[j])
    # the closed form is the row HNF of the kernel the Euclid rows span, not of a sublattice
    assert w.kernel_basis == row_hnf(euclid_kernel_rows(a))
    assert len(w.kernel_basis) == r - 1
    for row in w.kernel_basis:
        assert _dot(row, a) == 0
    leading = [next(x for x in row if x != 0) for row in w.kernel_basis]
    assert all(x > 0 for x in leading)
    assert w.gcd_mult == math.gcd(*a) and w.inf_mult == min(a)
    if math.gcd(*a) == 1:
        assert w.splitting is not None and _dot(w.splitting, a) == 1
    else:
        assert w.splitting is None
    if r > 1:
        # HNF is a canonical form: unimodular row mixes do not change it
        mixed = _random_unimodular_mix(w.kernel_basis, rng)
        assert row_hnf(mixed) == w.kernel_basis


def test_randomized_lattice_invariants():
    rng = random.Random(20260813)
    for _ in range(1000):
        r = rng.randint(1, 6)
        a = tuple(rng.randint(1, 50) for _ in range(r))
        _lattice_checks(a, rng)
    for _ in range(1000):
        r = rng.randint(1, 8)
        k = rng.randint(2, 12) if rng.random() < 0.3 else 1
        _lattice_checks(tuple(k * rng.randint(1, 1000) for _ in range(r)), rng)
    conds = [AtLeast(m) for m in (2, 3, 7, 50)] + [
        UnionCondition(parse_union(u)) for u in ("<2,7>|<3>", "<6,9,15>|<4,10>|<35..", "<12,18>|<8,20>")]
    for cond in conds:
        _lattice_checks(campana_space_report(cond).a, rng)


def test_row_hnf_basics():
    assert row_hnf([]) == ()
    assert row_hnf([[0, 0]]) == ()
    assert row_hnf([[-3, 2]]) == ((3, -2),)
    assert row_hnf([[2, 0], [0, 2], [1, 1]]) == ((1, 1), (0, 2))


# -- model-space reports ---------------------------------------------------------


def test_space_report_at_least_two():
    rep = campana_space_report(AtLeast(2))
    assert rep.a == (2, 3) and rep.torus_rank == 2
    assert rep.atoms_per_block == ((2, 3),)
    assert rep.coefficient == Fraction(1, 2)
    assert not rep.divisible and rep.classification.inf_multiple
    assert rep.weights.kernel_basis == ((3, -2),)
    assert rep.weights.strata == ()  # single block


def test_space_report_divisible_by_two():
    rep = campana_space_report(DivisibleBy(2))
    assert rep.a == (2,) and rep.torus_rank == 1
    assert rep.coefficient == Fraction(1, 2)
    assert rep.divisible
    assert rep.weights.splitting is None


def test_space_report_union_blocks():
    rep = campana_space_report(UnionCondition(parse_union("<2,7>|<3>")))
    assert rep.atoms_per_block == ((2, 7), (3,))
    assert rep.a == (2, 7, 3)
    assert rep.weights.block_sizes == (2, 1)
    assert rep.weights.strata == ((1, 3), (2, 3))
    assert rep.coefficient == Fraction(1, 2)


def test_space_report_rejects_log_and_empty():
    with pytest.raises(ValueError):
        campana_space_report(LOG)


def test_fibre_json_roundtrip():
    f = FibreDecomposition([2, 3], has_exceptional_part=True)
    obj = fibre_to_json_obj("0", f)
    assert obj == {"divisor": "0", "mults": [2, 3], "exceptional": True, "empty": False}
    assert fibre_from_json_obj(obj) == ("0", f)
    lbl, g = fibre_from_json_obj({"divisor": "1", "empty": True})
    assert lbl == "1" and g.empty
