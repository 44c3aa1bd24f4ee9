"""Fibres of fibrations, orbifold bases, and weight data of Campana spaces.

A fibre over a codimension-one point enters as the multiset of multiplicities
of its dominating components (plus flags for an exceptional part or an empty
fibre).  Two numbers drive everything: the inf-multiplicity m = min of the
multiset and the gcd-multiplicity m+ = gcd of the multiset, both infinite
exactly for the empty fibre.  The fibre is inf-multiple when m >= 2 and
divisible when m+ >= 2; the orbifold base attaches coefficient 1 - 1/m.
"""

from __future__ import annotations

import enum
import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from ._value import Value, exact_bool, exact_int
from .arith import INFINITY
from .conditions import LogCondition, condition_element_union, json_field, json_object
from .semigroups import MAX_APERY


class FibreDecomposition(Value):
    """Multiplicity multiset of the components of a fibre dominating the base point.

    `empty` marks an empty fibre (no components at all).  A nonempty fibre of
    a dominant morphism always has at least one dominating component, so
    nonempty decompositions with an empty multiset are rejected as malformed.
    """

    __slots__ = _fields = ("multiplicities", "has_exceptional_part", "empty")
    multiplicities: tuple[int, ...]
    has_exceptional_part: bool
    empty: bool

    def __init__(self, multiplicities: Iterable[int] = (), has_exceptional_part: bool = False,
                 empty: bool = False):
        mults = tuple(sorted(exact_int(m, "a multiplicity") for m in multiplicities))
        exceptional, empty = exact_bool(has_exceptional_part, "has_exceptional_part"), exact_bool(empty, "empty")
        for m in mults:
            if m < 1:
                raise ValueError(f"multiplicities must be >= 1, got {m}")
        if empty and (mults or exceptional):
            raise ValueError("an empty fibre has no components")
        if not empty and not mults:
            raise ValueError("a nonempty fibre needs at least one dominating component")
        object.__setattr__(self, "multiplicities", mults)
        object.__setattr__(self, "has_exceptional_part", exceptional)
        object.__setattr__(self, "empty", empty)


def fibre_multiplicities(fibre: FibreDecomposition):
    """(inf-multiplicity, gcd-multiplicity); (INFINITY, INFINITY) for the empty fibre."""
    if fibre.empty:
        return INFINITY, INFINITY
    return min(fibre.multiplicities), math.gcd(*fibre.multiplicities)


class FibreClassification(NamedTuple):
    inf_mult: object  # int or INFINITY
    gcd_mult: object
    coefficient: Fraction
    inf_multiple: bool
    divisible: bool


def classify_fibre(fibre: FibreDecomposition) -> FibreClassification:
    m, mp = fibre_multiplicities(fibre)
    coeff = Fraction(1) if m is INFINITY else 1 - Fraction(1, m)
    return FibreClassification(
        inf_mult=m,
        gcd_mult=mp,
        coefficient=coeff,
        inf_multiple=(m is INFINITY) or m >= 2,
        divisible=(mp is INFINITY) or mp >= 2,
    )


class OrbifoldDivisorEntry(NamedTuple):
    label: str
    classification: FibreClassification


class OrbifoldBaseReport(NamedTuple):
    entries: tuple[OrbifoldDivisorEntry, ...]

    def coefficient(self, label: str) -> Fraction:
        for e in self.entries:
            if e.label == label:
                return e.classification.coefficient
        raise KeyError(label)


def _check_labels(fibres: Sequence[tuple[str, FibreDecomposition]]) -> None:
    labels = [lbl for lbl, _ in fibres]
    if len(set(labels)) != len(labels):
        raise ValueError("divisor labels must be unique")


def orbifold_base(fibres: Sequence[tuple[str, FibreDecomposition]]) -> OrbifoldBaseReport:
    """Classify the fibre over each queried divisor, preserving query order."""
    _check_labels(fibres)
    return OrbifoldBaseReport(
        entries=tuple(OrbifoldDivisorEntry(lbl, classify_fibre(f)) for lbl, f in fibres)
    )


# -- weakly special fibration checklist ---------------------------------------


class ChecklistReport(NamedTuple):
    """Fibration checklist: certified iff all three conditions hold.

    Conditions 1 and 2 (the base is weakly special; weakly special fibres are
    dense) are geometry the caller must certify.  Condition 3 (no
    codimension-one fibre is divisible) is computed from the fibre data.
    """

    base_weakly_special: bool
    weakly_special_fibres_dense: bool
    no_divisible_fibre: bool
    divisible_witness: "str | None"

    @property
    def certified(self) -> bool:
        return self.base_weakly_special and self.weakly_special_fibres_dense and self.no_divisible_fibre


def weakly_special_checklist(
    base_weakly_special: bool,
    weakly_special_fibres_dense: bool,
    fibres: Sequence[tuple[str, FibreDecomposition]],
) -> ChecklistReport:
    """Conditions 1 and 2 as certified, condition 3 from the fibres (one per divisor label)."""
    _check_labels(fibres)
    witness = None
    for lbl, f in fibres:
        if classify_fibre(f).divisible:
            witness = lbl
            break
    return ChecklistReport(
        base_weakly_special=exact_bool(base_weakly_special, "base_weakly_special"),
        weakly_special_fibres_dense=exact_bool(weakly_special_fibres_dense, "weakly_special_fibres_dense"),
        no_divisible_fibre=witness is None,
        divisible_witness=witness,
    )


# -- the x^a family ------------------------------------------------------------


class XaClassification(NamedTuple):
    a: tuple[int, ...]
    weakly_special: bool
    special: bool


def classify_xa_family(a: Iterable[int]) -> XaClassification:
    """Classify the complement of the hypersurface x1^a1 ... xn^an = 1 in affine space.

    Requires 1 <= a1 <= ... <= an with gcd 1 (otherwise the hypersurface is
    non-reduced and the family is not considered here).  The variety is always
    weakly special; it is special exactly when a1 = 1.
    """
    t = tuple(exact_int(x, "an exponent") for x in a)
    if not t:
        raise ValueError("exponent tuple is empty")
    if any(x < 1 for x in t):
        raise ValueError(f"exponents must be positive, got {t}")
    if list(t) != sorted(t):
        raise ValueError(f"exponents must be sorted ascending, got {t}")
    if math.gcd(*t) != 1:
        raise ValueError(f"exponents must be coprime overall, gcd = {math.gcd(*t)}")
    return XaClassification(a=t, weakly_special=True, special=(t[0] == 1))


# -- Kodaira starred fibres ----------------------------------------------------


class KodairaStarredType(enum.Enum):
    II_STAR = "II*"
    III_STAR = "III*"
    IV_STAR = "IV*"


# component multiplicities from the Kodaira-Neron classification tables
KODAIRA_MULTIPLICITIES: dict[KodairaStarredType, tuple[int, ...]] = {
    KodairaStarredType.II_STAR: (1, 2, 3, 4, 5, 6, 4, 3, 2),
    KodairaStarredType.III_STAR: (1, 2, 3, 4, 3, 2, 1, 2),
    KodairaStarredType.IV_STAR: (1, 1, 1, 2, 2, 2, 3),
}


class KodairaRemoval(NamedTuple):
    type: KodairaStarredType
    removed_components: int
    fibre: FibreDecomposition
    classification: FibreClassification


def kodaira_reduced_removal(t: "KodairaStarredType | str") -> KodairaRemoval:
    """Drop the multiplicity-one components of a starred fibre; classify the rest.

    Only II*, III*, IV* are meaningful here: among complete Kodaira fibres only
    the multiple fibres (type mI_n) are inf-multiple, so every other type needs
    this surgery to produce one, and for these three the result is always an
    inf-multiple, non-divisible fibre with inf-multiplicity two.
    """
    if isinstance(t, str):
        try:
            t = KodairaStarredType(t.strip())
        except ValueError:
            raise ValueError(
                f"unsupported Kodaira type {t!r}: among complete Kodaira fibres only the "
                "multiple fibres mI_n are inf-multiple; reduced-component removal is "
                "implemented for the starred types II*, III*, IV*"
            ) from None
    mults = KODAIRA_MULTIPLICITIES[t]
    kept = tuple(m for m in mults if m > 1)
    fibre = FibreDecomposition(kept)
    return KodairaRemoval(
        type=t,
        removed_components=len(mults) - len(kept),
        fibre=fibre,
        classification=classify_fibre(fibre),
    )


# -- weight and lattice data of Campana spaces ---------------------------------


def _exgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b), for a, b >= 1."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _kernel_basis(a: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Row Hermite normal form of {v in Z^r : a.v = 0}, read off the suffix gcds of a > 0.

    With g_c = gcd(a_c, ..., a_r), row c has the pivot d_c = g_{c+1}/g_c in
    column c; each later column j with d_j > 1 holds the one residue in [0, d_j)
    that keeps the rest of a.v = 0 solvable, and the last entry solves it.  The
    form is unique (Cohen, GTM 138, section 2.4), so any row HNF of the kernel is this.
    """
    r = len(a)
    g = list(a)
    for c in range(r - 2, -1, -1):
        g[c] = math.gcd(a[c], g[c + 1])
    # (column, pivot, inverse of a_j/g_j mod the pivot) where the pivot exceeds 1
    steps = [(j, d, pow(a[j] // g[j], -1, d)) for j in range(1, r - 1) if (d := g[j + 1] // g[j]) > 1]
    basis = []
    for c in range(r - 1):
        row = [0] * r
        row[c] = g[c + 1] // g[c]
        s = a[c] * row[c]  # a.row over the columns filled so far
        for j, d, inv in steps:
            if j > c:
                row[j] = -(s // g[j]) * inv % d
                s += a[j] * row[j]
        row[-1] = -s // a[-1]
        basis.append(tuple(row))
    return tuple(basis)


def _check_rank(r: int) -> None:
    if r * (r - 1) > MAX_APERY:
        raise ValueError(f"{r} weights give a kernel basis of {r * (r - 1)} integers, "
                         f"over the limit of {MAX_APERY}")


class CampanaWeightData(NamedTuple):
    """Weight vector a, the kernel lattice of v -> a.v, and intersection strata.

    kernel_basis is the (r-1) x r Hermite normal form basis of
    {v in Z^r : a.v = 0}; splitting is a vector with a.splitting = 1 and is
    present exactly when gcd(a) = 1.  strata lists 1-based index pairs lying
    in distinct blocks.
    """

    a: tuple[int, ...]
    block_sizes: tuple[int, ...]
    kernel_basis: tuple[tuple[int, ...], ...]
    splitting: "tuple[int, ...] | None"
    strata: tuple[tuple[int, int], ...]
    inf_mult: int
    gcd_mult: int


def campana_weights(a: Iterable[int], block_sizes: "Iterable[int] | None" = None) -> CampanaWeightData:
    av = tuple(exact_int(x, "a weight") for x in a)
    if not av:
        raise ValueError("weight tuple is empty")
    if any(x < 1 for x in av):
        raise ValueError(f"weights must be positive, got {av}")
    _check_rank(r := len(av))
    if block_sizes is None:
        sizes = (r,)
    else:
        sizes = tuple(exact_int(s, "a block size") for s in block_sizes)
        if any(s < 1 for s in sizes) or sum(sizes) != r:
            raise ValueError(f"block sizes {sizes} do not partition {r} indices")

    # sequential Euclid: maintain c with a.c = g over the processed prefix; c splits a when g = 1
    g = av[0]
    c = [1] + [0] * (r - 1)
    for i in range(1, r):
        g, s, t = _exgcd(g, av[i])
        c = c if s == 1 else [s * x for x in c]
        c[i] += t

    strata = tuple((i + 1, j + 1) for end, size in zip(itertools.accumulate(sizes), sizes)
                   for i in range(end - size, end) for j in range(end, r))

    return CampanaWeightData(
        a=av,
        block_sizes=sizes,
        kernel_basis=_kernel_basis(av),
        splitting=tuple(c) if g == 1 else None,
        strata=strata,
        inf_mult=min(av),
        gcd_mult=g,
    )


class CampanaSpaceReport(NamedTuple):
    """Torus-rank / weight / fibre data of the model space attached to a condition."""

    atoms_per_block: tuple[tuple[int, ...], ...]
    a: tuple[int, ...]
    torus_rank: int
    weights: CampanaWeightData
    fibre: FibreDecomposition
    classification: FibreClassification

    @property
    def coefficient(self) -> Fraction:
        return self.classification.coefficient

    @property
    def divisible(self) -> bool:
        return self.classification.divisible


def campana_space_report(cond) -> CampanaSpaceReport:
    """Atoms, weight lattice, and orbifold data for a finite multiplicity condition.

    The weight tuple is the per-block concatenation of atoms; the associated
    fibre has exactly those multiplicities.  Log conditions have no finite
    multiplicities and are rejected.
    """
    if isinstance(cond, LogCondition):
        raise ValueError("a log condition has no Campana space model")
    blocks = condition_element_union(cond).atoms_per_block()
    _check_rank(sum(map(len, blocks)))  # before an ordinary block's atoms are listed
    atoms = tuple(map(tuple, blocks))
    flat = tuple(x for blk in atoms for x in blk)
    if not flat:
        raise ValueError("condition accepts no finite multiplicity")
    sizes = tuple(len(blk) for blk in atoms if blk)
    weights = campana_weights(flat, sizes)
    fibre = FibreDecomposition(flat)
    return CampanaSpaceReport(
        atoms_per_block=atoms,
        a=flat,
        torus_rank=len(flat),
        weights=weights,
        fibre=fibre,
        classification=classify_fibre(fibre),
    )


# -- fibre JSON ----------------------------------------------------------------


def fibre_to_json_obj(label: str, fibre: FibreDecomposition) -> dict:
    return {
        "divisor": label,
        "mults": list(fibre.multiplicities),
        "exceptional": fibre.has_exceptional_part,
        "empty": fibre.empty,
    }


def fibres_from_json_obj(data) -> list[tuple[str, FibreDecomposition]]:
    """A JSON list of fibre objects; a malformed shape raises ValueError."""
    if not isinstance(data, list):
        raise ValueError("expected a list of fibre objects")
    return [fibre_from_json_obj(o) for o in data]


def fibre_from_json_obj(obj: Mapping) -> tuple[str, FibreDecomposition]:
    """Inverse of fibre_to_json_obj; a malformed shape raises ValueError."""
    obj = json_object(obj, "a fibre object with 'divisor', 'mults', 'exceptional' and 'empty'")
    return json_field(obj, "divisor", str, "a string"), FibreDecomposition(
        multiplicities=json_field(obj, "mults", [int], "a list of integers", []),
        has_exceptional_part=json_field(obj, "exceptional", bool, "true or false", False),
        empty=json_field(obj, "empty", bool, "true or false", False),
    )
