"""Multiplicity conditions on divisors, orbifold bases, and shifted-unit searches.

The library has five layers:

* `arith` — exact S-integer arithmetic: factorization, valuations, m-full
  numbers, square-cube decompositions;
* `semigroups` — numerical semigroups of Z>=1 and finite unions with block
  structure;
* `conditions` — multiplicity conditions on divisors and point checks against
  valuation vectors and divisor configurations;
* `geometry` — fibre classification, orbifold bases of fibrations, and the
  weight/kernel lattice data of model spaces;
* `search` — shifted S-unit sweeps and bounded-height point enumeration on
  the projective line.

`cli` exposes all of it as the `cpairs` command.

Importing the package loads none of the layers: each name below is imported
from its layer on first use, through the module `__getattr__` (PEP 562), and
a layer is an attribute of the package once it is imported.  So
`import cpairs.cli` loads only what the CLI imports itself.
"""

import importlib

_EXPORTS = {
    "arith": (
        "INFINITY", "DecompositionError", "NotAnSIntegerError", "PrimeFactorization",
        "SIntegerContext", "ZeroFactorizationError", "decompose_coprime_square_cube",
        "decompose_square_cube", "enumerate_m_full", "factor", "format_rational", "is_m_full",
        "is_s_integer", "is_s_unit", "parse_rational", "valuation"),
    "conditions": (
        "LOG", "AtLeast", "CPairSpec", "DivisibleBy", "DivisorConfiguration", "DivisorValuations",
        "LogCondition", "UnionCondition", "check_campana_point", "check_darmon_point",
        "check_generalized_configuration", "check_generalized_point_dedekind", "cpair_divisor"),
    "geometry": (
        "CampanaWeightData", "FibreDecomposition", "KodairaStarredType", "campana_space_report",
        "campana_weights", "classify_fibre", "classify_xa_family", "kodaira_reduced_removal",
        "orbifold_base", "weakly_special_checklist"),
    "search": (
        "P1PointRecord", "PointRecord", "SearchConfig", "enumerate_campana_points_p1",
        "search_shifted_units_2full", "search_shifted_units_2or3", "verify_point_on_X"),
    "semigroups": ("NumericalSemigroup", "SemigroupUnion", "parse_semigroup", "parse_union"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not `from . import ...`: that form asks this hook again for the name
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
