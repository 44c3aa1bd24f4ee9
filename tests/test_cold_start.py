"""Cold start: `import cpairs.cli` loads only what the sweeps and `p1` run.

`geometry` is imported by the commands that use it, and no module of the
package uses `dataclasses`.  The check runs in a fresh `python -S`
interpreter, since pytest and hypothesis import `dataclasses` themselves.
It is also a script, for CI:

    PYTHONPATH=src python -S tests/test_cold_start.py
"""

import contextlib
import io
import os
import subprocess
import sys

LAZY = ("cpairs.geometry", "dataclasses")
WEIGHTS_2_3 = ('{"a": [2, 3], "blocks": [2], "kernel_basis": [[3, -2]], "splitting": [-1, 1], '
               '"strata": [], "inf": 2, "gcd": 1}\n')

# every name the package root exported when it imported all of its layers
EXPORTED = """
    INFINITY DecompositionError NotAnSIntegerError PrimeFactorization SIntegerContext
    ZeroFactorizationError decompose_coprime_square_cube decompose_square_cube enumerate_m_full
    factor format_rational is_m_full is_s_integer is_s_unit parse_rational valuation
    LOG AtLeast CPairSpec DivisibleBy DivisorConfiguration DivisorValuations LogCondition
    UnionCondition check_campana_point check_darmon_point check_generalized_configuration
    check_generalized_point_dedekind cpair_divisor
    CampanaWeightData FibreDecomposition KodairaStarredType campana_space_report campana_weights
    classify_fibre classify_xa_family kodaira_reduced_removal orbifold_base weakly_special_checklist
    P1PointRecord PointRecord SearchConfig enumerate_campana_points_p1 search_shifted_units_2full
    search_shifted_units_2or3 verify_point_on_X
    NumericalSemigroup SemigroupUnion parse_semigroup parse_union __version__
""".split()


def _loaded() -> list[str]:
    return [m for m in LAZY if m in sys.modules]


def _run(argv: list[str]) -> str:
    from cpairs.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, (argv, code)
    return out.getvalue()


def cold_start_check() -> None:
    """Raise AssertionError when a module of LAZY loads before its commands need it.

    Set-up, a sweep and `p1` load neither; the geometry commands load
    `cpairs.geometry` and still no `dataclasses`.
    """
    import cpairs.cli

    cpairs.cli.build_parser()
    assert _loaded() == [], f"import cpairs.cli; build_parser() loaded {_loaded()}"
    _run(["search", "2full", "--s", "2", "--bound", "2"])
    _run(["p1", "enumerate", "--pair", "0: >=2; 1: >=2; inf: >=2", "--height", "10"])
    assert _loaded() == [], f"a sweep and a p1 enumerate loaded {_loaded()}"
    assert _run(["weights", "2", "3"]) == WEIGHTS_2_3
    assert _loaded() == ["cpairs.geometry"]
    for argv in (["space", "report", "--condition", ">=3"], ["fibre", "classify", "--mults", "2,4"],
                 ["fibre", "orbifold-base", "--fibres", '[{"divisor": "D", "mults": [2, 3]}]'],
                 ["fibre", "checklist", "--base-ws", "--dense-ws", "--fibres", '[{"divisor": "D", "empty": true}]'],
                 ["xa", "classify", "1", "2"], ["kodaira", "reduce", "IV*"]):
        _run(argv)
    assert _loaded() == ["cpairs.geometry"], f"the geometry commands loaded {_loaded()}"


def test_cold_start_loads_neither_geometry_nor_dataclasses():
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")}
    proc = subprocess.run([sys.executable, "-S", __file__], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_package_root_resolves_every_exported_name():
    import cpairs

    listing = dir(cpairs)
    for name in EXPORTED:
        exec(f"from cpairs import {name}", {})
        assert name in listing
    assert set(cpairs.__all__) == set(EXPORTED) - {"__version__"}
    assert cpairs.FibreDecomposition is sys.modules["cpairs.geometry"].FibreDecomposition


if __name__ == "__main__":
    cold_start_check()
