"""Command line behaviour: outputs, formats, config files, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from cpairs.cli import COMMANDS, _Parser, build_parser, main
from cpairs.semigroups import MAX_APERY


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def jlines(stdout: str):
    return [json.loads(line) for line in stdout.splitlines()]


def assert_json_roundtrip(stdout: str):
    """Canonical JSON: parse then re-emit is byte-identical."""
    for line in stdout.splitlines():
        assert json.dumps(json.loads(line)) == line


def test_closed_pipe_exits_2_without_traceback():
    # about 4,400 rows, far past a pipe's buffer, so the writer meets the closed pipe
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")}
    with subprocess.Popen([sys.executable, "-m", "cpairs.cli", "search", "2full", "--s", "2,3,5",
                           "--bound", "6"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert json.loads(first)["x"] == "-1"
    assert proc.returncode == 2
    assert err.decode().splitlines() == ["error: output closed before the command finished"]


def test_closed_pipe_mid_sweep_exits_2_without_traceback():
    # the sweep writes each row as it is made, so the reader leaves while records are still being built
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")}
    with subprocess.Popen([sys.executable, "-m", "cpairs.cli", "search", "2full", "--s", "2,3,5",
                           "--bound", "12"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert json.loads(first)["x"] == "-1"
    assert proc.returncode == 2
    assert err.decode().splitlines() == ["error: output closed before the command finished"]


def test_factor(capsys):
    code, out, _ = run(capsys, "factor", "-9/8")
    assert code == 0
    assert jlines(out) == [{"sign": -1, "factors": [[2, -3], [3, 2]]}]
    assert_json_roundtrip(out)


def test_factor_zero_exits_2(capsys):
    code, _, err = run(capsys, "factor", "0")
    assert code == 2 and "factorization" in err


def test_mfull_check_and_strict(capsys):
    code, out, _ = run(capsys, "mfull", "check", "72", "--m", "2")
    assert code == 0 and jlines(out)[0]["full"] is True
    code, out, _ = run(capsys, "mfull", "check", "12", "--m", "2", "--strict")
    assert code == 1 and jlines(out)[0]["witness"] == 3
    code, out, _ = run(capsys, "mfull", "check", "9/8", "--m", "2", "--s", "2")
    assert code == 0 and jlines(out)[0]["full"] is True


def test_mfull_list(capsys):
    code, out, _ = run(capsys, "mfull", "list", "100", "--m", "2")
    obj = jlines(out)[0]
    assert code == 0 and obj["count"] == 14
    assert obj["values"][:4] == [1, 4, 8, 9]
    assert_json_roundtrip(out)
    code, out, _ = run(capsys, "mfull", "list", "100", "--m", str(10**5))  # only 1 is m-full below 2^m
    assert code == 0 and jlines(out)[0]["values"] == [1]
    code, out, _ = run(capsys, "mfull", "list", "10", "--m", str(10**14))  # with no 2^(m-1) on the way
    assert code == 0 and jlines(out)[0]["values"] == [1]


def test_semigroup_commands(capsys):
    code, out, _ = run(capsys, "semigroup", "atoms", "<4..")
    assert code == 0 and jlines(out)[0]["atoms"] == [4, 5, 6, 7]
    code, out, _ = run(capsys, "semigroup", "contains", "<2,7>|<3>", "5")
    assert code == 0 and jlines(out)[0]["contains"] is False
    code, _, _ = run(capsys, "semigroup", "contains", "<2,7>|<3>", "5", "--strict")
    assert code == 1
    code, out, _ = run(capsys, "semigroup", "elements", "<2,7>", "--bound", "12")
    assert jlines(out)[0]["elements"] == [2, 4, 6, 7, 8, 9, 10, 11, 12]
    code, out, _ = run(capsys, "semigroup", "frobenius", "<2,7>")
    assert jlines(out)[0]["frobenius"] == 5
    code, _, err = run(capsys, "semigroup", "frobenius", "<2,4>")
    assert code == 2 and "cofinite" in err
    code, _, err = run(capsys, "semigroup", "atoms", "<2>|<3>")
    assert code == 2


def test_cpair_check_selects_checker(capsys):
    vec = json.dumps({"D": {"contained": False, "mults": [[3, 2]]}})
    code, out, _ = run(capsys, "cpair", "check", "--pair", "D: >=2", "--point", vec)
    assert code == 0 and jlines(out)[0]["checker"] == "campana"
    code, out, _ = run(capsys, "cpair", "check", "--pair", "D: div 2", "--point", vec)
    assert jlines(out)[0]["checker"] == "darmon" and jlines(out)[0]["accepted"] is True
    code, out, _ = run(capsys, "cpair", "check", "--pair", "D: union <2>|<3>", "--point", vec)
    assert jlines(out)[0]["checker"] == "dedekind"
    assert_json_roundtrip(out)


def test_cpair_check_strict_and_files(tmp_path, capsys):
    vec_file = tmp_path / "point.json"
    vec_file.write_text(json.dumps({"D": {"contained": False, "mults": [[3, 1]]}}))
    code, out, _ = run(capsys, "cpair", "check", "--pair", "D: >=2",
                       "--point", str(vec_file), "--strict")
    assert code == 1
    obj = jlines(out)[0]
    assert obj["accepted"] is False and obj["divisors"][0]["witness"] == 3


MALFORMED_POINTS = [  # (the --point value, what its error line must say)
    ('[1]', ""), ('{"D": 5}', ""), ('{"D": {"mults": 5}}', ""),
    ('{"D": {"mults": [[3, 1], [3, 2]]}}', "duplicate prime 3 in valuation data"),
    ('{"D": ', "malformed point JSON at line 1 column 7"),
    ("no-such-dir/point.json", "cannot read point file"),
]


@pytest.mark.parametrize("point,message", MALFORMED_POINTS, ids=[point for point, _ in MALFORMED_POINTS])
def test_cpair_check_malformed_point_shape_exits_2(capsys, point, message):
    code, out, err = run(capsys, "cpair", "check", "--pair", "D: >=2", "--point", point)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err and "Traceback" not in err


def test_cpair_check_refuses_a_huge_composite_key_at_once(capsys):
    # 3 divides the 4,000-digit key, so the trial gcd refuses it before any Miller-Rabin round
    key = "9" * 4000
    start = time.perf_counter()
    code, out, err = run(capsys, "cpair", "check", "--pair", "D: >=2", "--point", f'{{"D": {{"mults": [[{key}, 2]]}}}}')
    assert time.perf_counter() - start < 3
    assert (code, out) == (2, "")
    assert err == f"error: bad point: divisor 'D': multiplicity key {key} is not prime\n"


@pytest.mark.parametrize("argv", [
    ("cpair", "check", "--pair", "D: >=2", "--point"),
    ("config", "check", "--union", "<2,7>|<3>", "--configuration"),
    ("fibre", "orbifold-base", "--fibres"),
], ids=["point", "configuration", "fibres"])
def test_deeply_nested_json_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "[" * 100_000)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def quiet(fn, *args):
    """("ok", fn's result) or ("exit", code, stdout, stderr) when fn exits, with output held."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return "ok", fn(*args), out.getvalue(), err.getvalue()
        except SystemExit as e:
            return "exit", e.code, out.getvalue(), err.getvalue()


CONFIG_ARGV = ("config", "check", "--union", "<2,3>", "--configuration")
FIBRES_ARGV = ("fibre", "orbifold-base", "--fibres")
POINT_ARGV = ("cpair", "check", "--pair", "D: >=2", "--point")
# (argv before the JSON, the JSON with @ at the field under test, the one type that field takes)
TYPED_FIELDS = [
    (CONFIG_ARGV, '{"components": @}', list),
    (CONFIG_ARGV, '{"components": [@]}', list),
    (CONFIG_ARGV, '{"components": [[@, 2]]}', str),
    (CONFIG_ARGV, '{"components": [["a", @]]}', int),
    (CONFIG_ARGV, '{"components": [["a", 2], ["b", 3]], "edges": @}', list),
    (CONFIG_ARGV, '{"components": [["a", 2], ["b", 3]], "edges": [@]}', list),
    (CONFIG_ARGV, '{"components": [["a", 2], ["b", 3]], "edges": [["a", @]]}', str),
    (FIBRES_ARGV, '[{"divisor": @, "mults": [2]}]', str),
    (FIBRES_ARGV, '[{"divisor": "D", "mults": @}]', list),
    (FIBRES_ARGV, '[{"divisor": "D", "mults": [@]}]', int),
    (FIBRES_ARGV, '[{"divisor": "D", "mults": [2], "exceptional": @}]', bool),
    (FIBRES_ARGV, '[{"divisor": "D", "mults": [], "empty": @}]', bool),
    (POINT_ARGV, '{"D": {"contained": @}}', bool),
    (POINT_ARGV, '{"D": {"mults": @}}', list),
    (POINT_ARGV, '{"D": {"mults": [@]}}', list),
    (POINT_ARGV, '{"D": {"mults": [[2, @]]}}', int),
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6)


@pytest.mark.parametrize("argv,template,kind", TYPED_FIELDS, ids=lambda v: v if isinstance(v, str) else None)
@given(value=JSON_VALUES)
def test_wrong_typed_json_field_exits_2(argv, template, kind, value):
    # a value of any other JSON type is refused, never coerced (true is not 1, "22" is not [2, 2])
    assume(type(value) is not kind)
    status, code, out, err = quiet(main, [*argv, template.replace("@", json.dumps(value))])
    assert (status, code, out) == ("ok", 2, "")
    assert err.startswith("error: bad ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv,template", [
    (CONFIG_ARGV, '{"components": [["a", 2, 3]]}'),
    (CONFIG_ARGV, '{"components": [["a", 2], ["b", 3]], "edges": [["a"]]}'),
    (CONFIG_ARGV, '{"edges": []}'),
    (FIBRES_ARGV, '[{"mults": [2]}]'),
    (FIBRES_ARGV, '[[2]]'),
])
def test_malformed_json_shape_exits_2(capsys, argv, template):
    code, out, err = run(capsys, *argv, template)
    assert code == 2 and out == "" and err.startswith("error: bad ") and err.count("\n") == 1


def test_cpair_divisor(capsys):
    code, out, _ = run(capsys, "cpair", "divisor", "--pair", "0: >=2; 1: inf; 2: >=1")
    assert jlines(out)[0]["coefficients"] == [["0", "1/2"], ["1", "1"], ["2", "0"]]


def test_config_check(capsys):
    cfg = json.dumps({"components": [["F2", 2], ["F7", 7], ["F3", 3]],
                      "edges": [["F2", "F7"]]})
    code, out, _ = run(capsys, "config", "check", "--union", "<2,7>|<3>", "--configuration", cfg)
    assert code == 0
    assert jlines(out)[0]["assignment"] == [[["F2", "F7"], 1], [["F3"], 2]]
    code, out, _ = run(capsys, "config", "check", "--union", "<2>|<3,4,7>",
                       "--configuration", cfg, "--strict")
    assert code == 1 and jlines(out)[0]["failing_component"] == ["F2", "F7"]


def test_fibre_commands(tmp_path, capsys):
    code, out, _ = run(capsys, "fibre", "classify", "--mults", "2,3")
    obj = jlines(out)[0]
    assert obj["coefficient"] == "1/2" and obj["inf_multiple"] and not obj["divisible"]
    code, out, _ = run(capsys, "fibre", "classify", "--empty")
    assert jlines(out)[0]["inf_mult"] == "inf"

    fibres = [{"divisor": "0", "mults": [2, 3], "exceptional": False, "empty": False},
              {"divisor": "1", "mults": [], "exceptional": False, "empty": True},
              {"divisor": "inf", "mults": [], "exceptional": False, "empty": True}]
    f = tmp_path / "fibres.json"
    f.write_text(json.dumps(fibres))
    code, out, _ = run(capsys, "fibre", "orbifold-base", "--fibres", str(f))
    assert [d["coefficient"] for d in jlines(out)[0]["divisors"]] == ["1/2", "1", "1"]

    code, out, _ = run(capsys, "fibre", "checklist", "--fibres",
                       json.dumps(fibres[:1]), "--base-ws", "--dense-ws")
    assert code == 0 and jlines(out)[0]["certified"] is True
    code, out, _ = run(capsys, "fibre", "checklist", "--fibres",
                       json.dumps([{"divisor": "0", "mults": [2, 2]}]),
                       "--base-ws", "--dense-ws", "--strict")
    assert code == 1 and jlines(out)[0]["divisible_witness"] == "0"


@pytest.mark.parametrize("command", [("orbifold-base",), ("checklist", "--base-ws", "--dense-ws")],
                         ids=["orbifold-base", "checklist"])
def test_fibre_commands_refuse_a_repeated_divisor_label(capsys, command):
    fibres = '[{"divisor": "D", "mults": [2]}, {"divisor": "D", "mults": [4]}]'
    code, out, err = run(capsys, "fibre", command[0], "--fibres", fibres, *command[1:])
    assert (code, out, err) == (2, "", "error: divisor labels must be unique\n")


def test_xa_and_kodaira(capsys):
    code, out, _ = run(capsys, "xa", "classify", "2", "3")
    assert jlines(out)[0] == {"a": [2, 3], "weakly_special": True, "special": False}
    code, _, err = run(capsys, "xa", "classify", "2", "4")
    assert code == 2 and "coprime" in err
    code, out, _ = run(capsys, "kodaira", "reduce", "III*")
    obj = jlines(out)[0]
    assert obj["reduced_mults"] == [2, 2, 2, 3, 3, 4] and obj["gcd_mult"] == 1
    code, _, err = run(capsys, "kodaira", "reduce", "I3")
    assert code == 2 and "mI_n" in err


def test_weights_and_space(capsys):
    code, out, _ = run(capsys, "weights", "2", "3", "--blocks", "1,1")
    obj = jlines(out)[0]
    assert obj["kernel_basis"] == [[3, -2]] and obj["splitting"] == [-1, 1]
    assert obj["strata"] == [[1, 2]]
    code, out, _ = run(capsys, "space", "report", "--condition", ">=2")
    obj = jlines(out)[0]
    assert obj["a"] == [2, 3] and obj["torus_rank"] == 2 and obj["divisible"] is False
    code, out, _ = run(capsys, "space", "report", "--condition", "div 2")
    assert jlines(out)[0]["divisible"] is True
    code, _, err = run(capsys, "space", "report", "--condition", "inf")
    assert code == 2


def test_geometry_size_limit_on_both_sides(capsys):
    # r weights print r(r - 1) kernel integers, and 3162 * 3161 <= MAX_APERY < 3163 * 3162
    for argv in (["weights", *map(str, range(1, 3164))], ["space", "report", "--condition", ">=3163"],
                 ["space", "report", "--condition", ">=10000"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and str(MAX_APERY) in err and "Traceback" not in err
    code, out, _ = run(capsys, "weights", *map(str, range(1, 3163)))
    assert code == 0 and len(jlines(out)[0]["kernel_basis"]) == 3161
    code, out, _ = run(capsys, "space", "report", "--condition", ">=3162")
    assert code == 0 and jlines(out)[0]["torus_rank"] == 3162


def test_search_jsonl_and_zero_hits(capsys):
    code, out, _ = run(capsys, "search", "2full", "--s", "2", "--bound", "4")
    assert code == 0
    objs = jlines(out)
    by_x = {o["x"]: o for o in objs}
    assert by_x["-8"]["lift"] == ["3", "1"]
    assert by_x["2"]["lift"] == ["1", "-1"]
    assert by_x["4"]["verdict"] == "reject" and by_x["4"]["witness"] == 3
    assert by_x["1"]["flags"] == ["in_support"]
    assert_json_roundtrip(out)
    # zero accepted hits still exit 0
    code, out, _ = run(capsys, "search", "2full", "--s", "", "--bound", "0", "--no-support")
    assert code == 0
    assert all(o["verdict"] == "reject" for o in jlines(out))


def test_search_csv_and_table(capsys):
    code, out, _ = run(capsys, "search", "2full", "--s", "2", "--bound", "2", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "x,shift,verdict,witness,lift_a,lift_b,target,flags"
    assert any(line.startswith("2,1,accept") for line in lines)
    code, out, _ = run(capsys, "search", "2full", "--s", "2", "--bound", "2", "--format", "table")
    assert out.splitlines()[0].startswith("x")


def test_p1_enumerate_cli(capsys):
    code, out, _ = run(capsys, "p1", "enumerate", "--pair", "0: >=2; 1: >=2; inf: >=2",
                       "--height", "10", "--s", "")
    pts = [o["point"] for o in jlines(out)]
    assert "9/8" in pts and "-8" in pts
    assert_json_roundtrip(out)
    for pair in ("0: >=2; 0: >=3", "0 >=2", "0: >=2; 1/2: >=2; 2/4: >=3"):
        code, out, err = run(capsys, "p1", "enumerate", "--pair", pair, "--height", "5")
        assert code == 2 and out == "" and err.startswith("error:"), pair


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_p1_enumerate_reads_relabelled_points(capsys, fmt):
    # labels that are not canonical point strings name the same points
    outs = [run(capsys, "p1", "enumerate", "--pair", pair, "--height", "30", "--format", fmt)
            for pair in ("0/1: >=2; 2/2: >=2; inf: >=2", "0: >=2; 1: >=2; inf: >=2")]
    assert outs[0] == outs[1] and outs[0][0] == 0 and outs[0][1]


def test_p1_enumerate_sieve_stays_under_the_scan_limit(capsys):
    code, out, _ = run(capsys, "p1", "enumerate", "--pair", "0: >=2; 1: >=2; inf: >=2",
                       "--height", str(10**4))
    assert code == 0 and len(out.splitlines()) == 463


def test_point_verify(capsys):
    code, out, _ = run(capsys, "point", "verify", "--a", "3", "--b", "1", "--s", "2")
    assert jlines(out)[0] == {"a": "3", "b": "1", "s": [2], "value": "8",
                              "on_x": True, "on_y": True}
    code, _, _ = run(capsys, "point", "verify", "--a", "2", "--b", "3", "--strict")
    assert code == 1


def test_usage_errors_exit_2(capsys):
    cases = [
        (["no-such-command"], None),
        (["search"], None),  # missing kind
        (["search", "2full", "--s", "2", "--bound", "2", "--jobs", "2"], None),  # removed flag
        (["mfull", "list", str(10**21)], str(MAX_APERY)),
        (["semigroup", "elements", "<2,3>", "--bound", str(10**11)], str(MAX_APERY)),
        (["search", "2full", "--s", "2,3,5,7", "--bound", "30"], str(MAX_APERY)),
        (["p1", "enumerate", "--pair", "0: >=1", "--height", str(10**9)], str(MAX_APERY)),
        (["p1", "enumerate", "--pair", "0: >=1", "--height", "3000"], str(MAX_APERY)),  # the box, just over
        # blocks whose Apery set would pass the limit, refused before any allocation
        (["semigroup", "contains", "<1000000000,1000000001>", "5"], str(MAX_APERY)),
        (["semigroup", "frobenius", "<1000000000.."], str(MAX_APERY)),
        (["cpair", "divisor", "--pair", "D: union <1000000000.."], str(MAX_APERY)),
        (["cpair", "divisor", "--pair", "D: >=1000000000"], str(MAX_APERY)),
        (["config", "check", "--union", "<1000000000,1000000001>",
          "--configuration", '{"components": [["A", 3]], "edges": []}'], str(MAX_APERY)),
        (["semigroup", "--format", "csv", "atoms", "<4.."], "usage"),  # common flags follow the leaf
        (["search", "2full", "--s", "2"], "--bound is required (flag or config)"),
        (["p1", "enumerate", "--pair", ";", "--height", "3"], "pair specification is empty"),
    ]
    for argv, message in cases:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        err = capsys.readouterr().err
        assert code == 2, argv
        assert "Traceback" not in err
        if message is not None:
            assert message in err, argv


def test_parser_keeps_no_state_between_calls(capsys):
    argv = ["search", "2full", "--s", "2", "--bound", "1"]
    code, out, _ = run(capsys, *argv, "--format", "csv", "--strict")
    assert code == 0 and out.startswith("x,shift,")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith("{")
    assert_json_roundtrip(out)


@pytest.mark.parametrize("path,arguments", [(c[0], c[2]) for c in COMMANDS])
def test_help_lists_every_flag(capsys, path, arguments):
    with pytest.raises(SystemExit) as exc:
        main([*path.split(), "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    declared = [n for names, _ in arguments for n in names if n.startswith("-")]
    for flag in ["--format", "--strict", "--config", "--s", *declared]:
        assert flag in out, (path, flag)


# -- dispatch: a known command path is parsed by its leaf parser alone -------------------

LEAF_FLAGS = sorted({flag for leaf in build_parser().leaves.values()
                     for flag in leaf._option_string_actions})
PATH_WORDS = [c[0].split() for c in COMMANDS]
# every path, its first word, its last word misspelled, a path as one word, a leading flag
ARGV_HEADS = [[], *PATH_WORDS, *(words[:1] for words in PATH_WORDS),
              *([*words[:-1], words[-1][:-1]] for words in PATH_WORDS),
              ["mfull check"], ["--format", "csv"]]
# each leaf flag, whole or abbreviated, and values, separators and junk
ARGV_TOKENS = (
    st.sampled_from(LEAF_FLAGS).flatmap(lambda f: st.sampled_from([f[:k] for k in range(2, len(f) + 1)]))
    | st.sampled_from(["-9/8", "-5", "12", "0", "2,3", "<2,7>|<3>", "D: >=2", "{}", "2full", "II*", "csv",
                       "--", "-h", "-x", "-", "junk", "--junk", "--format=csv", "mfull", "check"]))


@settings(max_examples=400)
@given(head=st.sampled_from(ARGV_HEADS), tail=st.lists(ARGV_TOKENS, max_size=6))
def test_dispatch_matches_the_full_argparse_route(head, tail):
    # _Parser.parse_known_args is argparse's own: top, group and leaf parser in turn
    top, argv = build_parser(), head + tail
    fast, full = quiet(top.parse_known_args, argv), quiet(_Parser.parse_known_args, top, argv)
    if fast[0] == full[0] == "ok":
        (ns, extras), (ns_full, extras_full) = fast[1], full[1]
        assert (vars(ns), extras) == (vars(ns_full), extras_full)
    else:
        assert fast == full


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["cpairs", "factor", "12", "--format", "csv"])
    assert main() == 0
    assert capsys.readouterr().out == "value,sign,factors\n12,1,2^2*3\n"
    monkeypatch.setattr(sys, "argv", ["cpairs", "factor", "12", "extra"])
    with pytest.raises(SystemExit) as exc:
        main()
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: cpairs [-h]")
    assert err.endswith("cpairs: error: unrecognized arguments: extra\n")


# -- config files -------------------------------------------------------------------


def test_config_file_presets_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep defaults\ns = 2\nbound = 4\nformat = json\n")
    code, out, _ = run(capsys, "search", "2full", "--config", str(cfg))
    by_x = {o["x"]: o for o in jlines(out)}
    assert by_x["-8"]["verdict"] == "accept"
    # explicit flag wins over the file
    code, out, _ = run(capsys, "search", "2full", "--config", str(cfg), "--bound", "1")
    assert "-8" not in {o["x"] for o in jlines(out)}
    # strict read from the file: a rejection exits 1 under "yes" and 0 under "off"
    for value, status in (("yes", 1), ("off", 0)):
        cfg.write_text(f"strict = {value}\n")
        code, out, _ = run(capsys, "mfull", "check", "12", "--config", str(cfg))
        assert code == status and jlines(out)[0]["full"] is False


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("s = 2\nwat = 3\n")
    code, _, err = run(capsys, "search", "2full", "--config", str(bad))
    assert code == 2 and f"{bad}:2:1" in err and "unknown config key" in err

    dup = tmp_path / "dup.cfg"
    dup.write_text("bound = 1\nbound = 2\n")
    code, _, err = run(capsys, "search", "2full", "--s", "2", "--config", str(dup))
    assert code == 2 and "duplicate" in err and f"{dup}:2:" in err

    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("bound 4\n")
    code, _, err = run(capsys, "search", "2full", "--config", str(malformed))
    assert code == 2 and f"{malformed}:1:1" in err

    badval = tmp_path / "badval.cfg"
    badval.write_text("bound = four\n")
    code, _, err = run(capsys, "search", "2full", "--s", "2", "--config", str(badval))
    assert code == 2 and "integer" in err and f"{badval}:1:9" in err

    code, _, err = run(capsys, "search", "2full", "--config", str(tmp_path / "missing.cfg"))
    assert code == 2 and "cannot read" in err

    jobs = tmp_path / "jobs.cfg"
    jobs.write_text("s = 2\nbound = 1\njobs = 2\n")
    code, _, err = run(capsys, "search", "2full", "--config", str(jobs))
    assert code == 2 and f"{jobs}:3:1" in err and "unknown config key" in err

    strict = tmp_path / "strict.cfg"
    strict.write_text("strict = maybe\n")
    code, out, err = run(capsys, "semigroup", "contains", "<2,3>", "1", "--config", str(strict))
    assert code == 2 and out == "" and f"{strict}:1:10" in err

    fmt = tmp_path / "format.cfg"
    fmt.write_text("format = xml\n")
    code, out, err = run(capsys, "factor", "12", "--config", str(fmt))
    assert code == 2 and out == "" and f"{fmt}:1:10: format must be json, csv, or table" in err

    primes = tmp_path / "primes.cfg"
    primes.write_text("s = 2,x\n")
    code, out, err = run(capsys, "search", "2full", "--bound", "1", "--config", str(primes))
    assert code == 2 and out == "" and f"{primes}:1:5: expected comma-separated integers" in err


def test_json_roundtrip_across_commands(capsys):
    cases = [
        ("factor", "360"),
        ("semigroup", "elements", "<3,5>", "--bound", "20"),
        ("weights", "6", "10", "15"),
        ("kodaira", "reduce", "IV*"),
        ("space", "report", "--condition", "union <2,7>|<3>"),
    ]
    for argv in cases:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert_json_roundtrip(out)


# -- every command, pinned -----------------------------------------------------------

POINT = json.dumps({"D": {"contained": False, "mults": [[3, 2]]}})
POINT_REJECT = json.dumps({"D": {"contained": False, "mults": [[3, 1]]}})
POINT_SUPPORT = json.dumps({"D": {"contained": True, "mults": []},
                            "E": {"contained": False, "mults": [[7, 1]]}})
CFG = json.dumps({"components": [["F2", 2], ["F7", 7], ["F3", 3]], "edges": [["F2", "F7"]]})
FIBRE_LIST = [{"divisor": "0", "mults": [2, 3], "exceptional": False, "empty": False},
              {"divisor": "1", "mults": [], "exceptional": False, "empty": True},
              {"divisor": "inf", "mults": [], "exceptional": False, "empty": True}]
FIBRES, FIBRES_ONE = json.dumps(FIBRE_LIST), json.dumps(FIBRE_LIST[:1])
FIBRES_DIVISIBLE = json.dumps([{"divisor": "0", "mults": [2, 2]}])

# (argv, exit code, first 16 hex digits of the sha256 of stdout in json, csv, table)
GOLDEN_COMMANDS = [
    (("factor", "-9/8"), 0, "50e10b360719e690", "2d47b8540ad1d9c9", "6f1488536e42f471"),
    (("factor", "360"), 0, "39f8ed8e873b7c7d", "c538504ced15b1ef", "034b32a934aa979a"),
    (("factor", "-1"), 0, "38ebf10934adba52", "1b256faf80354b87", "62d1aa973107e662"),
    (("factor", "0"), 2, "e3b0c44298fc1c14", "e3b0c44298fc1c14", "e3b0c44298fc1c14"),
    (("mfull", "check", "72", "--m", "2"),
     0, "77771635b6654561", "6927bb386bd6cf67", "90eecd451997b47d"),
    (("mfull", "check", "12", "--m", "2", "--strict"),
     1, "1349d235fc766d78", "9f3ae1eb9bdb4c89", "82b6dd73aaa3f3e4"),
    (("mfull", "check", "9/8", "--m", "2", "--s", "2"),
     0, "0c183d2294c8ecd8", "053a9aeaeb9da405", "a0c1bb2b12b5bc08"),
    (("mfull", "check", "-200", "--s", "7,3"),
     0, "c778d4c2c62668ab", "7308727845e72fa9", "6035b2f34ca92da6"),
    (("mfull", "list", "100", "--m", "2"),
     0, "4048873a1cd5771d", "c34bb7b9ed3be252", "805807940cf62eb3"),
    (("mfull", "list", "1000", "--m", "3"),
     0, "1a431f8e78d74a89", "549ed3be6f1ba3db", "7665b049f0fc05da"),
    (("semigroup", "atoms", "<4.."), 0, "4ec413dcd1be52be", "715a91a10535b48e", "d8b1929516c8e1dd"),
    (("semigroup", "atoms", "<2>|<3>"),
     2, "e3b0c44298fc1c14", "e3b0c44298fc1c14", "e3b0c44298fc1c14"),
    (("semigroup", "contains", "<2,7>|<3>", "5", "--strict"),
     1, "86b0176bc8066d5f", "569772776eed4743", "767704b6d3e1a6bd"),
    (("semigroup", "contains", "<2,7>", "9"),
     0, "a50eb9af56a2a625", "301caa5c0d48e2ce", "b4977cb992d4c22c"),
    (("semigroup", "elements", "<2,7>", "--bound", "12"),
     0, "ca10261beee79595", "0c3d61a6368c702a", "0ae188320f588e74"),
    (("semigroup", "elements", "<2>|<3,5>", "--bound", "10"),
     0, "a9de08a0239fdcba", "954ec8cfb9fddc88", "da74e18d3c71a823"),
    (("semigroup", "frobenius", "<2,7>"),
     0, "8dc5bd162c8ba867", "65d775f6c05512b6", "4c5a4a2b1854f935"),
    (("cpair", "check", "--pair", "D: >=2", "--point", POINT),
     0, "bfa0a5b5714b0ebf", "cc98002846d0b4b9", "7df8f611832b71cb"),
    (("cpair", "check", "--pair", "D: >=2", "--strict", "--point", POINT_REJECT),
     1, "c640937d013f2bbc", "9bb62640e47bdb48", "21666e306db7f2e2"),
    (("cpair", "check", "--pair", "D: union <2>|<3>; E: inf", "--point", POINT_SUPPORT),
     0, "205734fe080c481b", "33e33e4494a78cc4", "490de0c8f503a871"),
    (("cpair", "check", "--pair", "D: div 2", "--point", POINT),
     0, "5d096f283a0dbc4c", "dbcd7fcaa28bafc1", "5d45c3be34f89f52"),
    (("cpair", "divisor", "--pair", "0: >=2; 1: inf; 2: >=1"),
     0, "8e6cc15259fcd16d", "af9f5c49b3211fd3", "062bb2532a8b26d6"),
    (("config", "check", "--union", "<2,7>|<3>", "--configuration", CFG),
     0, "b2d8089ac306426a", "48f75e29cb2f30a8", "ca6e389ec2db33df"),
    (("config", "check", "--union", "<2>|<3,4,7>", "--configuration", CFG, "--strict"),
     1, "1a9cb0d218246a74", "0b37f0b9017dc235", "9dc2e732f44a7b23"),
    (("fibre", "classify", "--mults", "2,3"),
     0, "5e74fb0eefd6bb29", "330304749ca1ea61", "bd49bc58d738e852"),
    (("fibre", "classify", "--empty"),
     0, "de0af7da2946d4ad", "4293b9573990b61d", "dc2f424c5dab3a04"),
    (("fibre", "classify", "--mults", "4,6", "--exceptional"),
     0, "dcb4232f35ca0df6", "cef7749ec65dab8a", "6229578cb88d5b60"),
    (("fibre", "orbifold-base", "--fibres", FIBRES),
     0, "32ff93f70ede97ef", "17907f5c3e52a32b", "693e5cb88bb7360f"),
    (("fibre", "checklist", "--fibres", FIBRES_ONE, "--base-ws", "--dense-ws"),
     0, "c24ebf141389c606", "c9fb53be098e254c", "9d183b271c673200"),
    (("fibre", "checklist", "--fibres", FIBRES_DIVISIBLE, "--base-ws", "--dense-ws", "--strict"),
     1, "1d4ac5c61c253956", "110d39562d32ca16", "24927db30e04a909"),
    (("fibre", "checklist", "--fibres", FIBRES, "--no-base-ws", "--dense-ws"),
     0, "fc1200a5e83a2678", "be1cccb4078744ba", "f99a90a4b0541571"),
    (("fibre", "checklist", "--fibres", FIBRES_ONE, "--no-base-ws", "--dense-ws", "--strict"),
     1, "dc597a3a2cf25393", "9d681604ec21b835", "0279060ba33554dd"),
    (("xa", "classify", "2", "3"), 0, "446112f1f4337b52", "b697f8accf9d4416", "6cc7c5e44191f323"),
    (("xa", "classify", "6", "10", "15"),
     0, "d5a4cd5225a80d9d", "a75b353cbec41e42", "bb01187ca3e6dc53"),
    (("kodaira", "reduce", "III*"), 0, "3d19245a53d71e9e", "bec3a13229fa2537", "e00a30d90e711d90"),
    (("kodaira", "reduce", "IV*"), 0, "167fb523b5235f27", "2998e1472e808c4b", "2213baa7ca67606d"),
    (("weights", "2", "3"), 0, "4a93150ab78faca8", "4752faaff75b039e", "e9802877635d06c0"),
    (("weights", "2", "3", "--blocks", "1,1"),
     0, "50232a7e9f080b98", "663f132f37af1528", "1a8ac652f6f65b54"),
    (("weights", "2", "7", "3", "--blocks", "2,1"),
     0, "88f17caf937463a2", "11f29364a877c962", "12a0f0ea8842200d"),
    (("space", "report", "--condition", ">=2"),
     0, "68f38f359bd08109", "82540d523479b21f", "cc4ec362d570bad4"),
    (("space", "report", "--condition", "union <2,7>|<3>"),
     0, "5ecd705b20c0cab7", "f64b1d4458d0c9c4", "bad52d5372d5f323"),
    (("search", "2full", "--s", "2,3", "--bound", "6"),
     0, "7a04118668776e80", "5d19cc67a9eaf319", "afbed69ada73d8a7"),
    (("search", "2or3", "--s", "7,41", "--bound", "1"),
     0, "aeaa7b3f8609955b", "ae3f4fcba6f07c23", "4285708ae1652244"),
    (("search", "2full", "--s", "2", "--bound", "3", "--no-support", "--no-negative"),
     0, "6bdf94f7f49eab6c", "6ce3c054fdbcfe84", "11d0d24d84f30a6f"),
    (("p1", "enumerate", "--pair", "0: >=2; 1: >=2; inf: >=2", "--height", "30", "--s", ""),
     0, "7b41f599aa23277f", "fcb8ea277f9af2ac", "770e82e62ac1d37e"),
    (("p1", "enumerate", "--pair", "0: >=2; 1: union <2,7>|<3>; inf: div 2; -1: inf",
      "--height", "20", "--s", "2,3"),
     0, "86fbb98aea0aacb6", "6963c5540651b09d", "f88ddea0b046dc2c"),
    (("point", "verify", "--a", "3", "--b", "1", "--s", "2"),
     0, "8a3c82fa53f3f81a", "52b69822eed177ad", "3b757a7fa323dda6"),
    (("point", "verify", "--a", "3", "--b", "1", "--s", "2,7"),
     0, "4c7ceb7575339833", "306c83934a7ff6f0", "bacedc77612bcd4e"),
    (("point", "verify", "--a", "2", "--b", "3", "--strict"),
     1, "03d594040b5d37cb", "143542c0845cfba9", "7be7ff10114dbca9"),
]


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("case", GOLDEN_COMMANDS, ids=lambda case: " ".join(case[0][:2]))
def test_every_command_is_pinned(capsys, case, fmt):
    argv, code, *digests = case
    got = main([*argv, "--format", fmt])
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode()).hexdigest()[:16]) == \
        (code, digests[["json", "csv", "table"].index(fmt)])
