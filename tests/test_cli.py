"""Command line behaviour: outputs, formats, config files, exit codes."""

import json

import pytest

from cpairs.cli import MAX_SCAN, json_line, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def jlines(stdout: str):
    return [json.loads(line) for line in stdout.splitlines()]


def assert_json_roundtrip(stdout: str):
    """Canonical JSON: parse then re-emit is byte-identical."""
    for line in stdout.splitlines():
        assert json_line(json.loads(line)) == line


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


@pytest.mark.parametrize("point", ['[1]', '{"D": 5}', '{"D": {"mults": 5}}'])
def test_cpair_check_malformed_point_shape_exits_2(capsys, point):
    code, out, err = run(capsys, "cpair", "check", "--pair", "D: >=2", "--point", point)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


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
    code, _, err = run(capsys, "p1", "enumerate", "--pair", "0: >=2; 0: >=3", "--height", "5")
    assert code == 2


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
        (["mfull", "list", str(10**21)], str(MAX_SCAN)),
        (["semigroup", "elements", "<2,3>", "--bound", str(10**11)], str(MAX_SCAN)),
        (["search", "2full", "--s", "2,3,5,7", "--bound", "30"], str(MAX_SCAN)),
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
