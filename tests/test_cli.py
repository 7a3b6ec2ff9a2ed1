import hashlib
import json
import os

import pytest

from dirsets.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
E1 = os.path.join(FIXTURES, "e1.pts")
COLLINEAR = os.path.join(FIXTURES, "collinear3_gf5.pts")


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, argv):
    rc, out = run(capsys, argv + ["--format", "json"])
    return rc, json.loads(out)


def test_directions_text(capsys):
    rc, out = run(capsys, ["directions", "--set", E1])
    assert rc == 0
    assert "D = {0, 1, inf}" in out
    assert "|D| = 3" in out
    assert "# field 2^2 modulus [1, 1, 1]" in out


def test_directions_json_envelope(capsys):
    rc, doc = run_json(capsys, ["directions", "--set", E1])
    assert rc == 0
    assert doc["tool"] == "dirsets" and doc["verb"] == "directions"
    assert doc["field"] == {"p": 2, "h": 2, "q": 4, "modulus": [1, 1, 1]}
    assert doc["result"]["directions"] == ["0", "1", "inf"]
    assert doc["result"]["count"] == 3


def test_invariants_json(capsys):
    rc, doc = run_json(capsys, ["invariants", "--set", E1])
    assert rc == 0
    res = doc["result"]
    assert res["s"] == 2 and res["t"] == 2 and res["degXH"] == 2
    table = {row["direction"]: row for row in res["per_direction"]}
    assert table["0"]["t_y"] == 2 and table["0"]["kappa"] == 4
    assert table["inf"]["s_y"] == 2 and "t_y" not in table["inf"]


def test_redei_verb(capsys):
    rc, doc = run_json(capsys, ["redei", "--set", E1])
    assert rc == 0
    assert doc["result"]["degXH"] == 2
    # sparse terms sorted by (x desc, y desc)
    assert doc["result"]["tail"][0] == [1, 2, 2]
    rc, out = run(capsys, ["redei", "--set", E1])
    assert "R = X^4" in out and "X^q + T" in out


def test_verify_exit_codes(capsys):
    rc, out = run(capsys, ["verify", "--statement", "thm-m", "--set", COLLINEAR])
    assert rc == 0
    assert "case 3" in out and "holds" in out
    rc, doc = run_json(capsys, ["verify", "--statement", "line-congruence",
                                "--set", COLLINEAR])
    assert rc == 0
    assert doc["result"]["applicable"] is False


def test_verify_all_statements_on_fixture(capsys):
    for stmt in ("thm-m", "size-q-trichotomy", "prime-dichotomy", "line-congruence", "tail-degree-bound",
                 "root-power-bound", "power-membership", "power-span", "moduli-order", "conj-moduli-match",
                 "conj-maximal-linear"):
        rc, doc = run_json(capsys, ["verify", "--statement", stmt, "--set", E1])
        assert rc == 0, stmt
        assert doc["result"]["statement"] == stmt


def test_byte_identical_reruns(capsys):
    rc1, out1 = run(capsys, ["search", "--q", "3", "--n-min", "2", "--n-max", "3",
                             "--statements", "thm-m,moduli-order", "--format", "json"])
    rc2, out2 = run(capsys, ["search", "--q", "3", "--n-min", "2", "--n-max", "3",
                             "--statements", "thm-m,moduli-order", "--format", "json"])
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_search_csv(capsys):
    rc, out = run(capsys, ["search", "--q", "3", "--n-min", "2", "--n-max", "2",
                           "--statements", "thm-m", "--format", "csv"])
    assert rc == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0] == "set_id,n,D_size,s,t,degXH,case,holds"
    assert len(lines) == 1 + 36
    header_comments = [line for line in out.splitlines() if line.startswith("#")]
    assert any("config" in line for line in header_comments)


def test_search_empty_stream_header_only(capsys):
    rc, out = run(capsys, ["search", "--q", "3", "--mode", "random", "--seed", "1",
                           "--budget", "0", "--statements", "thm-m",
                           "--format", "csv"])
    assert rc == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines == ["set_id,n,D_size,s,t,degXH,case,holds"]


def test_search_random_requires_seed(capsys):
    rc, _ = run(capsys, ["search", "--q", "3", "--mode", "random",
                         "--statements", "thm-m"])
    assert rc == 1


def test_search_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 3, "n_min": 2, "n_max": 9,
                               "statements": ["thm-m"]}))
    rc, doc = run_json(capsys, ["search", "--config", str(cfg),
                                "--n-max", "2"])
    assert rc == 0
    assert doc["config"]["n_max"] == 2
    assert doc["result"]["sets_examined"] == 36


@pytest.mark.parametrize("content,message", [
    ("[3]", "a search config is a JSON object"),
    ('{"q": 3, "foo": 1}', "unknown config fields foo"),
    ('{"q": 3, "n_max": "2"}', "n_max must be an integer"),
    ('{"q": 3.0, "n_max": 2}', "q must be an integer"),
    ('{"q": 3, "statements": "thm-m"}', "statements must be a JSON list"),
    ('{"q": 3, "symmetry": "off"}', "symmetry must be true or false"),
    ('{"q": 3, "workers": true}', "workers must be an integer"),
])
def test_search_config_file_rejected(tmp_path, capsys, content, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    assert main(["search", "--config", str(cfg)]) == 1
    assert message in capsys.readouterr().err


def test_search_exhaustive_refuses_seed_and_budget(capsys):
    for flags in (["--seed", "5", "--budget", "7"], ["--seed", "5"], ["--budget", "7"]):
        rc = main(["search", "--q", "3", "--n-max", "2", *flags,
                   "--statements", "thm-m", "--format", "json"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed and budget apply to random mode only" in captured.err


def test_hunt_verb(capsys):
    rc, doc = run_json(capsys, ["hunt", "--conjecture", "conj-moduli-match", "--q", "3",
                                "--n-min", "2", "--n-max", "3"])
    assert rc == 0
    assert "conj-moduli-match" in doc["result"]["tallies"]


def test_complete_verb(capsys, tmp_path):
    near = tmp_path / "near.pts"
    near.write_text("2 2\n0 0\n1 0\n0 1\n")
    rc, doc = run_json(capsys, ["complete", "--set", str(near), "--attempt"])
    assert rc == 0
    assert [[0, 0], [0, 1], [1, 0], [1, 1]] in doc["result"]["extensions"]


def test_realize_verb(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "p": 2, "h": 2, "s": 2, "d": 1, "n": 1,
        "projection_matrix": [[1, 0], [0, 1]]}))
    out_set = tmp_path / "realized.pts"
    rc, doc = run_json(capsys, ["realize", "--spec", str(spec),
                                "--out-set", str(out_set)])
    assert rc == 0
    assert doc["result"]["round_trip"] is True
    assert doc["result"]["directions"] == ["0", "1", "inf"]
    assert doc["result"]["total_weight"] == 3
    assert out_set.exists()
    from dirsets.geometry import AffinePointSet
    assert len(AffinePointSet.from_file(out_set)) == 4


def test_examples_verb(capsys):
    rc, doc = run_json(capsys, ["examples"])
    assert rc == 0
    assert doc["result"]["all_expected_properties"] is True


def test_usage_errors(capsys):
    assert main(["directions"]) == 1            # missing --set
    assert main(["verify", "--set", E1, "--statement", "nope"]) == 1
    assert main(["directions", "--set", "missing-file.pts"]) == 1
    assert main([]) == 1
    assert main(["--version"]) == 0


def test_module_entry_point():
    import subprocess
    import sys
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "dirsets", "directions", "--set", E1],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "D = {0, 1, inf}" in proc.stdout


def test_soundness_alarm_exit_code(capsys, monkeypatch):
    from dirsets import cli
    from dirsets.field import SoundnessError

    def boom(statement, U):
        raise SoundnessError("forced for the exit-code contract")

    monkeypatch.setattr(cli, "verify_statement", boom)
    rc = cli.main(["verify", "--statement", "thm-m", "--set", E1])
    assert rc == 3
    assert "soundness alarm" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--statements", "thm-m", "--format", "csv"],
    ["--statements", "tail-degree-bound", "--format", "csv"],
    ["--statements", "moduli-order", "--format", "json"],
])
def test_minus_x_tail_on_a_determined_slope_is_an_alarm(capsys, monkeypatch, argv):
    # -X is the tail of an undetermined slope; every path that reads a
    # determined slope's tail must raise the same alarm
    from dirsets import polys, redei

    monkeypatch.setattr(redei, "specialized_tail",
                        lambda U, y: polys.p_trim((0, U.field.neg(1))))
    rc = main(["search", "--q", "3", "--n-max", "3"] + argv)
    assert rc == 3
    assert "soundness alarm" in capsys.readouterr().err


def test_completion_alarm_exit_code(capsys, monkeypatch):
    from dirsets import cli
    from dirsets.search import CompletionResult

    monkeypatch.setattr(cli, "complete_set",
                        lambda query: CompletionResult((), True, True))
    rc = cli.main(["complete", "--set", E1])
    assert rc == 3


def test_verify_counterexample_exit_code(capsys, monkeypatch):
    from dirsets import cli
    from dirsets.analysis import Check, Verdict

    monkeypatch.setattr(
        cli, "verify_statement",
        lambda stmt, U: Verdict(stmt, True, None,
                                (Check("forced", 1, "==", 0, False),)))
    rc = cli.main(["verify", "--statement", "conj-moduli-match", "--set", E1])
    assert rc == 2


def test_search_symmetry_flag(capsys):
    rc, doc = run_json(capsys, ["search", "--q", "2", "--n-min", "2",
                                "--n-max", "2", "--symmetry", "on",
                                "--statements", "thm-m"])
    assert rc == 0
    assert doc["result"]["sets_examined"] == 1
    assert doc["config"]["symmetry"] is True


def test_invariants_oversized_set(capsys, tmp_path):
    # more than q points: geometric modulus only, tail system undefined
    big = tmp_path / "big.pts"
    big.write_text("2 1\n0 0\n0 1\n1 0\n")
    rc, doc = run_json(capsys, ["invariants", "--set", str(big)])
    assert rc == 0
    assert doc["result"]["s"] == 1 and doc["result"]["t"] is None
    assert "at most q points" in doc["result"]["note"]


S9 = ("thm-m,size-q-trichotomy,prime-dichotomy,line-congruence,"
      "tail-degree-bound,root-power-bound,power-membership,power-span,"
      "moduli-order")


@pytest.mark.parametrize("argv,digest", [
    (["search", "--q", "3", "--n-max", "9", "--statements", S9, "--format", "csv"],
     "981b28d65701531ad00808f129d28e59f360a2f50921f9e3f59e606907ddf264"),
    (["search", "--q", "3", "--n-max", "9", "--statements", S9, "--format", "json"],
     "d8d25bdebf064622c1d8944e41f273bb457745c83abc1d6c5b94bff69c2d798d"),
    (["search", "--q", "4", "--n-max", "4", "--statements", S9, "--format", "csv"],
     "8765b7d6486b42ffaf383b5287121c5ac883b9a5d76bbaabbaffa8bb748ba84e"),
    (["search", "--q", "4", "--n-max", "4", "--statements", S9, "--format", "json"],
     "da3b797931bf25cd3fd303af3966757e03da3ee8ae986b7365b1afe101d8cdf3"),
    (["hunt", "--conjecture", "conj-moduli-match", "--q", "4", "--n-min", "2",
      "--n-max", "4", "--format", "json"],
     "0a4cf42876eb84bf45c9014e1f6f3b2ed9e95871a6ef696570fccddec51d77cc"),
    (["hunt", "--conjecture", "conj-maximal-linear", "--q", "4", "--n-min", "2",
      "--n-max", "4", "--format", "json"],
     "1f3926af5169c79865d6a6b4c77cac8baa7d5c749ab0e3d4a3b52fd0ebedb644"),
])
def test_report_bytes_are_pinned(capsys, argv, digest):
    # sha256 of each report: a change to report bytes must update these
    # digests on purpose
    rc, out = run(capsys, argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
