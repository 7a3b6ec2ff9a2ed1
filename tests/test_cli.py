import hashlib
import json
import os

import pytest

from dirsets.analysis import STATEMENTS
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
    # D holds inf, and the least t(y) over the slopes is still the least
    # over D: nothing to note
    assert "note" not in res
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


def test_root_power_bound_labels_name_the_sets_own_directions(capsys, tmp_path):
    # D = {1, 2, 4} over GF(5) without the vertical direction: the checks
    # run over every determined slope, named by the set's own codes
    path = tmp_path / "tri.pts"
    path.write_text("5 1\n0 0\n1 1\n2 3\n")
    rc, doc = run_json(capsys, ["directions", "--set", str(path)])
    assert doc["result"]["directions"] == ["1", "2", "4"]
    rc, doc = run_json(capsys, ["verify", "--statement", "root-power-bound",
                                "--set", str(path)])
    assert rc == 0 and doc["result"]["applicable"]
    assert [c["label"] for c in doc["result"]["checks"]] == [
        f"slope {y}: {what}" for y in (1, 2, 4)
        for what in ("root-count bound", "power degree identity",
                     "specialization degree bound")]


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


def test_search_text(capsys):
    rc, out = run(capsys, ["search", "--q", "3", "--n-max", "3",
                           "--statements", "thm-m,moduli-order"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("# dirsets ") and lines[0].endswith(":: search")
    assert lines[1] == "# field 3^1 modulus [0, 1]"
    assert lines[2].startswith("# config ") and '"format": "text"' in lines[2]
    assert lines[3:] == [
        "sets examined: 130",
        "  moduli-order: pass=120 fail=0 inapplicable=10",
        "  thm-m: pass=120 fail=0 inapplicable=10",
        "counterexamples: 0"]


def test_hunt_text_with_timing(capsys):
    rc, out = run(capsys, ["hunt", "--conjecture", "conj-moduli-match",
                           "--q", "3", "--n-max", "3", "--timing"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].endswith(":: hunt")
    assert '"conjecture": "conj-moduli-match"' in lines[2]
    assert lines[3:6] == [
        "sets examined: 130",
        "  conj-moduli-match: pass=84 fail=0 inapplicable=46",
        "counterexamples: 0"]
    assert len(lines) == 7 and lines[6].startswith("wall_ms: ")
    assert float(lines[6].split(": ")[1]) >= 0


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
    ('{"q": 3, "workers": 65}', "workers must be between 1 and 64"),
])
def test_search_config_file_rejected(tmp_path, capsys, content, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    assert main(["search", "--config", str(cfg)]) == 1
    assert message in capsys.readouterr().err


def test_search_refuses_repeated_statement_ids(tmp_path, capsys):
    # each verdict of a repeated id would be tallied twice
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 3, "n_max": 2,
                               "statements": ["moduli-order", "moduli-order"]}))
    for argv in (["--q", "3", "--n-max", "2", "--statements", "thm-m,thm-m"],
                 ["--config", str(cfg)]):
        assert main(["search", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "is repeated" in captured.err


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


def test_complete_refuses_cap_below_one_and_bad_alpha(capsys, tmp_path):
    # eight points of the diagonal of AG(2,9): one completion, and with a
    # cap below 1 the search would stop before finding it and raise a
    # false "no completion exists" alarm
    diag = tmp_path / "diag.pts"
    diag.write_text("3 2\n" + "".join(f"{x} {x}\n" for x in range(8)))
    rc, doc = run_json(capsys, ["complete", "--set", str(diag), "--cap", "100"])
    assert rc == 0
    assert len(doc["result"]["extensions"]) == 1 and not doc["result"]["alarm"]
    for cap in ("0", "-1"):
        rc = main(["complete", "--set", str(diag), "--cap", cap])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert f"error: cap must be at least 1, got {cap}" in captured.err
    for alpha in ("1/0", "abc"):
        rc = main(["complete", "--set", str(diag), "--alpha", alpha])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert f"error: --alpha '{alpha}' is not a fraction" in captured.err


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


def test_realize_out_set_needs_a_plane_target(capsys, tmp_path):
    # the 3x3 identity projects into PG(2, 9), not a plane target: refused
    # before any report line is written
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "p": 3, "h": 2, "s": 3,
        "projection_matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    out_set = tmp_path / "x.pts"
    assert main(["realize", "--spec", str(spec), "--out-set", str(out_set)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --out-set needs a plane target (n = 1)\n"
    assert not out_set.exists()


@pytest.mark.parametrize("entry,shown", [(-1, "-1"), (7, "7"), ("a", "'a'")])
def test_realize_refuses_an_entry_that_is_not_a_field_code(capsys, tmp_path,
                                                           entry, shown):
    # over GF(4) the codes are 0..3: -1 would index the tables from the end
    # and print a wrong set, 7 and "a" would end in a traceback
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"p": 2, "h": 2, "s": 2,
                                "projection_matrix": [[entry, 0], [0, 1]]}))
    assert main(["realize", "--spec", str(spec)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: projection matrix entry {shown} "
                            f"is not a code of GF(4)\n")


def test_realize_names_a_missing_spec_field(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"p": 2, "s": 2,
                                "projection_matrix": [[1, 0], [0, 1]]}))
    assert main(["realize", "--spec", str(spec)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {spec}: spec field 'h' is missing\n"


def test_realize_refuses_a_span_above_the_bound(capsys, tmp_path, monkeypatch):
    # the k x k identity over GF(4) with s = 2 spans 2^k points: k = 18 is
    # refused before the subgeometry is walked, k = 16 (2^16) still realizes
    from dirsets import linsets

    def identity_spec(k):
        spec = tmp_path / f"identity{k}.json"
        spec.write_text(json.dumps({
            "p": 2, "h": 2, "s": 2,
            "projection_matrix": [[int(i == j) for j in range(k)] for i in range(k)]}))
        return str(spec)

    def walked(*args):
        raise AssertionError("the subgeometry was walked")

    with monkeypatch.context() as m:
        m.setattr(linsets, "_subgeometry_points", walked)
        assert main(["realize", "--spec", identity_spec(18)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: span of 2^18 = 262144 points exceeds bound 65536\n"
    assert linsets.MAX_SPAN_POINTS == 1 << 16
    rc, out = run(capsys, ["realize", "--spec", identity_spec(16)])
    assert rc == 0
    lines = out.splitlines()
    assert lines[3] == "2 2" and len(lines) == 4 + (1 << 16)


_PLANE_SPEC = {"p": 2, "h": 2, "s": 2, "projection_matrix": [[1, 0], [0, 1]]}


@pytest.mark.parametrize("doc,message", [
    ([1, 2], "{spec}: a spec is a JSON object"),
    ({**_PLANE_SPEC, "projection_matrix": [1, 2]},
     "{spec}: projection_matrix is a list of rows, each a list of codes"),
    ({**_PLANE_SPEC, "p": "2"}, "field parameter p = '2' is not an integer"),
    ({**_PLANE_SPEC, "h": 2.0}, "field parameter h = 2.0 is not an integer"),
    ({**_PLANE_SPEC, "s": 2.0}, "2.0 is not a subfield order of GF(2^2)"),
    ({**_PLANE_SPEC, "projection_matrix": [[]]},
     "projection matrix needs a row and a column"),
    ({**_PLANE_SPEC, "projection_matrix": []},
     "projection matrix needs a row and a column"),
    ({**_PLANE_SPEC, "d": 2}, "spec dimensions disagree with the projection matrix"),
    ({**_PLANE_SPEC, "n": 2}, "spec dimensions disagree with the projection matrix"),
], ids=["not-an-object", "rows-not-lists", "p-string", "h-float", "s-float",
        "no-columns", "no-rows", "d-disagrees", "n-disagrees"])
def test_realize_refuses_a_malformed_spec(capsys, tmp_path, doc, message):
    # refused with one error line before any report line, never a traceback
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert main(["realize", "--spec", str(spec)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: " + message.format(spec=spec) + "\n"


def test_invariants_of_a_set_with_no_determined_direction(capsys, tmp_path):
    point = tmp_path / "point.pts"
    point.write_text("5 1\n2 3\n")
    rc, out = run(capsys, ["invariants", "--set", str(point)])
    assert rc == 0
    assert out.splitlines()[-3:] == [
        "|U| = 1, |D| = 0", "s = None, t = None, degXH = ",
        "note: no determined direction: moduli undefined"]
    rc, doc = run_json(capsys, ["invariants", "--set", str(point)])
    assert rc == 0
    assert doc["result"] == {
        "points": 1, "direction_count": 0, "directions": [], "s": None,
        "t": None, "note": "no determined direction: moduli undefined",
        "per_direction": []}


def test_search_needs_a_field_order(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_max": 2}))
    for argv in (["search"], ["search", "--config", str(config)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: q is required (flag --q or config file)\n"


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
    capsys.readouterr()
    # q = 10^9 + 7 is prime: recognised at once, then refused for its size
    assert main(["search", "--q", "1000000007", "--n-max", "1",
                 "--statements", "thm-m"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "exceeds bound" in captured.err


def test_repeated_point_line_is_refused(capsys, tmp_path):
    path = tmp_path / "twice.pts"
    path.write_text("3 1\n0 0\n0 0\n")
    assert main(["directions", "--set", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: repeated point line '0 0'\n"


def test_point_line_with_a_non_integer_token_is_named(capsys, tmp_path):
    path = tmp_path / "token.pts"
    path.write_text("3 1\n0 0\n1 x\n")
    assert main(["directions", "--set", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad point line '1 x': expected 'a b'\n"


def _run_python(args):
    """A fresh interpreter with the package's source on PYTHONPATH."""
    import subprocess
    import sys
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def test_module_entry_point():
    proc = _run_python(["-m", "dirsets", "directions", "--set", E1])
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
    # s(y) is defined at every determined direction, t(y) is not
    assert doc["result"]["per_direction"] == [
        {"direction": y, "s_y": 1} for y in ("0", "1", "inf")]
    rc, out = run(capsys, ["invariants", "--set", str(big)])
    assert rc == 0
    assert out.splitlines()[3:] == [
        "|U| = 3, |D| = 3",
        "s = 1, t = None, degXH = ",
        "  dir 0: s(y)=1 t(y)= deg_f= kappa=",
        "  dir 1: s(y)=1 t(y)= deg_f= kappa=",
        "  dir inf: s(y)=1 t(y)= deg_f= kappa=",
        "note: tail system needs at most q points"]


S9 = ("thm-m,size-q-trichotomy,prime-dichotomy,line-congruence,"
      "tail-degree-bound,root-power-bound,power-membership,power-span,"
      "moduli-order")


Q3_S9_CSV = (["search", "--q", "3", "--n-max", "9", "--statements", S9, "--format", "csv"],
             "981b28d65701531ad00808f129d28e59f360a2f50921f9e3f59e606907ddf264")
Q5_TAILS = ["search", "--q", "5", "--n-max", "4", "--statements",
            "prime-dichotomy,moduli-order,root-power-bound,power-membership",
            "--format", "json"]


@pytest.mark.parametrize("argv,digest", [
    Q3_S9_CSV,
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
    # 15276 sets over at most C(9, 4) = 126 slope profiles: each profile
    # recurs across hundreds of sets
    (Q5_TAILS, "c3efeb4d72f81b451498f9e8770bae6c5240aaf1b5b490a35ff1e85e1f67cbf2"),
])
def test_report_bytes_are_pinned(capsys, argv, digest):
    # sha256 of each report: a change to report bytes must update these
    # digests on purpose
    rc, out = run(capsys, argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _set_verb_runs(path):
    verbs = [["directions"], ["invariants"], ["redei"], ["complete", "--attempt"]]
    verbs += [["verify", "--statement", s] for s in sorted(STATEMENTS)]
    return [[verb[0], "--set", path, *verb[1:], "--format", fmt]
            for fmt in ("text", "json") for verb in verbs]


@pytest.mark.parametrize("runs,digest", [
    (_set_verb_runs("e1.pts"),
     "f063bf416c7160a9daeed3364c5c5aaaaa3b4256e90a9629e1337d6608555a28"),
    (_set_verb_runs("collinear3_gf5.pts"),
     "59e64d2a38287cd595106667cb22b4df3d05e37379c0d4b5e43ceeccd8810436"),
    # thm-m case 1, prime-dichotomy and root-power-bound apply here
    (_set_verb_runs("triangle3_gf5.pts"),
     "9d0f2790ab74eb7366fa948c5bb3ade4f4be1eafe8ab7b97f69a5355d79ee1ef"),
    ([["realize", "--spec", "plane_gf4.json", "--format", fmt]
      for fmt in ("text", "json")],
     "db67dc538b19d4d49e2ba94007d1fc1b79392442bf428c25f83402cb33499fa9"),
    ([["examples", "--format", "json"]],
     "fc3d5e3968bfe98f885e8fa4c20a1a7c37a6d50bfc45af4a2918732de22fe49a"),
])
def test_verb_bytes_are_pinned(capsys, monkeypatch, runs, digest):
    # sha256 of the reports of every other verb, one after the other; the
    # header echoes the --set or --spec path, so it is given relative to
    # the fixtures directory
    monkeypatch.chdir(FIXTURES)
    h = hashlib.sha256()
    for argv in runs:
        rc, out = run(capsys, argv)
        assert rc == 0
        h.update(out.encode())
    assert h.hexdigest() == digest


def test_q5_tallies_at_two_workers(capsys):
    # the pinned report's tallies; each worker fills its own slope memo
    rc, doc = run_json(capsys, Q5_TAILS[:-2] + ["--workers", "2"])
    assert rc == 0
    assert doc["result"]["sets_examined"] == 15276
    assert doc["result"]["tallies"] == {
        "moduli-order": {"fail": 0, "inapplicable": 26, "pass": 15250},
        "power-membership": {"fail": 0, "inapplicable": 1, "pass": 15275},
        "prime-dichotomy": {"fail": 0, "inapplicable": 2026, "pass": 13250},
        "root-power-bound": {"fail": 0, "inapplicable": 2776, "pass": 12500}}


@pytest.mark.parametrize("cap", [0, 1])
def test_slope_memo_cap_keeps_report_bytes(capsys, monkeypatch, cap):
    # past the cap entries are computed and not shared; nothing else moves
    from dirsets import redei
    from dirsets.field import make_field
    from dirsets.geometry import AffinePointSet

    monkeypatch.setattr(redei, "SLOPE_MEMO_CAP", cap)
    argv, digest = Q3_S9_CSV
    rc, out = run(capsys, argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    F = make_field(3, 1)
    memo = {}
    for pairs in (((0, 0), (1, 1), (2, 0)), ((0, 0), (0, 1), (1, 2))):
        assert redei.SlopeTable(AffinePointSet.of(F, pairs), memo).t == 1
    assert len(memo) == cap
