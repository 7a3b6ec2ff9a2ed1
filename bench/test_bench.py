"""Self-tests of the benchmark: python -m pytest -q bench"""

import json
import os
import random
import re
from dataclasses import replace

import pytest

import dirsets.analysis as analysis
import dirsets.cli as cli
import dirsets.field as field
import dirsets.geometry as geometry
import dirsets.redei as redei
import dirsets.search as search

import micro
import run
import spans
from workloads import WORKLOADS, sets_covered, sha256, output_problem

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_self_time_on_synthetic_nested_trace():
    t = spans.Trace()
    root, a, a1, b, c = (t.name_id(n) for n in ("root", "a", "a1", "b", "c"))
    i_root = t.begin(root, 0)
    i_a = t.begin(a, 10)
    i_a1 = t.begin(a1, 15)
    t.finish(i_a1, 25)
    t.finish(i_a, 40)
    i_b = t.begin(b, 50)
    t.finish(i_b, 70)
    i_c = t.begin(c, 60)      # overlaps b: the cover counts [60, 70] once
    t.finish(i_c, 80)
    t.finish(i_root, 100)
    assert [t.parent[i] for i in (i_root, i_a, i_a1, i_b, i_c)] == [-1, 0, 1, 0, 0]
    got = spans.layer_times(t)
    ns = 1e-9
    assert got["root"]["total_s"] == pytest.approx(100 * ns)
    assert got["root"]["self_s"] == pytest.approx((100 - 30 - 30) * ns)
    assert got["a"]["self_s"] == pytest.approx(20 * ns)
    assert got["a1"]["self_s"] == pytest.approx(10 * ns)
    assert got["b"]["self_s"] == pytest.approx(20 * ns)
    assert got["c"]["self_s"] == pytest.approx(20 * ns)
    assert {k: v["calls"] for k, v in got.items()} == dict.fromkeys(got, 1)


def test_one_byte_change_is_flagged():
    report = json.dumps({"result": {"sets_examined": 40000}}).encode()
    wl = replace(WORKLOADS["hunt-q8"], sha256=sha256(report),
                 traced_sha256=sha256(report))
    assert output_problem(wl, False, 2, report) is None
    changed = report[:-1] + b" "
    assert "sha256" in output_problem(wl, False, 2, changed)
    assert "exit code" in output_problem(wl, False, 0, report)

    checker = run.Checker(wl)
    checker.check(wl.argv, {"exit": 2}, report)
    checker.check(wl.argv, {"exit": 2}, changed)
    assert (checker.attempted, checker.failed) == (2, 1)
    assert checker.result({})["correct"] is False


def test_wrong_stream_size_fails_loudly():
    report = json.dumps({"result": {"sets_examined": 39999}}).encode()
    wl = replace(WORKLOADS["hunt-q8"], sha256=sha256(report))
    with pytest.raises(run.BenchError, match="39999"):
        run.Checker(wl).check(wl.argv, {"exit": 2}, report)


def test_stream_sizes():
    sizes = {name: sets_covered(wl.argv) for name, wl in WORKLOADS.items()}
    assert sizes == {"catalog-q4": 39203, "moduli-q5": 68406,
                     "orbit-q4": 39203, "hunt-q8": 40000}
    catalog = WORKLOADS["catalog-q4"]
    assert catalog.traced_argv[-2:] == ("--workers", "1")
    assert sets_covered(catalog.traced_argv) == 39203


def test_wrappers_cover_every_binding_and_are_removed():
    originals = {
        (analysis, "specialized_tail"): redei.specialized_tail,
        (redei, "specialized_tail"): redei.specialized_tail,
        (search, "is_maximal"): geometry.is_maximal,
        (analysis, "is_maximal"): geometry.is_maximal,
        (geometry, "is_maximal"): geometry.is_maximal,
        (cli, "sweep"): search.sweep,
        (cli, "main"): cli.main,
    }
    mul = field.Field.mul
    trace = spans.Trace()
    with spans.installed(spans.span_patches(trace)):
        for (mod, attr), fn in originals.items():
            assert getattr(mod, attr) is not fn
            assert getattr(mod, attr).__wrapped__ is fn
        assert analysis.specialized_tail is redei.specialized_tail
    for (mod, attr), fn in originals.items():
        assert getattr(mod, attr) is fn
    with spans.installed(spans.field_op_patches(trace.counts)):
        assert field.Field.mul is not mul
    assert field.Field.mul is mul


def test_traced_cli_call(capsys):
    trace = spans.Trace()
    with spans.installed(spans.span_patches(trace)):
        code = cli.main(["search", "--q", "3", "--n-max", "3",
                         "--statements", "thm-m,moduli-order", "--format", "json"])
    assert code == 0
    covered = 1 + 9 + 36 + 84
    assert json.loads(capsys.readouterr().out)["result"]["sets_examined"] == covered
    layers = spans.layer_times(trace)
    assert layers["cli.main"]["calls"] == 1
    assert layers["search.sweep"]["calls"] == 1
    assert layers["analysis.verify_statement"]["calls"] == 2 * covered
    assert trace.counts["search.enumerate_sets.yields"] == covered
    assert trace.counts["analysis.thm-m.calls"] == covered
    assert 0 < trace.counts["analysis.moduli-order.applicable"] < covered
    for row in layers.values():
        assert 0 <= row["self_s"] <= row["total_s"] + 1e-9
    assert sum(r["self_s"] for r in layers.values()) == pytest.approx(
        layers["cli.main"]["total_s"])


def test_micro_cases_match_their_metric_names():
    for q in micro.QS:
        cases = micro._cases(q, random.Random(0))
        assert tuple(c[0] for c in cases) == micro.STEMS


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (wl.name, wl.why) for wl in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.per_layer_metrics()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer")
               for m in spec[key])
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert len(spec["per_layer"]) <= 128
