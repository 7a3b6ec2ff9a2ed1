"""Benchmark of the dirsets command line on four pinned sweeps.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every CLI call is a fresh Python process
(bench/child.py), because users pay interpreter start, imports and field
tables on every call.  Load is a closed loop of one client: the next
sweep starts when the previous one has ended.

--trace 0 times sweeps back to back for about S seconds (at least two) and
prints the end-to-end metrics as medians.  --trace 1 makes one untraced,
one span-traced and one field-op-counting call at workers=1, then the
layer microbenchmarks, and prints the per-layer metrics.  Every call's
stdout and exit code are checked against the pinned report; the last
stdout line is a JSON object with `correct`, `attempted`, `failed` and
`metrics`.  --seed feeds the microbenchmark inputs: the CLI workloads
are fixed so that their reports can be checked byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from child import MARKER  # noqa: E402
from spans import FIELD_OPS, SPANNED  # noqa: E402
from workloads import (S8, WORKLOADS, flags, output_problem,  # noqa: E402
                       sets_covered)

SETUP_PROBES = 8
MIN_SWEEPS = 2
CHILD_TIMEOUT_S = 150

END_TO_END = [("sets_per_s", "1/s"), ("run_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]

STATEMENTS = tuple(S8.split(",")) + ("prime-dichotomy", "conj-moduli-match")
SPAN_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}


def per_layer_metrics():
    """(name, unit) of every metric a traced run prints, in print order."""
    from micro import METRICS
    out = [("trace_overhead", "ratio"), ("untraced_run_s", "s"),
           ("cli.output_bytes", "bytes"), ("search.sets_covered", "count"),
           ("search.sets_yielded", "count"), ("search.yield_ratio", "ratio")]
    out += [(f"{name}.{f}", SPAN_UNITS[f]) for name, fields in SPANNED.items()
            for f in fields]
    out += [(f"analysis.{s}.applicable_ratio", "ratio") for s in STATEMENTS]
    out += [("geometry.line_profile.calls", "count"),
            ("geometry.is_maximal.true_ratio", "ratio")]
    out += [(f"field.{op}.calls", "count") for op in FIELD_OPS]
    out += [("field.ops_per_set", "ops/set")]
    return out + METRICS


class BenchError(RuntimeError):
    """The benchmark could not measure: a crash, a timeout, a bad count."""


def call_child(mode: str, q: int, cli_argv) -> tuple:
    """Run bench/child.py once; returns (its record, stdout bytes)."""
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode,
           str(spawn_ns), str(q), *cli_argv]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} call timed out: {' '.join(cli_argv)}")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = err.decode(errors="replace").splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith(MARKER):
        raise BenchError(f"{mode} call failed (exit {proc.returncode}):\n"
                         + "\n".join(lines[-20:]))
    return json.loads(lines[-1][len(MARKER):]), out


def sets_examined(argv, stdout: bytes):
    """Sets the report says it examined; None when symmetry hides that."""
    f = flags(argv)
    if f.get("--symmetry") == "on":
        return None
    if f.get("--format") == "csv":
        rows = [ln for ln in stdout.splitlines() if not ln.startswith(b"#")]
        return len(rows) - 1
    return json.loads(stdout)["result"]["sets_examined"]


class Checker:
    """Counts calls attempted and failed against the pinned reports."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0

    def check(self, argv, record, stdout: bytes) -> None:
        self.attempted += 1
        problem = output_problem(self.wl, argv != self.wl.argv,
                                 record["exit"], stdout)
        if problem is not None:
            self.failed += 1
            print(f"{self.wl.name}: {problem}", file=sys.stderr)
            return
        seen = sets_examined(argv, stdout)
        covered = sets_covered(argv)
        if seen is not None and seen != covered:
            raise BenchError(f"{self.wl.name}: report examined {seen} sets, "
                             f"stream size function says {covered}")

    def result(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def timed(wl, seconds: float) -> dict:
    checker = Checker(wl)
    call_child("setup", wl.q, wl.argv)   # compiles bytecode caches; discarded
    setups = [call_child("setup", wl.q, wl.argv)[0]["setup_s"]
              for _ in range(SETUP_PROBES)]
    covered = sets_covered(wl.argv)
    runs = []
    deadline = time.monotonic() + seconds
    while True:
        started = time.monotonic()
        record, out = call_child("plain", wl.q, wl.argv)
        checker.check(wl.argv, record, out)
        runs.append(record)
        print(f"{wl.name}: sweep {len(runs)} run_s {record['run_s']:.3f} "
              f"setup_s {record['setup_s']:.3f}", file=sys.stderr)
        ended = time.monotonic()
        # stop before a sweep that would end over half its length late
        if len(runs) >= MIN_SWEEPS and ended + (ended - started) / 2 >= deadline:
            break
    med = statistics.median
    values = {
        "sets_per_s": med(covered / r["run_s"] for r in runs),
        "run_s": med(r["run_s"] for r in runs),
        "setup_s": med(setups + [r["setup_s"] for r in runs]),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in runs),
    }
    return checker.result({name: _metric(values[name], unit)
                           for name, unit in END_TO_END})


def traced(wl, seed: int) -> dict:
    import micro
    checker = Checker(wl)
    argv = wl.traced_argv
    calls = {}
    for mode in ("plain", "spans", "counts"):
        record, out = call_child(mode, wl.q, argv)
        checker.check(argv, record, out)
        calls[mode] = record
    layers = calls["spans"]["layers"]
    counts = calls["spans"]["counts"]
    ops = calls["counts"]["counts"]
    covered = sets_covered(argv)
    yielded = counts.get("search.enumerate_sets.yields", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "trace_overhead": calls["spans"]["run_s"] / calls["plain"]["run_s"],
        "untraced_run_s": calls["plain"]["run_s"],
        "cli.output_bytes": len(out),
        "search.sets_covered": covered,
        "search.sets_yielded": yielded,
        "search.yield_ratio": yielded / covered,
        "geometry.line_profile.calls": counts.get("geometry.line_profile.calls", 0),
        "geometry.is_maximal.true_ratio": ratio(
            counts.get("geometry.is_maximal.true", 0),
            layers.get("geometry.is_maximal", {}).get("calls", 0)),
        "field.ops_per_set": sum(ops.values()) / covered,
    }
    for name, fields in SPANNED.items():
        for f in fields:
            values[f"{name}.{f}"] = layers.get(name, {}).get(f, 0)
    for s in STATEMENTS:
        values[f"analysis.{s}.applicable_ratio"] = ratio(
            counts.get(f"analysis.{s}.applicable", 0),
            counts.get(f"analysis.{s}.calls", 0))
    for op in FIELD_OPS:
        values[f"field.{op}.calls"] = ops.get(f"field.{op}.calls", 0)
    values.update(micro.run(seed))
    return checker.result({name: _metric(values[name], unit)
                           for name, unit in per_layer_metrics()})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dirsets", "cli.py")):
        print("error: run from a checkout that holds src/dirsets", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    try:
        result = traced(wl, args.seed) if args.trace else timed(wl, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
