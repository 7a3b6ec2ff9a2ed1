"""One CLI call in a fresh process, as a user pays for it.

    python bench/child.py MODE SPAWN_NS Q [CLI ARGS...]

SPAWN_NS is the parent's CLOCK_MONOTONIC reading just before it started
this process, so set-up time covers interpreter start, `import
dirsets.cli` and `make_field` for GF(Q).  MODE is one of

    setup   stop after set-up
    plain   run dirsets.cli.main on the CLI ARGS
    spans   the same, with spans on the wrapped layers
    counts  the same, counting Field.mul/add/sub/div calls

The report goes to stdout untouched; the measurements go to stderr as
the last line, prefixed with MARKER.
"""

import json
import os
import resource
import sys
import time

MARKER = "BENCH-CHILD "


def _mono_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main() -> None:
    mode, spawn_ns, q = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    cli_argv = sys.argv[4:]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))

    import dirsets.cli
    from dirsets.field import make_field, prime_power_parts
    make_field(*prime_power_parts(q))
    record = {"setup_s": (_mono_ns() - spawn_ns) / 1e9}

    def run():
        t0 = time.perf_counter_ns()
        record["exit"] = dirsets.cli.main(cli_argv)
        sys.stdout.flush()
        record["run_s"] = (time.perf_counter_ns() - t0) / 1e9

    if mode == "plain":
        run()
    elif mode in ("spans", "counts"):
        sys.path.insert(0, here)
        import spans
        trace = spans.Trace()
        if mode == "spans":
            patches = spans.span_patches(trace)
        else:
            patches = spans.field_op_patches(trace.counts)
        with spans.installed(patches):
            run()
        if mode == "spans":
            record["layers"] = spans.layer_times(trace)
        record["counts"] = dict(trace.counts)
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")

    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    record["peak_rss_mb"] = kb / 1024
    sys.stderr.write(MARKER + json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
