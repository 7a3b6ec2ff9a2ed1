"""In-memory spans and call counters wrapped around the engine's layers.

The wrappers live here, not in the program: a traced run installs them
over every module binding of a wrapped function (a function imported
into several modules is patched in each), and removes them again on
exit from the `installed` context.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

# span name (module.function) -> the fields a traced run reports for it
SPANNED = {
    "cli.main": ("self_s",),
    "search.sweep": ("self_s",),
    "search.enumerate_sets": ("self_s",),
    "analysis.verify_statement": ("calls", "self_s"),
    "geometry.directions_of": ("calls", "self_s"),
    "geometry.geometric_invariants": ("calls", "self_s"),
    "geometry.check_line_congruence": ("calls", "self_s"),
    "geometry.is_maximal": ("calls", "self_s"),
    "redei.specialized_tail": ("calls", "self_s", "total_s"),
    "redei.tail_power": ("calls", "self_s", "total_s"),
    "redei.redei_system": ("calls", "self_s"),
    "redei.algebraic_invariants": ("calls", "self_s"),
    "polys.p_mul": ("calls", "self_s"),
    "polys.p_divmod": ("calls", "self_s"),
    "linsets.is_subfield_linear": ("calls", "self_s"),
}
# hot helpers too cheap for a span: only their calls are counted
COUNTED = ("geometry.line_profile",)
FIELD_OPS = ("mul", "add", "sub", "div")

_now = time.perf_counter_ns


class Trace:
    """Spans kept as parallel arrays: name id, parent index, start, end (ns).

    A span's parent is the innermost span open when it began, so spans are
    stored in start order and every child follows its parent.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts = Counter()
        self._open = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int, t: int | None = None) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.start.append(_now() if t is None else t)
        self.end.append(-1)
        self._open.append(idx)
        return idx

    def finish(self, idx: int, t: int | None = None) -> None:
        self.end[idx] = _now() if t is None else t
        self._open.pop()

    def __len__(self):
        return len(self.name)


def layer_times(trace: Trace) -> dict:
    """name -> {"calls", "total_s", "self_s"} over all closed spans.

    Self time is a span's duration minus the union of the intervals its
    child spans cover inside it.  Children arrive in start order, so one
    sweep per parent (how far its cover reaches so far) yields the union.
    """
    n = len(trace)
    start, end, parent = trace.start, trace.end, trace.parent
    covered = array("q", bytes(8 * n))
    reach = array("q", start)
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    out = {}
    for i in range(n):
        name = trace.names[trace.name[i]]
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        dur = end[i] - start[i]
        row["calls"] += 1
        row["total_s"] += dur / 1e9
        row["self_s"] += (dur - covered[i]) / 1e9
    return out


# -- wrappers ----------------------------------------------------------------

def span_wrapper(trace: Trace, name: str, fn, on_result=None):
    """fn with a span per call; on_result(args, result) sees each result.

    A generator function gets a span per resumption instead, and counts its
    yields under `<name>.yields`.
    """
    nid = trace.name_id(name)
    begin, finish = trace.begin, trace.finish

    if inspect.isgeneratorfunction(fn):
        yields = name + ".yields"

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = begin(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    finish(idx)
                trace.counts[yields] += 1
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            finish(idx)
        if on_result is not None:
            on_result(args, result)
        return result
    return wrapper


def count_wrapper(counts: Counter, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _statement_outcome(trace: Trace):
    def record(args, verdict):
        stmt = args[0]
        trace.counts[f"analysis.{stmt}.calls"] += 1
        if verdict.applicable:
            trace.counts[f"analysis.{stmt}.applicable"] += 1
    return record


def _maximal_outcome(trace: Trace):
    def record(args, result):
        if result:
            trace.counts["geometry.is_maximal.true"] += 1
    return record


# -- installing ---------------------------------------------------------------

def _program_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dirsets" or name.startswith("dirsets."))]


def bindings(fn):
    """(module, attribute) pairs of the program that name fn."""
    return [(m, attr) for m in _program_modules()
            for attr, val in vars(m).items() if val is fn]


class installed:
    """Context manager: set each (owner, attribute) to its replacement and
    put every original back on exit, whatever happens in between."""

    def __init__(self, replacements):
        self._replacements = list(replacements)
        self._saved = []

    def __enter__(self):
        for owner, attr, new in self._replacements:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)
        return False


def _function(name: str):
    module, fn = name.split(".")
    return getattr(sys.modules["dirsets." + module], fn)


def span_patches(trace: Trace):
    """Replacements that put spans (and COUNTED counters) on every binding."""
    hooks = {"analysis.verify_statement": _statement_outcome(trace),
             "geometry.is_maximal": _maximal_outcome(trace)}
    out = []
    for name in SPANNED:
        fn = _function(name)
        new = span_wrapper(trace, name, fn, hooks.get(name))
        out += [(m, attr, new) for m, attr in bindings(fn)]
    for name in COUNTED:
        fn = _function(name)
        new = count_wrapper(trace.counts, name + ".calls", fn)
        out += [(m, attr, new) for m, attr in bindings(fn)]
    return out


def field_op_patches(counts: Counter):
    """Replacements that count Field.mul/add/sub/div calls on the class."""
    Field = sys.modules["dirsets.field"].Field
    return [(Field, op, count_wrapper(counts, f"field.{op}.calls", getattr(Field, op)))
            for op in FIELD_OPS]
