"""Combinatorial search: set enumeration, statement sweeps, completion.

The enumeration stream is deterministic: exhaustive mode walks subsets
of the point codes (code = a*q + b) in lexicographic order per size;
random mode draws a seeded budget of samples.  With symmetry reduction
on (exhaustive mode only), the stream holds one set per orbit of the
affine collineation group: its canonical form, the least sorted code
tuple in the orbit.  Every least image of two points or more sends some
ordered pair of the set to codes 0 and 1, so the canonical form is a
scan over the set's own affine frames (_orbit_min).

The representatives are grown level by level by orderly generation
(R. C. Read, "Every one a winner", Ann. Discrete Math. 2, 1978): level
n holds the children S + (x,) of the level n-1 representatives S, with
x > max S, that are their own canonical form.  None is missed, because
the prefix S of a canonical C = (c_1 < ... < c_n) is canonical: were
g(S) < S for some collineation g, first differing at index i, the
sorted g(C) would be below C at index i or before.  Parents in order
and x ascending give each level in lexicographic order.  The group is
2-transitive on points, so levels 0, 1 and 2 are (), (0,) and (0, 1).

The stream yields each set as its sorted tuple of point codes.  Sweeps
shard it by a stable hash (crc32) of those codes into N_SHARDS shards,
and each worker takes every w-th shard; a set of another shard costs
the worker one crc32.  With symmetry on, every worker builds the levels
below n_max in full, and at n_max scans the frames of its own shards'
children only.  One loop evaluates a worker's sets (a sweep with
no statement and no CSV rows only counts them) and appends
counterexamples, sharp sets and CSV rows (tuples in _CSV_COLUMNS order)
to its shard's lists in stream order; the sweep sums the tallies and
concatenates the lists in shard order, so reports are identical at
every worker count.

Every table holds its set's line counts as q + 1 profile keys
(geometry.profile_key).  In exhaustive mode every table, at any size and
with symmetry on or off, takes them, and D, from a walk (geometry.Walk),
which the worker updates point by point, from the last set it built to
the next, keeping the prefix of codes the two share, and hands to the
table as a tuple.  A table reads the slope memo by those keys and
decodes a profile from its key only when one is read, so a profile the
memo holds is never built as a tuple; each verdict carries its outcome,
which the loop tallies as it is.  Consecutive random sets share no
prefix, so random streams build each table's keys from scratch.
"""

from __future__ import annotations

import itertools
import operator
import random
import time
import zlib
from dataclasses import dataclass, replace
from fractions import Fraction

from .field import Field, make_field, prime_power_parts
from .geometry import (AffinePointSet, LineTable, Walk, direction_of,
                       extension_points, is_maximal)
from .redei import SlopeTable
from .analysis import CONJECTURES, STATEMENTS, verify_statement

__all__ = [
    "SearchConfig", "SearchReport", "CompletionQuery", "CompletionResult",
    "enumerate_sets", "canonical_form", "sweep", "hunt", "complete_set",
    "is_maximal", "point_code", "point_from_code",
]

N_SHARDS = 64


def point_code(q: int, point) -> int:
    return point[0] * q + point[1]


def point_from_code(q: int, code: int):
    return divmod(code, q)


@dataclass(frozen=True)
class SearchConfig:
    """Reproducible description of one search run."""

    q: int
    n_min: int = 0
    n_max: int | None = None
    mode: str = "exhaustive"
    seed: int | None = None
    budget: int | None = None
    symmetry: bool = False
    workers: int = 1
    statements: tuple = ()

    def __post_init__(self):
        for name in ("q", "n_min", "n_max", "seed", "budget", "workers"):
            value = getattr(self, name)
            if value is None and name in ("n_max", "seed", "budget"):
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.symmetry, bool):
            raise ValueError(f"symmetry must be true or false, got {self.symmetry!r}")
        if not (isinstance(self.statements, tuple)
                and all(isinstance(s, str) for s in self.statements)):
            raise ValueError(f"statements must be a tuple of statement ids, "
                             f"got {self.statements!r}")
        prime_power_parts(self.q)
        if not isinstance(self.mode, str) or self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "random" and (self.seed is None or self.budget is None):
            raise ValueError("random mode requires an explicit seed and budget")
        if self.mode == "exhaustive" and (self.seed is not None or self.budget is not None):
            raise ValueError("seed and budget apply to random mode only")
        if self.mode == "random" and self.symmetry:
            raise ValueError("symmetry reduction needs exhaustive mode")
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be nonnegative")
        n_max = self.q * self.q if self.n_max is None else self.n_max
        if n_max > self.q * self.q:
            raise ValueError("n_max exceeds the plane size")
        if not 0 <= self.n_min <= n_max:
            raise ValueError("need 0 <= n_min <= n_max")
        object.__setattr__(self, "n_max", n_max)
        for i, s in enumerate(self.statements):
            if s not in STATEMENTS:
                raise ValueError(f"unknown statement {s!r}")
            # a repeated id would tally each of its verdicts twice
            if s in self.statements[:i]:
                raise ValueError(f"statement {s!r} is repeated")
        if not 1 <= self.workers <= N_SHARDS:
            raise ValueError(f"workers must be between 1 and {N_SHARDS} "
                             f"(the shard count), got {self.workers}")

    def field(self) -> Field:
        p, h = prime_power_parts(self.q)
        return make_field(p, h)

    def as_dict(self):
        return {"q": self.q, "n_min": self.n_min, "n_max": self.n_max,
                "mode": self.mode, "seed": self.seed, "budget": self.budget,
                "symmetry": self.symmetry, "workers": self.workers,
                "statements": list(self.statements)}


# -- affine frames and canonical forms ----------------------------------------

def _orbit_min(F: Field, pts, stop_at=None):
    """Least sorted code tuple over the affine collineation group.

    pts is the sorted point list.  A least image of n >= 2 points holds
    codes 0 and 1, so it is the image of the set in some frame
    (P; w, Q - P): P -> (0,0), Q -> (0,1), P != Q in the set, w off the
    line PQ.  With e fixed by det(e, Q - P) = 1, these w are
    (e - mu (Q - P)) / lam for lam != 0 and any mu, and a point P + x
    has frame coordinates (lam u, v + mu u) with u = det(x, Q - P),
    v = det(e, x): n(n-1)(q^2-q) frames in all.  The low digit
    v + mu u does not depend on lam, so each (P, Q) computes it once per
    mu, and each lam its high digits lam u q once.  With stop_at given,
    returns as soon as some image beats it.
    """
    q = F.q
    if len(pts) < 2:
        return tuple(range(len(pts)))
    add, sub, mul, inv = F.add, F.sub, F.mul, F.inv
    best = tuple(point_code(q, p) for p in pts) if stop_at is None else stop_at
    for a0, b0 in pts:
        rel = [(sub(a, a0), sub(b, b0)) for a, b in pts]
        for d0, d1 in rel:
            if d0 == d1 == 0:
                continue
            e0, e1 = (inv(d1), 0) if d1 else (0, F.neg(inv(d0)))
            uv = [(sub(mul(x, d1), mul(y, d0)), sub(mul(e0, y), mul(e1, x)))
                  for x, y in rel]
            lows = [[add(v, mul(mu, u)) for u, v in uv] for mu in range(q)]
            for lam in range(1, q):
                high = [mul(lam, u) * q for u, _ in uv]
                for low in lows:
                    image = tuple(sorted(map(operator.add, high, low)))
                    if image < best:
                        if stop_at is not None:
                            return image
                        best = image
    return best


def canonical_form(U: AffinePointSet) -> tuple:
    """Least sorted code tuple over the affine collineation group."""
    return _orbit_min(U.field, sorted(U.points))


def enumerate_sets(cfg: SearchConfig, shards=range(N_SHARDS)):
    """The deterministic stream of sets described by the config, each as
    its sorted tuple of point codes.

    With symmetry on, these are the canonical tuples from orderly
    generation (module docstring), level by level.  The top level,
    n_max, holds only the sets whose shard is in shards: the children of
    other shards are dropped before their frame scan.  The lower levels
    are built in full, and come whole.
    """
    q = cfg.q
    if cfg.mode == "random":
        rng = random.Random(cfg.seed)
        for _ in range(cfg.budget):
            n = rng.randint(cfg.n_min, cfg.n_max)
            yield tuple(sorted(rng.sample(range(q * q), n)))
    elif not cfg.symmetry:
        for n in range(cfg.n_min, cfg.n_max + 1):
            yield from itertools.combinations(range(q * q), n)
    else:
        F = cfg.field()
        for n in range(cfg.n_max + 1):
            top = n == cfg.n_max
            if n <= 2:
                level = [c for c in [(0, 1)[:n]]
                         if not top or _set_hash(q, c) % N_SHARDS in shards]
            else:
                level = _canonical_children(F, level, shards if top else None)
                if not top:
                    level = list(level)
            if n >= cfg.n_min:
                yield from level


def _canonical_children(F: Field, parents, shards):
    """Each canonical S + (x,) with x > max S, for the parents S in order
    and x ascending; unless shards is None, only the children in them."""
    q = F.q
    for S in parents:
        pts = [point_from_code(q, c) for c in S]
        for x in range(S[-1] + 1, q * q):
            child = S + (x,)
            if shards is not None and _set_hash(q, child) % N_SHARDS not in shards:
                continue
            if _orbit_min(F, pts + [point_from_code(q, x)],
                          stop_at=child) == child:
                yield child


# -- sweeping ------------------------------------------------------------------

@dataclass
class SearchReport:
    """Deterministic outcome of a sweep or hunt."""

    config: SearchConfig
    sets_examined: int
    tallies: dict                 # statement -> {"pass": n, "fail": n, "inapplicable": n}
    counterexamples: tuple        # dicts with statement, points, verdict
    extras: dict
    rows: tuple = ()              # CSV rows, tuples in _CSV_COLUMNS order
    wall_ms: float | None = None

    @property
    def representatives(self) -> int | None:
        """Orbit representatives examined, when symmetry is on."""
        return self.sets_examined if self.config.symmetry else None

    @property
    def failed(self) -> bool:
        return bool(self.counterexamples)

    def as_dict(self, include_timing: bool = False):
        out = {
            "config": self.config.as_dict(),
            "sets_examined": self.sets_examined,
            "representatives": self.representatives,
            "tallies": {k: dict(v) for k, v in sorted(self.tallies.items())},
            "counterexamples": [dict(c) for c in self.counterexamples],
            "extras": {k: v for k, v in sorted(self.extras.items())},
        }
        if include_timing:
            out["wall_ms"] = self.wall_ms
        return out


_CSV_COLUMNS = ("set_id", "n", "D_size", "s", "t", "degXH", "case", "holds")


def _set_hash(q: int, codes) -> int:
    """crc32 of a set's sorted point codes: its shard and its CSV set_id."""
    return zlib.crc32((str(q) + ":" + ",".join(map(str, codes))).encode())


def _row_for(table: SlopeTable, verdicts, set_hash: int) -> tuple:
    """The set's CSV row, in _CSV_COLUMNS order."""
    s = t = deg = ""
    if table.dirs.determined:
        s = table.s
        if len(table.U) <= table.field.q:
            t = table.t
            deg = table.deg_x_tail
    applicable = [v for v in verdicts if v.applicable]
    case = next((v.case for v in applicable if v.case is not None), "")
    holds = int(all(v.holds for v in applicable)) if applicable else ""
    return (format(set_hash, "08x"), len(table.U), len(table.dirs), s, t, deg,
            case, holds)


def _sweep_shards(cfg: SearchConfig, shard_ids, collect_rows: bool):
    """(tallies, sets counted, {shard: (counterexamples, sharp sets, rows)})
    over the streamed sets that fall in the given shards.

    Each shard's lists keep stream order, so concatenating them in shard
    order gives the same report however the shards are split.  Every
    set's table reads one slope memo, which lives as long as this call:
    each worker keeps its own, and its values depend only on their keys.
    An exhaustive stream reads every table off one walk, which goes from
    set to set of this call only.
    """
    memo = {}
    tallies = {s: {"pass": 0, "fail": 0, "inapplicable": 0} for s in cfg.statements}
    buckets = {sid: ([], [], []) for sid in shard_ids}
    count = 0
    q = cfg.q
    F = cfg.field()
    walk = Walk(F) if cfg.mode == "exhaustive" else None
    for codes in enumerate_sets(cfg, shard_ids):
        set_hash = _set_hash(q, codes)
        bucket = buckets.get(set_hash % N_SHARDS)
        if bucket is None:
            continue
        counterexamples, sharp, rows = bucket
        count += 1
        if not (cfg.statements or collect_rows):
            continue  # nothing would read the set's table
        if walk is not None:
            U, lines = walk.lines(codes)
            table = SlopeTable(U, memo, lines)
        else:
            # codes drawn from range(q^2) need no range check
            table = SlopeTable(AffinePointSet(
                F, frozenset(map(divmod, codes, itertools.repeat(q)))), memo)
        U = table.U
        verdicts = [verify_statement(stmt, table) for stmt in cfg.statements]
        for stmt, verdict in zip(cfg.statements, verdicts):
            tallies[stmt][verdict.outcome] += 1
            if verdict.outcome == "fail":
                counterexamples.append({
                    "statement": stmt,
                    "points": [list(p) for p in sorted(U.points)],
                    "verdict": verdict.as_dict(),
                })
        if any(v.applicable and "sharp" in v.notes for v in verdicts):
            sharp.append({"n": len(U), "D_size": len(table.dirs),
                          "points": [list(p) for p in sorted(U.points)]})
        if collect_rows:
            rows.append(_row_for(table, verdicts, set_hash))
    return tallies, count, buckets


def sweep(cfg: SearchConfig, replay_dir=None, collect_rows: bool = False) -> SearchReport:
    """Apply the configured statements to every streamed set.

    Any failed applicable verdict is recorded as a counterexample with the
    full set data; with replay_dir set, each is also written as a replay
    file in the point-set format before the report is returned.
    """
    t0 = time.monotonic()
    w = cfg.workers
    if w > 1:
        # imported here so that single-worker calls skip multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=w) as pool:
            parts = list(pool.map(_sweep_shards, itertools.repeat(cfg, w),
                                  [range(i, N_SHARDS, w) for i in range(w)],
                                  itertools.repeat(collect_rows, w)))
    else:
        parts = [_sweep_shards(cfg, range(N_SHARDS), collect_rows)]
    part_tallies, counts, part_buckets = zip(*parts)
    tallies = {stmt: {k: sum(t[stmt][k] for t in part_tallies) for k in outcomes}
               for stmt, outcomes in part_tallies[0].items()}
    buckets = {sid: lists for b in part_buckets for sid, lists in b.items()}
    counterexamples, sharp, rows = (
        tuple(x for sid in range(N_SHARDS) for x in buckets[sid][i])
        for i in range(3))
    extras = {"sharp_sets": list(sharp)} if sharp else {}
    report = SearchReport(cfg, sum(counts), tallies, counterexamples, extras,
                          rows, (time.monotonic() - t0) * 1000.0)
    if replay_dir is not None and counterexamples:
        _write_replays(cfg, counterexamples, replay_dir)
    return report


def _write_replays(cfg: SearchConfig, counterexamples, replay_dir):
    import os
    os.makedirs(replay_dir, exist_ok=True)
    F = cfg.field()
    for i, ce in enumerate(counterexamples):
        U = AffinePointSet.of(F, [tuple(p) for p in ce["points"]])
        name = f"counterexample_{ce['statement']}_{i:04d}.pts"
        U.to_file(os.path.join(replay_dir, name))


def hunt(cfg: SearchConfig, conjecture: str, replay_dir=None) -> SearchReport:
    """Stream sets, filter to the maximal ones inside the conjecture's own
    applicability gate, and report hypothesis hits and any violations."""
    if conjecture not in CONJECTURES:
        raise ValueError(f"unknown conjecture {conjecture!r}")
    return sweep(replace(cfg, statements=(conjecture,)), replay_dir=replay_dir)


# -- completion ------------------------------------------------------------------

@dataclass(frozen=True)
class CompletionQuery:
    """Extend a set of q - eps points to q points with the same directions.

    The stability hypotheses are eps < alpha sqrt(q) and fewer than
    (q+1)(1-alpha) directions for some fixed 1/2 < alpha < 1; with
    enforce=False the search simply attempts the completion regardless.
    """

    pointset: AffinePointSet
    alpha: Fraction = Fraction(3, 4)
    cap: int = 100
    enforce: bool = True

    def __post_init__(self):
        if not Fraction(1, 2) < self.alpha < 1:
            raise ValueError("alpha must lie strictly between 1/2 and 1")
        # below 1 the search stops before its first completion, which would
        # read as "no completion exists"
        if self.cap < 1:
            raise ValueError(f"cap must be at least 1, got {self.cap}")


@dataclass(frozen=True)
class CompletionResult:
    extensions: tuple           # tuples of sorted points, each of size q
    hypotheses_hold: bool
    alarm: bool                 # hypotheses hold yet nothing was found


def complete_set(query: CompletionQuery) -> CompletionResult:
    U = query.pointset
    F = U.field
    q = F.q
    n = len(U)
    if n > q:
        raise ValueError("set already has more than q points")
    eps = q - n
    lines = LineTable(U)
    det = lines.dirs.determined
    # eps < alpha sqrt(q)  <=>  eps^2 < alpha^2 q  (both sides nonnegative)
    hyp = (Fraction(eps) ** 2 < query.alpha ** 2 * q
           and Fraction(len(det)) < (q + 1) * (1 - query.alpha))
    if query.enforce and not hyp:
        return CompletionResult((), False, False)
    if eps == 0:
        return CompletionResult((tuple(sorted(U.points)),), hyp, False)
    pts = sorted(U.points)
    candidates = list(extension_points(lines))
    found = []

    def extend(chosen, start):
        # entered only below the cap: the loop below stops once it is reached
        if len(chosen) == eps:
            found.append(tuple(sorted(pts + chosen)))
            return
        for i in range(start, len(candidates)):
            P = candidates[i]
            if all(direction_of(F, P, c) in det for c in chosen):
                extend(chosen + [P], i + 1)
                if len(found) >= query.cap:
                    return

    extend([], 0)
    alarm = hyp and not found
    return CompletionResult(tuple(found), hyp, alarm)
