"""Combinatorial search: set enumeration, statement sweeps, completion.

The enumeration stream is deterministic: exhaustive mode walks subsets
of the point codes (code = a*q + b) in lexicographic order per size;
random mode draws a seeded budget of samples.  With symmetry reduction
on (exhaustive mode only), only sets equal to their canonical form
survive: the least sorted code tuple over the affine collineation group.
Every least image sends some ordered pair of the set to codes 0 and 1,
so the canonical form is a scan over the set's own affine frames, and
the walk visits only code tuples that start with (0, 1).

Sweeps shard the stream by a stable hash of each set's representative
into a fixed number of shards; per-shard tallies are merged in shard
order, so reports are identical regardless of the worker count.
"""

from __future__ import annotations

import itertools
import random
import time
import zlib
from dataclasses import dataclass, replace
from fractions import Fraction

from .field import Field, make_field, prime_power_parts
from .geometry import (AffinePointSet, LineTable, direction_of, extension_points,
                       is_maximal)
from .redei import SlopeTable
from .analysis import STATEMENTS, verify_statement

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
        for s in self.statements:
            if s not in STATEMENTS:
                raise ValueError(f"unknown statement {s!r}")
        if self.workers < 1:
            raise ValueError("workers must be positive")

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
    v = det(e, x): n(n-1)(q^2-q) frames in all.  With stop_at given,
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
            for lam in range(1, q):
                for mu in range(q):
                    image = tuple(sorted(mul(lam, u) * q + add(v, mul(mu, u))
                                         for u, v in uv))
                    if image < best:
                        if stop_at is not None:
                            return image
                        best = image
    return best


def canonical_form(U: AffinePointSet) -> tuple:
    """Least sorted code tuple over the affine collineation group."""
    return _orbit_min(U.field, sorted(U.points))


def enumerate_sets(cfg: SearchConfig):
    """The deterministic stream of point sets described by the config.

    With symmetry on, only code tuples that start with (0, 1) (n = 1:
    (0,)) can be canonical; the walk visits just those, in the same
    lexicographic order.
    """
    F = cfg.field()
    q = cfg.q
    if cfg.mode == "exhaustive":
        for n in range(cfg.n_min, cfg.n_max + 1):
            head = (0, 1)[:n] if cfg.symmetry else ()
            for rest in itertools.combinations(range(len(head), q * q),
                                               n - len(head)):
                codes = head + rest
                pts = [point_from_code(q, c) for c in codes]
                if cfg.symmetry and _orbit_min(F, pts, stop_at=codes) != codes:
                    continue
                yield AffinePointSet.of(F, pts)
    else:
        rng = random.Random(cfg.seed)
        for _ in range(cfg.budget):
            n = rng.randint(cfg.n_min, cfg.n_max)
            codes = sorted(rng.sample(range(q * q), n))
            yield AffinePointSet.of(F, [point_from_code(q, c) for c in codes])


# -- sweeping ------------------------------------------------------------------

@dataclass
class SearchReport:
    """Deterministic outcome of a sweep or hunt."""

    config: SearchConfig
    sets_examined: int
    representatives: int | None   # orbit representatives, when symmetry is on
    tallies: dict                 # statement -> {"pass": n, "fail": n, "inapplicable": n}
    counterexamples: tuple        # dicts with statement, points, verdict
    extras: dict
    rows: tuple = ()
    wall_ms: float | None = None

    @property
    def failed(self) -> bool:
        return bool(self.counterexamples)

    def as_dict(self, include_timing: bool = False, include_rows: bool = False):
        out = {
            "config": self.config.as_dict(),
            "sets_examined": self.sets_examined,
            "representatives": self.representatives,
            "tallies": {k: dict(v) for k, v in sorted(self.tallies.items())},
            "counterexamples": [dict(c) for c in self.counterexamples],
            "extras": {k: v for k, v in sorted(self.extras.items())},
        }
        if include_rows:
            out["rows"] = [dict(r) for r in self.rows]
        if include_timing:
            out["wall_ms"] = self.wall_ms
        return out


_CSV_COLUMNS = ("set_id", "n", "D_size", "s", "t", "degXH", "case", "holds")


def _set_hash(q: int, codes) -> int:
    """crc32 of a set's sorted point codes: its shard and its CSV set_id."""
    return zlib.crc32((str(q) + ":" + ",".join(map(str, codes))).encode())


def _evaluate_set(U: AffinePointSet, statements, set_hash=None):
    """Verdicts of the statements on U, and its CSV row when set_hash is given."""
    table = SlopeTable(U)
    outcomes = []
    sharp = False
    for stmt in statements:
        verdict = verify_statement(stmt, table)
        outcomes.append((stmt, verdict))
        if verdict.applicable and "sharp" in verdict.notes:
            sharp = True
    row = None
    if set_hash is not None:
        row = _row_for(table, outcomes, set_hash)
    return outcomes, row, sharp, table


def _row_for(table: SlopeTable, outcomes, set_hash: int):
    q = table.field.q
    s = t = deg = ""
    if table.dirs.determined:
        s = table.geo.modulus
        if len(table.U) <= q:
            t = table.canonical.alg.modulus
            deg = table.canonical.deg_x_tail
    case = ""
    holds = ""
    applicable = [v for _, v in outcomes if v.applicable]
    for _, v in outcomes:
        if v.applicable and v.case is not None:
            case = v.case
            break
    if applicable:
        holds = int(all(v.holds for v in applicable))
    return {"set_id": format(set_hash, "08x"), "n": len(table.U),
            "D_size": len(table.dirs), "s": s, "t": t, "degXH": deg,
            "case": case, "holds": holds}


def _sweep_shards(cfg: SearchConfig, shard_ids, collect_rows: bool):
    """Partial tallies for the given shards; deterministic per shard."""
    wanted = set(shard_ids)
    tallies = {s: {"pass": 0, "fail": 0, "inapplicable": 0} for s in cfg.statements}
    per_shard = {sid: {"count": 0, "counterexamples": [], "rows": [], "sharp": []}
                 for sid in shard_ids}
    q = cfg.q
    for U in enumerate_sets(cfg):
        set_hash = _set_hash(q, sorted(point_code(q, p) for p in U.points))
        sid = set_hash % N_SHARDS
        if sid not in wanted:
            continue
        bucket = per_shard[sid]
        bucket["count"] += 1
        outcomes, row, sharp, table = _evaluate_set(
            U, cfg.statements, set_hash if collect_rows else None)
        for stmt, verdict in outcomes:
            if not verdict.applicable:
                tallies[stmt]["inapplicable"] += 1
            elif verdict.holds:
                tallies[stmt]["pass"] += 1
            else:
                tallies[stmt]["fail"] += 1
                bucket["counterexamples"].append({
                    "statement": stmt,
                    "points": [list(p) for p in sorted(U.points)],
                    "verdict": verdict.as_dict(),
                })
        if sharp:
            bucket["sharp"].append({"n": len(U), "D_size": len(table.dirs),
                                    "points": [list(p) for p in sorted(U.points)]})
        if row is not None:
            bucket["rows"].append(row)
    return tallies, per_shard


def _merge_tallies(target, part):
    for stmt, counts in part.items():
        slot = target.setdefault(stmt, {"pass": 0, "fail": 0, "inapplicable": 0})
        for k, v in counts.items():
            slot[k] += v


def sweep(cfg: SearchConfig, replay_dir=None, collect_rows: bool = False) -> SearchReport:
    """Apply the configured statements to every streamed set.

    Any failed applicable verdict is recorded as a counterexample with the
    full set data; with replay_dir set, each is also written as a replay
    file in the point-set format before the report is returned.
    """
    t0 = time.monotonic()
    all_shards = list(range(N_SHARDS))
    if cfg.workers > 1:
        # imported here so that single-worker calls skip multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        chunks = [all_shards[i::cfg.workers] for i in range(cfg.workers)]
        tallies = {}
        shard_data = {}
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            for part_tallies, part_shards in pool.map(
                    _sweep_worker, [(cfg, chunk, collect_rows) for chunk in chunks]):
                _merge_tallies(tallies, part_tallies)
                shard_data.update(part_shards)
    else:
        tallies, shard_data = _sweep_shards(cfg, all_shards, collect_rows)
    count = 0
    counterexamples = []
    rows = []
    sharp = []
    for sid in all_shards:
        bucket = shard_data.get(sid)
        if not bucket:
            continue
        count += bucket["count"]
        counterexamples.extend(bucket["counterexamples"])
        rows.extend(bucket["rows"])
        sharp.extend(bucket["sharp"])
    extras = {}
    if sharp:
        extras["sharp_sets"] = sharp
    report = SearchReport(cfg, count, count if cfg.symmetry else None,
                          tallies, tuple(counterexamples), extras,
                          tuple(rows), (time.monotonic() - t0) * 1000.0)
    if replay_dir is not None and counterexamples:
        _write_replays(cfg, counterexamples, replay_dir)
    return report


def _sweep_worker(args):
    cfg, shard_ids, collect_rows = args
    return _sweep_shards(cfg, shard_ids, collect_rows)


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
    if conjecture not in ("conj-moduli-match", "conj-maximal-linear"):
        raise ValueError(f"unknown conjecture {conjecture!r}")
    cfg = replace(cfg, statements=(conjecture,))
    report = sweep(cfg, replay_dir=replay_dir, collect_rows=False)
    return report


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


@dataclass(frozen=True)
class CompletionResult:
    extensions: tuple           # tuples of sorted points, each of size q
    hypotheses_hold: bool
    alarm: bool                 # hypotheses hold yet nothing was found

    @property
    def completable(self) -> bool:
        return bool(self.extensions)


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
        if len(found) >= query.cap:
            return
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
