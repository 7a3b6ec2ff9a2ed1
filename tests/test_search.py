import hashlib
import itertools
import json
import os
import random
from fractions import Fraction

import pytest

from dirsets.field import make_field
from dirsets.geometry import AffinePointSet, apply_collineation, directions_of
from dirsets.analysis import STATEMENTS
from dirsets.search import (CompletionQuery, SearchConfig, canonical_form,
                            complete_set, enumerate_sets, hunt, is_maximal,
                            point_code, point_from_code, sweep)
from conftest import random_point_set


def pts(field, pairs):
    return AffinePointSet.of(field, pairs)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(q=3, mode="random")            # missing seed/budget
    with pytest.raises(ValueError):
        SearchConfig(q=3, n_max=10)                 # above the plane size
    with pytest.raises(ValueError):
        SearchConfig(q=3, statements=("nope",))
    with pytest.raises(ValueError):
        SearchConfig(q=6)                           # not a prime power
    with pytest.raises(ValueError):                 # random mode has no orbit filter
        SearchConfig(q=3, mode="random", seed=1, budget=50, symmetry=True)
    with pytest.raises(ValueError):
        SearchConfig(q=3, n_min=-1)
    with pytest.raises(ValueError):
        SearchConfig(q=3, n_min=3, n_max=2)
    with pytest.raises(ValueError):
        SearchConfig(q=3, mode="random", seed=1, budget=-1)
    with pytest.raises(ValueError):                 # n_min above the resolved n_max
        SearchConfig(q=2, n_min=5)
    # field types: ints that are not bools, a bool symmetry, a str mode and
    # a tuple of str statements
    for bad, field in [({"n_max": "2"}, "n_max"), ({"q": 3.0}, "q"),
                       ({"workers": True}, "workers"), ({"seed": 1.5}, "seed"),
                       ({"symmetry": "off"}, "symmetry"), ({"mode": 1}, "mode"),
                       ({"statements": "thm-m"}, "statements"),
                       ({"statements": ["thm-m"]}, "statements"),
                       ({"statements": (1,)}, "statements")]:
        with pytest.raises(ValueError, match=field):
            SearchConfig(**{"q": 3, **bad})
    with pytest.raises(ValueError, match="random mode only"):
        SearchConfig(q=3, seed=5)                   # exhaustive mode has no seed
    with pytest.raises(ValueError, match="random mode only"):
        SearchConfig(q=3, budget=7)
    cfg = SearchConfig(q=4, n_min=1)
    assert cfg.n_max == 16 and cfg.field().q == 4


def test_enumerate_exhaustive_counts():
    cfg = SearchConfig(q=3, n_min=0, n_max=9)
    total = sum(1 for _ in enumerate_sets(cfg))
    assert total == 512
    sizes = [len(U) for U in enumerate_sets(SearchConfig(q=3, n_min=2, n_max=3))]
    assert sizes.count(2) == 36 and sizes.count(3) == 84


def test_enumerate_random_is_seeded():
    cfg = SearchConfig(q=4, n_min=1, n_max=6, mode="random", seed=5, budget=30)
    a = [tuple(sorted(U.points)) for U in enumerate_sets(cfg)]
    b = [tuple(sorted(U.points)) for U in enumerate_sets(cfg)]
    assert a == b and len(a) == 30


def test_symmetry_reduction_counts():
    # the collineation group is 2-transitive on points: one orbit of pairs
    cfg = SearchConfig(q=2, n_min=2, n_max=2, symmetry=True)
    assert sum(1 for _ in enumerate_sets(cfg)) == 1
    # orbit representatives multiply back to the full count via the orbits
    cfg3 = SearchConfig(q=3, n_min=2, n_max=2, symmetry=True)
    reps = list(enumerate_sets(cfg3))
    assert len(reps) == 1  # 2-transitive here as well


def test_canonical_form_is_orbit_invariant(gf3):
    rng = random.Random(2)
    for _ in range(20):
        U = random_point_set(gf3, rng, rng.randint(2, 5))
        while True:
            m = tuple(tuple(rng.randrange(3) for _ in range(2)) for _ in range(2))
            if gf3.sub(gf3.mul(m[0][0], m[1][1]), gf3.mul(m[0][1], m[1][0])):
                break
        v = (rng.randrange(3), rng.randrange(3))
        image, _ = apply_collineation(U, m, v)
        assert canonical_form(U) == canonical_form(image)


def _group_scan_min(U):
    """Reference canonical form: the least sorted code tuple over all
    q^2 |GL(2,q)| images, one image per matrix and translation."""
    F = U.field
    q = F.q
    add, mul = F.add, F.mul
    pts = sorted(U.points)
    best = tuple(point_code(q, p) for p in pts)
    for m00, m01, m10, m11 in itertools.product(range(q), repeat=4):
        if F.sub(mul(m00, m11), mul(m01, m10)) == 0:
            continue
        base = [(add(mul(m00, a), mul(m01, b)), add(mul(m10, a), mul(m11, b)))
                for a, b in pts]
        for v0 in range(q):
            for v1 in range(q):
                best = min(best, tuple(sorted(add(x, v0) * q + add(y, v1)
                                              for x, y in base)))
    return best


@pytest.mark.parametrize("q,params,count", [
    (2, (2, 1), None), (3, (3, 1), None),
    (4, (2, 2), 150), (5, (5, 1), 30), (7, (7, 1), 3)])
def test_canonical_form_matches_group_scan(q, params, count):
    F = make_field(*params)
    if count is None:
        sets = [AffinePointSet.of(F, [point_from_code(q, c) for c in codes])
                for n in range(q * q + 1)
                for codes in itertools.combinations(range(q * q), n)]
    else:
        rng = random.Random(q)
        sets = [random_point_set(F, rng, rng.randint(0, q + 2))
                for _ in range(count)]
    for U in sets:
        assert canonical_form(U) == _group_scan_min(U)


@pytest.mark.parametrize("q,n_max,count,digest", [
    (3, 9, 14, "ddd56a7cbf7e61ca3938f7741d306dd80162ae7aa3657dfe9f9be357a306c965"),
    (4, 8, 44, "a2d1d6d0ff5ee3328d88acb7ccec333eaa1b31f8c5a097d1cf3a3b63dda52d98"),
    (5, 5, 21, "bbf37d79be20f25bb0b705ced7c6175c37427fa50b165f8c6cf63cc4ace29114"),
])
def test_symmetry_representatives_are_pinned(q, n_max, count, digest):
    # digests of the representative stream of the full-group orbit filter
    cfg = SearchConfig(q=q, n_min=0, n_max=n_max, symmetry=True)
    reps = [tuple(sorted(point_code(q, p) for p in U.points))
            for U in enumerate_sets(cfg)]
    assert len(reps) == count
    assert hashlib.sha256(json.dumps(reps).encode()).hexdigest() == digest


def test_canonical_form_needs_no_group_table():
    # GF(64) has 16.5M invertible 2x2 matrices; the frame scan tries 6 * 4032
    U = pts(make_field(2, 6), [(0, 0), (1, 0), (0, 1)])
    assert canonical_form(U) == (0, 1, 64)


def test_is_maximal_collineation_invariant():
    for q, params in ((3, (3, 1)), (4, (2, 2)), (5, (5, 1))):
        F = make_field(*params)
        rng = random.Random(q)
        for _ in range(15):
            U = random_point_set(F, rng, rng.randint(2, q + 1))
            while True:
                m = tuple(tuple(rng.randrange(q) for _ in range(2)) for _ in range(2))
                if F.sub(F.mul(m[0][0], m[1][1]), F.mul(m[0][1], m[1][0])):
                    break
            image, _ = apply_collineation(U, m, (rng.randrange(q), rng.randrange(q)))
            assert is_maximal(U) == is_maximal(image)


def test_sweep_q3_exhaustive_clean():
    cfg = SearchConfig(q=3, n_min=0, n_max=9,
                       statements=("thm-m", "tail-degree-bound", "root-power-bound", "moduli-order"))
    report = sweep(cfg)
    assert report.sets_examined == 512
    assert not report.failed
    for counts in report.tallies.values():
        assert counts["fail"] == 0
        assert counts["pass"] + counts["inapplicable"] == 512


def test_sweep_deterministic_and_worker_independent():
    kwargs = dict(q=3, n_min=0, n_max=9, statements=("thm-m", "moduli-order"))
    one = sweep(SearchConfig(workers=1, **kwargs), collect_rows=True)
    two = sweep(SearchConfig(workers=2, **kwargs), collect_rows=True)
    da = one.as_dict(include_rows=True)
    db = two.as_dict(include_rows=True)
    da.pop("config")
    db.pop("config")
    assert da == db


def test_sweep_rows_schema():
    cfg = SearchConfig(q=3, n_min=2, n_max=3, statements=("thm-m",))
    report = sweep(cfg, collect_rows=True)
    assert len(report.rows) == 120
    for row in report.rows:
        assert set(row) == {"set_id", "n", "D_size", "s", "t", "degXH",
                            "case", "holds"}


def test_sweep_sharp_sets_recorded(gf5):
    cfg = SearchConfig(q=5, n_min=3, n_max=3, mode="random", seed=11,
                       budget=400, statements=("prime-dichotomy",))
    report = sweep(cfg)
    sharp = report.extras.get("sharp_sets", [])
    assert any(entry["n"] == 3 and entry["D_size"] == 3 for entry in sharp)


def test_replay_files_written_on_failure(tmp_path, monkeypatch):
    # force a failure by swapping in an impossible statement
    from dirsets import analysis
    from dirsets.redei import SlopeTable

    def always_fails(U):
        table = SlopeTable.of(U)
        if len(table.U) != 2:
            return analysis.Verdict("moduli-order", False, notes=("skip",))
        return analysis.Verdict("moduli-order", True, None,
                                (analysis.Check("forced", 1, "==", 0, False),))

    monkeypatch.setitem(analysis.STATEMENTS, "moduli-order", always_fails)
    cfg = SearchConfig(q=2, n_min=2, n_max=2, statements=("moduli-order",))
    report = sweep(cfg, replay_dir=str(tmp_path / "replays"))
    assert report.failed
    files = sorted(os.listdir(tmp_path / "replays"))
    assert files and all(name.endswith(".pts") for name in files)
    replayed = AffinePointSet.from_file(tmp_path / "replays" / files[0])
    assert len(replayed) == 2


def test_hunt_vacuous_q2():
    report = hunt(SearchConfig(q=2, n_min=2, n_max=3), "conj-moduli-match")
    assert not report.failed
    counts = report.tallies["conj-moduli-match"]
    assert counts["fail"] == 0


def test_hunt_rejects_non_conjecture():
    with pytest.raises(ValueError):
        hunt(SearchConfig(q=2, n_min=2, n_max=2), "thm-m")


def test_complete_square_minus_point(gf4):
    U = pts(gf4, [(0, 0), (1, 0), (0, 1)])
    res = complete_set(CompletionQuery(U, enforce=False))
    assert ((0, 0), (0, 1), (1, 0), (1, 1)) in res.extensions
    base = directions_of(U).determined
    for ext in res.extensions:
        full = pts(gf4, ext)
        assert len(full) == 4
        assert directions_of(full).determined == base


def test_complete_full_size_returns_self(unit_square):
    res = complete_set(CompletionQuery(unit_square, enforce=False))
    assert res.extensions == (tuple(sorted(unit_square.points)),)


def test_complete_collinear_unique(gf5):
    U = pts(gf5, [(0, 0), (1, 1), (2, 2), (3, 3)])
    res = complete_set(CompletionQuery(U, enforce=False))
    assert res.extensions == (((0, 0), (1, 1), (2, 2), (3, 3), (4, 4)),)


def test_complete_hypothesis_gate(gf9):
    # a full line minus a point satisfies the stability hypotheses
    line = [(x, x) for x in range(9)]
    U = pts(gf9, line[:-1])
    res = complete_set(CompletionQuery(U))
    assert res.hypotheses_hold and res.completable and not res.alarm
    # far from the hypotheses: enforcement refuses to search
    sparse = pts(gf9, [(0, 0), (1, 0), (0, 1)])
    gated = complete_set(CompletionQuery(sparse))
    assert not gated.hypotheses_hold and not gated.extensions
    attempted = complete_set(CompletionQuery(sparse, enforce=False))
    assert not attempted.hypotheses_hold and not attempted.alarm


def test_complete_alpha_validation(unit_square):
    with pytest.raises(ValueError):
        CompletionQuery(unit_square, alpha=Fraction(1, 2))
    with pytest.raises(ValueError):
        complete_set(CompletionQuery(
            pts(unit_square.field,
                [(a, b) for a in range(4) for b in range(4)][:5])))


def test_point_codes_round_trip():
    for c in range(25):
        assert point_code(5, point_from_code(5, c)) == c


def test_symmetry_representatives_cover_all_orbits(gf2):
    cfg = SearchConfig(q=2, n_min=0, n_max=4, symmetry=True)
    reps = [tuple(sorted(point_code(2, p) for p in U.points))
            for U in enumerate_sets(cfg)]
    assert len(reps) == len(set(reps))
    full = SearchConfig(q=2, n_min=0, n_max=4)
    canon = {canonical_form(U) for U in enumerate_sets(full)}
    assert set(reps) == canon


def test_theorem_sweep_never_builds_the_bivariate_system(monkeypatch):
    import sys
    from dirsets import redei

    def refuse(*args, **kwargs):
        raise AssertionError("bivariate Rédei system built during a sweep")

    for name, module in list(sys.modules.items()):
        if name == "dirsets" or name.startswith("dirsets."):
            for attr, value in list(vars(module).items()):
                if value is redei.redei_system:
                    monkeypatch.setattr(module, attr, refuse)
    theorems = tuple(s for s in STATEMENTS if not s.startswith("conj-"))
    assert len(theorems) == 9
    report = sweep(SearchConfig(q=3, n_min=0, n_max=9, statements=theorems),
                   collect_rows=True)
    assert report.sets_examined == 512 and not report.failed
