import hashlib
import itertools
import json
import math
import os
import random
from collections import Counter
from fractions import Fraction

import pytest

from dirsets.field import make_field
from dirsets.geometry import (AffinePointSet, apply_collineation, directions_of,
                              line_profile, profile_key, profile_of_key)
from dirsets.analysis import STATEMENTS, verify_statement
from dirsets.redei import SlopeTable
from dirsets.search import (N_SHARDS, CompletionQuery, SearchConfig,
                            canonical_form, complete_set, enumerate_sets, hunt,
                            is_maximal, point_code, point_from_code, sweep,
                            _CSV_COLUMNS, _orbit_min, _set_hash)
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
    with pytest.raises(ValueError, match="workers"):  # more workers than shards
        SearchConfig(q=3, workers=65)
    with pytest.raises(ValueError, match="'thm-m' is repeated"):
        SearchConfig(q=3, statements=("thm-m", "moduli-order", "thm-m"))
    assert SearchConfig(q=3, workers=64).workers == 64
    cfg = SearchConfig(q=4, n_min=1)
    assert cfg.n_max == 16 and cfg.field().q == 4


def test_enumerate_exhaustive_counts():
    cfg = SearchConfig(q=3, n_min=0, n_max=9)
    total = sum(1 for _ in enumerate_sets(cfg))
    assert total == 512
    sizes = [len(codes)
             for codes in enumerate_sets(SearchConfig(q=3, n_min=2, n_max=3))]
    assert sizes.count(2) == 36 and sizes.count(3) == 84


def test_enumerate_random_is_seeded():
    cfg = SearchConfig(q=4, n_min=1, n_max=6, mode="random", seed=5, budget=30)
    a = list(enumerate_sets(cfg))
    b = list(enumerate_sets(cfg))
    assert a == b and len(a) == 30
    assert all(codes == tuple(sorted(set(codes))) for codes in a)


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
    (7, 6, 225, "62e78e9fc57d5f95a6b2abae51630f3a884e49ccdc51ddf5c6f6be853a79cd9e"),
    (8, 5, 58, "51ee07ed62c86763475a6083aed5923ca8b511f4fc7e13e10309f806246ae0ac"),
])
def test_symmetry_representatives_are_pinned(q, n_max, count, digest):
    # digests of the representative stream of the full-group orbit filter
    cfg = SearchConfig(q=q, n_min=0, n_max=n_max, symmetry=True)
    reps = list(enumerate_sets(cfg))
    assert len(reps) == count
    assert hashlib.sha256(json.dumps(reps).encode()).hexdigest() == digest


def _prefix_filter_stream(cfg):
    """Reference representative stream: every code tuple that starts with
    (0, 1), in lexicographic order per size, kept when it is its own
    orbit minimum."""
    F, q = cfg.field(), cfg.q
    for n in range(cfg.n_min, cfg.n_max + 1):
        head = (0, 1)[:n]
        for rest in itertools.combinations(range(len(head), q * q),
                                           n - len(head)):
            codes = head + rest
            if _orbit_min(F, [point_from_code(q, c) for c in codes],
                          stop_at=codes) == codes:
                yield codes


@pytest.mark.parametrize("n_min", [0, 3, 5])
def test_orderly_generation_matches_the_prefix_filter(n_min):
    # levels below n_min are built but not yielded
    cfg = SearchConfig(q=4, n_min=n_min, n_max=8, symmetry=True)
    assert list(enumerate_sets(cfg)) == list(_prefix_filter_stream(cfg))


def _stabiliser_order(F, codes):
    """Frames (P; w, Q - P) of the set, P != Q in it and w off the line
    PQ, in which its image is itself: the affine maps that fix the set."""
    q = F.q
    pts = [point_from_code(q, c) for c in codes]
    order = 0
    for (a0, b0), (a1, b1) in itertools.permutations(pts, 2):
        d = (F.sub(a1, a0), F.sub(b1, b0))
        for w in itertools.product(range(q), repeat=2):
            det = F.sub(F.mul(w[0], d[1]), F.mul(w[1], d[0]))
            if det == 0:
                continue
            image = []
            for a, b in pts:
                x = (F.sub(a, a0), F.sub(b, b0))
                alpha = F.div(F.sub(F.mul(x[0], d[1]), F.mul(x[1], d[0])), det)
                beta = F.div(F.sub(F.mul(w[0], x[1]), F.mul(w[1], x[0])), det)
                image.append(alpha * q + beta)
            order += tuple(sorted(image)) == codes
    return order


@pytest.mark.parametrize("q,n_max", [(4, 16), (5, 6), (7, 4)])
def test_representative_orbits_cover_every_set_once(q, n_max):
    # orbit-stabiliser: a missing orbit leaves a level short, a repeated
    # one (or a representative that is not canonical) overshoots it
    cfg = SearchConfig(q=q, n_max=n_max, symmetry=True)
    F = cfg.field()
    group = q * q * (q * q - 1) * (q * q - q)
    covered = Counter()
    for codes in enumerate_sets(cfg):
        n = len(codes)
        covered[n] += (1 if n == 0 else q * q if n == 1
                       else Fraction(group, _stabiliser_order(F, codes)))
    assert covered == {n: math.comb(q * q, n) for n in range(n_max + 1)}


@pytest.mark.parametrize("w", [2, 3])
def test_workers_check_only_their_own_top_level(monkeypatch, w):
    from dirsets import search

    cfg = SearchConfig(q=5, n_max=5, symmetry=True)
    checked = []
    real = search._orbit_min

    def counted(F, pts, stop_at=None):
        checked.append(stop_at)
        return real(F, pts, stop_at)

    monkeypatch.setattr(search, "_orbit_min", counted)
    full = list(enumerate_sets(cfg))
    full_top = [c for c in checked if len(c) == 5]
    kept, tops = set(), []
    for i in range(w):
        shards = range(i, N_SHARDS, w)
        checked.clear()
        stream = list(enumerate_sets(cfg, shards))
        # the lower levels come whole, the top level only from these shards
        assert [c for c in stream if len(c) < 5] == [c for c in full if len(c) < 5]
        kept |= {c for c in stream if _set_hash(5, c) % N_SHARDS in shards}
        top = [c for c in checked if len(c) == 5]
        assert all(_set_hash(5, c) % N_SHARDS in shards for c in top)
        tops += top
    assert kept == set(full)
    assert sorted(tops) == sorted(full_top)


def test_canonical_form_needs_no_group_table():
    # GF(64) has 16.5M invertible 2x2 matrices; the frame scan tries 6 * 4032
    U = pts(make_field(2, 6), [(0, 0), (1, 0), (0, 1)])
    assert canonical_form(U) == (0, 1, 64)


def test_canonical_form_at_q11_is_pinned():
    # X = 0 holds 4 points, but {0, 1, 3, 4} has no three-term progression:
    # the least form starts on the 3-point line Y = 0, not on a richest line
    U = pts(make_field(11, 1), [(0, 0), (0, 1), (0, 3), (0, 4), (1, 0), (2, 0)])
    assert canonical_form(U) == (0, 1, 2, 11, 33, 44)


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
    da = one.as_dict()
    db = two.as_dict()
    da.pop("config")
    db.pop("config")
    assert da == db
    assert one.rows == two.rows


def test_sweep_rows_schema():
    cfg = SearchConfig(q=3, n_min=2, n_max=3, statements=("thm-m",))
    report = sweep(cfg, collect_rows=True)
    assert len(report.rows) == 120
    for row in report.rows:
        assert isinstance(row, tuple) and len(row) == len(_CSV_COLUMNS)


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


def test_complete_stops_at_the_cap(gf8):
    U = pts(gf8, [(1, 4), (3, 2), (6, 0), (7, 1), (7, 4)])
    every = complete_set(CompletionQuery(U, enforce=False)).extensions
    assert len(every) == 6
    capped = complete_set(CompletionQuery(U, enforce=False, cap=1)).extensions
    assert capped == every[:1]


def test_complete_collinear_unique(gf5):
    U = pts(gf5, [(0, 0), (1, 1), (2, 2), (3, 3)])
    res = complete_set(CompletionQuery(U, enforce=False))
    assert res.extensions == (((0, 0), (1, 1), (2, 2), (3, 3), (4, 4)),)


def test_complete_hypothesis_gate(gf9):
    # a full line minus a point satisfies the stability hypotheses
    line = [(x, x) for x in range(9)]
    U = pts(gf9, line[:-1])
    res = complete_set(CompletionQuery(U))
    assert res.hypotheses_hold and res.extensions and not res.alarm
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
    reps = list(enumerate_sets(cfg))
    assert len(reps) == len(set(reps))
    full = SearchConfig(q=2, n_min=0, n_max=4)
    canon = {canonical_form(pts(gf2, [point_from_code(2, c) for c in codes]))
             for codes in enumerate_sets(full)}
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


def test_successive_sweeps_do_not_share_the_slope_memo(monkeypatch):
    # every table of one sweep reads the same memo, so each profile's tail
    # is divided out once; the next sweep starts from an empty memo
    from dirsets import redei, search

    memos = []
    profiles = []

    class Recording(redei.SlopeTable):
        def __init__(self, U, memo=None, lines=None):
            super().__init__(U, memo, lines)
            memos.append(memo)

    real_tail = redei.specialized_tail

    def counted_tail(U, y):
        profiles.append(tuple(U.profile(y)))
        return real_tail(U, y)

    monkeypatch.setattr(search, "SlopeTable", Recording)
    monkeypatch.setattr(redei, "specialized_tail", counted_tail)
    cfg = SearchConfig(q=3, n_min=0, n_max=4,
                       statements=("moduli-order", "root-power-bound"))
    first = sweep(cfg)
    split = len(memos)
    assert split == first.sets_examined == 1 + 9 + 36 + 84 + 126
    first_calls = profiles[:]
    second = sweep(cfg)
    assert second.as_dict() == first.as_dict()
    assert all(m is memos[0] for m in memos[:split])
    assert all(m is memos[split] for m in memos[split:])
    assert memos[0] is not memos[split]
    # one division per profile within a sweep, all of them again in the next
    assert len(set(first_calls)) == len(first_calls) == len(memos[0])
    assert profiles[len(first_calls):] == first_calls


@pytest.mark.parametrize("q,n_max,symmetry,step", [
    (2, 4, False, 1), (2, 4, True, 1), (3, 9, False, 1), (3, 9, True, 1),
    (4, 6, False, 1), (4, 6, True, 1), (4, 6, False, 2),
    (5, 4, False, 1), (7, 3, False, 1), (8, 3, False, 1), (9, 3, False, 1),
    (16, 4, True, 1), (27, 3, True, 1)])
def test_walk_tables_match_profiles_from_scratch(monkeypatch, q, n_max,
                                                 symmetry, step):
    # the exhaustive sweep reads each table of three points or more off
    # line counts it updates point by point; as each is built, every
    # profile and D must equal what the set's own points give.  step 2
    # runs the first of two workers, whose walk skips the other's sets
    from dirsets import search

    built, walked = Counter(), Counter()

    class Checked(search.SlopeTable):
        def __init__(self, U, memo=None, lines=None):
            super().__init__(U, memo, lines)
            built[len(U)] += 1
            if lines is not None:
                for y in range(q + 1):
                    assert self.profile(y) == line_profile(U, y), (sorted(U), y)
                assert self.dirs == directions_of(U), sorted(U)
                walked[len(U)] += 1

    monkeypatch.setattr(search, "SlopeTable", Checked)
    # a sweep builds tables only when something reads them; this statement
    # is inapplicable, and cheap, off |U| = q
    cfg = SearchConfig(q=q, n_max=n_max, symmetry=symmetry,
                       statements=("size-q-trichotomy",))
    _, count, _ = search._sweep_shards(cfg, range(0, N_SHARDS, step), False)
    assert sum(built.values()) == count
    assert built - walked == Counter({n: built[n] for n in (0, 1, 2) if built[n]})
    if step == 1:
        streamed = Counter(len(codes) for codes in enumerate_sets(cfg))
        assert built == streamed
    if not symmetry:
        assert count == sum(1 for codes in enumerate_sets(cfg)
                            if _set_hash(q, codes) % N_SHARDS % step == 0)


@pytest.mark.parametrize("q,n_max,symmetry,step", [
    (2, 4, False, 1), (2, 4, True, 1), (3, 9, False, 1), (3, 9, True, 1),
    (4, 6, False, 1), (4, 6, True, 1), (4, 6, False, 2),
    (5, 4, False, 1), (7, 3, False, 1), (8, 3, False, 1), (9, 3, False, 1),
    (16, 4, True, 1), (27, 3, True, 1)])
def test_walk_keys_match_profile_keys_from_scratch(monkeypatch, q, n_max,
                                                   symmetry, step):
    # the walk adds (q+1)^i to a direction's key as a point joins its line
    # of intercept i, and takes it off as the point leaves; as each table
    # is built, each of its q + 1 keys must be the key of the profile that
    # the set's own points give
    from dirsets import search

    walked = Counter()

    class Checked(search.SlopeTable):
        def __init__(self, U, memo=None, lines=None):
            super().__init__(U, memo, lines)
            if lines is not None:
                for y in range(q + 1):
                    assert self.key(y) == profile_key(line_profile(U, y)), \
                        (sorted(U), y)
                walked[len(U)] += 1

    monkeypatch.setattr(search, "SlopeTable", Checked)
    cfg = SearchConfig(q=q, n_max=n_max, symmetry=symmetry,
                       statements=("size-q-trichotomy",))
    search._sweep_shards(cfg, range(0, N_SHARDS, step), False)
    assert walked and min(walked) == 3


@pytest.mark.parametrize("q", [2, 3, 4])
def test_profile_keys_are_injective(q):
    # a line holds at most q points, so a profile is a vector of q counts
    # in [0, q]: its key is that vector read as base-(q+1) digits, and the
    # (q+1)^q vectors take the keys 0, ..., (q+1)^q - 1 once each
    vectors = list(itertools.product(range(q + 1), repeat=q))
    keys = sorted(profile_key(v) for v in vectors)
    assert keys == list(range((q + 1) ** q))
    assert all(profile_of_key(profile_key(v), q) == v for v in vectors)


@pytest.mark.parametrize("q", [27, 32])
def test_profile_of_key_inverts_large_keys(q):
    # past q = 16 a key exceeds 2^64; decoding must still give back the
    # counts digit by digit
    rng = random.Random(q)
    vectors = [(q,) * q] + [tuple(rng.randint(0, q) for _ in range(q))
                            for _ in range(200)]
    assert profile_key(vectors[0]) == (q + 1) ** q - 1 > 2 ** 64
    assert all(profile_of_key(profile_key(v), q) == v for v in vectors)


def test_exhaustive_sweep_counts_no_profile_from_scratch(monkeypatch):
    # past two points, every statement and every CSV row of an exhaustive
    # sweep reads D and the profiles off the walk
    from dirsets import geometry

    sizes = []
    for name in ("line_profile", "directions_of"):
        real = getattr(geometry, name)

        def counted(U, *args, real=real):
            sizes.append(len(U))
            return real(U, *args)
        monkeypatch.setattr(geometry, name, counted)
    theorems = tuple(s for s in STATEMENTS if not s.startswith("conj-"))
    report = sweep(SearchConfig(q=4, n_max=6, statements=theorems),
                   collect_rows=True)
    assert report.sets_examined == 14893 and not report.failed
    assert sizes and max(sizes) <= 2


def test_one_point_stream_takes_no_walk(monkeypatch):
    # sets of at most two points take the from-scratch path, so a stream
    # that stops at n = 1 never starts the walk; its
    # tallies are those of tables built from scratch.  power-membership,
    # which divides 64 slopes per set here, is left out for time
    from dirsets import search

    def refuse(self, codes):
        raise AssertionError(f"walk started on {codes}")

    monkeypatch.setattr(search._Walk, "lines", refuse)
    statements = tuple(s for s in STATEMENTS if s != "power-membership")
    cfg = SearchConfig(q=64, n_max=1, statements=statements)
    report = sweep(cfg)
    assert report.sets_examined == 1 + 64 * 64
    F = cfg.field()
    tallies = {s: {"pass": 0, "fail": 0, "inapplicable": 0} for s in statements}
    for codes in [()] + [(c,) for c in range(64 * 64)]:
        table = SlopeTable(pts(F, [point_from_code(64, c) for c in codes]))
        for stmt in statements:
            verdict = verify_statement(stmt, table)
            key = ("inapplicable" if not verdict.applicable
                   else "pass" if verdict.holds else "fail")
            tallies[stmt][key] += 1
    assert report.tallies == tallies


@pytest.mark.parametrize("q,n_max,sets", [(256, 2, 3), (32, 3, 9)])
def test_symmetry_walk_counts_only_the_codes_it_visits(monkeypatch, q, n_max,
                                                       sets):
    # a symmetry stream at large q holds a handful of representatives;
    # the walk computes the intercepts of their points once each, never
    # of all q^2 points
    from dirsets import search

    computed = []
    real = search._Rows.__missing__

    def counted(self, c):
        computed.append(c)
        return real(self, c)

    monkeypatch.setattr(search._Rows, "__missing__", counted)
    cfg = SearchConfig(q=q, n_max=n_max, symmetry=True,
                       statements=("thm-m", "moduli-order", "line-congruence"))
    report = sweep(cfg)
    assert report.sets_examined == sets and not report.failed
    visited = {c for codes in enumerate_sets(cfg) if len(codes) >= 3
               for c in codes}
    assert sorted(computed) == sorted(visited)


def test_statement_free_sweep_builds_no_table(monkeypatch):
    # with no statement and no CSV rows nothing reads a set's table, so
    # the sweep only counts the sets of its shards
    from dirsets import search

    def refuse(*args):
        raise AssertionError("table built for a statement-free sweep")

    monkeypatch.setattr(search, "SlopeTable", refuse)
    assert sweep(SearchConfig(q=4, n_max=3, workers=1)).sets_examined == 697


def test_walk_table_keeps_its_set_after_the_walk_moves():
    # a walk table holds a snapshot of its set's keys, so it reads the
    # same profiles, keys and D however far the walk has moved on
    from dirsets import search

    F = make_field(5, 1)
    walk = search._Walk(F)
    U, dirs, keys = walk.lines((0, 1, 7))
    table = SlopeTable(U, None, (dirs, keys))
    walk.lines((0, 1, 8))
    walk.lines((2, 3, 4, 9))
    assert table.dirs == dirs == directions_of(U)
    for y in range(F.q + 1):
        assert table.profile(y) == line_profile(U, y)
        assert table.key(y) == keys[y] == profile_key(line_profile(U, y))
