import itertools
import random

import pytest
from hypothesis import given, strategies as st

from dirsets.field import make_field
from dirsets.geometry import (AffinePointSet, LineTable, apply_collineation,
                              check_line_congruence, direction_modulus,
                              direction_of, directions_of, extension_points,
                              format_direction, geometric_invariants,
                              incidence, is_maximal, line_profile)
from conftest import random_point_set


def pts(field, pairs):
    return AffinePointSet.of(field, pairs)


def test_direction_of_examples(gf4, gf5):
    assert direction_of(gf5, (0, 0), (1, 1)) == 1
    assert direction_of(gf5, (2, 3), (2, 4)) == gf5.q       # vertical
    assert direction_of(gf4, (1, 0), (0, 1)) == 1           # (0-1)/(1-0) in char 2
    with pytest.raises(ValueError):
        direction_of(gf5, (1, 1), (1, 1))


def test_directions_of_examples(gf4, gf5, unit_square):
    assert directions_of(pts(gf5, [(0, 0)])).determined == frozenset()
    tri = pts(gf5, [(0, 0), (1, 1), (2, 2)])
    assert directions_of(tri).determined == frozenset({1})
    assert directions_of(unit_square).determined == frozenset({0, 1, 4})
    assert directions_of(unit_square).tokens() == ("0", "1", "inf")


def test_direction_set_helpers(gf4, unit_square):
    d = directions_of(unit_square)
    assert d.has_infinity and not d.is_all
    assert d.affine() == (0, 1)
    assert format_direction(gf4, 4) == "inf"


def test_line_profile_examples(gf4, gf5, unit_square):
    assert sorted(line_profile(unit_square, 0)) == [0, 0, 2, 2]
    tri = pts(gf5, [(0, 0), (1, 1), (2, 2)])
    assert sorted(line_profile(tri, 1)) == [0, 0, 0, 0, 3]
    empty = pts(gf5, [])
    assert line_profile(empty, 2) == (0,) * 5


@given(st.frozensets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12),
       st.integers(0, 5))
def test_line_profile_sums_to_set_size(points, y):
    F = make_field(5, 1)
    U = pts(F, points)
    profile = line_profile(U, y)
    assert len(profile) == 5
    assert sum(profile) == len(U)


def test_direction_modulus_examples(gf4, gf5, unit_square):
    assert direction_modulus(unit_square, 0) == 2
    tri = pts(gf5, [(0, 0), (1, 1), (2, 2)])
    assert direction_modulus(tri, 1) == 1     # gcd(3, 5) has trivial 5-part
    assert direction_modulus(tri, 0) == 1     # not determined
    with pytest.raises(ValueError):
        direction_modulus(pts(gf5, []), 0)


def test_direction_modulus_is_char_power_dividing_counts(gf8):
    rng = random.Random(3)
    for _ in range(60):
        U = random_point_set(gf8, rng, rng.randint(1, 10))
        for y in sorted(directions_of(U).determined):
            m = direction_modulus(U, y)
            assert gf8.q % m == 0           # a power of p
            for c in line_profile(U, y):
                assert c % m == 0


def test_geometric_invariants(gf5, unit_square, collinear3_gf5):
    geo = geometric_invariants(unit_square)
    assert geo.modulus == 2 and set(geo.per_direction) == {0, 1, 4}
    assert geometric_invariants(collinear3_gf5).modulus == 1
    with pytest.raises(ValueError):
        geometric_invariants(pts(gf5, [(1, 1)]))


def test_undetermined_directions_have_trivial_modulus(gf4, unit_square):
    det = directions_of(unit_square).determined
    free = [y for y in range(gf4.q + 1) if y not in det]
    assert free == [2, 3]
    for y in free:
        assert direction_modulus(unit_square, y) == 1


def test_line_congruence_unit_square(unit_square):
    rep = check_line_congruence(unit_square)
    assert rep.applicable and rep.modulus == 2
    assert rep.lines_checked == 21
    assert rep.passed


def test_line_congruence_subfield_plane(gf9):
    U = pts(gf9, [(a, b) for a in (0, 1, 2) for b in (0, 1, 2)])
    rep = check_line_congruence(U)
    assert rep.applicable and rep.modulus == 3
    assert rep.lines_checked == 91
    assert rep.passed


def test_line_congruence_failure_entries(gf3, gf4):
    # entries are (slope, intercept, total), the ideal line as (q + 1, None, |D|)
    rep = check_line_congruence(pts(gf3, [(0, 0), (0, 1), (1, 0)]), modulus=3)
    assert rep.failures == ((0, 1, 2), (2, 0, 2), (3, 1, 2))
    assert rep.passed is False
    rep = check_line_congruence(pts(gf4, [(0, 0), (0, 1), (1, 0)]), modulus=4)
    assert len(rep.failures) == 7 and rep.failures[-1] == (5, None, 3)
    assert rep.lines_checked == 21 and rep.passed is False


def test_line_congruence_not_applicable(gf5, collinear3_gf5):
    rep = check_line_congruence(collinear3_gf5)
    assert not rep.applicable and rep.modulus == 1
    assert check_line_congruence(pts(gf5, [(0, 0)])).applicable is False


def test_apply_collineation_identity_and_swap(gf5, unit_square):
    ident = ((1, 0), (0, 1))
    image, dmap = apply_collineation(unit_square, ident)
    assert image.points == unit_square.points
    assert all(dmap[d] == d for d in dmap)
    swap = ((0, 1), (1, 0))
    _, dmap = apply_collineation(unit_square, swap)
    assert dmap[0] == unit_square.field.q and dmap[unit_square.field.q] == 0
    with pytest.raises(ValueError):
        apply_collineation(unit_square, ((1, 1), (1, 1)))


def test_collineation_preserves_direction_count(gf5):
    rng = random.Random(11)
    for _ in range(40):
        U = random_point_set(gf5, rng, rng.randint(2, 8))
        while True:
            m = tuple(tuple(rng.randrange(5) for _ in range(2)) for _ in range(2))
            if gf5.sub(gf5.mul(m[0][0], m[1][1]), gf5.mul(m[0][1], m[1][0])):
                break
        v = (rng.randrange(5), rng.randrange(5))
        image, dmap = apply_collineation(U, m, v)
        assert len(image) == len(U)
        dirs = directions_of(U).determined
        assert directions_of(image).determined == frozenset(dmap[d] for d in dirs)


def test_adding_points_never_shrinks_directions(gf4):
    rng = random.Random(5)
    for _ in range(50):
        U = random_point_set(gf4, rng, rng.randint(2, 6))
        D = directions_of(U).determined
        P = (rng.randrange(4), rng.randrange(4))
        if P in U.points:
            continue
        assert directions_of(AffinePointSet.of(gf4, U.points | {P})).determined >= D


@pytest.mark.parametrize("q", [2, 3, 4])
def test_pigeonhole_more_than_q_points(q):
    # size q+1 suffices: direction sets grow under supersets
    F = make_field(*{2: (2, 1), 3: (3, 1), 4: (2, 2)}[q])
    for codes in itertools.combinations(range(q * q), q + 1):
        U = pts(F, [divmod(c, q) for c in codes])
        assert directions_of(U).is_all


def test_is_maximal_examples(gf4, gf5, unit_square):
    # q points that miss a direction: automatically maximal
    assert is_maximal(unit_square)
    # a three-point subset determines the same directions: not maximal
    assert not is_maximal(pts(gf4, [(0, 0), (1, 0), (0, 1)]))
    full_line = pts(gf5, [(x, gf5.mul(2, x)) for x in range(5)])
    assert is_maximal(full_line)
    with pytest.raises(ValueError):
        is_maximal(pts(gf5, [(0, 0)]))


def test_is_maximal_matches_definition_exhaustively(gf3):
    # oracle: recompute the directions of every superset from scratch
    for n in (2, 3, 4):
        for codes in itertools.combinations(range(9), n):
            U = pts(gf3, [divmod(c, 3) for c in codes])
            dirs = directions_of(U)
            free = [divmod(c, 3) for c in range(9) if divmod(c, 3) not in U.points]
            assert list(extension_points(U)) == [
                P for P in free
                if directions_of(AffinePointSet.of(gf3, U.points | {P})) == dirs]
            if dirs.is_all:
                continue
            naive = all(len(directions_of(AffinePointSet.of(gf3, U.points | {P})))
                        > len(dirs) for P in free)
            assert is_maximal(U) == naive


def test_point_set_file_round_trip(tmp_path, unit_square):
    path = tmp_path / "square.pts"
    unit_square.to_file(path)
    again = AffinePointSet.from_file(path)
    assert again == unit_square
    text = "# comment\n5 1\n0 0   # origin\n\n1 2\n"
    U = AffinePointSet.from_text(text)
    assert U.points == frozenset({(0, 0), (1, 2)})
    with pytest.raises(ValueError):
        AffinePointSet.from_text("")
    with pytest.raises(ValueError):
        AffinePointSet.from_text("5 1\n0\n")
    with pytest.raises(ValueError):
        AffinePointSet.from_text("5 1\n9 0\n")
    # a repeated point line would load a smaller set than the one written
    with pytest.raises(ValueError, match="repeated point line '0  0'"):
        AffinePointSet.from_text("3 1\n0 0\n1 2\n0  0   # again\n")
    # internal callers may still pass a point twice
    assert len(AffinePointSet.of(make_field(3, 1), [(0, 0), (0, 0)])) == 1


def test_line_congruence_rejects_trivial_explicit_modulus(unit_square):
    with pytest.raises(ValueError):
        check_line_congruence(unit_square, modulus=1)


# -- the incidence table against the per-point arithmetic ---------------------

def _oracle_directions(U):
    F = U.field
    return frozenset(direction_of(F, P, Q)
                     for P, Q in itertools.combinations(sorted(U.points), 2))


def _oracle_profile(U, y):
    F = U.field
    counts = [0] * F.q
    for a, b in U.points:
        counts[a if y == F.q else F.sub(b, F.mul(y, a))] += 1
    return tuple(counts)


def _oracle_extension_points(U):
    # one division per point of U for every point off U
    F = U.field
    q = F.q
    pts = sorted(U.points)
    det = _oracle_directions(U)
    out = []
    for a in range(q):
        for b in range(q):
            if (a, b) in U.points:
                continue
            for c, d in pts:
                if (q if a == c else F.div(F.sub(b, d), F.sub(a, c))) not in det:
                    break
            else:
                out.append((a, b))
    return out


def _assert_matches_oracles(U):
    F = U.field
    det = _oracle_directions(U)
    ext = _oracle_extension_points(U)
    profiles = [_oracle_profile(U, y) for y in range(F.q + 1)]
    # each function on its own fresh table, then all of them on one table
    assert directions_of(U).determined == det, sorted(U.points)
    assert [line_profile(U, y) for y in range(F.q + 1)] == profiles
    assert list(extension_points(U)) == ext, sorted(U.points)
    table = LineTable(U)
    assert table.dirs.determined == det
    assert [table.profile(y) for y in range(F.q + 1)] == profiles
    assert list(extension_points(table)) == ext
    if len(U) < 2:
        with pytest.raises(ValueError):
            is_maximal(U)
        return
    maximal = len(det) == F.q + 1 or not ext
    assert is_maximal(U) == maximal == table.maximal, sorted(U.points)


@pytest.fixture(params=["kept", "unkept"])
def keeping(request, monkeypatch):
    """Runs a test once with the incidence tables of its fields keeping
    what they build, and once keeping nothing, as above KEEP_MAX_Q, where
    maximality scans the plane's columns."""
    from dirsets import geometry
    if request.param == "unkept":
        monkeypatch.setattr(geometry, "KEEP_MAX_Q", 0)
    incidence.cache_clear()
    yield request.param
    incidence.cache_clear()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 16])
def test_incidence_reads_match_oracles_on_random_sets(keeping, q):
    F = make_field(*{2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1),
                     8: (2, 3), 9: (3, 2), 11: (11, 1), 16: (2, 4)}[q])
    rng = random.Random(f"incidence:{q}")
    for _ in range(60 if q < 16 else 25):
        _assert_matches_oracles(
            random_point_set(F, rng, rng.randint(0, min(q * q, 2 * q + 2))))
    table = incidence(F)
    assert table.kept == (keeping == "kept")
    assert table.kept or not table.rows and not any(table.masks)


def test_incidence_reads_match_oracles_on_q4_representatives(keeping, gf4):
    from dirsets.search import SearchConfig, enumerate_sets
    reps = list(enumerate_sets(SearchConfig(q=4, n_max=8, symmetry=True)))
    assert len(reps) == 44
    for codes in reps:
        _assert_matches_oracles(pts(gf4, [divmod(c, 4) for c in codes]))


@pytest.mark.parametrize("p,h", [(2, 2), (5, 1), (2, 3), (3, 2), (7, 1)])
def test_incidence_reads_match_oracles_on_edge_sets(keeping, p, h):
    F = make_field(p, h)
    q = F.q
    rng = random.Random(q)
    cases = [[], [(1, 0)], [(0, 0), (q - 1, 1)], [(2 % q, b) for b in range(q)],
             [(x, F.add(F.mul(3 % q, x), 1)) for x in range(q)],
             # more than q points, and half of each of two parallel lines
             [divmod(c, q) for c in rng.sample(range(q * q), q + 1)],
             [(0, b) for b in range(q)][: q // 2] + [(1, b) for b in range(q)][: q // 2],
             # a line less one point, which is its only extension point
             [(x, F.add(F.mul(3 % q, x), 1)) for x in range(1, q)]]
    for pairs in cases:
        _assert_matches_oracles(pts(F, pairs))
    assert directions_of(pts(F, cases[5])).is_all


@pytest.mark.parametrize("p,h", [(5, 1), (7, 1), (2, 3)])
def test_complete_set_returns_the_oracle_extensions(keeping, p, h):
    from dirsets.search import CompletionQuery, complete_set
    F = make_field(p, h)
    q = F.q
    rng = random.Random(f"complete:{q}")
    found_any = False
    for k in range(12):
        eps = rng.randint(1, 3)
        if k % 2:
            U = random_point_set(F, rng, q - eps)
        else:
            # most of a line, perhaps with a point off it
            y, c = rng.randrange(q), rng.randrange(q)
            line = [(x, F.add(F.mul(y, x), c)) for x in range(q)]
            U = pts(F, rng.sample(line, q - eps))
        det = _oracle_directions(U)
        cands = _oracle_extension_points(U)
        pts_u = sorted(U.points)
        oracle = [tuple(sorted(pts_u + list(chosen)))
                  for chosen in itertools.combinations(cands, eps)
                  if all(direction_of(F, P, Q) in det
                         for P, Q in itertools.combinations(chosen, 2))][:100]
        res = complete_set(CompletionQuery(U, enforce=False))
        assert list(res.extensions) == oracle, pts_u
        found_any = found_any or bool(oracle)
    assert found_any


def _run_fresh(code):
    """stdout of code run in a fresh interpreter that imports this dirsets."""
    import os
    import subprocess
    import sys
    import dirsets
    src = os.path.dirname(os.path.dirname(os.path.abspath(dirsets.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_field_set_up_builds_no_incidence_entry():
    # importing the program and making a field must build no row and no
    # mask: a hunt's set-up time covers both
    out = _run_fresh("import dirsets.cli\n"
                     "from dirsets import geometry\n"
                     "from dirsets.field import make_field\n"
                     "F = make_field(2, 3)\n"
                     "print(geometry.incidence.cache_info().currsize)\n"
                     "table = geometry.incidence(F)\n"
                     "print(len(table.rows), sum(map(len, table.masks)))\n")
    assert out.split() == ["0", "0", "0"]


def test_incidence_rows_and_masks(gf5):
    table = incidence(gf5)
    assert incidence(gf5) is table and table.kept
    # the point (2, 3): intercepts 3 - 2y at y = 0..4, then a = 2
    assert table.rows[2 * 5 + 3] == (3, 1, 4, 2, 0, 2)
    # the line Y = 2X + 1 holds (a, 2a + 1); X = 4 holds (4, b)
    assert table.masks[2][1] == sum(1 << (a * 5 + (2 * a + 1) % 5) for a in range(5))
    assert table.masks[5][4] == sum(1 << (20 + b) for b in range(5))
    for c in range(25):
        for y, i in enumerate(table.rows[c]):
            assert table.masks[y][i] >> c & 1


def test_near_line_at_q256_is_fast_and_small():
    # 253 points of a line over GF(256): D holds one direction, and the
    # masks of the lines of the 256 free directions through the set would
    # fill 530 MB; maximality and completion must stay within seconds and
    # a few MB
    out = _run_fresh(
        "import resource, time\n"
        "from dirsets.field import make_field\n"
        "from dirsets.geometry import AffinePointSet, is_maximal\n"
        "from dirsets.search import CompletionQuery, complete_set\n"
        "F = make_field(2, 8)\n"
        "line = [(x, F.add(F.mul(7, x), 3)) for x in range(256)]\n"
        "U = AffinePointSet.of(F, line[:100] + line[103:])\n"
        "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "t = time.perf_counter()\n"
        "maximal = is_maximal(U)\n"
        "res = complete_set(CompletionQuery(U))\n"
        "t = time.perf_counter() - t\n"
        "grew = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss\n"
        "assert not maximal and res.hypotheses_hold\n"
        "assert res.extensions == (tuple(sorted(line)),), res.extensions\n"
        "print(t, grew / 1024)\n")
    seconds, grew_mb = map(float, out.split())
    assert seconds < 20 and grew_mb < 32, out
