import itertools
import random

import pytest
from hypothesis import given, strategies as st

from dirsets.field import make_field
from dirsets.geometry import (AffinePointSet, apply_collineation,
                              canonicalize_infinity, check_line_congruence,
                              direction_modulus, direction_of, directions_of,
                              extension_points, format_direction,
                              geometric_invariants, is_maximal, line_profile,
                              parse_direction, push_infinity_out)
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
    assert d.undetermined() == (2, 3)
    assert parse_direction(gf4, "inf") == 4
    assert parse_direction(gf4, "3") == 3
    assert format_direction(gf4, 4) == "inf"


def test_line_profile_examples(gf4, gf5, unit_square):
    assert sorted(line_profile(unit_square, 0)) == [0, 0, 2, 2]
    tri = pts(gf5, [(0, 0), (1, 1), (2, 2)])
    assert sorted(line_profile(tri, 1)) == [0, 0, 0, 0, 3]
    empty = pts(gf5, [])
    assert line_profile(empty, 2) == [0] * 5


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
    for y in directions_of(unit_square).undetermined():
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


def test_canonicalize_infinity(gf5, unit_square):
    horizontal = pts(gf5, [(0, 0), (1, 0), (2, 0)])
    assert not directions_of(horizontal).has_infinity
    image = canonicalize_infinity(horizontal)
    assert directions_of(image).has_infinity
    assert canonicalize_infinity(unit_square) is unit_square
    with pytest.raises(ValueError):
        canonicalize_infinity(pts(gf5, [(0, 0)]))


def test_push_infinity_out(gf5, unit_square):
    image = push_infinity_out(unit_square)
    assert not directions_of(image).has_infinity
    assert len(directions_of(image)) == 3
    vertical = pts(gf5, [(0, 0), (0, 1), (0, 2)])
    out = push_infinity_out(vertical)
    assert not directions_of(out).has_infinity
    full = pts(make_field(2, 1), [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert directions_of(full).is_all
    with pytest.raises(ValueError):
        push_infinity_out(full)


def test_adding_points_never_shrinks_directions(gf4):
    rng = random.Random(5)
    for _ in range(50):
        U = random_point_set(gf4, rng, rng.randint(2, 6))
        D = directions_of(U).determined
        P = (rng.randrange(4), rng.randrange(4))
        if P in U.points:
            continue
        assert directions_of(U.with_point(P)).determined >= D


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
                P for P in free if directions_of(U.with_point(P)) == dirs]
            if dirs.is_all:
                continue
            naive = all(len(directions_of(U.with_point(P))) > len(dirs) for P in free)
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


def test_line_congruence_rejects_trivial_explicit_modulus(unit_square):
    with pytest.raises(ValueError):
        check_line_congruence(unit_square, modulus=1)
