import random
from collections import Counter

import pytest

from dirsets.field import make_field
from dirsets.geometry import directions_of
from dirsets.linsets import (AffineLinearSpec, ProjectiveLinearSpec,
                             build_affine_linear, closure_witness,
                             direction_code_of_projective, directions_of_vectors,
                             is_subfield_linear, normalize_projective, plane_set,
                             project_subgeometry, realize_direction_set,
                             relative_basis, subfield_subspaces)


def test_build_affine_linear_examples(gf4, gf9):
    spec = AffineLinearSpec(gf4, 2, ((1, 0), (0, 1)), (0, 0))
    assert build_affine_linear(spec) == frozenset(
        {(0, 0), (1, 0), (0, 1), (1, 1)})
    point = AffineLinearSpec(gf4, 2, (), (2, 3))
    assert build_affine_linear(point) == frozenset({(2, 3)})
    # three generators over GF(3) inside GF(9)^2: 27 points iff independent
    indep = AffineLinearSpec(gf9, 3, ((1, 0), (0, 1), (3, 3)), (0, 0))
    assert len(build_affine_linear(indep)) == 27
    dep = AffineLinearSpec(gf9, 3, ((1, 0), (0, 1), (1, 1)), (0, 0))
    assert len(build_affine_linear(dep)) == 9


def test_spec_validation(gf4):
    with pytest.raises(ValueError):
        AffineLinearSpec(gf4, 3, ((1, 0),), (0, 0))   # 3 not a subfield order
    with pytest.raises(ValueError, match="2.0 is not a subfield order"):
        AffineLinearSpec(gf4, 2.0, ((1, 0),), (0, 0))  # equal to 2, not an int
    with pytest.raises(ValueError):
        AffineLinearSpec(gf4, 2, ((1, 0, 0),), (0, 0))
    # every generator and translate entry must be a code of GF(4)
    for gens, translate in ((((1, 4),), (0, 0)), (((1, 0),), (0, -1)),
                            (((True, 0),), (0, 0)), (((1, 0),), ("a", 0))):
        with pytest.raises(ValueError, match="is not a code of GF"):
            AffineLinearSpec(gf4, 2, gens, translate)


def test_normalize_projective(gf4):
    assert normalize_projective(gf4, (0, 0)) is None
    assert normalize_projective(gf4, (2, 3)) == (1, gf4.div(3, 2))
    assert normalize_projective(gf4, (0, 2, 2)) == (0, 1, 1)


def test_project_identity_subline(gf4):
    spec = ProjectiveLinearSpec(gf4, 2, ((1, 0), (0, 1)))
    image = project_subgeometry(spec)
    assert image.weights == {(0, 1): 1, (1, 0): 1, (1, 1): 1}
    assert image.total_weight == 3


def test_project_plane_to_line(gf4):
    # center (0 : w : 1) avoids the subplane; seven points land on <= 5 spots
    spec = ProjectiveLinearSpec(gf4, 2, ((1, 0, 0), (0, 1, 2)))
    image = project_subgeometry(spec)
    assert image.total_weight == 7
    assert len(image.weights) <= 5


def test_projection_center_collision_rejected(gf4):
    # kernel (0 : 1 : 1) lies inside the subplane
    with pytest.raises(ValueError, match="center meets"):
        ProjectiveLinearSpec(gf4, 2, ((1, 0, 0), (0, 1, 1)))
    with pytest.raises(ValueError, match="rank-deficient"):
        ProjectiveLinearSpec(gf4, 2, ((1, 0), (1, 0)))


def test_weight_conservation_random_specs(gf9):
    rng = random.Random(99)
    found = 0
    while found < 25:
        d = rng.randint(1, 2)
        matrix = tuple(tuple(rng.randrange(9) for _ in range(d + 1))
                       for _ in range(2))
        try:
            image = project_subgeometry(ProjectiveLinearSpec(gf9, 3, matrix))
        except ValueError:
            continue
        found += 1
        assert image.total_weight == (3 ** (d + 1) - 1) // 2


def test_closure_unit_square(gf4):
    spec = AffineLinearSpec(gf4, 2, ((1, 0), (0, 1)), (0, 0))
    rep = closure_witness(spec)
    assert rep.passed and rep.rank == 2
    assert rep.image.total_weight == 7
    assert all(w == 1 for w in rep.image.weights.values())


def test_closure_with_translate_and_dependent_generators(gf4):
    spec = AffineLinearSpec(gf4, 2, ((1, 0), (0, 1), (1, 1)), (2, 3))
    rep = closure_witness(spec)
    assert rep.passed and rep.rank == 2   # dependent generator dropped
    assert rep.image.total_weight == 7


def test_closure_rank3_multiples_at_infinity(gf4):
    spec = AffineLinearSpec(gf4, 2, ((1, 0), (2, 0), (0, 1)), (0, 0))
    rep = closure_witness(spec)
    assert rep.passed
    assert rep.image.total_weight == 15
    multiples = [p for p, w in rep.image.weights.items() if w > 1]
    assert multiples and all(p[0] == 0 for p in multiples)


def test_closure_reduces_collinear_ambient(gf9):
    spec = AffineLinearSpec(gf9, 3, ((2, 2),), (0, 0))
    rep = closure_witness(spec)
    assert rep.reduced and rep.ambient_dimension == 1
    assert rep.passed and rep.image.total_weight == 4


def test_closure_rejects_degenerate(gf4):
    with pytest.raises(ValueError):
        closure_witness(AffineLinearSpec(gf4, 2, ((0, 0),), (1, 1)))


def test_direction_congruence_small_sweep(gf4, gf8):
    # direction counts of subfield-linear sets are 1 mod s
    for F, s, ranks in ((gf4, 2, (1, 2, 3)), (gf8, 2, (1, 2))):
        for _, span in subfield_subspaces(F, s, ranks):
            dirs = directions_of_vectors(F, span)
            assert len(dirs) % s == 1


def test_realize_identity_subline(gf4):
    spec = ProjectiveLinearSpec(gf4, 2, ((1, 0), (0, 1)))
    pts = realize_direction_set(spec)
    assert len(pts) == 4
    U = plane_set(gf4, pts)
    assert directions_of(U).determined == frozenset({0, 1, 4})


def test_realize_rank_one_is_collinear(gf9):
    spec = ProjectiveLinearSpec(gf9, 3, ((1,), (2,)))
    pts = realize_direction_set(spec)
    assert len(pts) == 3
    U = plane_set(gf9, pts)
    assert len(directions_of(U)) == 1


def test_realize_round_trip_random(gf9):
    rng = random.Random(123)
    done = 0
    while done < 30:
        d = 2
        matrix = tuple(tuple(rng.randrange(9) for _ in range(d + 1))
                       for _ in range(2))
        try:
            spec = ProjectiveLinearSpec(gf9, 3, matrix)
        except ValueError:
            continue
        image = project_subgeometry(spec)
        done += 1
        U = plane_set(gf9, realize_direction_set(spec))
        support = sorted(direction_code_of_projective(gf9, p)
                         for p in image.support())
        assert sorted(directions_of(U).determined) == support


def test_is_subfield_linear(gf4, gf5):
    ok, witness = is_subfield_linear(gf4, [(0, 0), (1, 0), (0, 1), (1, 1)], 2)
    assert ok
    gens, base = witness
    assert base == (0, 0) and len(gens) == 2
    ok2, _ = is_subfield_linear(gf4, [(0, 0), (1, 0), (0, 1)], 2)
    assert not ok2
    ok3, witness3 = is_subfield_linear(gf5, [(2, 3)], 5)
    assert ok3 and witness3[0] == ()
    with pytest.raises(ValueError):
        is_subfield_linear(gf4, [], 2)


def test_relative_basis_spans(gf9):
    basis = relative_basis(gf9, 3)
    assert len(basis) == 2
    span = {gf9.add(gf9.mul(c1, basis[0]), gf9.mul(c2, basis[1]))
            for c1 in (0, 1, 2) for c2 in (0, 1, 2)}
    assert span == set(range(9))


def test_subspace_enumeration_counts(gf4, gf9):
    c4 = Counter(k for k, _ in subfield_subspaces(gf4, 2, (1, 2, 3)))
    assert c4 == {1: 15, 2: 35, 3: 15}
    c9 = Counter(k for k, _ in subfield_subspaces(gf9, 3, (1, 2, 3)))
    assert c9 == {1: 40, 2: 130, 3: 40}


def test_subspace_enumeration_is_duplicate_free(gf4):
    seen = set()
    for k, span in subfield_subspaces(gf4, 2, (1, 2, 3)):
        assert len(span) == 2 ** k
        assert span not in seen
        seen.add(span)
        # closed under subfield scaling and addition
        ok, _ = is_subfield_linear(gf4, span, 2)
        assert ok and (0, 0) in span


def test_direction_congruence_rank4_cells(gf4, gf8, gf9):
    # exhaustive full-rank cells, including the whole plane as a subspace
    gf16 = make_field(2, 4)
    for F, s in ((gf4, 2), (gf9, 3), (gf16, 4)):
        for _, span in subfield_subspaces(F, s, (4,)):
            assert len(directions_of_vectors(F, span)) % s == 1
    from dirsets.geometry import check_line_congruence
    count = 0
    for _, span in subfield_subspaces(gf8, 2, (4,)):
        U = plane_set(gf8, span)
        rep = check_line_congruence(U, modulus=2)
        assert rep.passed and len(directions_of(U)) % 2 == 1
        count += 1
    assert count == 651


def test_direction_congruence_rank4_sampled_gf16():
    # the 200k-subspace cell is sampled: random generator quadruples
    F = make_field(2, 4)
    rng = random.Random(164)
    for _ in range(200):
        gens = tuple((rng.randrange(16), rng.randrange(16)) for _ in range(4))
        span = build_affine_linear(AffineLinearSpec(F, 2, gens, (0, 0)))
        if len(span) < 4:
            continue
        assert len(directions_of_vectors(F, span)) % 2 == 1


def test_closure_then_realize_round_trip(gf4):
    # the ideal restriction of the closure witness projects onto D; realizing
    # it must reproduce a set with the same direction set
    for gens in (((1, 0), (0, 1)), ((1, 0), (2, 0), (0, 1)), ((1, 2), (2, 1))):
        spec = AffineLinearSpec(gf4, 2, gens, (0, 0))
        rep = closure_witness(spec)
        assert rep.passed
        ideal_matrix = tuple(row[1:] for row in rep.witness.matrix[1:])
        ideal_spec = ProjectiveLinearSpec(gf4, 2, ideal_matrix)
        realized = plane_set(gf4, realize_direction_set(ideal_spec))
        original = plane_set(gf4, build_affine_linear(spec))
        assert directions_of(realized).determined == \
            directions_of(original).determined
