import itertools
import random

import pytest

from dirsets.field import make_field
from dirsets.geometry import (AffinePointSet, direction_modulus, directions_of,
                              geometric_invariants)
from dirsets import polys as P
from dirsets.redei import (BivariatePoly, SlopeTable, algebraic_invariants,
                           check_power_span, check_specialized_membership,
                           redei_polynomial, redei_system, root_count,
                           specialized_tail, tail_power)
from conftest import random_point_set


def pts(field, pairs):
    return AffinePointSet.of(field, pairs)


def brute_sigma(field, U, k):
    """k-th elementary symmetric polynomial of the linear forms b - aY,
    expanded term by term over all k-subsets."""
    forms = [P.p_trim((b, field.neg(a))) for a, b in sorted(U.points)]
    acc = ()
    for subset in itertools.combinations(forms, k):
        term = (1,)
        for f in subset:
            term = P.p_mul(field, term, f)
        acc = P.p_add(field, acc, term)
    return acc


def test_redei_polynomial_singleton(gf5):
    R = redei_polynomial(pts(gf5, [(0, 0)]))
    assert R.coeffs == ((), (1,))  # X


def test_redei_polynomial_collinear_specializes(gf5, collinear3_gf5):
    R = redei_polynomial(collinear3_gf5)
    assert R.specialize(1) == (0, 0, 0, 1)  # X^3


def test_redei_polynomial_unit_square_exact(unit_square):
    R = redei_polynomial(unit_square)
    # X^4 + (Y^2+Y+1) X^2 + (Y^2+Y) X
    assert R.coeffs == ((), (0, 1, 1), (1, 1, 1), (), (1,))


def test_sigma_matches_brute_expansion(gf9):
    rng = random.Random(17)
    for _ in range(10):
        U = random_point_set(gf9, rng, rng.randint(1, 5))
        sys_ = redei_system(U)
        for k in range(len(U) + 1):
            assert sys_.sigma(k) == brute_sigma(gf9, U, k)
            assert P.p_degree(sys_.sigma(k)) <= k


def test_system_collinear_gf5(collinear3_gf5):
    sys_ = redei_system(collinear3_gf5)
    assert sys_.quotient.specialize(1) == (0, 0, 1)  # X^2
    assert sys_.tail.specialize(1) == ()


def test_system_unit_square(unit_square):
    sys_ = redei_system(unit_square)
    assert sys_.quotient.coeffs == ((1,),)
    assert sys_.tail.coeffs == ((), (0, 1, 1), (1, 1, 1))
    assert sys_.deg_x_tail() == 2


def test_system_rejects_wrong_sizes(gf4):
    with pytest.raises(ValueError):
        redei_system(pts(gf4, []))
    five = pts(gf4, [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2)])
    with pytest.raises(ValueError):
        redei_system(five)


def test_undetermined_slope_tail_is_minus_x(gf4, gf5):
    rng = random.Random(23)
    for F in (gf4, gf5):
        minus_x = (0, F.neg(1))
        for _ in range(40):
            U = random_point_set(F, rng, rng.randint(1, F.q))
            sys_ = redei_system(U)
            dirs = directions_of(U)
            for y in range(F.q):
                if y not in dirs.determined:
                    assert sys_.tail.specialize(y) == P.p_trim(minus_x)


def test_specialize_examples(unit_square, collinear3_gf5):
    R = redei_polynomial(unit_square)
    assert R.specialize(0) == (0, 0, 1, 0, 1)  # X^4 + X^2
    zero = BivariatePoly(unit_square.field, ())
    assert zero.specialize(3) == ()
    assert redei_polynomial(collinear3_gf5).specialize(1) == (0, 0, 0, 1)


def test_specialize_commutes_with_product(gf9):
    rng = random.Random(31)
    for _ in range(10):
        U = random_point_set(gf9, rng, rng.randint(1, 6))
        sys_ = redei_system(U)
        for y in range(9):
            lhs = sys_.redei.mul(sys_.quotient).specialize(y)
            rhs = P.p_mul(gf9, sys_.redei.specialize(y), sys_.quotient.specialize(y))
            assert lhs == rhs


def test_specialized_tail_fast_path_agrees(gf8, gf9):
    rng = random.Random(41)
    for F in (gf8, gf9):
        for _ in range(25):
            U = random_point_set(F, rng, rng.randint(1, F.q))
            sys_ = redei_system(U, verify=False)
            for y in range(F.q):
                assert specialized_tail(U, y) == sys_.tail.specialize(y)


def test_check_specialization(unit_square, gf5):
    # R(X,y) lies in GF(q)[X^m] but not GF(q)[X^(p m)] on a determined slope
    # of modulus m, and divides X^q - X on an undetermined one
    table = SlopeTable(unit_square)
    F4 = unit_square.field
    assert 0 in table.dirs.determined
    assert direction_modulus(unit_square, 0) == 2
    r0, _ = table.specialization(0)
    assert P.in_power_basis(r0, 2) and not P.in_power_basis(r0, 4)
    assert 2 not in table.dirs.determined
    r2, _ = table.specialization(2)
    assert P.p_mod(F4, P.x_power_minus_x(F4), r2) == ()
    single = SlopeTable(pts(gf5, [(2, 3)]))
    r1, _ = single.specialization(1)
    assert P.p_mod(gf5, P.x_power_minus_x(gf5), r1) == ()


def test_tail_power_examples(unit_square, collinear3_gf5):
    sys_ = redei_system(unit_square)
    F = unit_square.field
    tau, root = tail_power(sys_.tail.specialize(0), F)
    assert tau == 2 and root == (0, 1)
    tau1, _ = tail_power(sys_.tail.specialize(1), F)
    assert tau1 == 2
    sys_c = redei_system(collinear3_gf5)
    assert tail_power(sys_c.tail.specialize(1), collinear3_gf5.field) == (5, None)
    with pytest.raises(ValueError):
        SlopeTable(collinear3_gf5).power(0)  # slope not determined


def test_algebraic_invariants_unit_square(unit_square):
    table = SlopeTable(unit_square)
    alg = algebraic_invariants(table)
    assert alg.modulus == 2 and table.deg_x_tail == 2
    assert alg.infinity_determined
    assert set(alg.per_direction) == {0, 1}
    assert all(table.kappa(y) == 4 for y in alg.per_direction)


def test_algebraic_invariants_collinear(collinear3_gf5):
    alg = algebraic_invariants(collinear3_gf5)
    assert alg.modulus == 5
    assert alg.per_direction[1].modulus == 5


@pytest.mark.parametrize("p", [2, 3])
def test_subfield_span_minus_point_separates_moduli(p):
    # removing one point of a rank-2 prime-subfield span drops the geometric
    # modulus to 1 while the tail modulus stays p
    F = make_field(p, 2)
    span = [(a, b) for a in range(p) for b in range(p)]
    U = pts(F, span[:-1])
    geo = geometric_invariants(U)
    alg = algebraic_invariants(U)
    assert geo.modulus == 1
    assert alg.modulus == p


def test_root_count_examples(unit_square, collinear3_gf5):
    F4, F5 = unit_square.field, collinear3_gf5.field
    sys_ = redei_system(unit_square)
    assert root_count(sys_.tail.specialize(0), F4) == 4
    for y in (2, 3):  # undetermined: X^q - X has q simple roots
        assert root_count(sys_.tail.specialize(y), F4) == 4
    sys_c = redei_system(collinear3_gf5)
    assert root_count(sys_c.tail.specialize(1), F5) == 5
    rng = random.Random(3)
    for _ in range(20):
        U = random_point_set(F4, rng, rng.randint(2, 4))
        s = redei_system(U)
        for y in directions_of(U).affine():
            assert root_count(s.tail.specialize(y), F4) >= len(U)


def test_membership_check(unit_square, gf5):
    assert check_specialized_membership(unit_square).passed
    assert check_specialized_membership(pts(gf5, [(3, 1)])).passed
    rng = random.Random(9)
    for _ in range(30):
        U = random_point_set(gf5, rng, 4)
        assert check_specialized_membership(U).passed


def test_power_span(unit_square, collinear3_gf5, gf9):
    ok, bad = check_power_span(unit_square, 2)
    assert ok and not bad
    assert check_power_span(collinear3_gf5, 5)[0]
    rng = random.Random(15)
    scalars = (0, 1, 2)  # the prime subfield of GF(9)
    for _ in range(15):
        g1 = (rng.randrange(9), rng.randrange(9))
        g2 = (rng.randrange(9), rng.randrange(9))
        span = {(0, 0)}
        span |= {(gf9.add(gf9.mul(c1, g1[0]), gf9.mul(c2, g2[0])),
                  gf9.add(gf9.mul(c1, g1[1]), gf9.mul(c2, g2[1])))
                 for c1 in scalars for c2 in scalars}
        U = pts(gf9, span)
        if len(U) > 9 or len(U) < 2:
            continue
        alg = algebraic_invariants(U)
        assert check_power_span(U, alg.modulus)[0]


@pytest.mark.parametrize("q,params", [(3, (3, 1)), (4, (2, 2)), (5, (5, 1)),
                                      (7, (7, 1)), (8, (2, 3)), (9, (3, 2))])
def test_division_identity_random_sets(q, params):
    # redei_system(verify=True) asserts the product identity, the tail
    # degree bound, the Y-degree bounds and the quotient recurrence
    F = make_field(*params)
    rng = random.Random(q * 1000 + 7)
    for _ in range(40):
        U = random_point_set(F, rng, rng.randint(1, q))
        redei_system(U, verify=True)


def test_moduli_inequality_per_direction(gf8):
    rng = random.Random(77)
    for _ in range(30):
        U = random_point_set(gf8, rng, rng.randint(2, 8))
        dirs = directions_of(U)
        if not dirs.determined:
            continue
        geo = geometric_invariants(U)
        alg = algebraic_invariants(U)
        for y, data in alg.per_direction.items():
            assert geo.per_direction[y] <= data.modulus
        assert geo.modulus <= alg.modulus


def test_bivariate_terms_ordering(unit_square):
    sys_ = redei_system(unit_square)
    terms = sys_.tail.terms()
    assert terms == sorted(terms, key=lambda t: (-t[1], -t[2]))
    assert sys_.tail.render() == "X^2*Y^2 + X^2*Y + X^2 + X*Y^2 + X*Y"


def test_membership_sharper_branch_char2(gf8):
    # small sets make deg R <= deg Q, activating the quotient non-membership
    rng = random.Random(88)
    for _ in range(30):
        U = random_point_set(gf8, rng, rng.randint(1, 4))
        assert check_specialized_membership(U).passed


@pytest.mark.parametrize("params", [(2, 4), (5, 2), (3, 3)])
def test_division_pipeline_soak_larger_fields(params):
    # exercises three-digit and four-digit coefficient paths (q = 16, 25, 27)
    F = make_field(*params)
    q = F.q
    rng = random.Random(q * 13)
    for i in range(25):
        U = random_point_set(F, rng, rng.randint(1, q))
        redei_system(U, verify=True)
        if i % 5 == 0:
            assert check_specialized_membership(U).passed
            if directions_of(U).determined:
                alg = algebraic_invariants(U)
                assert check_power_span(U, alg.modulus)[0]


def _differential_sets(q):
    """Every set of 1 <= n <= q points for q <= 4, else 150 seeded sets."""
    params = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1),
              8: (2, 3), 9: (3, 2)}[q]
    F = make_field(*params)
    if q <= 4:
        for n in range(1, q + 1):
            for codes in itertools.combinations(range(q * q), n):
                yield pts(F, [divmod(c, q) for c in codes])
    else:
        rng = random.Random(q * 101)
        for _ in range(150):
            yield random_point_set(F, rng, rng.randint(1, q))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_slope_table_matches_bivariate_system(q):
    # the table specializes slope by slope what the verified bivariate
    # system computes at once
    checked = 0
    for U in _differential_sets(q):
        F = U.field
        sys_ = redei_system(U, verify=True)
        table = SlopeTable(U)
        for y in range(q):
            t_y = sys_.tail.specialize(y)
            assert table.specialization(y) == (sys_.redei.specialize(y),
                                               sys_.quotient.specialize(y))
            assert table.tail(y) == t_y
            assert table.kappa(y) == P.count_roots_with_multiplicity(
                F, P.p_add(F, P.p_monomial(q), t_y))
            if y in table.dirs.determined:
                data = table.power(y)
                assert (data.modulus, data.root) == tail_power(t_y, F)
                assert data.tail_degree == P.p_degree(t_y)
        if len(U) >= 2:
            assert table.deg_x_tail == sys_.deg_x_tail()
        exps = {q} | {i for i, row in enumerate(sys_.tail.coeffs) if row}
        for m in (F.p ** e for e in range(F.h + 1)):
            bad = tuple(sorted(e for e in exps if e not in (0, 1) and e % m))
            assert check_power_span(table, m) == (not bad, bad)
        checked += 1
    assert checked == {2: 10, 3: 129, 4: 2516}.get(q, 150)
