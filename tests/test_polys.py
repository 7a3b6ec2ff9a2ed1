import pytest
from hypothesis import given, strategies as st

from dirsets.field import make_field
from dirsets import polys as P


def poly9():
    return st.lists(st.integers(0, 8), max_size=6).map(tuple)


@given(poly9(), poly9())
def test_mul_commutes(a, b):
    F = make_field(3, 2)
    assert P.p_mul(F, a, b) == P.p_mul(F, b, a)


@given(poly9(), poly9())
def test_divmod_round_trip(a, b):
    F = make_field(3, 2)
    b = P.p_trim(b)
    if not b:
        return
    q, r = P.p_divmod(F, a, b)
    assert P.p_degree(r) < P.p_degree(b)
    assert P.p_add(F, P.p_mul(F, q, b), r) == P.p_trim(a)


@given(poly9(), poly9(), st.integers(0, 8))
def test_eval_is_ring_hom(a, b, x):
    F = make_field(3, 2)
    assert P.p_eval(F, P.p_mul(F, a, b), x) == F.mul(P.p_eval(F, a, x), P.p_eval(F, b, x))
    assert P.p_eval(F, P.p_add(F, a, b), x) == F.add(P.p_eval(F, a, x), P.p_eval(F, b, x))


def test_gcd_basics():
    F = make_field(5, 1)
    a = P.p_mul(F, (1, 1), (2, 1))          # (X+1)(X+2)
    b = P.p_mul(F, (1, 1), (3, 1))          # (X+1)(X+3)
    assert P.p_gcd(F, a, b) == (1, 1)
    assert P.p_gcd(F, a, ()) == P.p_monic(F, a)


def test_frobenius_power_and_root():
    F = make_field(2, 2)
    f = (1, 2)  # w X + 1 is not in GF(4)[X^2]
    sq = P.p_frob_pow(F, f, 2)
    assert P.p_exponents(sq) == (0, 2)
    assert P.p_frob_root(F, sq, 2) == f
    with pytest.raises(ValueError):
        P.p_frob_root(F, (0, 1), 2)


def test_root_multiplicity_and_count():
    F = make_field(2, 2)
    # X^2 (X+1)^2 = X^4 + X^2 in characteristic 2
    poly = (0, 0, 1, 0, 1)
    assert P.root_multiplicity(F, poly, 0) == 2
    assert P.root_multiplicity(F, poly, 1) == 2
    assert P.root_multiplicity(F, poly, 2) == 0
    assert P.count_roots_with_multiplicity(F, poly) == 4
    assert P.count_roots_with_multiplicity(F, P.x_power_minus_x(F)) == 4


def test_splits_into_distinct_roots():
    F = make_field(5, 1)
    assert P.splits_into_distinct_roots(F, P.p_mul(F, (1, 1), (2, 1)))
    assert not P.splits_into_distinct_roots(F, P.p_mul(F, (1, 1), (1, 1)))
    assert not P.splits_into_distinct_roots(F, ())


def test_power_basis_membership():
    assert P.in_power_basis((1, 0, 3, 0, 1), 2)
    assert not P.in_power_basis((1, 2, 3), 2)
    assert P.p_power_gcd((1, 0, 0, 0, 2, 0, 0, 0, 1)) == 4
