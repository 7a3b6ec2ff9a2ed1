import random

import pytest
from hypothesis import given, strategies as st

from dirsets.field import (make_field, subfield_elements, subfield_orders,
                           subfields)


def brute_irreducible_deg2(p, c0, c1):
    # degree 2: irreducible over GF(p) iff it has no root
    return all((x * x + c1 * x + c0) % p for x in range(p))


def test_modulus_examples():
    assert make_field(2, 1).modulus == (0, 1)          # X
    assert make_field(2, 2).modulus == (1, 1, 1)       # X^2 + X + 1
    # GF(9): first no-root monic quadratic in low-degree-first lex order
    expected = None
    for c0 in range(3):
        for c1 in range(3):
            if brute_irreducible_deg2(3, c0, c1):
                expected = (c0, c1, 1)
                break
        if expected:
            break
    assert make_field(3, 2).modulus == expected == (1, 0, 1)


def test_make_field_deterministic_and_cached():
    a = make_field(3, 2)
    b = make_field(3, 2)
    assert a is b
    assert a.modulus == b.modulus


def test_make_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 21)  # 2^21 over the default order bound
    with pytest.raises(ValueError):
        make_field(2, 5, max_order=16)  # the bound is configurable
    make_field(2, 5, max_order=32)


def test_gf4_multiplication_forced_by_modulus(gf4):
    w = 2  # the class of X
    assert gf4.mul(w, w) == 3          # w^2 = w + 1
    assert gf4.mul(w, 3) == 1          # w * (w+1) = 1
    assert gf4.add(w, 3) == 1
    assert str(gf4) == "2^2"


def test_prime_field_inverse(gf5):
    assert gf5.inv(2) == 3
    assert gf5.mul(2, 3) == 1


def test_gf9_multiplicative_order(gf9):
    for a in range(1, 9):
        assert gf9.pow(a, 8) == 1


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                                 (3, 2), (2, 4)])
def test_field_axioms_exhaustive(p, h):
    F = make_field(p, h)
    q = F.q
    for a in range(q):
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
        for b in range(q):
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in range(q):
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_field_axioms_sampled_large():
    # above the exhaustive range: 10^4 seeded triples
    F = make_field(2, 6)
    rng = random.Random(20260811)
    for _ in range(10_000):
        a, b, c = (rng.randrange(F.q) for _ in range(3))
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_digit_add_fallback_path():
    # odd characteristic above the add-table bound exercises digit addition
    F = make_field(3, 7, max_order=1 << 22)
    assert F._add_rows is None
    rng = random.Random(7)
    for _ in range(500):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        da, db = F.coeffs(a), F.coeffs(b)
        expected = F.from_coeffs(tuple((x + y) % 3 for x, y in zip(da, db)))
        assert F.add(a, b) == expected
    for _ in range(200):
        a = rng.randrange(1, F.q)
        assert F.mul(a, F.inv(a)) == 1


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_gf9_laws_property(a, b, c):
    F = make_field(3, 2)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.sub(a, b) == F.add(a, F.neg(b))
    if b:
        assert F.mul(F.div(a, b), b) == a


@pytest.mark.parametrize("p,h", [(2, 4), (3, 2), (5, 1)])
def test_frobenius_is_field_automorphism(p, h):
    F = make_field(p, h)
    for a in range(F.q):
        for b in range(F.q):
            assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
            assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))


def test_frobenius_fixed_field_sizes():
    F = make_field(2, 6)
    for e in (1, 2, 3, 6):
        s = 2 ** e
        fixed = [a for a in range(F.q) if F.pow(a, s) == a]
        assert len(fixed) == s


def test_codec_round_trip():
    F = make_field(2, 4)
    for a in range(F.q):
        assert F.from_coeffs(F.coeffs(a)) == a


def test_pow_conventions(gf9):
    assert gf9.pow(0, 0) == 1
    assert gf9.pow(0, 5) == 0
    assert gf9.pow(2, -1) == gf9.inv(2)
    with pytest.raises(ZeroDivisionError):
        gf9.pow(0, -1)
    with pytest.raises(ZeroDivisionError):
        gf9.inv(0)
    with pytest.raises(ZeroDivisionError):
        gf9.div(1, 0)


def test_elements_enumeration(gf2, gf4, gf9):
    # the elements of GF(q) are the codes range(q), closed under + and *
    for F in (gf2, gf4, gf9):
        codes = range(F.q)
        for a in codes:
            for b in codes:
                assert F.add(a, b) in codes
                assert F.mul(a, b) in codes


def test_field_pickles_to_same_instance(gf9):
    import pickle
    assert pickle.loads(pickle.dumps(gf9)) is gf9


def test_subfield_lattice():
    assert [s.order for s in subfields(make_field(2, 2))] == [2, 4]
    assert [s.order for s in subfields(make_field(2, 6))] == [2, 4, 8, 64]
    assert subfield_orders(make_field(3, 2)) == (3, 9)


def test_subfield_membership_count():
    F = make_field(2, 4)
    assert len(subfield_elements(F, 4)) == 4
    assert len([a for a in range(16) if F.pow(a, 4) == a]) == 4


def test_subfield_embedding_is_field_hom():
    F = make_field(2, 4)
    for entry in subfields(F):
        small, emb = entry.subfield, entry.into_parent
        assert len(set(emb)) == small.q
        fixed = set(subfield_elements(F, entry.order))
        assert set(emb) == fixed
        for a in range(small.q):
            for b in range(small.q):
                assert emb[small.add(a, b)] == F.add(emb[a], emb[b])
                assert emb[small.mul(a, b)] == F.mul(emb[a], emb[b])
