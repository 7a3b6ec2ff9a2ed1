import itertools
import random
import re
from dataclasses import astuple

import pytest

from dirsets.field import make_field
from dirsets.analysis import membership_verdict, power_span_verdict, verify_statement
from dirsets.geometry import (AffinePointSet, LineTable, apply_collineation,
                              direction_modulus, directions_of, format_direction,
                              geometric_invariants, line_profile, profile_key)
from dirsets.linsets import plane_set, subfield_subspaces
from dirsets import polys as P
from dirsets.redei import (BivariatePoly, SlopeTable, algebraic_invariants,
                           redei_polynomial, redei_system, root_count,
                           specialized_redei, specialized_tail, tail_power)
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


def test_specialized_redei_reads_the_profile(unit_square):
    # R(X, y) from (field, profile) is the bivariate R at Y = y
    F = unit_square.field
    R = redei_polynomial(unit_square)
    lines = LineTable(unit_square)
    for y in range(F.q):
        assert specialized_redei(F, lines.profile(y)) == R.specialize(y)
    assert specialized_redei(F, (2, 2, 0, 0)) == (0, 0, 1, 0, 1)


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
    assert table.dirs.has_infinity
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
    # one check per slope, each read through SlopeTable.membership
    for U in (unit_square, pts(gf5, [(3, 1)])):
        verdict = membership_verdict(U)
        assert verdict.holds and len(verdict.checks) == U.field.q
    rng = random.Random(9)
    for _ in range(30):
        table = SlopeTable(random_point_set(gf5, rng, 4))
        assert all(table.membership(y)[1] for y in range(5))


def test_power_span(unit_square, collinear3_gf5, gf9):
    verdict = power_span_verdict(unit_square)
    assert verdict.holds and not verdict.notes
    assert SlopeTable(unit_square).t == 2
    assert power_span_verdict(collinear3_gf5).holds
    assert SlopeTable(collinear3_gf5).t == 5
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
        assert power_span_verdict(U).holds


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
        assert membership_verdict(U).holds


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
            assert membership_verdict(U).holds
            if directions_of(U).determined:
                assert power_span_verdict(U).holds


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
    # system computes at once; each set is read through its own slope memo
    # and through one memo shared, warm, across the whole family
    checked = 0
    shared = {}
    profiles = set()
    for U in _differential_sets(q):
        F = U.field
        sys_ = redei_system(U, verify=True)
        for table in (SlopeTable(U), SlopeTable(U, shared)):
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
                profiles.add(tuple(table.profile(y)))
            if len(U) >= 2:
                assert table.deg_x_tail == sys_.deg_x_tail()
            # power-span reads the X-exponents of X^q + T off the tails:
            # from X^1 up they are those of the bivariate T (see SlopeTable);
            # on X^0 its coefficient may be a multiple of Y^q - Y
            exps = {q}.union(*(P.p_exponents(table.tail(y)) for y in range(q)))
            assert exps - {0} == {q} | {i for i, row in enumerate(sys_.tail.coeffs)
                                        if i and row}
        checked += 1
    assert checked == {2: 10, 3: 129, 4: 2516}.get(q, 150)
    # the shared memo holds one entry per slope profile the family has,
    # under the profile's key
    assert set(shared) == {profile_key(p) for p in profiles}


def test_alarms_fire_on_every_read_of_a_shared_memo(gf5, monkeypatch):
    # a memo entry is shared by every set with the profile, but the checks
    # that involve the set run on each read, hit or miss
    from dirsets import polys, redei
    from dirsets.field import SoundnessError

    U = pts(gf5, [(0, 0), (1, 1), (2, 3)])
    y = 1  # determined by (0, 0) and (1, 1)
    monkeypatch.setattr(redei, "root_count", lambda tail, field: len(U) - 1)
    monkeypatch.setattr(redei, "specialized_tail",
                        lambda U, y: polys.p_trim((0, U.field.neg(1))))
    memo = {}
    for _ in range(2):
        table = SlopeTable(U, memo)
        with pytest.raises(SoundnessError, match="root count"):
            table.kappa(y)
        with pytest.raises(SoundnessError, match="undetermined tail"):
            table.power(y)
        with pytest.raises(ValueError, match="not determined"):
            table.power(0)
    # the second table read the entry the first one filled
    assert len(memo) == 1 and next(iter(memo.values())).kappa == len(U) - 1


def test_modulus_alarm_fires_on_every_read_of_a_shared_memo(unit_square,
                                                            monkeypatch):
    # s(y) <= t(y) depends on the profile alone, so it is checked once, when
    # the entry's TailData is filled; a failed check leaves the entry
    # unfilled, and the next table that reads it fires the alarm again
    from dirsets import redei
    from dirsets.field import SoundnessError

    monkeypatch.setattr(redei, "tail_power", lambda tail, field: (1, (0, 1)))
    memo = {}
    for _ in range(2):
        table = SlopeTable(unit_square, memo)
        assert table.modulus(0) == 2  # slope 0 meets the square in 2, 2, 0, 0
        with pytest.raises(SoundnessError, match="geometric modulus exceeds"):
            table.power(0)
        with pytest.raises(SoundnessError, match="geometric modulus exceeds"):
            table.t
    entry = memo[profile_key(line_profile(unit_square, 0))]
    assert entry.modulus == 2 and entry.tail is not None and entry.power is None


def test_aggregate_modulus_alarm_fires_on_a_memo_entry_below_s(unit_square):
    # s <= t in aggregate is checked on every read of t, apart from the
    # per-entry s(y) <= t(y): a shared memo whose slope-0 entry already
    # holds t(0) = 1, filled without that check, must raise it
    from dirsets import redei
    from dirsets.field import SoundnessError

    assert directions_of(unit_square).determined == {0, 1, 4}
    entry = redei._SlopeAlgebra(2)
    entry.tail = (0, 1)
    entry.power = redei.TailData(1, (0, 1), 1)
    memo = {profile_key(line_profile(unit_square, 0)): entry}
    table = SlopeTable(unit_square, memo)
    assert table.s == 2
    with pytest.raises(SoundnessError,
                       match="aggregate geometric modulus exceeds algebraic one"):
        table.t


@pytest.mark.parametrize("cap", ["shared", 0])
@pytest.mark.parametrize("q,params", [(3, (3, 1)), (4, (2, 2)), (5, (5, 1)),
                                      (8, (2, 3)), (9, (3, 2))])
def test_s_and_t_fold_the_per_direction_moduli(q, params, cap, monkeypatch):
    # s and t are folded from one memo read per determined direction; they
    # must equal the minima of the per-direction maps and what the line
    # profiles and the verified bivariate system give, on walk tables and
    # on tables built from scratch, through a memo shared by the family and
    # with no entry stored at all
    from math import gcd
    from dirsets import redei
    from dirsets.geometry import Walk
    if cap == 0:
        monkeypatch.setattr(redei, "SLOPE_MEMO_CAP", 0)
    F = make_field(*params)
    rng = random.Random(f"fold:{q}")
    walk = Walk(F)
    shared = {}
    checked = 0
    for _ in range(60):
        codes = tuple(sorted(rng.sample(range(q * q), rng.randint(2, q))))
        U = pts(F, [divmod(c, q) for c in codes])
        det = directions_of(U).determined
        s = min(gcd(q, *line_profile(U, y)) for y in det)
        tail = redei_system(U, verify=True).tail
        t = min((tail_power(tail.specialize(y), F)[0] for y in det if y < q),
                default=q)
        W, lines = walk.lines(codes)
        tables = [LineTable(U), SlopeTable(U), SlopeTable(U, shared),
                  SlopeTable(W, shared, lines)]
        for table in tables:
            geo = geometric_invariants(table)
            assert table.s == geo.modulus == min(geo.per_direction.values()) == s
            if isinstance(table, SlopeTable):
                alg = algebraic_invariants(table)
                assert table.t == alg.modulus == t
                assert t == min((d.modulus for d in alg.per_direction.values()),
                                default=q)
        checked += len(tables)
    assert checked == 60 * 4
    assert (not shared) == (cap == 0)
    # s needs a determined direction, t also 1 <= |U| <= q
    for pairs in ([], [(1, 2)]):
        for table in (LineTable(pts(F, pairs)), SlopeTable(pts(F, pairs))):
            with pytest.raises(ValueError, match="no determined direction"):
                table.s
    many = random_point_set(F, rng, q + 1)
    assert SlopeTable(many).s == geometric_invariants(many).modulus
    with pytest.raises(ValueError, match=re.escape("need 1 <= |U| <= q")):
        SlopeTable(many).t


def _normal_form_sets(q):
    """The differential sets of at least two points, and subfield-linear
    sets, each also with its last point removed: at q = 8 every fourth
    GF(2)-subspace of ranks 2 and 3, at q = 9 every GF(3)-subspace of
    ranks 1 and 2."""
    yield from (U for U in _differential_sets(q) if len(U) >= 2)
    if q in (8, 9):
        F = make_field(*{8: (2, 3), 9: (3, 2)}[q])
        spaces = subfield_subspaces(F, F.p, (2, 3) if q == 8 else (1, 2))
        for _, span in itertools.islice(spaces, 0, None, 4 if q == 8 else 1):
            U = plane_set(F, span)
            yield U
            yield pts(F, sorted(U.points)[:-1])


def _swap_image(U, v):
    """The image under (a, b) -> (b - v a, a), which sends slope v to the
    vertical direction and the vertical direction to slope 0, as a table,
    and its direction map."""
    F = U.field
    W, dmap = apply_collineation(U, ((F.neg(v), 1), (1, 0)))
    return SlopeTable(W), dmap


def _scaled(F, tail, lam):
    """lam * T(X / lam), coefficient by coefficient."""
    inv = F.inv(lam)
    return P.p_trim([F.mul(c, F.pow(inv, i - 1) if i else lam)
                     for i, c in enumerate(tail)])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_normal_form_read_off_the_set_matches_the_image(q):
    # the statements read t, deg_X T and the per-direction tail facts off
    # the set's own table; the image that moves a determined direction to
    # the vertical one, as the paper does first, is the reference
    checked = 0
    for U in _normal_form_sets(q):
        F = U.field
        table = SlopeTable(U)
        det = table.dirs.determined
        # t and deg_X T are reached at two directions or more, so setting
        # any one aside, here the vertical direction, changes neither
        if len(det) >= 2:
            moduli = [table.power(y).modulus for y in sorted(det)]
            degrees = [P.p_degree(table.tail(y)) for y in range(q + 1)]
            assert moduli.count(min(moduli)) >= 2
            assert degrees.count(max(degrees)) >= 2
            assert table.t == min(moduli)
            assert table.deg_x_tail == max(degrees)
        # the reference image determines the vertical direction: the set
        # itself when it does, else the image sending min D there
        v = q if q in det else min(det)
        if v == q:
            W, dmap = SlopeTable(U), {d: d for d in range(q + 1)}
        else:
            W, dmap = _swap_image(U, v)
        assert W.dirs.has_infinity
        assert W.dirs.determined == {dmap[d] for d in det}
        assert table.t == W.t
        assert table.deg_x_tail == W.deg_x_tail
        # per direction, against a proper image; slope 0 stands in for the
        # vertical direction when the set determines it, so its tail (read
        # off the lines X = c) meets the image's slope 0
        u = v if v < q else 0
        V, umap = (W, dmap) if v < q else _swap_image(U, 0)
        for d in range(q + 1):
            if d == u:
                continue
            e = umap[d]
            assert e < q
            lam = 1 if d == q else F.neg(F.inv(F.sub(d, u)))
            assert V.tail(e) == _scaled(F, table.tail(d), lam)
            assert table.kappa(d) == V.kappa(e)
            if d in det:
                mine, image = table.power(d), V.power(e)
                assert (mine.modulus, mine.tail_degree) == (image.modulus,
                                                            image.tail_degree)
                # a constant tail has no root
                assert P.p_degree(mine.root or ()) == P.p_degree(image.root or ())
        for stmt in ("thm-m", "tail-degree-bound"):
            assert (verify_statement(stmt, table).as_dict()
                    == verify_statement(stmt, W).as_dict())
        # root-power-bound: the image's checks, labelled by the set's own
        # directions instead of the image's slopes, plus those at v
        names = {f"slope {e}": f"slope {format_direction(F, d)}"
                 for d, e in dmap.items() if e < q}
        image_checks = []
        for c in verify_statement("root-power-bound", W).checks:
            slope, rest = c.label.split(":", 1)
            image_checks.append((names[slope] + ":" + rest, c.lhs, c.rel, c.rhs, c.holds))
        verdict = verify_statement("root-power-bound", table)
        own = [astuple(c) for c in verdict.checks]
        at_v = [c for c in own if c[0].startswith(f"slope {v}:")]
        assert len(at_v) == (3 if verdict.applicable and v < q else 0)
        assert sorted(c for c in own if c not in at_v) == sorted(image_checks)
        assert all(c[-1] for c in own)
        checked += 1
    # seeded sets of two points or more, then 2046 / 4 subspaces of GF(2)^6
    # and 40 + 130 of GF(3)^4, each whole and with one point removed
    assert checked == {2: 6, 3: 120, 4: 2500, 5: 112, 7: 126, 8: 133 + 2 * 512,
                       9: 133 + 2 * 170}[q]


def test_slope_table_of_a_plain_line_table(gf4):
    U = pts(gf4, [(0, 0), (1, 0), (0, 1)])
    expected = (algebraic_invariants(U), power_span_verdict(U),
                membership_verdict(U))
    lines = LineTable(U)
    table = SlopeTable.of(lines)
    assert isinstance(table, SlopeTable) and table.U is U
    assert SlopeTable.of(table) is table and LineTable.of(table) is table
    assert (algebraic_invariants(lines), power_span_verdict(lines),
            membership_verdict(lines)) == expected


def test_power_membership_checks_each_free_profile_once(monkeypatch):
    # the outcome at a slope is kept per profile: a free slope's profile at
    # q = 8 is a 0/1 vector of weight <= 3 over the 8 intercepts, so a
    # sweep of n <= 3 splits at most sum over k <= 3 of C(8, k) = 93
    # quotients, not one per free slope per set
    from dirsets.search import SearchConfig, sweep
    calls = []
    real = P.splits_into_distinct_roots

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(P, "splits_into_distinct_roots", counted)
    report = sweep(SearchConfig(q=8, n_max=3, statements=("power-membership",)))
    assert report.tallies == {
        "power-membership": {"pass": 43744, "fail": 0, "inapplicable": 1}}
    assert 0 < len(calls) <= 93
