import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_point_set

from dirsets.field import make_field
from dirsets.geometry import AffinePointSet
from dirsets import polys as P
from dirsets.redei import SlopeTable
from dirsets.analysis import (STATEMENTS, build_extension_instance,
                              classify_direction_trichotomy,
                              classify_prime_dichotomy,
                              classify_size_q_trichotomy,
                              conjecture_maximal_linearity,
                              conjecture_moduli_match, line_congruence_verdict,
                              membership_verdict, moduli_order, power_span_verdict,
                              quotient_extension, root_power_bound,
                              section5_reports, tail_degree_bound,
                              verify_statement)


def pts(field, pairs):
    return AffinePointSet.of(field, pairs)


def all_subsets(field, sizes):
    q = field.q
    for n in sizes:
        for codes in itertools.combinations(range(q * q), n):
            yield pts(field, [divmod(c, q) for c in codes])


# -- trichotomy through both moduli ------------------------------------------

def test_trichotomy_unit_square_tight(unit_square):
    v = classify_direction_trichotomy(unit_square)
    assert v.applicable and v.case == 2 and v.holds
    lower = next(c for c in v.checks if c.label == "lower bound")
    upper = next(c for c in v.checks if c.label == "upper bound")
    assert lower.lhs == 3 and lower.rhs == 3
    assert upper.lhs == 3 and upper.rhs == 3


def test_trichotomy_single_direction_case(collinear3_gf5):
    v = classify_direction_trichotomy(collinear3_gf5)
    assert v.case == 3 and v.holds


def test_trichotomy_modulus_gap_case(gf4):
    # rank-2 subfield span minus one point: geometric 1, algebraic 2
    v = classify_direction_trichotomy(pts(gf4, [(0, 0), (1, 0), (0, 1)]))
    assert v.case == 1 and v.holds
    lower = next(c for c in v.checks if c.label == "lower bound")
    assert lower.lhs == Fraction(8, 3)


def test_trichotomy_partition_check_reads_the_profiles(unit_square):
    # a table whose slope-0 profile (2, 0, 2, 0) disagrees with the points
    # (whose profile is (2, 2, 0, 0)) keeps s = 2 and case 2, but the lines
    # through (0, 1) no longer hold the three other points
    from dirsets.geometry import directions_of, line_profile, profile_key
    keys = [profile_key(line_profile(unit_square, y)) for y in range(5)]
    keys[0] = profile_key((2, 0, 2, 0))
    table = SlopeTable(unit_square, lines=(directions_of(unit_square),
                                           tuple(keys)))
    v = classify_direction_trichotomy(table)
    assert v.applicable and v.case == 2 and not v.holds
    failed = [c for c in v.checks if not c.holds]
    assert [c.label for c in failed] == ["lines at set points partition the set"]
    assert (failed[0].lhs, failed[0].rhs) == (1, 3)


def test_trichotomy_alarms_on_a_slope_missing_from_d(unit_square, gf4):
    # handed D = {0, inf} with the square's true keys, the partition sum
    # falls short and then slope 1, through (0, 0) and (1, 1), is found
    # at a set point but not in D
    from dirsets.field import SoundnessError
    from dirsets.geometry import DirectionSet, LineTable
    table = SlopeTable(unit_square, lines=(DirectionSet(gf4, frozenset({0, 4})),
                                           LineTable(unit_square).keys))
    with pytest.raises(SoundnessError,
                       match="slope through two set points not determined"):
        classify_direction_trichotomy(table)


def test_trichotomy_alarms_on_more_than_q_points_missing_a_direction(
        unit_square, gf4):
    # the square plus (2, 3) determines all five directions; handed the
    # square's D = {0, 1, inf}, a set of q + 1 points would miss one
    from dirsets.field import SoundnessError
    from dirsets.geometry import DirectionSet, LineTable, directions_of
    U = pts(gf4, sorted(unit_square.points) + [(2, 3)])
    assert directions_of(U).is_all
    table = SlopeTable(U, lines=(DirectionSet(gf4, frozenset({0, 1, 4})),
                                 LineTable(U).keys))
    with pytest.raises(SoundnessError,
                       match="more than q points but not all directions"):
        classify_direction_trichotomy(table)


def test_root_power_bound_alarms_on_a_constant_tail_root(unit_square):
    # a shared memo entry for slope 0 whose power root is None (a constant
    # tail) on a set of three determined directions
    from dirsets import redei
    from dirsets.field import SoundnessError
    from dirsets.geometry import line_profile, profile_key
    memo = {}
    SlopeTable(unit_square, memo).power(0)
    entry = memo[profile_key(line_profile(unit_square, 0))]
    entry.power = redei.TailData(4, None, 0)
    table = SlopeTable(unit_square, memo)
    assert sorted(table.dirs.determined) == [0, 1, 4]
    with pytest.raises(SoundnessError,
                       match="constant tail on a slope of a multi-direction set"):
        root_power_bound(table)


def test_trichotomy_inapplicable(gf2, gf5):
    full = pts(gf2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert not classify_direction_trichotomy(full).applicable
    assert not classify_direction_trichotomy(pts(gf5, [(1, 1)])).applicable


# -- q-point trichotomy --------------------------------------------------------

def test_size_q_unit_square(unit_square):
    v = classify_size_q_trichotomy(unit_square)
    assert v.applicable and v.case == 2 and v.holds


def test_size_q_collinear_case(gf5):
    line = pts(gf5, [(x, gf5.mul(3, x)) for x in range(5)])
    v = classify_size_q_trichotomy(line)
    assert v.case == 3 and v.holds


def test_size_q_linearity_moreover(gf9):
    plane = pts(gf9, [(a, b) for a in (0, 1, 2) for b in (0, 1, 2)])
    v = classify_size_q_trichotomy(plane)
    assert v.case == 2 and v.holds
    assert any(c.label == "subfield linear" and c.holds for c in v.checks)


def test_size_q_exhaustive_gf4(gf4):
    # every 4-point set lands in exactly one case and passes
    tallies = {1: 0, 2: 0, 3: 0, None: 0}
    for U in all_subsets(gf4, [4]):
        v = classify_size_q_trichotomy(U)
        if not v.applicable:
            tallies[None] += 1
            continue
        assert v.holds, sorted(U.points)
        tallies[v.case] += 1
    assert tallies[1] + tallies[2] + tallies[3] > 0
    assert tallies[3] == 20  # the full affine lines of AG(2,4)
    assert sum(tallies.values()) == 1820


def test_size_q_wrong_size_inapplicable(gf4, unit_square):
    v = classify_size_q_trichotomy(pts(gf4, [(0, 0), (1, 1)]))
    assert not v.applicable


# -- prime dichotomy -------------------------------------------------------------

def test_prime_dichotomy_triangle(gf5):
    v = classify_prime_dichotomy(pts(gf5, [(0, 0), (1, 0), (0, 1)]))
    assert v.case == 1 and v.holds and "sharp" in v.notes


def test_prime_dichotomy_collinear(collinear3_gf5):
    v = classify_prime_dichotomy(collinear3_gf5)
    assert v.case == 2 and v.holds


def test_prime_dichotomy_exhaustive_p3(gf3):
    seen_applicable = 0
    for U in all_subsets(gf3, [2, 3]):
        v = classify_prime_dichotomy(U)
        if v.applicable:
            seen_applicable += 1
            assert v.holds, sorted(U.points)
    assert seen_applicable > 0


def test_prime_dichotomy_gates(gf4, gf5):
    assert not classify_prime_dichotomy(pts(gf4, [(0, 0), (1, 1)])).applicable
    assert not classify_prime_dichotomy(pts(gf5, [(0, 0)])).applicable


def test_trichotomy_specializes_to_prime_dichotomy(gf3):
    # at prime order the trichotomy's case-1 lower bound equals the
    # dichotomy's bound, and the single-direction case matches collinearity
    for U in all_subsets(gf3, [2, 3]):
        tri = classify_direction_trichotomy(U)
        dic = classify_prime_dichotomy(U)
        if not (tri.applicable and dic.applicable):
            continue
        if tri.case == 3:
            assert dic.case == 2
        else:
            lower_tri = next(c for c in tri.checks if c.label == "lower bound")
            lower_dic = next(c for c in dic.checks if c.label == "lower bound")
            assert lower_tri.lhs == lower_dic.lhs
            t_val = next(c for c in tri.checks
                         if c.label == "geometric <= algebraic modulus").rhs
            assert t_val in (1, 3)


# -- congruence and tail lemmas ---------------------------------------------------

def test_line_congruence_verdict(unit_square, collinear3_gf5):
    assert line_congruence_verdict(unit_square).holds
    assert not line_congruence_verdict(collinear3_gf5).applicable


def test_tail_degree_bound_verdict(unit_square, gf4):
    v = tail_degree_bound(unit_square)
    assert v.holds and v.checks[0].lhs == 3 and v.checks[0].rhs == 3
    # one determined direction, vertical or not, is too few
    for pair in ([(0, 0), (0, 1)], [(0, 0), (1, 1)]):
        v = tail_degree_bound(pts(gf4, pair))
        assert not v.applicable and v.notes == ("needs two determined directions",)


def test_root_power_bound_verdict(unit_square):
    v = root_power_bound(unit_square)
    assert v.holds
    bound = next(c for c in v.checks if c.label == "slope 0: root-count bound")
    assert bound.lhs == Fraction(6, 3) and bound.rhs == 2


def test_moduli_order_verdict(unit_square, gf4):
    assert moduli_order(unit_square).holds
    v = moduli_order(pts(gf4, [(0, 0), (1, 0), (0, 1)]))
    assert v.holds and (v.checks[0].lhs, v.checks[0].rhs) == (1, 2)


def test_membership_and_span_verdicts(unit_square):
    assert membership_verdict(unit_square).holds
    assert power_span_verdict(unit_square).holds


# -- conjecture reports -------------------------------------------------------------

def test_conjecture_moduli_match_gates(gf4, unit_square):
    v = conjecture_moduli_match(unit_square)
    assert v.applicable and v.holds  # vacuous: no slope modulus above 2
    not_max = conjecture_moduli_match(pts(gf4, [(0, 0), (1, 0), (0, 1)]))
    assert not not_max.applicable
    full = pts(make_field(2, 1), [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert not conjecture_moduli_match(full).applicable


def test_conjecture_moduli_match_full_line(gf5):
    line = pts(gf5, [(x, x) for x in range(5)])
    v = conjecture_moduli_match(line)
    assert v.applicable and v.holds
    assert any(c.lhs == 5 and c.rhs == 5 for c in v.checks)


def test_conjecture_linearity(gf9, unit_square):
    plane = pts(gf9, [(a, b) for a in (0, 1, 2) for b in (0, 1, 2)])
    v = conjecture_maximal_linearity(plane)
    assert v.applicable and v.holds
    # moduli equal to 2 do not meet the hypothesis
    assert not conjecture_maximal_linearity(unit_square).applicable


# -- statement registry ---------------------------------------------------------------

def test_registry_covers_and_rejects(unit_square):
    for stmt in STATEMENTS:
        verdict = verify_statement(stmt, unit_square)
        assert verdict.statement == stmt
    with pytest.raises(ValueError):
        verify_statement("no-such", unit_square)


def test_verdict_json_schema(unit_square):
    doc = classify_direction_trichotomy(unit_square).as_dict()
    assert set(doc) == {"statement", "applicable", "case", "checks", "notes"}
    for c in doc["checks"]:
        assert set(c) == {"label", "lhs", "rel", "rhs", "holds"}
    frac = next(c for c in
                classify_direction_trichotomy(
                    pts(unit_square.field, [(0, 0), (1, 0), (0, 1)])).as_dict()["checks"]
                if c["label"] == "lower bound")
    assert frac["lhs"] == "8/3"  # exact rationals, no floats


def test_context_reused_between_statements(unit_square):
    table = SlopeTable(unit_square)
    a = verify_statement("thm-m", table)
    b = verify_statement("tail-degree-bound", table)
    assert a.holds and b.holds


# -- extension oracle ----------------------------------------------------------------

def test_extension_oracle_hand_example(gf4):
    out = quotient_extension(gf4, (0, 0, 1, 1), 2)     # g = X^3 + X^2
    assert out.applicable and out.passed
    assert out.f == (1, 1) and out.quotient == (1, 1)  # f = X + 1 = X^4 // g


def test_extension_oracle_trivial_multiplier(gf4):
    out = quotient_extension(gf4, (1, 0, 1), 2)        # g already in X^2 basis
    assert out.applicable and out.passed and P.p_degree(out.f) == 0


def test_extension_oracle_no_multiplier(gf4):
    # g = X^2 + X + w: any f = aX + b forces a = b = 0
    out = quotient_extension(gf4, (2, 1, 1), 2)
    assert not out.applicable


def test_extension_oracle_argument_validation(gf4):
    with pytest.raises(ValueError):
        quotient_extension(gf4, (), 2)
    with pytest.raises(ValueError):
        quotient_extension(gf4, (1, 1), 3)             # 3 not a power of 2
    with pytest.raises(ValueError):
        quotient_extension(gf4, (0, 1, 1), 2, f=(1, 1))  # g f leaves the basis


def test_extension_oracle_degenerate_degrees(gf4):
    # deg(g f) above the target power: quotient 0, remainder X^power
    g = (0, 0, 1, 1)
    out = quotient_extension(gf4, g, 2, power=2)
    assert out.applicable and out.passed and out.quotient == ()


def test_extension_oracle_random_instances(gf8, gf9):
    for F, s in ((gf8, 2), (gf9, 3)):
        rng = random.Random(F.q)
        for i in range(200):
            g, f = build_extension_instance(F, s, rng)
            out = quotient_extension(F, g, s, f=f)
            assert out.passed, (g, f)
            if i % 10 == 0:
                searched = quotient_extension(F, g, s)
                assert searched.applicable and searched.passed


# -- worked examples --------------------------------------------------------------------

@pytest.fixture(scope="module")
def section5():
    return section5_reports()


def test_nonlinear_maximal_examples(section5):
    for q, rep in section5["nonlinear_maximal"].items():
        assert rep["maximal_in_big_plane"]
        assert not rep["linear_for_some_subfield"]
        assert 2 * rep["direction_count_small"] >= q + 3
        assert rep["direction_count_big"] == rep["direction_count_small"]


def test_nonmaximal_linear_example(section5):
    rep = section5["nonmaximal_linear"]
    assert rep["linear_set_size"] > 4
    assert rep["linear_set_is_subfield_linear"]
    assert rep["same_directions"]
    assert not rep["linear_set_maximal"]
    assert rep["minimal_subset_size"] == 5
    assert rep["minimal_subset_same_directions"]


def test_trichotomy_specialization_sampled_p5(gf5):
    # sampled leg of the prime-order specialization cross-check
    rng = random.Random(55)
    for _ in range(200):
        U = random_point_set(gf5, rng, rng.randint(2, 5))
        tri = classify_direction_trichotomy(U)
        dic = classify_prime_dichotomy(U)
        if not (tri.applicable and dic.applicable):
            continue
        assert tri.holds and dic.holds
        if tri.case == 3:
            assert dic.case == 2
        elif dic.case == 1:
            lt = next(c for c in tri.checks if c.label == "lower bound")
            ld = next(c for c in dic.checks if c.label == "lower bound")
            assert lt.lhs == ld.lhs


# -- verdicts built once per key ---------------------------------------------------

def _verdict_caches():
    """name -> each functools.cache helper of the analysis module."""
    import dirsets.analysis as analysis
    return {name: fn for name, fn in vars(analysis).items()
            if hasattr(fn, "cache_info") and fn.__module__ == analysis.__name__}


def _cache_check_sets():
    from test_redei import _differential_sets
    for params in ((2, 1), (3, 1), (2, 2)):
        F = make_field(*params)
        yield from all_subsets(F, range(min(F.q * F.q, 6) + 1))
    for q in (5, 7, 8, 9):
        yield from _differential_sets(q)


def test_cached_verdicts_equal_fresh_ones(monkeypatch):
    # a cached helper returns the verdict of the first set with its key;
    # every later set with that key must get what the helper would build
    # for it afresh, bypassing the cache
    import dirsets.analysis as analysis

    caches = _verdict_caches()
    assert {"_inapplicable", "_trichotomy_verdict", "_prime_verdict",
            "_moduli_order_verdict", "_power_span_verdict"} <= set(caches)
    memos = {}
    checked = 0
    for U in _cache_check_sets():
        table = SlopeTable(U, memos.setdefault(U.field, {}))
        cached = [verify_statement(stmt, table).as_dict() for stmt in STATEMENTS]
        with monkeypatch.context() as m:
            for name, fn in caches.items():
                m.setattr(analysis, name, fn.__wrapped__)
            fresh = [verify_statement(stmt, table).as_dict() for stmt in STATEMENTS]
        assert cached == fresh, sorted(U.points)
        checked += 1
    # q = 2, 3, 4 up to six points, then 150 seeded sets per q
    assert checked == 16 + 466 + 14893 + 4 * 150


def test_verdict_caches_stay_small():
    # every key is a few small integers (q, |U|, |D|, moduli, counts) or
    # offending exponents below q; a key that grew with the sets would
    # hold thousands of entries after a sweep of 39203 sets
    from dirsets.search import SearchConfig, sweep

    caches = _verdict_caches()
    for fn in caches.values():
        fn.cache_clear()
    report = sweep(SearchConfig(q=4, n_max=8, statements=tuple(STATEMENTS)))
    assert report.sets_examined == 39203 and not report.failed
    sizes = {name: fn.cache_info().currsize for name, fn in caches.items()}
    assert max(sizes.values()) <= 32, sizes
    assert sizes["_prime_verdict"] == 0  # 4 is not prime
