"""Acceptance suite: one test per criterion, each prints a PASS line.

Heavy sweeps are shared through module-scoped fixtures; every tolerance
and tally threshold is pinned here, not configured elsewhere.
"""

import json
import os
import random
import time

import pytest

from dirsets.field import make_field
from dirsets.geometry import (AffinePointSet, check_line_congruence,
                              directions_of, geometric_invariants)
from dirsets import polys as P
from dirsets.redei import (BivariatePoly, SlopeTable, algebraic_invariants,
                           redei_system)
from dirsets.linsets import (ProjectiveLinearSpec, direction_code_of_projective,
                             plane_set, project_subgeometry,
                             realize_direction_set, subfield_subspaces)
from dirsets.analysis import (build_extension_instance, quotient_extension,
                              section5_reports)
from dirsets.search import SearchConfig, sweep
from dirsets.cli import main as cli_main
from conftest import random_point_set


def ok(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3),
          9: (3, 2)}


@pytest.fixture(scope="module")
def sweep_q3():
    cfg = SearchConfig(q=3, n_min=0, n_max=9,
                       statements=("thm-m", "tail-degree-bound", "root-power-bound", "moduli-order"))
    return sweep(cfg)


@pytest.fixture(scope="module")
def sweep_q4():
    cfg = SearchConfig(q=4, n_min=0, n_max=8,
                       statements=("thm-m", "tail-degree-bound", "root-power-bound", "moduli-order"))
    return sweep(cfg)


@pytest.fixture(scope="module")
def sweep_p3():
    cfg = SearchConfig(q=3, n_min=2, n_max=3,
                       statements=("prime-dichotomy", "moduli-order"))
    return sweep(cfg)


@pytest.fixture(scope="module")
def sweep_p5():
    cfg = SearchConfig(q=5, n_min=0, n_max=5,
                       statements=("prime-dichotomy", "moduli-order"))
    return sweep(cfg)


def test_criterion_1_field_and_division_core():
    start = time.monotonic()
    for q, params in FIELDS.items():
        F = make_field(*params)
        for a in range(q):
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
            for b in range(q):
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
                for c in range(q):
                    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b),
                                                          F.mul(a, c))
    identity_checked = 0
    for q, params in FIELDS.items():
        F = make_field(*params)
        rng = random.Random(q * 7919)
        minus_x = P.p_trim((0, F.neg(1)))
        for _ in range(1000):
            n = rng.randint(1, q)
            U = random_point_set(F, rng, n)
            sys_ = redei_system(U, verify=True)
            # independent route: multiply the division outputs back together
            product = sys_.redei.mul(sys_.quotient)
            rhs = [sys_.tail.coefficient(i) for i in range(q + 1)]
            rhs[q] = P.p_add(F, rhs[q], (1,))
            assert product == BivariatePoly.of(F, rhs)
            if n >= 2:
                assert sys_.deg_x_tail() < n
                for j in range(1, q - n + 1):
                    assert sys_.tail_coeff(j) == ()
            else:
                # documented singleton exception: the bivariate tail carries
                # a multiple of Y^q - Y, every field specialization is -X
                assert sys_.deg_x_tail() <= 1
                assert all(sys_.tail.specialize(y) == minus_x
                           for y in range(q))
            identity_checked += 1
    elapsed = time.monotonic() - start
    assert identity_checked == 7000
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    ok(1, f"field axioms exhaustive for q in {sorted(FIELDS)}; division "
          f"identity on 7000 random sets; {elapsed:.1f}s < 60s")


def test_criterion_2_golden_fixture(unit_square):
    dirs = directions_of(unit_square)
    assert dirs.determined == frozenset({0, 1, 4})
    assert dirs.tokens() == ("0", "1", "inf")
    assert geometric_invariants(unit_square).modulus == 2
    sys_ = redei_system(unit_square)
    # hand expansion: T = (Y^2+Y+1) X^2 + (Y^2+Y) X
    assert sys_.tail.coeffs == ((), (0, 1, 1), (1, 1, 1))
    table = SlopeTable(unit_square)
    assert algebraic_invariants(table).modulus == 2 and table.deg_x_tail == 2
    from dirsets.analysis import classify_direction_trichotomy
    verdict = classify_direction_trichotomy(unit_square)
    assert verdict.case == 2 and verdict.holds
    lower = next(c for c in verdict.checks if c.label == "lower bound")
    upper = next(c for c in verdict.checks if c.label == "upper bound")
    assert lower.lhs == 3 and len(dirs) == 3 and upper.rhs == 3
    ok(2, "golden fixture: D = {0,1,inf}, s = t = 2, tail = (Y^2+Y+1)X^2 + "
          "(Y^2+Y)X, bounds tight at 3 <= 3 <= 3")


def test_criterion_3_trichotomy_sweeps(sweep_q3, sweep_q4):
    start = time.monotonic()
    assert sweep_q3.sets_examined == 512
    assert sweep_q4.sets_examined == 39203
    for report in (sweep_q3, sweep_q4):
        assert not report.failed
        for stmt in ("thm-m", "tail-degree-bound", "root-power-bound"):
            assert report.tallies[stmt]["fail"] == 0
    assert sweep_q3.tallies["thm-m"]["pass"] > 0
    assert sweep_q4.tallies["root-power-bound"]["pass"] > 0
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    ok(3, f"trichotomy + tail lemmas: q=3 all 512 subsets and q=4 all "
          f"{sweep_q4.sets_examined} subsets of size <= 8, zero failures")


def test_criterion_4_prime_dichotomy_sweeps(sweep_p3, sweep_p5):
    assert sweep_p3.sets_examined == 120      # sizes 2..3 of 9 points
    assert sweep_p5.sets_examined == 68406    # sizes 0..5 of 25 points
    for report in (sweep_p3, sweep_p5):
        assert report.tallies["prime-dichotomy"]["fail"] == 0
        assert report.tallies["prime-dichotomy"]["pass"] > 0
    sharp5 = {e["n"] for e in sweep_p5.extras.get("sharp_sets", ())}
    assert {3, 5} <= sharp5                   # |D| = (|U|+3)/2 attained
    sharp3 = {e["n"] for e in sweep_p3.extras.get("sharp_sets", ())}
    assert 3 in sharp3
    ok(4, "prime dichotomy: exhaustive p=3 and p=5 (68406 sets), zero "
          "failures; sharp direction counts attained for every odd size")


def test_criterion_5_linear_congruence_sweep():
    cells = ((4, 2), (8, 2), (9, 3), (16, 2), (16, 4))
    counted = {}
    for q, s in cells:
        F = make_field(*{4: (2, 2), 8: (2, 3), 9: (3, 2), 16: (2, 4)}[q])
        n_sets = 0
        for rank, span in subfield_subspaces(F, s, (1, 2, 3)):
            U = plane_set(F, span)
            rep = check_line_congruence(U, modulus=s)
            assert rep.lines_checked == q * q + q + 1
            assert rep.passed, (q, s, sorted(span))
            assert len(U) % s == 0
            assert len(directions_of(U)) % s == 1
            n_sets += 1
        counted[(q, s)] = n_sets
    assert counted[(4, 2)] == 65
    assert counted[(9, 3)] == 210
    assert counted[(16, 2)] == 108205
    total = sum(counted.values())
    ok(5, f"incidence congruence: all projective lines meet U u D in 0 or "
          f"1 mod s points over {total} subfield-linear sets, zero failures")


def _random_projection(F, s, d, rng):
    while True:
        matrix = tuple(tuple(rng.randrange(F.q) for _ in range(d + 1))
                       for _ in range(2))
        spec = ProjectiveLinearSpec(F, s, matrix)
        try:
            image = project_subgeometry(spec)
        except ValueError:
            continue
        return spec, image


def test_criterion_6_realization_round_trip():
    cases = (((2, 2), 2, (1, 2)), ((3, 2), 3, (1, 2)), ((2, 4), 2, (1, 2, 3)))
    for params, s, dims in cases:
        F = make_field(*params)
        rng = random.Random(1000 * F.q + s)
        for i in range(100):
            d = dims[i % len(dims)]
            spec, image = _random_projection(F, s, d, rng)
            assert image.total_weight == (s ** (d + 1) - 1) // (s - 1)
            U = plane_set(F, realize_direction_set(spec))
            assert len(U) == s ** (d + 1)
            support = sorted(direction_code_of_projective(F, p)
                             for p in image.support())
            assert sorted(directions_of(U).determined) == support
    ok(6, "realization round trip: directions of the realized set equal the "
          "projected support on 300 seeded projections; weights conserved")


def test_criterion_7_quotient_extension():
    cases = (((2, 2), 2), ((2, 3), 2), ((3, 2), 3), ((2, 4), 2))
    total = 0
    for params, s in cases:
        F = make_field(*params)
        rng = random.Random(F.q * 31 + s)
        for _ in range(1000):
            g, f = build_extension_instance(F, s, rng)
            out = quotient_extension(F, g, s, f=f)
            assert out.applicable and out.passed, (params, s, g, f)
            total += 1
    assert total == 4000
    ok(7, "power-basis extension: quotient and remainder stay in the X^s "
          "basis on 4000 seeded instances, zero failures")


def test_criterion_8_moduli_order(sweep_q3, sweep_q4, sweep_p3, sweep_p5):
    for report in (sweep_q3, sweep_q4, sweep_p3, sweep_p5):
        assert report.tallies["moduli-order"]["fail"] == 0
        assert report.tallies["moduli-order"]["pass"] > 0
    # the separating family: a rank-2 prime-subfield span minus one point
    for p in (2, 3):
        F = make_field(p, 2)
        span = [(a, b) for a in range(p) for b in range(p)]
        U = AffinePointSet.of(F, span[:-1])
        assert geometric_invariants(U).modulus == 1
        assert algebraic_invariants(U).modulus == p
    ok(8, "geometric modulus <= algebraic modulus on every swept set; "
          "witness family with moduli (1, p) reproduced for p in {2, 3}")


def test_criterion_9_worked_examples():
    reports = section5_reports()
    for q, rep in reports["nonlinear_maximal"].items():
        assert rep["maximal_in_big_plane"], q
        assert not rep["linear_for_some_subfield"], q
        assert rep["direction_count_big"] == rep["direction_count_small"]
        assert 2 * rep["direction_count_small"] >= q + 3
    nm = reports["nonmaximal_linear"]
    assert nm["linear_set_is_subfield_linear"]
    assert nm["same_directions"] and not nm["linear_set_maximal"]
    assert nm["minimal_subset_same_directions"]
    ok(9, "worked examples: embedded q-point set stays maximal and "
          "non-linear; subfield-linear subset of a subgeometry repeats its "
          "directions and is not maximal")


def test_criterion_10_conjecture_harness(tmp_path, capsys):
    runs = (
        ["hunt", "--conjecture", "conj-moduli-match", "--q", "4",
         "--n-min", "2", "--n-max", "4"],
        ["hunt", "--conjecture", "conj-maximal-linear", "--q", "4",
         "--n-min", "2", "--n-max", "4"],
        ["hunt", "--conjecture", "conj-moduli-match", "--q", "8", "--mode", "random",
         "--seed", "42", "--budget", "600", "--n-min", "2", "--n-max", "8"],
        ["hunt", "--conjecture", "conj-maximal-linear", "--q", "9", "--mode", "random",
         "--seed", "43", "--budget", "500", "--n-min", "2", "--n-max", "9"],
    )
    examined = []
    for i, argv in enumerate(runs):
        replay_dir = tmp_path / f"replays_{i}"
        rc = cli_main(argv + ["--replay-dir", str(replay_dir),
                              "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        report = doc["result"]
        examined.append(report["sets_examined"])
        counterexamples = report["counterexamples"]
        replays = sorted(os.listdir(replay_dir)) if replay_dir.exists() else []
        # harness integrity: exit 0 with no replay, exit 2 with replays
        if counterexamples:
            assert rc == 2 and replays
        else:
            assert rc == 0 and not replays
        conj = argv[2]
        tallies = report["tallies"][conj]
        assert tallies["pass"] + tallies["fail"] + tallies["inapplicable"] \
            == report["sets_examined"]
    assert examined[0] == examined[1] == 2500
    assert examined[2] == 600 and examined[3] == 500
    ok(10, "conjecture harness: exhaustive q=4 hunts and seeded q=8/q=9 "
           "hunts completed with consistent exit codes and replay files")
