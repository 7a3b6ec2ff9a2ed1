"""Per-call cost of the engine's hot functions on seeded inputs.

Each case times one function over a list of inputs drawn from
random.Random(f"{seed}:{q}") at q = 5 and q = 8, repeats that several
times, and reports the median cost per call: `<module>.<fn>_ns.q<q>` for
field operations, `<module>.<fn>_us.q<q>` for the rest.
"""

from __future__ import annotations

import random
import statistics
import time

from dirsets.field import make_field, prime_power_parts
from dirsets.geometry import AffinePointSet, directions_of, is_maximal, line_profile
from dirsets.polys import p_divmod, p_mul, x_power_minus_x
from dirsets.redei import redei_system, specialized_tail
from dirsets.search import canonical_form

QS = (5, 8)
REPEATS = 5
STEMS = ("field.mul_ns", "field.add_ns", "polys.p_mul_us", "polys.p_divmod_us",
         "geometry.directions_of_us", "geometry.line_profile_us",
         "redei.specialized_tail_us", "redei.redei_system_us",
         "geometry.is_maximal_us", "search.canonical_form_us")
METRICS = [(f"{stem}.q{q}", stem.rsplit("_", 1)[1]) for q in QS for stem in STEMS]


def _loop_ns(fn, inputs) -> float:
    t0 = time.perf_counter_ns()
    for args in inputs:
        fn(*args)
    return (time.perf_counter_ns() - t0) / len(inputs)


def _pair_loop_ns(op, pairs) -> float:
    # field ops cost about as much as argument unpacking, so call them plainly
    t0 = time.perf_counter_ns()
    for a, b in pairs:
        op(a, b)
    return (time.perf_counter_ns() - t0) / len(pairs)


def _cases(q: int, rng: random.Random):
    """(metric stem, timer, fn, inputs, repeats, ns per unit)."""
    F = make_field(*prime_power_parts(q))

    def point_set(n):
        codes = rng.sample(range(q * q), n)
        return AffinePointSet.of(F, [divmod(c, q) for c in codes])

    def poly(deg, monic=False):
        lead = 1 if monic else rng.randrange(1, q)
        return tuple(rng.randrange(q) for _ in range(deg)) + (lead,)

    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(20000)]
    sets = [point_set(q) for _ in range(30)]
    # is_maximal returns at once when every direction is determined
    open_sets = []
    while len(open_sets) < 30:
        U = point_set(q // 2 + 1)
        if not directions_of(U).is_all:
            open_sets.append(U)
    slopes = [rng.randrange(q) for _ in sets]
    x_q = x_power_minus_x(F)
    us = 1000
    return [
        ("field.mul_ns", _pair_loop_ns, F.mul, pairs, REPEATS, 1),
        ("field.add_ns", _pair_loop_ns, F.add, pairs, REPEATS, 1),
        ("polys.p_mul_us", _loop_ns, lambda a, b: p_mul(F, a, b),
         [(poly(q - 1), poly(q - 1)) for _ in range(300)], REPEATS, us),
        ("polys.p_divmod_us", _loop_ns, lambda a, b: p_divmod(F, a, b),
         [(x_q, poly(rng.randint(2, q), monic=True)) for _ in range(300)],
         REPEATS, us),
        ("geometry.directions_of_us", _loop_ns, directions_of,
         [(U,) for U in sets], REPEATS, us),
        ("geometry.line_profile_us", _loop_ns, line_profile,
         list(zip(sets, slopes)), REPEATS, us),
        ("redei.specialized_tail_us", _loop_ns, specialized_tail,
         list(zip(sets, slopes)), REPEATS, us),
        ("redei.redei_system_us", _loop_ns, lambda U: redei_system(U, verify=False),
         [(U,) for U in sets[:5]], REPEATS, us),
        ("geometry.is_maximal_us", _loop_ns, is_maximal,
         [(U,) for U in open_sets], REPEATS, us),
        ("search.canonical_form_us", _loop_ns, canonical_form,
         [(sets[0],)], 3, us),
    ]


def run(seed: int) -> dict:
    out = {}
    for q in QS:
        rng = random.Random(f"{seed}:{q}")
        for stem, timer, fn, inputs, repeats, unit in _cases(q, rng):
            per_call = statistics.median(timer(fn, inputs) for _ in range(repeats))
            out[f"{stem}.q{q}"] = per_call / unit
    return out
