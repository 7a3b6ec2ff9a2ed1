#!/usr/bin/env python3
"""Incidence-congruence sweep over subfield-linear sets.

Enumerates every subfield subspace of GF(q)^2 of the given ranks and
checks that all q^2+q+1 projective lines meet the set plus its
directions in 0 or 1 mod s points, with the size and direction-count
congruences (all three are `LineCongruence.passed`).

    python scripts/congruence_sweep.py --q 16 --s 2 --max-rank 3
"""

import argparse
import json
import sys

from dirsets.field import make_field, prime_power_parts
from dirsets.geometry import check_line_congruence
from dirsets.linsets import plane_set, subfield_subspaces


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, required=True)
    ap.add_argument("--s", type=int, required=True)
    ap.add_argument("--max-rank", type=int, default=3)
    args = ap.parse_args()
    F = make_field(*prime_power_parts(args.q))
    checked = failures = 0
    for rank, span in subfield_subspaces(F, args.s, range(1, args.max_rank + 1)):
        U = plane_set(F, span)
        checked += 1
        if not check_line_congruence(U, modulus=args.s).passed:
            failures += 1
            print(f"FAILURE rank {rank}: {sorted(span)}", file=sys.stderr)
    json.dump({"q": args.q, "s": args.s, "max_rank": args.max_rank,
               "sets_checked": checked, "failures": failures},
              sys.stdout, indent=1, sort_keys=True)
    print()
    return 2 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
