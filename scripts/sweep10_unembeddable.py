#!/usr/bin/env python3
"""Extended n=10 sweep: find the square-free graphs with no grid embedding.

Known result (not a test gate): among connected square-free graphs on 10
vertices exactly two isomorphism classes admit no embedding at all; this
sweep finds the classes with no grid embedding up to --grid-max and then
asks the interval solver to refute each.

Runtime grows quickly with --grid-max (exhausting a failed search means
trying every pin orbit); start with --grid-max 5.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kssearch.graphs import graph6_encode
from kssearch.orderly import enumerate_graphs
from kssearch.grids import get_grid, grid_embed
from kssearch.embedding import ProvedUnembeddable, decide_embeddability


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--grid-max", type=int, default=10)
    ap.add_argument("--budget", type=int, default=500_000,
                    help="interval contraction budget per candidate")
    args = ap.parse_args()

    grids = {gn: get_grid(gn) for gn in range(1, args.grid_max + 1)}
    candidates = []
    t0 = time.time()
    total = 0
    for g in enumerate_graphs(args.n):
        total += 1
        embedded = False
        for gn in range(1, args.grid_max + 1):
            if grid_embed(g, gn, sys=grids[gn]) is not None:
                embedded = True
                break
        if not embedded:
            candidates.append(g)
            print(f"no grid embedding up to N={args.grid_max}: {graph6_encode(g)}",
                  flush=True)
    print(f"swept {total} graphs in {time.time()-t0:.0f}s; "
          f"{len(candidates)} candidate(s) (expected 2 at n=10, grid-max 10)")

    for g in candidates:
        t1 = time.time()
        verdict = decide_embeddability(g, budget=args.budget, verify_refutations=True)
        tag = "REFUTED" if isinstance(verdict, ProvedUnembeddable) else verdict.kind
        print(f"{graph6_encode(g)}: {tag} "
              f"(steps={verdict.stats.contraction_steps}, {time.time()-t1:.0f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
