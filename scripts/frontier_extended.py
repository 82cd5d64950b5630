#!/usr/bin/env python3
"""Extended colourability frontier: n = 13..17, resumable, not a test gate.

Expected outcome: every connected square-free graph with n <= 16 is
101-colourable, and exactly one graph on 17 vertices is not.  This script
cannot show it at desk scale.  On one core of a 2-vCPU Intel Xeon VM
(Python 3.11), ``enumerate_graphs(11)`` yields its 18,502 classes in about
3.1-3.4 s, about 5,400-6,000 classes/s (4.0-4.9 s before the child's
canonicity search dropped its per-candidate set-up); before the canonicity
test was pruned by automorphisms it took about 28 s, about 660 classes/s.  The classes grow
about 6x per level and the cost per class grows with n, so even at the
n = 11 rate the ~18 billion classes at n = 17 alone would take about 80
CPU-days: the full n = 17 level is out of reach.  The full n = 13 level
(932,260 classes, all 101-colourable) took 6.4 min with --workers 2, 11.2
CPU-minutes.

The job is ticket-partitioned and safe to kill and restart with the same
--out directory.  Example (one shard-sized slice):
    python scripts/frontier_extended.py --n 13 --out runs/frontier \\
        --max-tickets 4 --workers 4
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kssearch.pipeline import DEFAULT_TICKET_DEPTH, JobSpec, run_search


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=13, help="target size (13..17)")
    ap.add_argument("--out", required=True)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--tickets-depth", type=int, default=DEFAULT_TICKET_DEPTH)
    ap.add_argument("--max-tickets", type=int, default=None,
                    help="process only this many tickets, then stop (resumable)")
    args = ap.parse_args()

    spec = JobSpec(
        n_min=args.n,
        n_max=args.n,
        out_dir=args.out,
        ticket_depth=args.tickets_depth,
        workers=args.workers,
    )
    summary = run_search(spec, max_tickets=args.max_tickets)
    print(json.dumps(summary, indent=1))
    survivors = summary["uncolourable_survivors"]
    if summary["complete"]:
        print(f"complete: {len(survivors)} uncolourable graph(s) at n={args.n}")
        if args.n == 17:
            print("expected exactly one (the known 17-vertex graph)")
    else:
        print("partial run; rerun with the same --out to continue")
    return 0


if __name__ == "__main__":
    sys.exit(main())
