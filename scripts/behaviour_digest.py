#!/usr/bin/env python3
"""Digests of the search loop's observable output, for refactoring checks.

A change that claims to keep behaviour should print the same digests before
and after:

- the sha256 of the compacted catalog of JobSpec(1, 10);
- the count of ``enumerate_graphs(11)`` and the sha256 of its upper-triangle
  codes in DFS order, one per line;
- the sha256 of the interval verdicts (``verdict_to_json``, one line per
  graph) for every connected square-free graph with n <= 7 at budget 3,000;
- the verdict lines of the two n = 10 classes without a grid embedding,
  I{d@?gI@w at budget 10^6 and I{O_ogI@W at budget 1,000.

Runs in about two minutes on one core:

    python3 scripts/behaviour_digest.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kssearch.embedding import decide_embeddability, verdict_to_json
from kssearch.graphs import encode_upper_triangle, graph6_decode
from kssearch.orderly import enumerate_graphs
from kssearch.pipeline import JobSpec, run_search

N10_INPUTS = (("I{d@?gI@w", 10**6), ("I{O_ogI@W", 1_000))


def _verdict_line(g, budget: int) -> str:
    return verdict_to_json(decide_embeddability(g, budget=budget), budget=budget)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        run_search(JobSpec(n_min=1, n_max=10, out_dir=tmp))
        catalog = (Path(tmp) / "catalog.jsonl").read_bytes()
    codes = [encode_upper_triangle(g) for g in enumerate_graphs(11)]
    small = [_verdict_line(g, 3_000) for n in range(1, 8) for g in enumerate_graphs(n)]
    out = {
        "catalog_1_10_sha256": hashlib.sha256(catalog).hexdigest(),
        "enumerate_11": len(codes),
        "enumerate_11_sha256": hashlib.sha256("\n".join(codes).encode()).hexdigest(),
        "verdicts_n_le_7": len(small),
        "verdicts_n_le_7_sha256": hashlib.sha256("\n".join(small).encode()).hexdigest(),
    }
    for g6, budget in N10_INPUTS:
        out[g6] = json.loads(_verdict_line(graph6_decode(g6), budget))
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
