#!/usr/bin/env python3
"""Digests of the search loop's observable output, for refactoring checks.

A change that claims to keep behaviour should print the same digests before
and after:

- the sha256 of the compacted catalog of JobSpec(1, 10), and
  ``summary_1_10_sha256``, the sha256 of that run's ``summary.json`` bytes;
- the count of ``enumerate_graphs(11)`` and the sha256 of its upper-triangle
  codes in DFS order, one per line;
- the sha256 of the interval verdicts (``verdict_to_json``, one line per
  graph) for every connected square-free graph with n <= 7 at budget 3,000,
  and ``verdict_kinds_n_le_7``, the count of each verdict kind among them,
  so that a change of kind shows without diffing hashes;
- the verdict lines of the two n = 10 classes without a grid embedding,
  I{d@?gI@w at budget 10^6 and I{O_ogI@W at budget 1,000;
- the sha256 of the residual boxes of each of those verdicts that is
  inconclusive (I{O_ogI@W), in verdict order, one line per box with every
  endpoint as ``float.hex``: this pins the frontier's pop and drain order;
- the sha256 of ``contract_explain`` on a fixed, seeded set of sub-boxes:
  random paths of bisections and sweeps from the initial box of every
  graph with n <= 6, C4 and the two n = 10 classes, at delta 1e-4 and 0.3,
  one line per sweep with every endpoint as ``float.hex`` (the refutation's
  kind, detail and snapshot when the sweep refutes);
- the sha256 of the Krawczyk certificates (outer box, refined box, slices
  and iterations) behind every ProvedEmbeddable verdict with n <= 7;
- the sha256 of ``canonical_code`` of the greedy critical subsystem of the
  N = 2 grid for scan seeds None and 0..5 (31 to 41 vertices), one code per
  line: this pins ``canonical_label``;
- ``grid_sha256``: the sha256 of the ``grid_embed`` mappings of every graph
  with n <= 7 at N = 1..5, then, for the same scan seeds, the greedy critical
  subsystem's grid indices and its ``grid_embed`` mappings at N = 2, 4, 6, 8,
  one line each: this pins the embedding search and ``minimize_uncolourable``.

Runs in about 15 s on one core (the placement search that the cell
search in ``canonical_label`` replaced needed about 60 s more, mostly for
the 41- and 39-vertex subsystems of seeds 3 and 5):

    python3 scripts/behaviour_digest.py
"""

import hashlib
import json
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kssearch.constraints import build_constraint_system, contract_explain
from kssearch.embedding import Inconclusive, decide_embeddability, verdict_to_json
from kssearch.graphs import Graph, encode_upper_triangle, graph6_decode
from kssearch.grids import get_grid, grid_embed, minimize_uncolourable
from kssearch.intervals import WidthUnderflow, bisect
from kssearch.orderly import canonical_code, enumerate_graphs
from kssearch.pipeline import JobSpec, run_search

N10_INPUTS = (("I{d@?gI@w", 10**6), ("I{O_ogI@W", 1_000))
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
PATHS_PER_SYSTEM = 12
PATH_STEPS = 30
N2_SCANS = (None, 0, 1, 2, 3, 4, 5)


def _box_hex(box) -> str:
    return " ".join(f"{lo.hex()},{hi.hex()}" for lo, hi in zip(box.lo, box.hi))


def _sweep_lines() -> list[str]:
    """One line per contract_explain call along seeded bisect/sweep paths."""
    rng = random.Random(20261018)
    graphs = [C4] + [g for n in range(2, 7) for g in enumerate_graphs(n)]
    graphs += [graph6_decode(g6) for g6, _ in N10_INPUTS]
    lines = []
    for g in graphs:
        for delta in (1e-4, 0.3):
            cs = build_constraint_system(g, delta)
            for _ in range(PATHS_PER_SYSTEM):
                box = cs.initial_box()
                for _ in range(PATH_STEPS):
                    step = rng.choice("lrc")
                    if step != "c":
                        try:
                            box = bisect(box)[step == "r"]
                        except WidthUnderflow:
                            break
                        continue
                    out, ref = contract_explain(box, cs)
                    if out is None:
                        lines.append(f"{ref.kind} {ref.detail} {_box_hex(ref.snapshot)}")
                        break
                    lines.append(_box_hex(out))
                    box = out
    return lines


def _certificate_lines(verdicts) -> list[str]:
    lines = []
    for v in verdicts:
        cert = getattr(v, "certificate", None)
        if cert is None or not len(cert.box):
            continue  # no edges, or nothing left free after pinning
        slices = " ".join(f"{c}:{val.hex()}" for c, val in cert.slices)
        lines.append(f"{_box_hex(cert.box)} | {_box_hex(cert.refined)} | {slices} | {cert.iterations}")
    return lines


def _n2_scan_subsystems() -> list:
    """The N = 2 grid's greedy minimisation per scan seed, each scan order
    shuffled as enumerate_grid_subsystems shuffles it."""
    grid = get_grid(2)
    subs = []
    for seed in N2_SCANS:
        order = list(range(len(grid.directions)))
        if seed is not None:
            random.Random(seed).shuffle(order)
        subs.append(minimize_uncolourable(grid, order))
    return subs


def _embedding_line(g: Graph, n: int) -> str:
    emb = grid_embed(g, n)
    return f"{n} {None if emb is None else emb.mapping}"


def _grid_lines(subs) -> list[str]:
    lines = [_embedding_line(g, n) for k in range(1, 8) for g in enumerate_graphs(k) for n in range(1, 6)]
    for sub in subs:
        lines.append(" ".join(map(str, sub.indices)))
        lines += [_embedding_line(sub.graph, n) for n in (2, 4, 6, 8)]
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        run_search(JobSpec(n_min=1, n_max=10, out_dir=tmp))
        catalog = (Path(tmp) / "catalog.jsonl").read_bytes()
        summary = (Path(tmp) / "summary.json").read_bytes()
    codes = [encode_upper_triangle(g) for g in enumerate_graphs(11)]
    verdicts = [decide_embeddability(g, budget=3_000) for n in range(1, 8) for g in enumerate_graphs(n)]
    small = [verdict_to_json(v, budget=3_000) for v in verdicts]
    sweeps = _sweep_lines()
    certificates = _certificate_lines(verdicts)
    n2_subs = _n2_scan_subsystems()
    n2_codes = [canonical_code(sub.graph) for sub in n2_subs]
    grid_lines = _grid_lines(n2_subs)
    out = {
        "catalog_1_10_sha256": hashlib.sha256(catalog).hexdigest(),
        "summary_1_10_sha256": hashlib.sha256(summary).hexdigest(),
        "enumerate_11": len(codes),
        "enumerate_11_sha256": hashlib.sha256("\n".join(codes).encode()).hexdigest(),
        "verdicts_n_le_7": len(small),
        "verdicts_n_le_7_sha256": hashlib.sha256("\n".join(small).encode()).hexdigest(),
        "verdict_kinds_n_le_7": Counter(v.kind for v in verdicts),
        "contract_explain_sweeps": len(sweeps),
        "contract_explain_sha256": hashlib.sha256("\n".join(sweeps).encode()).hexdigest(),
        "certificates_n_le_7": len(certificates),
        "certificates_n_le_7_sha256": hashlib.sha256("\n".join(certificates).encode()).hexdigest(),
        "canonical_codes_n2_scans": hashlib.sha256("\n".join(n2_codes).encode()).hexdigest(),
        "grid_sha256": hashlib.sha256("\n".join(grid_lines).encode()).hexdigest(),
    }
    for g6, budget in N10_INPUTS:
        v = decide_embeddability(graph6_decode(g6), budget=budget)
        out[g6] = json.loads(verdict_to_json(v, budget=budget))
        if isinstance(v, Inconclusive):
            residual = "\n".join(_box_hex(b) for b in v.residual_boxes)
            out[f"{g6}_residual_boxes_sha256"] = hashlib.sha256(residual.encode()).hexdigest()
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
