"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Desk-scale prefixes of the full results; the extended non-gating jobs
(the n = 13..17 frontier as ``kssearch pipeline`` jobs, the n = 10
unembeddable sweep in scripts/) are described in README.
"""

import math
import random
import time

import pytest

from kssearch import embedding
from kssearch.constraints import build_constraint_system
from kssearch.graphs import Graph, encode_upper_triangle, graph6_decode
from kssearch.orderly import enumerate_graphs
from kssearch.colouring import is_k_colourable, solve_101
from kssearch.grids import (
    get_grid,
    grid_embed,
    minimize_uncolourable,
    validate_grid_embedding,
)
from kssearch.embedding import (
    ProvedEmbeddable,
    ProvedUnembeddable,
    decide_embeddability,
    verdict_to_json,
)
from kssearch.pipeline import run_search, JobSpec
from kssearch.verify import verify_known


def report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num:>2} [{status}] {name}" + (f" - {detail}" if detail else ""))
    assert passed, f"criterion {num}: {name} {detail}"


def _holds(box, pt) -> bool:
    return all(a <= v <= b for a, b, v in zip(box.lo, box.hi, pt))


@pytest.fixture(scope="module")
def ck31():
    """The 31-vertex critical subsystem of the N=2 grid (identity scan)."""
    return minimize_uncolourable(get_grid(2), list(range(49)))


@pytest.fixture(scope="module")
def small_graphs():
    return {n: list(enumerate_graphs(n)) for n in range(1, 8)}


def test_criterion_01_enumeration_oracle_equivalence():
    t0 = time.perf_counter()
    rep = verify_known("counts-vs-oracle")
    elapsed = time.perf_counter() - t0
    counts = {k: (v["oracle"], v["enumerated"]) for k, v in rep["details"].items()}
    ok = rep["passed"] and elapsed < 60.0
    report(1, "enumeration-oracle equivalence n=1..7", ok, f"counts={counts} {elapsed:.1f}s")


def test_criterion_02_colourability_frontier():
    t0 = time.perf_counter()
    uncolourable = []
    total = 0
    times_n12 = []
    for g in enumerate_graphs(12, n_min=1):
        total += 1
        t1 = time.perf_counter()
        w = solve_101(g)
        if g.n == 12:
            times_n12.append(time.perf_counter() - t1)
        if w is None:
            uncolourable.append(encode_upper_triangle(g))
    elapsed = time.perf_counter() - t0
    times_n12.sort()
    median_ms = times_n12[len(times_n12) // 2] * 1e3 if times_n12 else 0.0
    ok = not uncolourable and elapsed < 7200.0 and median_ms < 1.0
    report(
        2,
        "every connected square-free graph with n<=12 is 101-colourable",
        ok,
        f"graphs={total} exceptions={len(uncolourable)} "
        f"median_n12={median_ms:.3f}ms total={elapsed:.0f}s",
    )


def test_criterion_03_grid_counting():
    rep = verify_known("grid-counts")
    report(3, "grid direction counts (formula N<=12, brute N<=4)", rep["passed"])


def test_criterion_04_odd_grid_threshold(tmp_path):
    t0 = time.perf_counter()
    rep = verify_known("odd-grid-colourability", str(tmp_path))
    elapsed = time.perf_counter() - t0
    ok = rep["passed"] and elapsed < 1800.0
    report(4, "odd grids N=1..13 colourable, N=15 not", ok, f"{elapsed:.0f}s")


def test_criterion_05_n2_critical_subsystem():
    t0 = time.perf_counter()
    rep = verify_known("n2-critical-31")
    d = rep["details"]
    embed_ms = d.get("embed_n2_seconds", math.nan) * 1e3
    report(
        5,
        "N=2 grid uncolourable; 5 scan orders critical >=31; one 31-label; re-embeds",
        rep["passed"],
        f"sizes={d['critical_sizes']} labels={d['distinct_31_labels']} "
        f"embed={embed_ms:.0f}ms total={time.perf_counter()-t0:.0f}s",
    )


def test_criterion_06_grid_timing_envelope(ck31):
    g8 = get_grid(8)
    t0 = time.perf_counter()
    emb = grid_embed(ck31.graph, 8, sys=g8)
    t8 = time.perf_counter() - t0
    ok = emb is not None and validate_grid_embedding(ck31.graph, emb) and t8 < 25.0
    g12 = get_grid(12)
    t0 = time.perf_counter()
    emb12 = grid_embed(ck31.graph, 12, sys=g12)
    t12 = time.perf_counter() - t0
    detail = f"N=8 {t8:.2f}s (limit 25s); N=12 {t12:.2f}s informational, found={emb12 is not None}"
    report(6, "31-vertex graph embeds on the N=8 grid inside the envelope", ok, detail)


def test_criterion_07_interval_refutation():
    C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    t0 = time.perf_counter()
    v_c4 = decide_embeddability(C4, budget=10**6)
    t_c4 = time.perf_counter() - t0
    t0 = time.perf_counter()
    v_k3 = decide_embeddability(K3, budget=10**6)
    t_k3 = time.perf_counter() - t0
    ok = isinstance(v_c4, ProvedUnembeddable) and v_c4.stats.contraction_steps <= 10**6
    ok &= isinstance(v_k3, ProvedEmbeddable)
    ok &= t_c4 < 10.0 and t_k3 < 10.0
    report(
        7,
        "C4 refuted within 1e6 contraction steps; K3 certified",
        ok,
        f"C4 {v_c4.stats.contraction_steps} steps {t_c4:.2f}s; K3 {t_k3:.2f}s",
    )


def test_criterion_08_small_graph_embeddability(small_graphs):
    t0 = time.perf_counter()
    ok = True
    failures = []
    embedded = []
    for n in range(1, 8):
        for g in small_graphs[n]:
            found = None
            for gn in (1, 2, 3, 4, 5):
                emb = grid_embed(g, gn, sys=get_grid(gn))
                if emb is not None:
                    found = gn
                    embedded.append((g, emb))
                    break
            if found is None:
                failures.append(("no-grid", encode_upper_triangle(g)))
                ok = False
            verdict = decide_embeddability(g, budget=3000)
            if isinstance(verdict, ProvedUnembeddable):
                failures.append(("refuted", encode_upper_triangle(g)))
                ok = False
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 3600.0
    # Prop 1 check rides on the same embeddings (criterion 9 cross-reference)
    for g, _ in embedded:
        ok &= is_k_colourable(g, 4)[0]
    report(
        8,
        "all connected square-free n<=7 grid-embed (N<=5) and are never refuted",
        ok,
        f"graphs={sum(len(v) for v in small_graphs.values())} failures={failures[:3]} {elapsed:.0f}s",
    )


def test_criterion_09_property_suites(monkeypatch):
    # canonicity prefix-closedness and connected-prefix pruning, n <= 8
    prefixes = verify_known("prop5-prefixes")
    ok = prefixes["passed"]
    checked = prefixes["details"]["prefixes_checked"]
    # 3-colourable => 101-colourable on 10^4 random graphs
    rng = random.Random(2026)
    implication_checked = 0
    for _ in range(10_000):
        n = rng.randint(2, 10)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35
        ]
        g = Graph.from_edges(n, edges)
        ok3, _ = is_k_colourable(g, 3)
        if ok3:
            implication_checked += 1
            if solve_101(g) is None:
                ok = False
    # interval enclosure: sampled true values lie inside interval evaluations
    from kssearch.intervals import mul

    enc_trials = 0
    rng2 = random.Random(7)
    while enc_trials < 100_000:
        nvars = rng2.randint(1, 3)
        coeff = rng2.randint(-4, 4)
        exps = [rng2.randint(0, 2) for _ in range(nvars)]
        if sum(exps) > 4:
            continue
        lows = [rng2.uniform(-2, 2) for _ in range(nvars)]
        his = [lo + rng2.uniform(0, 2) for lo in lows]
        pts = [rng2.uniform(lo, hi) for lo, hi in zip(lows, his)]
        true_val = coeff
        enc = (float(coeff), float(coeff))
        for lo, hi, p, e in zip(lows, his, pts, exps):
            true_val *= p**e
            for _ in range(e):
                enc = mul(*enc, lo, hi)
        if not (enc[0] <= true_val <= enc[1]):
            ok = False
        enc_trials += 1
    # planted-point cover conservation: no sweep whose box holds the star
    # K_{1,5}'s unit-scaled N = 2 grid embedding refutes the box or drops it
    star = graph6_decode("Esa?")
    cs = build_constraint_system(star, 1e-4)
    mapping = grid_embed(star, 2).mapping
    ok &= all(mapping[v] == tuple(2 * c for c in axis) for v, axis in cs.pinned)
    planted = [c / math.hypot(*mapping[v]) for v in cs.free for c in mapping[v]]
    sweep = embedding.contract_explain
    refuted, held, violations = [], [], []

    def checked_sweep(box, system):
        out, refutation = sweep(box, system)
        if out is None:
            refuted.append(box)
        if _holds(box, planted):
            held.append(box)
            if out is None or not _holds(out, planted):
                violations.append(box)
        return out, refutation

    monkeypatch.setattr(embedding, "contract_explain", checked_sweep)
    decide_embeddability(star, budget=3_000, delta=1e-4)
    ok &= refuted != [] and held != [] and violations == []
    report(
        9,
        "property suites (prefixes, 3col=>101col, Prop 1, enclosure, planted cover)",
        ok,
        f"prefixes={checked} implications={implication_checked} enclosures={enc_trials} "
        f"refuted={len(refuted)} planted_sweeps={len(held)} violations={len(violations)}",
    )


def test_criterion_10_determinism(tmp_path, ck31):
    ok = True
    # catalog determinism over the criterion-2 machinery at desk scale
    for run in ("a", "b"):
        spec = JobSpec(n_min=1, n_max=9, out_dir=str(tmp_path / run), ticket_depth=5)
        run_search(spec)
    c1 = (tmp_path / "a" / "catalog.jsonl").read_bytes()
    c2 = (tmp_path / "b" / "catalog.jsonl").read_bytes()
    ok &= c1 == c2
    # verdict determinism (criterion 7 rerun)
    C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    j1 = verdict_to_json(decide_embeddability(C4, budget=10**5))
    j2 = verdict_to_json(decide_embeddability(C4, budget=10**5))
    ok &= j1 == j2
    # critical-subsystem determinism (criterion 5 rerun)
    again = minimize_uncolourable(get_grid(2), list(range(49)))
    ok &= again.indices == ck31.indices
    # odd-grid witness determinism (criterion 4 rerun)
    w1 = solve_101(get_grid(9).graph)
    w2 = solve_101(get_grid(9).graph)
    ok &= w1 == w2
    report(10, "reruns are byte-identical after compaction", ok)
