"""Named verification bundles: the paper's reproducible checks, one source each.

Each bundle takes the directory for witness artifacts (only the odd-grid
bundle writes any) and returns ``{passed, details}``.  The CLI's
``verify-known`` command and the acceptance suite both run them through
:func:`verify_known`, which adds the bundle's name.
"""

from __future__ import annotations

import json
import os
import time

from .colouring import solve_101, validate_101
from .graphs import Graph, encode_upper_triangle, is_connected
from .grids import (
    _sym_images,
    direction_count,
    generate_grid,
    get_grid,
    grid_embed,
    minimize_uncolourable,
    validate_grid_embedding,
)
from .orderly import (
    ORACLE_MAX_N,
    brute_force_classes,
    canonical_code,
    enumerate_graphs,
    is_canonical,
)

PREFIX_MAX_N = 8


def verify_known(name: str, out_dir: str | None = None) -> dict:
    """Run one acceptance bundle; returns {name, passed, details}."""
    if name not in _BUNDLES:
        raise ValueError(f"unknown bundle {name!r}; choose from {KNOWN_BUNDLES}")
    return {"name": name, **_BUNDLES[name](out_dir)}


def _verify_grid_counts(out_dir: str | None) -> dict:
    """Brute-force surface direction counts against the formula, N = 1..12."""
    details = {}
    passed = True
    for n in range(1, 13):
        got = len(generate_grid(n).directions)
        want = direction_count(n)
        details[f"N={n}"] = {"directions": got, "formula": want}
        passed &= got == want
    for n, want in ((1, 13), (2, 49), (4, 193)):
        passed &= details[f"N={n}"]["directions"] == want
    return {"passed": passed, "details": details}


def _verify_odd_grids(out_dir: str | None) -> dict:
    details = {}
    passed = True
    for n in (1, 3, 5, 7, 9, 11, 13):
        sys_ = get_grid(n)
        witness = solve_101(sys_.graph)
        ok = witness is not None and validate_101(sys_.graph, witness)
        details[f"N={n}"] = {"colourable": witness is not None, "witness_valid": ok}
        passed &= ok
        if ok and out_dir:
            path = os.path.join(out_dir, f"odd_grid_{n}_witness.json")
            with open(path, "w") as fh:
                json.dump({str(i): v for i, v in enumerate(witness)}, fh)
    w15 = solve_101(get_grid(15).graph)
    details["N=15"] = {"colourable": w15 is not None}
    passed &= w15 is None
    return {"passed": passed, "details": details}


def _verify_n2_critical(out_dir: str | None) -> dict:
    """Greedy minimisation of the N=2 grid from five scan orders: every
    critical subsystem has at least 31 vertices, the 31-vertex ones share one
    canonical label, and that graph re-embeds on N=2 within a second."""
    sys2 = get_grid(2)
    nd = len(sys2.directions)
    uncolourable = solve_101(sys2.graph) is None
    orders = [list(range(nd)), list(range(nd))[::-1]]
    # two symmetry images of the identity scan (guaranteed to mirror its path)
    for pick in (8, 16):
        image = [_sym_images(d)[pick] for d in sys2.directions]
        orders.append([sys2.directions.index(v) for v in image])
    orders.append(sorted(range(nd), key=lambda v: (abs(v - nd // 2), v)))

    sizes = []
    labels = set()
    sub31 = None
    for order in orders:
        sub = minimize_uncolourable(sys2, order)
        sizes.append(len(sub.indices))
        if len(sub.indices) == 31:
            labels.add(canonical_code(sub.graph))
            sub31 = sub
    details = {
        "grid_uncolourable": uncolourable,
        "critical_sizes": sizes,
        "distinct_31_labels": len(labels),
    }
    passed = uncolourable and all(s >= 31 for s in sizes) and len(labels) == 1
    if sub31 is None:
        return {"passed": False, "details": details}
    t0 = time.perf_counter()
    emb = grid_embed(sub31.graph, 2, sys=sys2)
    embed_seconds = time.perf_counter() - t0
    details["embed_n2_seconds"] = embed_seconds
    passed = passed and emb is not None and validate_grid_embedding(sub31.graph, emb)
    passed = passed and embed_seconds < 1.0
    return {"passed": passed, "details": details}


def _verify_counts_vs_oracle(out_dir: str | None) -> dict:
    details = {}
    passed = True
    for n in range(1, ORACLE_MAX_N + 1):
        oracle = {encode_upper_triangle(g) for g in brute_force_classes(n)}
        enum = {encode_upper_triangle(g) for g in enumerate_graphs(n)}
        details[f"n={n}"] = {"oracle": len(oracle), "enumerated": len(enum)}
        passed &= oracle == enum
    return {"passed": passed, "details": details}


def _verify_prefix_properties(out_dir: str | None) -> dict:
    """Every leading principal submatrix of an enumerated graph with n <= 8 is
    canonical and connected (prefix-closedness and connected-prefix pruning)."""
    passed = True
    checked = 0
    for g in enumerate_graphs(PREFIX_MAX_N, n_min=2):
        for k in range(1, g.n + 1):
            prefix = Graph(k, tuple(r & ((1 << k) - 1) for r in g.rows[:k]))
            if not (is_canonical(prefix) and is_connected(prefix)):
                passed = False
            checked += 1
    return {"passed": passed, "details": {"prefixes_checked": checked, "n_max": PREFIX_MAX_N}}


_BUNDLES = {
    "grid-counts": _verify_grid_counts,
    "odd-grid-colourability": _verify_odd_grids,
    "n2-critical-31": _verify_n2_critical,
    "counts-vs-oracle": _verify_counts_vs_oracle,
    "prop5-prefixes": _verify_prefix_properties,
}
KNOWN_BUNDLES = tuple(_BUNDLES)
