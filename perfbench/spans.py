"""Spans around kssearch's public functions, kept in memory, for the traced run.

No source file changes.  For the length of one traced job, each layer
function is replaced by a wrapper on every module attribute through which it
is looked up.  ``pipeline`` binds ``enumerate_graphs``, ``evaluate_graph``,
``is_k_colourable``, ``compact`` and the rest at import time, so those
bindings are patched in ``pipeline`` as well as at home; ``grids`` imports
``canonical_code`` from ``orderly`` inside a function, so the ``orderly``
attribute covers it.  Generators are timed per ``next`` call: a span covers
producing one item, not the consumer's work between items.  Only the
``pipeline`` binding of ``enumerate_graphs`` yields catalog classes; the
``orderly`` one is also reached by ``list_tickets``, whose 7-vertex ticket
prefixes are never written, so ``orderly.classes_per_s`` counts and times
the ``pipeline`` binding's spans alone.

A span is ``[name, start, end, parent, note]``.  Calls nest, so every child
lies inside its parent; a span's self time is its duration minus its
children's, and the part of the job no root span covers is reported as
``trace.unattributed_s``.  Self times plus that remainder equal the job's
traced wall time.
"""

from __future__ import annotations

import importlib
import time

_NOTHING = object()


def _a_class(item) -> bool:
    return True


def _found(result) -> bool:
    return result is not None


def _uncolourable(result) -> bool:
    return result is None


def _solver(result):
    """The SolverStats of a verdict, and whether it carries a Krawczyk certificate."""
    return result.stats, getattr(result, "certificate", None) is not None


# (module, attribute, span name, wrapper kind, note taken from the result)
LAYERS = (
    ("pipeline", "run_search", "pipeline.orchestration", "call", None),
    ("pipeline", "evaluate_graph", "pipeline.evaluate", "call", None),
    ("pipeline", "enumerate_graphs", "orderly.enumerate", "gen", _a_class),
    ("orderly", "enumerate_graphs", "orderly.enumerate", "gen", None),
    ("orderly", "extend", "orderly.extend", "call", None),
    ("orderly", "canonical_code", "orderly.canonical_code", "call", None),
    ("pipeline", "is_k_colourable", "colouring.k_colourable", "call", None),
    ("pipeline", "solve_101", "colouring.solve_101", "call", _uncolourable),
    ("grids", "solve_101", "colouring.solve_101", "call", _uncolourable),
    ("grids", "enumerate_grid_subsystems", "grids.subsystems", "gen", None),
    ("grids", "minimize_uncolourable", "grids.minimize", "call", None),
    ("grids", "grid_embed", "grids.embed", "call", _found),
    ("pipeline", "grid_embed", "grids.embed", "call", _found),
    ("pipeline", "decide_embeddability", "embedding.decide", "call", _solver),
    ("embedding", "decide_embeddability", "embedding.decide", "call", _solver),
    ("embedding", "prove_root_in_box", "embedding.krawczyk", "call", None),
    ("embedding", "contract_explain", "constraints.contract", "call", None),
    ("embedding", "recheck_refutation_exact", "constraints.recheck", "call", None),
    ("pipeline", "compact", "catalog.compact", "call", None),
    ("pipeline", "read_records", "catalog.read", "call", None),
    ("catalog", "read_records", "catalog.read", "call", None),
)

# grid_embed spans are split by outcome: a found embedding and an exhausted
# search cost very differently.
SELF_METRICS = (
    "pipeline.orchestration_s",
    "pipeline.evaluate_s",
    "orderly.enumerate_s",
    "orderly.extend_s",
    "orderly.canonical_code_s",
    "colouring.k_colourable_s",
    "colouring.solve_101_s",
    "grids.subsystems_s",
    "grids.minimize_s",
    "grids.embed_found_s",
    "grids.embed_exhausted_s",
    "embedding.decide_s",
    "embedding.krawczyk_s",
    "constraints.contract_s",
    "constraints.recheck_s",
    "catalog.compact_s",
    "catalog.read_s",
)

CALL_METRICS = {
    "orderly.extend_calls": "orderly.extend",
    "orderly.canonical_code_calls": "orderly.canonical_code",
    "colouring.k_colourable_calls": "colouring.k_colourable",
    "colouring.solve_101_calls": "colouring.solve_101",
    "grids.embed_calls": "grids.embed",
    "embedding.krawczyk_calls": "embedding.krawczyk",
    "constraints.sweeps": "constraints.contract",
    "constraints.recheck_calls": "constraints.recheck",
    "pipeline.evaluate_calls": "pipeline.evaluate",
}

SOLVER_COUNTS = ("boxes_processed", "boxes_refuted", "bisections", "newton_attempts")

class Tracer:
    """Installs the wrappers on entry, restores the originals on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, note) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = note
        self._stack.pop()

    def _wrap_call(self, fn, name, take_note):
        def traced(*args, **kwargs):
            idx = self._open(name)
            result = _NOTHING
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ok = result is not _NOTHING
                self._close(idx, take_note(result) if ok and take_note else None)

        return traced

    def _wrap_gen(self, fn, name, take_note):
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                item = _NOTHING
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    note = None
                    if take_note:
                        # a counted generator's last, empty step notes False
                        note = take_note(item) if item is not _NOTHING else False
                    self._close(idx, note)
                yield item

        return traced

    def __enter__(self):
        for mod_name, attr, name, kind, take_note in LAYERS:
            mod = importlib.import_module(f"kssearch.{mod_name}")
            fn = getattr(mod, attr)
            if kind == "gen":
                wrapped = self._wrap_gen(fn, name, take_note)
            else:
                wrapped = self._wrap_call(fn, name, take_note)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p, _ in self.spans
        ]


def layer_metrics(spans: list[list], wall: float) -> dict[str, float]:
    """Per-layer metrics from one traced job's spans and its wall time."""
    covered = [0.0] * len(spans)
    roots = 0.0
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
        else:
            roots += end - start

    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    solver = dict.fromkeys(SOLVER_COUNTS, 0)
    peak_queue = 0
    certificates = 0
    classes = 0
    class_s = 0.0
    minimize_attempts = minimize_removals = 0
    for idx, (name, start, end, parent, note) in enumerate(spans):
        if name == "grids.embed":
            key = "grids.embed_found" if note else "grids.embed_exhausted"
        else:
            key = name
        self_s[key] = self_s.get(key, 0.0) + (end - start - covered[idx])
        calls[name] = calls.get(name, 0) + 1
        if name == "orderly.enumerate" and note is not None:
            classes += note
            class_s += end - start
        elif name == "colouring.solve_101" and parent >= 0 and spans[parent][0] == "grids.minimize":
            minimize_attempts += 1
            minimize_removals += bool(note)
        elif name == "embedding.decide" and note is not None:
            stats, certified = note
            for k in SOLVER_COUNTS:
                solver[k] += getattr(stats, k)
            peak_queue = max(peak_queue, stats.peak_queue)
            certificates += certified

    out: dict[str, float] = {}
    for metric in SELF_METRICS:
        out[metric] = self_s.get(metric[: -len("_s")], 0.0)
    for metric, name in CALL_METRICS.items():
        out[metric] = calls.get(name, 0)
    out["orderly.classes_per_s"] = classes / class_s if class_s else 0.0
    contract_s = out["constraints.contract_s"]
    out["constraints.sweeps_per_s"] = out["constraints.sweeps"] / contract_s if contract_s else 0.0
    out["grids.removal_ratio"] = minimize_removals / minimize_attempts if minimize_attempts else 0.0
    for k in SOLVER_COUNTS:
        out[f"embedding.{k}"] = solver[k]
    out["embedding.peak_queue"] = peak_queue
    attempts = solver["newton_attempts"]
    out["embedding.newton_success_ratio"] = certificates / attempts if attempts else 0.0
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - roots
    out["trace.spans"] = len(spans)
    return out
