"""Search orchestration: enumerate, filter, colour, embed, persist, report.

A job walks target sizes n, splitting each enumeration into subtree tickets;
every ticket's results land in its own shard, synced to disk before it is
renamed into place, and the ticket is logged done after that.  A ticket
counts as done only when it is logged and its shard exists, so a killed job
resumes exactly where it stopped.  Shards merge into the canonical catalog
at the end.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict

from .graphs import (
    Graph,
    every_vertex_in_triangle,
    graph6_encode,
    is_connected,
    is_square_free,
    min_degree,
)
from .orderly import Filters, SubtreeTicket, enumerate_graphs, list_tickets
from .colouring import is_k_colourable, solve_101, validate_101
from .grids import MAX_GRID_N, get_grid, grid_embed, validate_grid_embedding
from .constraints import DEFAULT_DELTA, MIN_DELTA
from .embedding import decide_embeddability
from .catalog import CatalogRecord, compact, read_records

DEFAULT_GRID_LADDER = (1, 2, 3, 4, 5, 8)
DEFAULT_INTERVAL_BUDGET = 20_000


@dataclass
class JobSpec:
    n_min: int
    n_max: int
    out_dir: str
    square_free: bool = True
    connected: bool = True
    grid_ladder: tuple[int, ...] = DEFAULT_GRID_LADDER
    interval_budget: int = DEFAULT_INTERVAL_BUDGET
    delta: float = DEFAULT_DELTA
    ticket_depth: int = 7
    workers: int = 1

    def validate(self) -> None:
        if not 1 <= self.n_min <= self.n_max <= 64:
            raise ValueError("n range must satisfy 1 <= n_min <= n_max <= 64")
        if self.ticket_depth < 1:
            raise ValueError("ticket depth must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if any(not 1 <= g <= MAX_GRID_N for g in self.grid_ladder):
            raise ValueError(f"grid ladder entries must lie in 1..{MAX_GRID_N}")
        if self.interval_budget < 1:
            raise ValueError("interval budget must be at least 1")
        if not MIN_DELTA <= self.delta < 1:
            raise ValueError(f"delta must lie in [{MIN_DELTA}, 1)")

    @property
    def filters(self) -> Filters:
        return Filters(square_free=self.square_free, connected=self.connected)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "JobSpec":
        data = json.loads(text)
        data["grid_ladder"] = tuple(data["grid_ladder"])
        return JobSpec(**data)


def evaluate_graph(
    g: Graph,
    grid_ladder=DEFAULT_GRID_LADDER,
    interval_budget: int = DEFAULT_INTERVAL_BUDGET,
    delta: float = DEFAULT_DELTA,
) -> CatalogRecord:
    """All catalog flags for one graph; embedding stages run only for
    101-uncolourable survivors (the KS candidates)."""
    three, _ = is_k_colourable(g, 3)
    four, _ = is_k_colourable(g, 4)
    if three:
        colourable = True
    else:
        witness = solve_101(g)
        colourable = witness is not None
        if colourable and not validate_101(g, witness):
            raise AssertionError("solver witness failed re-validation")
    flags = {
        "square_free": is_square_free(g),
        "connected": is_connected(g),
        "min_degree_ge3": min_degree(g) >= 3,
        "every_vertex_in_triangle": every_vertex_in_triangle(g),
        "three_colourable": three,
        "four_colourable": four,
        "colourable_101": colourable,
    }
    grid: dict = {"embedded_n": None, "tried_up_to": None}
    interval = None
    if not colourable:
        for gn in grid_ladder:
            grid["tried_up_to"] = gn
            emb = grid_embed(g, gn, sys=get_grid(gn))
            if emb is not None:
                if not validate_grid_embedding(g, emb):
                    raise AssertionError("grid embedding failed exact re-validation")
                grid["embedded_n"] = gn
                grid["witness"] = [list(d) for d in emb.mapping]
                break
        verdict = decide_embeddability(g, budget=interval_budget, delta=delta)
        interval = {
            "verdict": verdict.kind,
            "delta": delta,
            "steps": verdict.stats.contraction_steps,
        }
    return CatalogRecord(graph6=graph6_encode(g), n=g.n, flags=flags, grid=grid, interval=interval)


def _ticket_key(n: int, ticket: SubtreeTicket | None) -> str:
    return f"{n}/{ticket.ticket_id if ticket else 'root'}"


def _process_ticket(args) -> tuple[str, str, int]:
    """Worker: enumerate one subtree, evaluate, write shard, return key."""
    spec_json, n, ticket_id, shard_path = args
    spec = JobSpec.from_json(spec_json)
    ticket = SubtreeTicket.from_id(ticket_id) if ticket_id else None
    records = []
    for g in enumerate_graphs(n, spec.filters, ticket):
        records.append(
            evaluate_graph(g, spec.grid_ladder, spec.interval_budget, spec.delta)
        )
    tmp = shard_path + ".tmp"
    with open(tmp, "w") as fh:
        for rec in records:
            fh.write(rec.to_json() + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, shard_path)
    return _ticket_key(n, ticket), shard_path, len(records)


def run_search(spec: JobSpec, max_tickets: int | None = None) -> dict:
    """Execute (or resume) a job; returns the summary dict.

    ``max_tickets`` stops after that many tickets (used to exercise resume).
    A ticket that raises is listed in ``tickets_failed`` as
    ``n=…, ticket=…: <Type>: <message>``; the other tickets run, the summary
    is written with ``complete`` false, and a resume runs it again.
    """
    spec.validate()
    os.makedirs(spec.out_dir, exist_ok=True)
    shard_dir = os.path.join(spec.out_dir, "shards")
    os.makedirs(shard_dir, exist_ok=True)
    spec_path = os.path.join(spec.out_dir, "spec.json")
    if os.path.exists(spec_path):
        existing = JobSpec.from_json(open(spec_path).read())
        if existing != spec:
            raise ValueError("output directory holds a different job spec")
    else:
        with open(spec_path, "w") as fh:
            fh.write(spec.to_json())

    log_path = os.path.join(spec.out_dir, "tickets.log")
    done: set[str] = set()
    if os.path.exists(log_path):
        with open(log_path) as fh:
            done = {line.strip() for line in fh if line.strip()}

    # listed once per job: every n above the split depth shares the tickets
    deep = list_tickets(spec.ticket_depth, spec.filters) if spec.n_max > spec.ticket_depth else []
    tasks = []
    for n in range(spec.n_min, spec.n_max + 1):
        tickets: list[SubtreeTicket | None] = deep if n > spec.ticket_depth else [None]
        for t in tickets:
            key = _ticket_key(n, t)
            shard = os.path.join(shard_dir, key.replace("/", "_").replace(":", "-") + ".jsonl")
            # a crash can keep the log line but lose the shard's rename
            if key in done and os.path.exists(shard):
                continue
            tasks.append((spec.to_json(), n, t.ticket_id if t else "", shard))

    if max_tickets is not None:
        tasks = tasks[:max_tickets]

    processed = 0
    failed: list[str] = []

    def note_done(key: str) -> None:
        nonlocal processed
        with open(log_path, "a") as fh:
            fh.write(key + "\n")
        processed += 1

    def note_failed(task, e: Exception) -> None:
        # the ticket aborts with its shard unwritten and stays out of the
        # log, so a resume runs it again
        failed.append(f"n={task[1]}, ticket={task[2] or 'root'}: {type(e).__name__}: {e}")

    if spec.workers > 1 and tasks:
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            futures = {pool.submit(_process_ticket, t): t for t in tasks}
            for fut, task in futures.items():
                try:
                    key, _shard, _count = fut.result()
                    note_done(key)
                except Exception as e:  # a broken pool fails each ticket left
                    note_failed(task, e)
    else:
        for task in tasks:
            try:
                key, _shard, _count = _process_ticket(task)
                note_done(key)
            except Exception as e:
                note_failed(task, e)

    # merge shards into the canonical catalog
    shards = sorted(
        os.path.join(shard_dir, f) for f in os.listdir(shard_dir) if f.endswith(".jsonl")
    )
    catalog_path = os.path.join(spec.out_dir, "catalog.jsonl")
    total = compact(shards, catalog_path)

    records = read_records(catalog_path)
    per_n: dict[int, int] = {}
    survivors = []
    conjecture_probe = []
    for rec in records:
        per_n[rec.n] = per_n.get(rec.n, 0) + 1
        if rec.flags.get("colourable_101") is False:
            survivors.append(rec.graph6)
        if (
            rec.interval is not None
            and rec.interval.get("verdict") == "embeddable"
            and rec.grid.get("embedded_n") is None
        ):
            # interval-embeddable but never grid-embedded up to the ladder:
            # expected empty under the cubic-grid conjecture (reported, never asserted)
            conjecture_probe.append(rec.graph6)
    summary = {
        "tickets_processed": processed,
        "tickets_failed": failed,
        "records": total,
        "per_n": {str(k): v for k, v in sorted(per_n.items())},
        "uncolourable_survivors": survivors,
        "conjecture_probe_log": conjecture_probe,
        "complete": max_tickets is None and not failed,
    }
    with open(os.path.join(spec.out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
    return summary


# ---------------------------------------------------------------------------
# Count reports

def report_counts(records, extrapolate_to: int = 30) -> str:
    """CSV of per-n counts plus a least-squares log-linear extrapolation column.

    The extrapolation column is a fit, never data; rows beyond the observed
    range carry only the fit.
    """
    if not records:
        raise ValueError("catalog is empty")
    per_n: dict[int, int] = {}
    for rec in records:
        per_n[rec.n] = per_n.get(rec.n, 0) + 1
    ns = sorted(per_n)
    fit_ns = [n for n in ns if per_n[n] > 0]
    have_fit = len(fit_ns) >= 2
    if have_fit:
        xs = fit_ns
        ys = [math.log10(per_n[n]) for n in fit_ns]
        sx, sy = sum(xs), sum(ys)
        sxx = sum(x * x for x in xs)
        sxy = sum(x * y for x, y in zip(xs, ys))
        m = len(xs)
        denom = m * sxx - sx * sx
        slope = (m * sxy - sx * sy) / denom
        intercept = (sy - slope * sx) / m
    lines = ["n,count,extrapolated_log10_count"]
    top = max(extrapolate_to, ns[-1])
    for n in range(ns[0], top + 1):
        count = per_n.get(n, "")
        fit = f"{slope * n + intercept:.3f}" if have_fit else ""
        lines.append(f"{n},{count},{fit}")
    return "\n".join(lines) + "\n"
