"""Search orchestration: enumerate, filter, colour, embed, persist, report.

A job's state on disk is ``spec.json`` plus ``shards/``.  The job splits
the enumeration into subtree tickets at the ticket depth: the root walk
covers the sizes up to that depth, each ticket's walk the sizes above it.
A walk is the unit of work and of state: it writes the records of all its
sizes to one shard, ``<ticket>.jsonl`` (``root.jsonl`` for the root), in
catalog format through :func:`catalog.write_synced`.  A walk is done
exactly when its shard exists, so a killed job resumes where it stopped.
The shards of the job's walks merge into the canonical catalog at the end,
and the summary is built from the merged records.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, asdict, fields, replace

from .graphs import (
    ENUM_MAX_VERTICES,
    Graph,
    every_vertex_in_triangle,
    graph6_encode,
    is_connected,
    is_square_free,
    min_degree,
)
from .orderly import SubtreeTicket, enumerate_graphs, list_tickets
from .colouring import is_k_colourable, solve_101, validate_101
from .grids import MAX_GRID_N, get_grid, grid_embed, validate_grid_embedding
from .constraints import DEFAULT_DELTA, MIN_DELTA
from .embedding import decide_embeddability
# unread here, but perfbench/spans.py traces pipeline.read_records
from .catalog import CatalogRecord, compact, read_records, require_type, write_synced

DEFAULT_GRID_LADDER = (1, 2, 3, 4, 5, 8)
DEFAULT_INTERVAL_BUDGET = 20_000
DEFAULT_TICKET_DEPTH = 7
EXTRAPOLATE_TO = 30


@dataclass
class JobSpec:
    n_min: int
    n_max: int
    out_dir: str
    grid_ladder: tuple[int, ...] = DEFAULT_GRID_LADDER
    interval_budget: int = DEFAULT_INTERVAL_BUDGET
    delta: float = DEFAULT_DELTA
    ticket_depth: int = DEFAULT_TICKET_DEPTH
    workers: int = 1

    def validate(self) -> None:
        if not 1 <= self.n_min <= self.n_max <= ENUM_MAX_VERTICES:
            raise ValueError(f"n range must satisfy 1 <= n_min <= n_max <= {ENUM_MAX_VERTICES}")
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

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "JobSpec":
        """The spec of one ``spec.json``; ValueError naming the key unless it
        is a JSON object with exactly the fields of JobSpec, each of its type
        (ints not bools, a number for delta, a list of ints for the ladder).
        A spec written while enumeration could drop the square-free or the
        connected filter may still hold those keys, but only as true."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("job spec is not a JSON object")
        for key in ("square_free", "connected"):
            if key in data and (value := data.pop(key)) is not True:
                raise ValueError(f"job spec {key!r} value {value!r} is not true")
        names = [f.name for f in fields(JobSpec)]
        for key in data:
            if key not in names:
                raise ValueError(f"job spec has unknown key {key!r}")
        # JSON kinds by field annotation; a ladder is a list of ints
        kinds = {"int": (int,), "float": (int, float), "str": (str,), "tuple[int, ...]": (list,)}
        for f in fields(JobSpec):
            if f.name not in data:
                raise ValueError(f"job spec has no {f.name!r} key")
            require_type("job spec", f.name, data[f.name], *kinds[f.type])
        for entry in data["grid_ladder"]:
            require_type("job spec", "grid_ladder", entry, int)
        data["grid_ladder"] = tuple(data["grid_ladder"])
        return JobSpec(**data)


def evaluate_graph(
    g: Graph,
    grid_ladder=DEFAULT_GRID_LADDER,
    interval_budget: int = DEFAULT_INTERVAL_BUDGET,
    delta: float = DEFAULT_DELTA,
) -> CatalogRecord:
    """All catalog flags for one graph; embedding stages run only for
    101-uncolourable survivors (the KS candidates).

    A candidate tries each grid of the ladder in turn.  An embedding, once
    re-validated in exact integers, settles the candidate: the interval
    stage is recorded as ``{"verdict": "skipped", "delta": delta,
    "steps": 0}``.  Only a candidate that no ladder grid embeds gets a
    ``decide_embeddability`` run with ``interval_budget``, and every box it
    refutes is re-checked in exact rationals."""
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
        if grid["embedded_n"] is not None:
            interval = {"verdict": "skipped", "delta": delta, "steps": 0}
        else:
            verdict = decide_embeddability(
                g, budget=interval_budget, delta=delta, verify_refutations=True
            )
            interval = {
                "verdict": verdict.kind,
                "delta": delta,
                "steps": verdict.stats.contraction_steps,
            }
    return CatalogRecord(graph6=graph6_encode(g), n=g.n, flags=flags, grid=grid, interval=interval)


def _process_ticket(args) -> None:
    """Worker: walk one subtree once, evaluate its classes of every size in
    ``sizes``, and write their records to the walk's one ``shard``."""
    spec, sizes, ticket_id, shard = args
    ticket = SubtreeTicket.from_id(ticket_id) if ticket_id else None
    write_synced(shard, (
        evaluate_graph(g, spec.grid_ladder, spec.interval_budget, spec.delta).to_json() + "\n"
        for g in enumerate_graphs(sizes[-1], ticket, n_min=sizes[0])
    ))


def _end_with_job(job: int) -> None:
    """Pool initializer: a daemon thread ends this worker once its parent is
    no longer ``job``, the job's process id, so that a job killed without
    clean-up (SIGKILL, the OOM killer) leaves no worker running.  The pool
    forks its workers from the job, so the job is their parent until it
    dies (under ``forkserver``, the default from Python 3.14, it would not
    be).  A worker ended mid-walk leaves at most its shard's ``.tmp`` file,
    which no rename makes a shard.  Ctrl-C at a terminal reaches every
    process of the group; the workers ignore it, and the job kills them
    itself."""
    import signal
    import threading
    import time

    signal.signal(signal.SIGINT, signal.SIG_IGN)

    def watch() -> None:
        while os.getppid() == job:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def run_search(spec: JobSpec) -> dict:
    """Execute (or resume) a job; returns the summary dict.

    One task is one walk whose shard is missing: the root's or one
    ticket's subtree, for every size it covers.  The pool has no more
    workers than there are tasks, and a lone task runs in this process.
    A job stops early only by being killed: the shards already written
    stay, that run writes no catalog or summary, and a resume runs exactly
    the walks whose shards are missing.  When an exception such as
    KeyboardInterrupt stops a job with workers, its workers are killed,
    since the pool would otherwise run every walk left before it returns; a
    worker whose job was killed outright ends itself.  A task that raises
    is listed in ``tickets_failed`` as ``n=…, ticket=…: <Type>: <message>``,
    its sizes given as ``n=8`` or lowest to highest as ``n=8..10``; the
    other tasks run, the summary is written with ``complete`` false, and a
    resume runs it again.  The catalog merges the shards of this job's
    walks and no other file of ``shards/``.
    """
    spec.validate()
    shard_dir = os.path.join(spec.out_dir, "shards")
    os.makedirs(shard_dir, exist_ok=True)
    spec_path = os.path.join(spec.out_dir, "spec.json")
    if os.path.exists(spec_path):
        with open(spec_path) as fh:
            stored = JobSpec.from_json(fh.read())
        # where the job lives and how many processes run it change no record
        if replace(stored, out_dir=spec.out_dir, workers=spec.workers) != spec:
            raise ValueError("output directory holds a different job spec")
    else:
        write_synced(spec_path, [spec.to_json()])

    # the root walks the sizes up to the split depth, each ticket those above
    depth = spec.ticket_depth
    walks = [("", range(spec.n_min, min(spec.n_max, depth) + 1))]
    if spec.n_max > depth:
        above = range(max(spec.n_min, depth + 1), spec.n_max + 1)
        walks += [(t.ticket_id, above) for t in list_tickets(depth)]
    shards, tasks = [], []
    for ticket_id, sizes in walks:
        if sizes:  # the root has none when n_min lies above the depth
            shard = os.path.join(shard_dir, f"{ticket_id.replace(':', '-') or 'root'}.jsonl")
            shards.append(shard)
            if not os.path.exists(shard):  # shards land synced: one that exists is done
                tasks.append((spec, sizes, ticket_id, shard))

    processed = 0
    failed: list[str] = []

    def attempt(task, call) -> None:
        # a walk that raises writes no shard, so a resume runs it again
        nonlocal processed
        try:
            call()
            processed += 1
        except Exception as e:  # a broken pool fails each ticket left
            _, sizes, ticket_id, _ = task
            ns = f"{sizes[0]}..{sizes[-1]}" if len(sizes) > 1 else f"{sizes[0]}"
            failed.append(f"n={ns}, ticket={ticket_id or 'root'}: {type(e).__name__}: {e}")

    workers = min(spec.workers, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import active_children, get_context

        others = set(active_children())
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=get_context("fork"),  # _end_with_job needs the job as parent
            initializer=_end_with_job,
            initargs=(os.getpid(),),
        ) as pool:
            try:
                for task, fut in [(t, pool.submit(_process_ticket, t)) for t in tasks]:
                    attempt(task, fut.result)
            except BaseException:  # stopped: the walks left must not outlive the job
                for worker in set(active_children()) - others:
                    worker.kill()
                raise
    else:
        for task in tasks:
            attempt(task, lambda: _process_ticket(task))

    done = [shard for shard in shards if os.path.exists(shard)]
    records = compact(done, os.path.join(spec.out_dir, "catalog.jsonl"))
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
        "records": len(records),
        "per_n": {str(k): v for k, v in sorted(per_n.items())},
        "uncolourable_survivors": survivors,
        "conjecture_probe_log": conjecture_probe,
        "complete": not failed,
    }
    write_synced(
        os.path.join(spec.out_dir, "summary.json"), [json.dumps(summary, sort_keys=True, indent=1)]
    )
    return summary


# ---------------------------------------------------------------------------
# Count reports

def report_counts(records) -> str:
    """CSV of per-n counts plus a least-squares log-linear extrapolation
    column, with rows through n = ``EXTRAPOLATE_TO`` at least.

    The extrapolation column is a fit, never data; rows beyond the observed
    range carry only the fit.
    """
    if not records:
        raise ValueError("catalog is empty")
    per_n: dict[int, int] = {}
    for rec in records:
        per_n[rec.n] = per_n.get(rec.n, 0) + 1
    ns = sorted(per_n)
    have_fit = len(ns) >= 2
    if have_fit:
        xs = ns
        ys = [math.log10(per_n[n]) for n in ns]
        sx, sy = sum(xs), sum(ys)
        sxx = sum(x * x for x in xs)
        sxy = sum(x * y for x, y in zip(xs, ys))
        m = len(xs)
        denom = m * sxx - sx * sx
        slope = (m * sxy - sx * sy) / denom
        intercept = (sy - slope * sx) / m
    lines = ["n,count,extrapolated_log10_count"]
    top = max(EXTRAPOLATE_TO, ns[-1])
    for n in range(ns[0], top + 1):
        count = per_n.get(n, "")
        fit = f"{slope * n + intercept:.3f}" if have_fit else ""
        lines.append(f"{n},{count},{fit}")
    return "\n".join(lines) + "\n"
