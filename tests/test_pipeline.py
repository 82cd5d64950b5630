"""Job orchestration: catalog persistence, resume, determinism, CLI, reports."""

import json
import math
import os
import subprocess
import sys

import pytest

from kssearch import pipeline
from kssearch.catalog import CatalogRecord, read_records
from kssearch.constraints import DEFAULT_DELTA, MIN_DELTA
from kssearch.graphs import ENUM_MAX_VERTICES, Graph, graph6_encode
from kssearch.grids import GridEmbedding, get_grid, minimize_uncolourable, validate_grid_embedding
from kssearch.orderly import CanonicalBudgetExceeded
from kssearch.pipeline import (
    JobSpec,
    _process_ticket as process_ticket,
    evaluate_graph,
    report_counts,
    run_search,
)
from kssearch.verify import verify_known

K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


def spec_for(tmp, n_max, **kw):
    return JobSpec(n_min=1, n_max=n_max, out_dir=str(tmp), **kw)


def test_jobspec_validation():
    with pytest.raises(ValueError):
        JobSpec(n_min=0, n_max=3, out_dir="x").validate()
    with pytest.raises(ValueError):
        JobSpec(n_min=1, n_max=3, out_dir="x", workers=0).validate()
    with pytest.raises(ValueError):
        JobSpec(n_min=1, n_max=3, out_dir="x", delta=2.0).validate()
    for budget in (0, -5):
        with pytest.raises(ValueError):
            JobSpec(n_min=1, n_max=3, out_dir="x", interval_budget=budget).validate()
    JobSpec(n_min=1, n_max=3, out_dir="x", interval_budget=1).validate()
    JobSpec(n_min=1, n_max=ENUM_MAX_VERTICES, out_dir="x").validate()
    with pytest.raises(ValueError, match=f"<= {ENUM_MAX_VERTICES}"):
        JobSpec(n_min=1, n_max=ENUM_MAX_VERTICES + 1, out_dir="x").validate()
    spec = JobSpec(n_min=1, n_max=3, out_dir="x")
    assert JobSpec.from_json(spec.to_json()) == spec


def test_jobspec_delta_floor(tmp_path):
    # a delta the constraint system rejects is refused before any file is written
    with pytest.raises(ValueError):
        JobSpec(n_min=1, n_max=3, out_dir="x", delta=1e-8).validate()
    with pytest.raises(ValueError):
        run_search(spec_for(tmp_path / "job", 3, delta=1e-8))
    assert not (tmp_path / "job").exists()
    JobSpec(n_min=1, n_max=3, out_dir="x", delta=MIN_DELTA).validate()


def test_record_consistency_enforced():
    with pytest.raises(ValueError):
        CatalogRecord(
            graph6="Bw",
            n=3,
            flags={"three_colourable": True, "colourable_101": False},
        )


def test_record_rejects_grid_witness_beside_interval_refutation():
    flags = {"square_free": True, "four_colourable": True, "colourable_101": False}
    # projective separation of (1,0,0) and (1,1,0) is 1/sqrt(2)
    grid = {"embedded_n": 1, "tried_up_to": 1, "witness": [[1, 0, 0], [0, 1, 0], [1, 1, 0]]}

    def record(verdict, delta=DEFAULT_DELTA):
        interval = {"verdict": verdict, "delta": delta, "steps": 3}
        return CatalogRecord(graph6="Bw", n=3, flags=flags, grid=grid, interval=interval)

    with pytest.raises(ValueError, match="contradicts the interval refutation"):
        record("unembeddable")
    # a refutation at delta 0.8 excludes only embeddings this witness is not
    record("unembeddable", delta=0.8)
    for verdict in ("skipped", "inconclusive", "embeddable"):
        record(verdict)


def test_evaluate_graph_skips_interval_after_grid_embedding(monkeypatch):
    g = minimize_uncolourable(get_grid(2)).graph

    def no_interval_stage(*args, **kwargs):
        raise AssertionError("interval stage ran after a grid embedding")

    with monkeypatch.context() as m:
        m.setattr(pipeline, "decide_embeddability", no_interval_stage)
        rec = evaluate_graph(g, grid_ladder=(1, 2))
    assert rec.flags["colourable_101"] is False
    assert rec.grid["embedded_n"] == 2 and rec.grid["tried_up_to"] == 2
    witness = GridEmbedding(2, tuple(map(tuple, rec.grid["witness"])))
    assert validate_grid_embedding(g, witness)
    assert rec.interval == {"verdict": "skipped", "delta": DEFAULT_DELTA, "steps": 0}
    # N = 1 is 101-colourable, so no grid embeds g and the interval stage runs
    rec = evaluate_graph(g, grid_ladder=(1,), interval_budget=1)
    assert rec.grid == {"embedded_n": None, "tried_up_to": 1}
    assert rec.interval == {"verdict": "inconclusive", "delta": DEFAULT_DELTA, "steps": 1}


def test_evaluate_graph_flags():
    rec = evaluate_graph(K3)
    assert rec.flags["square_free"] and rec.flags["connected"]
    assert rec.flags["three_colourable"] and rec.flags["colourable_101"]
    assert not rec.flags["min_degree_ge3"]
    assert rec.interval is None  # colourable graphs skip the embedding stages
    assert rec.grid["embedded_n"] is None
    # the wheel W5 (an odd rim) needs four colours
    w5 = Graph.from_edges(6, [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)])
    rec = evaluate_graph(w5)
    assert not rec.flags["three_colourable"] and rec.flags["four_colourable"]
    assert rec.flags["colourable_101"] and rec.interval is None
    k5 = Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    rec = evaluate_graph(k5, interval_budget=1)
    assert not rec.flags["three_colourable"] and not rec.flags["four_colourable"]
    assert not rec.flags["colourable_101"] and rec.interval["verdict"] == "unembeddable"


def test_run_search_counts(tmp_path):
    spec = spec_for(tmp_path / "job", 6)
    summary = run_search(spec)
    assert summary["per_n"] == {"1": 1, "2": 1, "3": 2, "4": 3, "5": 8, "6": 19}
    assert summary["uncolourable_survivors"] == []
    catalog = read_records(os.path.join(spec.out_dir, "catalog.jsonl"))
    assert len(catalog) == 34
    assert all(rec.flags["colourable_101"] for rec in catalog)


def test_run_search_deterministic_catalog(tmp_path):
    s1 = spec_for(tmp_path / "a", 6)
    s2 = spec_for(tmp_path / "b", 6)
    run_search(s1)
    run_search(s2)
    c1 = open(os.path.join(s1.out_dir, "catalog.jsonl"), "rb").read()
    c2 = open(os.path.join(s2.out_dir, "catalog.jsonl"), "rb").read()
    assert c1 == c2


def test_resume_after_interruption(tmp_path):
    full = spec_for(tmp_path / "full", 8, ticket_depth=4)
    run_search(full)
    part = spec_for(tmp_path / "part", 8, ticket_depth=4)
    partial = run_search(part, max_tickets=3)
    assert not partial["complete"]
    # a crashed shard write leaves only a .tmp file; it must be ignored
    stale = os.path.join(part.out_dir, "shards", "9_bogus.jsonl.tmp")
    open(stale, "w").write('{"junk": true}\n')
    resumed = run_search(part)
    assert resumed["complete"]
    c1 = open(os.path.join(full.out_dir, "catalog.jsonl"), "rb").read()
    c2 = open(os.path.join(part.out_dir, "catalog.jsonl"), "rb").read()
    assert c1 == c2


def test_resume_reruns_logged_ticket_without_shard(tmp_path):
    # a ticket is done exactly when its shard exists: a lost shard is rerun
    full = spec_for(tmp_path / "full", 8, ticket_depth=4)
    run_search(full)
    part = spec_for(tmp_path / "part", 8, ticket_depth=4)
    run_search(part)
    lost = os.path.join(part.out_dir, "shards", "8_4-34.jsonl")
    assert len(read_records(lost)) > 0
    os.remove(lost)
    resumed = run_search(part)
    assert resumed["tickets_processed"] == 1 and resumed["complete"]
    assert os.path.exists(lost)
    c1 = open(os.path.join(full.out_dir, "catalog.jsonl"), "rb").read()
    c2 = open(os.path.join(part.out_dir, "catalog.jsonl"), "rb").read()
    assert c1 == c2


def test_resume_accepts_older_job_directory(tmp_path):
    # job directories from before shards were written in catalog format
    # hold a tickets.log and shard lines with a "timestamps" key
    spec = spec_for(tmp_path / "old", 8, ticket_depth=4)
    run_search(spec)
    catalog = os.path.join(spec.out_dir, "catalog.jsonl")
    clean = open(catalog, "rb").read()
    os.remove(catalog)
    shard_dir = os.path.join(spec.out_dir, "shards")
    keys = []
    for name in sorted(os.listdir(shard_dir)):
        n, ticket = name[: -len(".jsonl")].split("_")
        keys.append(f"{n}/{ticket.replace('-', ':')}\n")
        path = os.path.join(shard_dir, name)
        stamp = {"timestamps": {"created": "2026-01-01T00:00:00Z"}}
        lines = [json.dumps({**json.loads(line), **stamp}, sort_keys=True) for line in open(path)]
        open(path, "w").writelines(line + "\n" for line in lines)
    open(os.path.join(spec.out_dir, "tickets.log"), "w").writelines(keys)
    resumed = run_search(spec)
    assert resumed["tickets_processed"] == 0 and resumed["complete"]
    assert open(catalog, "rb").read() == clean


def test_every_job_file_is_synced_before_rename(tmp_path, monkeypatch):
    synced: set[int] = set()
    renamed: set[str] = set()
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        real_fsync(fd)
        synced.add(os.fstat(fd).st_ino)

    def replace(src, dst):
        if os.stat(src).st_ino in synced:
            renamed.add(os.path.relpath(dst, tmp_path / "j"))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    spec = spec_for(tmp_path / "j", 8, ticket_depth=4)
    run_search(spec)
    shards = {os.path.join("shards", f) for f in os.listdir(os.path.join(spec.out_dir, "shards"))}
    assert len(shards) > 1
    top = set(os.listdir(spec.out_dir)) - {"shards"}
    assert top == {"spec.json", "catalog.jsonl", "summary.json"}
    assert renamed == top | shards


def test_resume_rejects_changed_spec(tmp_path):
    spec = spec_for(tmp_path / "j", 4)
    run_search(spec)
    other = spec_for(tmp_path / "j", 5)
    with pytest.raises(ValueError):
        run_search(other)


def test_ticket_accounting(tmp_path):
    spec = spec_for(tmp_path / "j", 8, ticket_depth=4)
    run_search(spec)
    shard_dir = os.path.join(spec.out_dir, "shards")
    per_shard = sum(
        len(read_records(os.path.join(shard_dir, f)))
        for f in os.listdir(shard_dir)
        if f.endswith(".jsonl")
    )
    catalog = read_records(os.path.join(spec.out_dir, "catalog.jsonl"))
    assert per_shard == len(catalog)


def test_shard_lines_are_catalog_lines(tmp_path):
    spec = spec_for(tmp_path / "j", 6, ticket_depth=4)
    run_search(spec)
    catalog = open(os.path.join(spec.out_dir, "catalog.jsonl")).read().splitlines()
    shard_dir = os.path.join(spec.out_dir, "shards")
    shard_lines = [
        line for f in os.listdir(shard_dir) for line in open(os.path.join(shard_dir, f))
    ]
    assert sorted(line.rstrip("\n") for line in shard_lines) == sorted(catalog)
    assert all("timestamps" not in json.loads(line) for line in catalog)


def test_report_counts(tmp_path):
    spec = spec_for(tmp_path / "j", 5)
    run_search(spec)
    records = read_records(os.path.join(spec.out_dir, "catalog.jsonl"))
    csv = report_counts(records)
    lines = csv.strip().splitlines()
    assert lines[0] == "n,count,extrapolated_log10_count"
    assert lines[3].startswith("3,2,")
    assert lines[4].startswith("4,3,")
    assert lines[-1].startswith("30,,")  # extrapolation-only row
    with pytest.raises(ValueError):
        report_counts([])


def test_verify_known_bundles_light(tmp_path):
    rep = verify_known("grid-counts")
    assert rep["passed"]
    rep = verify_known("counts-vs-oracle")
    assert rep["passed"]
    rep = verify_known("odd-grid-colourability", str(tmp_path))
    assert rep["passed"]
    assert (tmp_path / "odd_grid_13_witness.json").exists()
    with pytest.raises(ValueError):
        verify_known("no-such-bundle")


def test_prefix_bundle_reduced():
    from kssearch.verify import _verify_prefix_properties

    rep = _verify_prefix_properties(n_max=6)
    assert rep["passed"] and rep["details"]["prefixes_checked"] > 0


def test_summary_reports_conjecture_probe(tmp_path):
    spec = spec_for(tmp_path / "j", 5)
    summary = run_search(spec)
    assert summary["conjecture_probe_log"] == []
    assert summary["tickets_failed"] == []


def test_run_search_with_worker_pool(tmp_path):
    solo = spec_for(tmp_path / "solo", 7, ticket_depth=4)
    run_search(solo)
    pooled = spec_for(tmp_path / "pool", 7, ticket_depth=4, workers=2)
    run_search(pooled)
    c1 = open(os.path.join(solo.out_dir, "catalog.jsonl"), "rb").read()
    c2 = open(os.path.join(pooled.out_dir, "catalog.jsonl"), "rb").read()
    assert c1 == c2


FAILURES = {
    2: OSError("disk went away"),
    4: AssertionError("witness re-validation failed"),
    6: CanonicalBudgetExceeded("canonical_label exceeded 3 nodes on n=5"),
}


def failing_on_calls(real, failures):
    """_process_ticket raising failures[k] on its k-th call."""
    calls = {"n": 0}

    def flaky(args):
        calls["n"] += 1
        if calls["n"] in failures:
            raise failures[calls["n"]]
        return real(args)

    return flaky


def test_ticket_failure_isolated(tmp_path, monkeypatch):
    import kssearch.pipeline as pl

    spec = spec_for(tmp_path / "j", 5, ticket_depth=3)
    real = pl._process_ticket
    monkeypatch.setattr(pl, "_process_ticket", failing_on_calls(real, FAILURES))
    summary = pl.run_search(spec)
    failed = summary["tickets_failed"]
    assert [f.split(": ", 1)[1] for f in failed] == [
        f"{type(e).__name__}: {e}" for e in FAILURES.values()
    ]
    assert all(f.startswith("n=") and ", ticket=" in f for f in failed)
    assert not summary["complete"]
    assert summary["tickets_processed"] == 7 - len(FAILURES)
    assert os.path.exists(os.path.join(spec.out_dir, "summary.json"))
    # the failed ticket is retried on resume and the catalog completes
    monkeypatch.setattr(pl, "_process_ticket", real)
    resumed = pl.run_search(spec)
    assert resumed["complete"]
    clean = spec_for(tmp_path / "clean", 5, ticket_depth=3)
    run_search(clean)
    c1 = open(os.path.join(spec.out_dir, "catalog.jsonl"), "rb").read()
    c2 = open(os.path.join(clean.out_dir, "catalog.jsonl"), "rb").read()
    assert c1 == c2


def dying_on_n5(args):
    """_process_ticket, except that the worker process dies on n = 5 tickets."""
    if args[1] == 5:
        os._exit(1)
    return process_ticket(args)


def test_dead_worker_fails_its_tickets(tmp_path, monkeypatch):
    import kssearch.pipeline as pl

    spec = spec_for(tmp_path / "j", 5, ticket_depth=3, workers=2)
    monkeypatch.setattr(pl, "_process_ticket", dying_on_n5)
    summary = pl.run_search(spec)
    failed = summary["tickets_failed"]
    # the broken pool fails the dead tickets, and any others still pending
    assert sum(f.startswith("n=5, ticket=") for f in failed) == 2
    assert all(": BrokenProcessPool: " in f for f in failed)
    assert not summary["complete"]
    assert summary["tickets_processed"] + len(failed) == 7
    monkeypatch.setattr(pl, "_process_ticket", process_ticket)
    assert pl.run_search(spec)["complete"]
    clean = spec_for(tmp_path / "clean", 5, ticket_depth=3)
    run_search(clean)
    c1 = open(os.path.join(spec.out_dir, "catalog.jsonl"), "rb").read()
    c2 = open(os.path.join(clean.out_dir, "catalog.jsonl"), "rb").read()
    assert c1 == c2


# ---------------------------------------------------------------------------
# CLI

def cli(*args, input=None):
    return subprocess.run(
        [sys.executable, "-m", "kssearch.cli", *args],
        capture_output=True,
        text=True,
        input=input,
    )


def test_cli_enumerate_and_usage():
    r = cli("enumerate", "--n", "4")
    assert r.returncode == 0 and len(r.stdout.splitlines()) == 3
    r = cli("enumerate")
    assert r.returncode == 1
    r = cli("enumerate", "--n", "4", "--filters", "nonsense")
    assert r.returncode == 1


def test_cli_enumerate_rejects_unreachable_ticket():
    # 3:5 is the path 0-2-1, not canonical: an error, not an empty subtree
    r = cli("enumerate", "--n", "5", "--ticket", "3:5")
    assert r.returncode == 1 and r.stdout == ""
    assert "ticket 3:5: prefix is not canonical" in r.stderr
    r = cli("enumerate", "--n", "3", "--ticket", "3:5")
    assert r.returncode == 1 and r.stdout == ""
    r = cli("enumerate", "--n", "5", "--ticket", "3:6")
    assert r.returncode == 0 and len(r.stdout.splitlines()) == 4


def test_cli_colour_and_exports():
    g6 = graph6_encode(K3)
    r = cli("colour", input=g6 + "\n")
    data = json.loads(r.stdout)
    assert data["colourable"] and r.returncode == 0
    r = cli("export-cnf", input=g6 + "\n")
    assert "p cnf 3 4" in r.stdout
    r = cli("export-poly", input=g6 + "\n")
    assert "# legend:" in r.stdout and r.returncode == 0
    r = cli("colour", input="not-a-graph6-\x01\n")
    assert r.returncode == 1


def test_cli_embed_grid():
    g6 = graph6_encode(K3)
    r = cli("embed-grid", "--grid-n", "1", input=g6 + "\n")
    data = json.loads(r.stdout)
    assert data["embedded"] and r.returncode == 0


def test_cli_embed_interval_exit_codes(tmp_path):
    g6 = graph6_encode(K3)
    r = cli("embed-interval", input=g6 + "\n")
    assert r.returncode == 0 and json.loads(r.stdout)["verdict"] == "embeddable"
    c4 = graph6_encode(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    ckpt = str(tmp_path / "ckpt.json")
    r = cli("embed-interval", "--budget", "1", "--checkpoint-out", ckpt, input=c4 + "\n")
    assert r.returncode == 3  # budget-exhausted-inconclusive
    r = cli("embed-interval", "--budget", "100000", "--resume", ckpt, input=c4 + "\n")
    assert r.returncode == 0 and json.loads(r.stdout)["verdict"] == "unembeddable"
    for budget in ("0", "-5"):
        r = cli("embed-interval", "--budget", budget, input=c4 + "\n")
        assert r.returncode == 1 and r.stdout == "" and "budget" in r.stderr


def test_cli_embed_interval_resume_rejects_foreign_checkpoint(tmp_path):
    c4 = graph6_encode(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    p4 = graph6_encode(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
    ckpt = str(tmp_path / "ckpt.json")
    r = cli("embed-interval", "--budget", "1", "--checkpoint-out", ckpt, input=c4 + "\n")
    assert r.returncode == 3
    # C4's residual boxes say nothing about P4, which is embeddable
    r = cli("embed-interval", "--resume", ckpt, input=p4 + "\n")
    assert r.returncode == 1 and r.stdout == "" and "checkpoint" in r.stderr
    r = cli("embed-interval", "--delta", "0.01", "--resume", ckpt, input=c4 + "\n")
    assert r.returncode == 1 and r.stdout == "" and "delta" in r.stderr


@pytest.mark.parametrize(
    "boxes,message",
    [
        ([[[math.nan, math.nan]] * 6], "resume box 0"),  # was read as unembeddable
        ([[[5, 6]] * 6], "resume box 0"),  # outside the cover: was unembeddable
        ([[[-1, 1], [-1, 1], [0, 1]]], "resume box 0"),  # three variables: was an IndexError
        ([[[0.5, 0.25]] + [[0, 1]] * 5], "resume box 0"),  # an inverted interval
        ([[["a", 1]] * 6], "not two numbers"),
    ],
)
def test_cli_embed_interval_rejects_bad_checkpoint_boxes(tmp_path, boxes, message):
    p4 = graph6_encode(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
    ckpt = tmp_path / "ckpt.json"
    r = cli("embed-interval", "--budget", "1", "--checkpoint-out", str(ckpt), input=p4 + "\n")
    assert r.returncode == 3
    data = json.loads(ckpt.read_text())
    data["boxes"] = boxes
    ckpt.write_text(json.dumps(data) + "\n")
    r = cli("embed-interval", "--resume", str(ckpt), input=p4 + "\n")
    assert r.returncode == 1 and r.stdout == "" and message in r.stderr, r.stderr


@pytest.mark.parametrize(
    "line,message",
    [
        ('{"version": 1, "graph6": "Cl"}', "delta"),  # was a KeyError
        ('{"version": 1, "graph6": "Cl", "boxes": []}', "delta"),
        ('{"version": 1, "graph6": "Cl", "delta": 0.0001}', "boxes"),
        ("[1]", "JSON object"),  # was an AttributeError
        ('"x"', "JSON object"),
        ('{"version": 1, "graph6": "Cl", "delta": 0.0001, "boxes": 5}', "boxes"),  # was a TypeError
        ('{"version": 1, "graph6": "Cl", "delta": 0.0001, "boxes": [5]}', "boxes"),
        ('{"version": 1, "graph6": 7, "delta": 0.0001, "boxes": []}', "graph6"),
        ('{"version": 1, "graph6": "Cl", "delta": "0.0001", "boxes": []}', "delta"),
    ],
)
def test_cli_embed_interval_rejects_malformed_checkpoint_line(tmp_path, line, message):
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(line + "\n")
    r = cli("embed-interval", "--resume", str(ckpt), input="Cl\n")
    assert r.returncode == 1 and r.stdout == "" and "Traceback" not in r.stderr
    assert r.stderr.startswith("error:") and message in r.stderr, r.stderr


def test_cli_embed_interval_checkpoints_every_inconclusive_input(tmp_path):
    c4, g10 = "Cl", "I{O_ogI@W"
    both = f"{c4}\n{g10}\n"
    ckpt = str(tmp_path / "ckpt.jsonl")
    r = cli("embed-interval", "--budget", "1", "--checkpoint-out", ckpt, input=both)
    assert r.returncode == 3
    with open(ckpt) as fh:
        assert [json.loads(line)["graph6"] for line in fh] == [c4, g10]
    # each input resumes from its own line: C4 finishes, the n = 10 class goes on
    r = cli("embed-interval", "--budget", "50", "--resume", ckpt, input=both)
    assert r.returncode == 3, r.stderr
    verdicts = [json.loads(line) for line in r.stdout.splitlines()]
    assert [(v["graph6"], v["verdict"]) for v in verdicts] == [
        (c4, "unembeddable"),
        (g10, "inconclusive"),
    ]


def test_cli_verify_known_failure_exit_code(monkeypatch):
    r = cli("verify-known", "grid-counts")
    assert r.returncode == 0
    r = cli("verify-known", "bogus")
    assert r.returncode == 1  # usage: unknown choice


def test_cli_random_graphs_seeded():
    r1 = cli("random-graphs", "--n", "8", "--count", "20", "--seed", "5")
    r2 = cli("random-graphs", "--n", "8", "--count", "20", "--seed", "5")
    assert r1.returncode == 0 and r1.stdout == r2.stdout
    assert len(r1.stdout.splitlines()) == 20
    r3 = cli("random-graphs", "--n", "8", "--count", "5", "--seed", "5",
             "--filters", "square-free,connected")
    from kssearch.graphs import graph6_decode, is_square_free, is_connected

    for line in r3.stdout.splitlines():
        g = graph6_decode(line)
        assert is_square_free(g) and is_connected(g)


def test_cli_pipeline_and_report(tmp_path):
    out = str(tmp_path / "job")
    r = cli("pipeline", "--n", "1..5", "--out", out)
    assert r.returncode == 0
    r = cli("pipeline", "--n", "1..5", "--out", out)
    assert r.returncode == 1  # refuses to clobber without --resume
    # a job stopped before any ticket finished holds only spec.json: still a job
    started = str(tmp_path / "started")
    run_search(JobSpec(n_min=1, n_max=5, out_dir=started), max_tickets=0)
    os.remove(os.path.join(started, "catalog.jsonl"))
    os.remove(os.path.join(started, "summary.json"))
    r = cli("pipeline", "--n", "1..5", "--out", started)
    assert r.returncode == 1 and "--resume" in r.stderr
    r = cli("pipeline", "--n", "1..5", "--out", out, "--resume")
    assert r.returncode == 0
    r = cli("report", "--catalog", os.path.join(out, "catalog.jsonl"))
    assert r.returncode == 0 and r.stdout.startswith("n,count")


def test_cli_pipeline_exit_code_on_failed_ticket(tmp_path, monkeypatch, capsys):
    import kssearch.pipeline as pl
    from kssearch.cli import EXIT_OK, EXIT_VERIFICATION, main

    out = str(tmp_path / "job")
    real = pl._process_ticket
    failure = {2: OSError("disk went away")}
    monkeypatch.setattr(pl, "_process_ticket", failing_on_calls(real, failure))
    assert main(["pipeline", "--n", "1..4", "--out", out]) == EXIT_VERIFICATION
    summary = json.loads(capsys.readouterr().err)
    assert summary["tickets_failed"] == [
        "n=2, ticket=root: OSError: disk went away"
    ]
    monkeypatch.setattr(pl, "_process_ticket", real)
    assert main(["pipeline", "--n", "1..4", "--out", out, "--resume"]) == EXIT_OK
