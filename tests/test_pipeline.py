"""Job orchestration: catalog persistence, resume, determinism, CLI, reports."""

import json
import math
import os
import subprocess
import sys

import pytest

from kssearch.catalog import CatalogRecord, compact, read_records
from kssearch.constraints import MIN_DELTA
from kssearch.graphs import Graph, graph6_encode
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
    # after a power loss the log line can outlive the shard's rename
    full = spec_for(tmp_path / "full", 8, ticket_depth=4)
    run_search(full)
    part = spec_for(tmp_path / "part", 8, ticket_depth=4)
    run_search(part)
    lost = os.path.join(part.out_dir, "shards", "8_4-34.jsonl")
    with open(os.path.join(part.out_dir, "tickets.log")) as fh:
        assert "8/4:34\n" in fh.readlines()
    assert len(read_records(lost)) > 0
    os.remove(lost)
    resumed = run_search(part)
    assert resumed["tickets_processed"] == 1 and resumed["complete"]
    assert os.path.exists(lost)
    c1 = open(os.path.join(full.out_dir, "catalog.jsonl"), "rb").read()
    c2 = open(os.path.join(part.out_dir, "catalog.jsonl"), "rb").read()
    assert c1 == c2


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


def test_compaction_is_timestamp_free(tmp_path):
    spec = spec_for(tmp_path / "j", 4)
    run_search(spec)
    for line in open(os.path.join(spec.out_dir, "catalog.jsonl")):
        assert "timestamps" not in json.loads(line)
    shard_dir = os.path.join(spec.out_dir, "shards")
    some_shard = next(f for f in os.listdir(shard_dir) if f.endswith(".jsonl"))
    for line in open(os.path.join(shard_dir, some_shard)):
        assert "timestamps" in json.loads(line)


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
