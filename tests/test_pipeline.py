"""Job orchestration: catalog persistence, resume, determinism, CLI, reports."""

import contextlib
import gc
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings

import pytest

from kssearch import pipeline
from kssearch.catalog import CatalogRecord, read_records
from kssearch.constraints import DEFAULT_DELTA, MIN_DELTA
from kssearch.graphs import ENUM_MAX_VERTICES, Graph, graph6_encode
from kssearch.grids import GridEmbedding, get_grid, minimize_uncolourable, validate_grid_embedding
from kssearch.orderly import CanonicalBudgetExceeded, list_tickets
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
    with pytest.raises(ValueError, match="JSON object"):
        JobSpec.from_json("[]")


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


def embedded_line(interval, **grid):
    """A record line of a grid-embedded graph (N = 1) with these values."""
    flags = {"square_free": True, "four_colourable": True}
    grid = {"embedded_n": 1, "tried_up_to": 1, **grid}
    return json.dumps({"graph6": "Bw", "n": 3, "flags": flags, "grid": grid, "interval": interval})


@pytest.mark.parametrize(
    "line,message",
    [
        ('{"graph6": "Bw", "n": 3}', "'flags'"),  # was a KeyError
        ('{"n": 3, "flags": {}}', "'graph6'"),
        ('{"graph6": "Bw", "flags": {}}', "'n'"),
        ("[1]", "JSON object"),
        ('{"graph6": 3, "n": 3, "flags": {}}', "'graph6'"),
        ('{"graph6": "Bw", "n": true, "flags": {}}', "'n'"),
        ('{"graph6": "Bw", "n": "3", "flags": {}}', "'n'"),
        ('{"graph6": "Bw", "n": 3, "flags": [1]}', "'flags'"),  # was an AttributeError
        ('{"graph6": "Bw", "n": 3, "flags": {}, "grid": []}', "'grid'"),
        ('{"graph6": "Bw", "n": 3, "flags": {}, "interval": 1}', "'interval'"),
        # inside a grid-embedded record: a KeyError, a TypeError, two Fraction
        # errors and an accepted record before their types were checked
        (embedded_line({"verdict": "unembeddable"}), "'delta'"),
        (embedded_line({"verdict": "unembeddable", "delta": 1e-4}, witness=5), "'witness'"),
        (embedded_line({"verdict": "unembeddable", "delta": "a"}), "'delta'"),
        (embedded_line({"verdict": "unembeddable", "delta": math.inf}), "'delta'"),
        (embedded_line(None, embedded_n="x"), "'embedded_n'"),
    ],
)
def test_record_from_json_names_missing_key(line, message):
    with pytest.raises(ValueError, match=message):
        CatalogRecord.from_json(line)


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
    g = minimize_uncolourable(get_grid(2), list(range(49))).graph

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


def test_evaluate_graph_rechecks_refutations_exactly(monkeypatch):
    from kssearch import embedding

    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    recheck = embedding.recheck_refutation_exact
    kinds = []

    def spy(cs, refutation):
        kinds.append(refutation.kind)
        return recheck(cs, refutation)

    # C4 posing as an uncolourable candidate reaches the interval stage
    monkeypatch.setattr(pipeline, "is_k_colourable", lambda g, k: (False, None))
    monkeypatch.setattr(pipeline, "solve_101", lambda g: None)
    monkeypatch.setattr(embedding, "recheck_refutation_exact", spy)
    rec = evaluate_graph(c4, grid_ladder=())
    assert rec.interval["verdict"] == "unembeddable"
    assert kinds
    monkeypatch.setattr(embedding, "recheck_refutation_exact", lambda cs, refutation: False)
    with pytest.raises(AssertionError, match="exact shadow check failed"):
        evaluate_graph(c4, grid_ladder=())


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


def failing_on_calls(real, failures):
    """_process_ticket raising failures[k] on its k-th call."""
    calls = {"n": 0}

    def flaky(args):
        calls["n"] += 1
        if calls["n"] in failures:
            raise failures[calls["n"]]
        return real(args)

    return flaky


def interrupt_on_call(monkeypatch, spec, k):
    """Run ``spec`` as if Ctrl-C hit it in its k-th walk: the
    KeyboardInterrupt escapes run_search and leaves ``spec.json`` and the
    shards of the k - 1 walks before it, with no catalog and no summary.
    Returns the names of those shards."""
    real = pipeline._process_ticket
    interrupted = failing_on_calls(real, {k: KeyboardInterrupt()})
    monkeypatch.setattr(pipeline, "_process_ticket", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_search(spec)
    monkeypatch.setattr(pipeline, "_process_ticket", real)
    assert sorted(os.listdir(spec.out_dir)) == ["shards", "spec.json"]
    return sorted(os.listdir(os.path.join(spec.out_dir, "shards")))


def test_resume_after_interruption(tmp_path, monkeypatch):
    full = spec_for(tmp_path / "full", 8, ticket_depth=4)
    run_search(full)
    part = spec_for(tmp_path / "part", 8, ticket_depth=4)
    # the root covers n = 1..4, each of the 3 tickets at depth 4 n = 5..8
    assert interrupt_on_call(monkeypatch, part, 4) == ["4-34.jsonl", "4-3c.jsonl", "root.jsonl"]
    # a crashed shard write leaves only a .tmp file; it must be ignored
    stale = os.path.join(part.out_dir, "shards", "4-32.jsonl.tmp")
    open(stale, "w").write('{"junk": true}\n')
    resumed = run_search(part)
    assert resumed["tickets_processed"] == 1 and resumed["complete"]
    c1 = open(os.path.join(full.out_dir, "catalog.jsonl"), "rb").read()
    c2 = open(os.path.join(part.out_dir, "catalog.jsonl"), "rb").read()
    assert c1 == c2


def test_resume_reruns_logged_ticket_without_shard(tmp_path):
    # a ticket is done exactly when its shard exists: a lost shard is rerun
    full = spec_for(tmp_path / "full", 8, ticket_depth=4)
    run_search(full)
    part = spec_for(tmp_path / "part", 8, ticket_depth=4)
    run_search(part)
    lost = os.path.join(part.out_dir, "shards", "4-34.jsonl")
    assert len(read_records(lost)) > 0
    os.remove(lost)
    resumed = run_search(part)
    assert resumed["tickets_processed"] == 1 and resumed["complete"]
    assert os.path.exists(lost)
    c1 = open(os.path.join(full.out_dir, "catalog.jsonl"), "rb").read()
    c2 = open(os.path.join(part.out_dir, "catalog.jsonl"), "rb").read()
    assert c1 == c2


def test_shards_are_one_per_walk(tmp_path):
    spec = spec_for(tmp_path / "j", 8, ticket_depth=4)
    run_search(spec)
    tickets = [t.ticket_id.replace(":", "-") + ".jsonl" for t in list_tickets(4)]
    assert len(tickets) == 3
    shards = os.listdir(os.path.join(spec.out_dir, "shards"))
    assert sorted(shards) == sorted(["root.jsonl", *tickets])


def test_catalog_merges_only_the_shards_of_the_job(tmp_path):
    spec = spec_for(tmp_path / "j", 8, ticket_depth=4)
    run_search(spec)
    catalog = os.path.join(spec.out_dir, "catalog.jsonl")
    clean = open(catalog, "rb").read()
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    stray = evaluate_graph(k4).to_json()  # a valid record of a graph no walk yields
    open(os.path.join(spec.out_dir, "shards", "extra.jsonl"), "w").write(stray + "\n")
    assert run_search(spec)["records"] == len(clean.splitlines())
    assert open(catalog, "rb").read() == clean


def test_resume_accepts_older_job_directory(tmp_path):
    # job directories from before one shard per walk hold a shard per size
    # and walk, <n>_<ticket>.jsonl; from before shards were written in
    # catalog format, also a tickets.log and lines with a "timestamps" key
    spec = spec_for(tmp_path / "old", 8, ticket_depth=4)
    run_search(spec)
    catalog = os.path.join(spec.out_dir, "catalog.jsonl")
    clean = open(catalog, "rb").read()
    os.remove(catalog)
    shard_dir = os.path.join(spec.out_dir, "shards")
    stamp = {"timestamps": {"created": "2026-01-01T00:00:00Z"}}
    keys, old = [], {}
    for name in sorted(os.listdir(shard_dir)):
        path = os.path.join(shard_dir, name)
        for line in open(path):
            data = {**json.loads(line), **stamp}
            key = f"{data['n']}_{name}"
            old[key] = old.get(key, "") + json.dumps(data, sort_keys=True) + "\n"
        os.remove(path)
    for name, text in old.items():
        keys.append(name[: -len(".jsonl")].replace("_", "/").replace("-", ":") + "\n")
        open(os.path.join(shard_dir, name), "w").write(text)
    open(os.path.join(spec.out_dir, "tickets.log"), "w").writelines(keys)
    # the walks rerun; the older files stay as they were, and none is read
    resumed = run_search(spec)
    assert resumed["tickets_processed"] == 4 and resumed["complete"]
    assert open(catalog, "rb").read() == clean
    assert all(open(os.path.join(shard_dir, name)).read() == text for name, text in old.items())
    # a walk's shard whose lines carry a "timestamps" key still compacts
    root = os.path.join(shard_dir, "root.jsonl")
    lines = [json.dumps({**json.loads(line), **stamp}, sort_keys=True) for line in open(root)]
    open(root, "w").writelines(line + "\n" for line in lines)
    assert run_search(spec)["tickets_processed"] == 0
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


def test_resume_through_another_path_with_another_worker_count(tmp_path, monkeypatch):
    full = spec_for(tmp_path / "full", 8, ticket_depth=4)
    run_search(full)
    part = spec_for(tmp_path / "part", 8, ticket_depth=4)
    assert len(interrupt_on_call(monkeypatch, part, 4)) == 3
    stored = open(os.path.join(part.out_dir, "spec.json")).read()
    os.rename(part.out_dir, tmp_path / "moved")
    monkeypatch.chdir(tmp_path)
    # neither the directory's path nor the worker count changes a record
    assert run_search(spec_for("./moved", 8, ticket_depth=4, workers=2))["complete"]
    c1 = open(os.path.join(full.out_dir, "catalog.jsonl"), "rb").read()
    assert open("moved/catalog.jsonl", "rb").read() == c1
    assert open("moved/spec.json").read() == stored
    for changed in ({"interval_budget": 5}, {"ticket_depth": 5}):
        with pytest.raises(ValueError, match="different job spec"):
            run_search(spec_for("./moved", 8, **{"ticket_depth": 4, **changed}))


def test_spec_json_holds_the_job_spec_fields_only(tmp_path):
    spec = spec_for(tmp_path / "j", 3)
    run_search(spec)
    data = json.loads(open(os.path.join(spec.out_dir, "spec.json")).read())
    assert sorted(data) == sorted([
        "n_min", "n_max", "out_dir", "grid_ladder", "interval_budget", "delta",
        "ticket_depth", "workers",
    ])
    assert JobSpec.from_json(json.dumps(data)) == spec


def test_resume_accepts_a_spec_with_the_filter_keys_true(tmp_path, capsys, monkeypatch):
    """A spec.json from before enumeration lost its square-free/connected
    filter knob holds both keys; set to true, they are the only class."""
    from kssearch.cli import EXIT_USAGE, main

    clean = spec_for(tmp_path / "clean", 8, ticket_depth=4)
    run_search(clean)
    spec = spec_for(tmp_path / "j", 8, ticket_depth=4)
    interrupt_on_call(monkeypatch, spec, 4)
    path = os.path.join(spec.out_dir, "spec.json")
    data = json.loads(open(path).read())
    data.update(square_free=True, connected=True)
    old = json.dumps(data, sort_keys=True)  # the earlier writer's exact format
    open(path, "w").write(old)
    assert run_search(spec)["complete"]
    catalog = "catalog.jsonl"
    assert open(os.path.join(spec.out_dir, catalog), "rb").read() == open(
        os.path.join(clean.out_dir, catalog), "rb"
    ).read()
    assert open(path).read() == old
    open(path, "w").write(old.replace('"connected": true', '"connected": false'))
    with pytest.raises(ValueError, match="'connected' value False is not true"):
        run_search(spec)
    argv = ["pipeline", "--n", "1..8", "--tickets-depth", "4", "--out", spec.out_dir, "--resume"]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'connected'" in err, err


def test_resume_rejects_changed_spec(tmp_path):
    spec = spec_for(tmp_path / "j", 4)
    run_search(spec)
    other = spec_for(tmp_path / "j", 5)
    with pytest.raises(ValueError):
        run_search(other)


def _edit_json_lines(path, edit) -> None:
    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    for data in lines:
        edit(data)
    with open(path, "w") as fh:
        fh.writelines(json.dumps(data) + "\n" for data in lines)


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda d: d.update(bogus=1), "unknown key 'bogus'"),  # was a TypeError
        (lambda d: d.pop("workers"), "'workers'"),
        (lambda d: d.pop("n_max"), "'n_max'"),  # was a TypeError
        (lambda d: d.update(grid_ladder=5), "'grid_ladder'"),  # was a TypeError
        (lambda d: d.update(grid_ladder=[1, True]), "'grid_ladder'"),
        (lambda d: d.update(n_max="4"), "'n_max'"),
        (lambda d: d.update(workers=True), "'workers'"),
        (lambda d: d.update(interval_budget=None), "'interval_budget'"),
        (lambda d: d.update(delta="0.01"), "'delta'"),
        (lambda d: d.update(out_dir=7), "'out_dir'"),
        (lambda d: d.update(square_free=1), "'square_free'"),
        (lambda d: d.update(square_free=False), "'square_free'"),
        (lambda d: d.update(connected=None), "'connected'"),
    ],
)
def test_resume_rejects_malformed_spec(tmp_path, capsys, edit, message):
    from kssearch.cli import EXIT_USAGE, main

    spec = spec_for(tmp_path / "j", 4)
    run_search(spec)
    _edit_json_lines(os.path.join(spec.out_dir, "spec.json"), edit)
    with pytest.raises(ValueError, match=message):
        run_search(spec)
    assert main(["pipeline", "--n", "1..4", "--out", spec.out_dir, "--resume"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err, err


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda d: d.pop("flags"), "'flags'"),  # was a KeyError
        (lambda d: d.update(flags=[1]), "'flags'"),  # was an AttributeError
        (lambda d: d.update(n="4"), "'n'"),
        (lambda d: d.update(grid=5), "'grid'"),
        (lambda d: d.update(interval="x"), "'interval'"),
        (lambda d: d["grid"].update(tried_up_to="x"), "'tried_up_to'"),
    ],
)
def test_malformed_record_line_is_a_usage_error(tmp_path, capsys, edit, message):
    from kssearch.cli import EXIT_USAGE, main

    spec = spec_for(tmp_path / "j", 4)
    run_search(spec)
    shard = os.path.join(spec.out_dir, "shards", "root.jsonl")
    catalog = os.path.join(spec.out_dir, "catalog.jsonl")
    capsys.readouterr()
    for path, argv in [
        (catalog, ["report", "--catalog", catalog]),
        (shard, ["pipeline", "--n", "1..4", "--out", spec.out_dir, "--resume"]),  # in compact
    ]:
        _edit_json_lines(path, edit)
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {path}, line 1: ") and message in err, err


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


def test_pool_has_no_more_workers_than_walks(tmp_path, monkeypatch):
    """The pool forks all its workers at the first submit, so it is sized
    by the walks left to run; one walk left runs in the job's process."""
    import concurrent.futures

    sizes = []

    class InlinePool:  # records its size and runs each task at submit
        def __init__(self, max_workers, **_):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *_):
            return False

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    # the root walks n = 1..3, each of the 2 tickets at depth 3 n = 4..5
    for workers, pooled in [(5, [3]), (64, [3]), (2, [2]), (1, [])]:
        sizes.clear()
        spec = spec_for(tmp_path / str(workers), 5, ticket_depth=3, workers=workers)
        assert run_search(spec)["tickets_processed"] == 3
        assert sizes == pooled
    os.remove(os.path.join(spec.out_dir, "shards", "root.jsonl"))
    resumed = run_search(spec_for(spec.out_dir, 5, ticket_depth=3, workers=5))
    assert resumed["tickets_processed"] == 1
    assert sizes == []
    assert run_search(spec_for(tmp_path / "small", 3, workers=4))["tickets_processed"] == 1
    assert sizes == []


FAILURES = {
    2: OSError("disk went away"),
    4: AssertionError("witness re-validation failed"),
    6: CanonicalBudgetExceeded("canonical_label exceeded 3 nodes on n=5"),
}


def test_ticket_failure_isolated(tmp_path, monkeypatch):
    import kssearch.pipeline as pl

    # the root and the 8 tickets at depth 5: 9 walks
    spec = spec_for(tmp_path / "j", 7, ticket_depth=5)
    real = pl._process_ticket
    monkeypatch.setattr(pl, "_process_ticket", failing_on_calls(real, FAILURES))
    summary = pl.run_search(spec)
    failed = summary["tickets_failed"]
    assert [f.split(": ", 1)[1] for f in failed] == [
        f"{type(e).__name__}: {e}" for e in FAILURES.values()
    ]
    # calls 2, 4 and 6 are walks of tickets, each covering n = 6..7
    assert all(f.startswith("n=6..7, ticket=5:") for f in failed)
    assert not summary["complete"]
    assert summary["tickets_processed"] == 9 - len(FAILURES)
    assert os.path.exists(os.path.join(spec.out_dir, "summary.json"))
    # the failed ticket is retried on resume and the catalog completes
    monkeypatch.setattr(pl, "_process_ticket", real)
    resumed = pl.run_search(spec)
    assert resumed["complete"]
    clean = spec_for(tmp_path / "clean", 7, ticket_depth=5)
    run_search(clean)
    c1 = open(os.path.join(spec.out_dir, "catalog.jsonl"), "rb").read()
    c2 = open(os.path.join(clean.out_dir, "catalog.jsonl"), "rb").read()
    assert c1 == c2
    # a walk of one size names that size alone
    monkeypatch.setattr(pl, "_process_ticket", failing_on_calls(real, {1: FAILURES[2]}))
    one = pl.run_search(JobSpec(n_min=5, n_max=5, out_dir=str(tmp_path / "one")))
    assert one["tickets_failed"] == ["n=5, ticket=root: OSError: disk went away"]


def dying_on_n5(args):
    """_process_ticket, except that the worker process dies on walks with n = 5."""
    if 5 in args[1]:
        os._exit(1)
    return process_ticket(args)


def test_dead_worker_fails_its_tickets(tmp_path, monkeypatch):
    import kssearch.pipeline as pl

    spec = spec_for(tmp_path / "j", 5, ticket_depth=3, workers=2)
    monkeypatch.setattr(pl, "_process_ticket", dying_on_n5)
    summary = pl.run_search(spec)
    failed = summary["tickets_failed"]
    # the broken pool fails the dead tickets, and any others still pending;
    # the root walks n = 1..3 and each of the 2 tickets at depth 3 n = 4..5
    assert sum(f.startswith("n=4..5, ticket=") for f in failed) == 2
    assert all(": BrokenProcessPool: " in f for f in failed)
    assert not summary["complete"]
    assert summary["tickets_processed"] + len(failed) == 3
    monkeypatch.setattr(pl, "_process_ticket", process_ticket)
    assert pl.run_search(spec)["complete"]
    clean = spec_for(tmp_path / "clean", 5, ticket_depth=3)
    run_search(clean)
    c1 = open(os.path.join(spec.out_dir, "catalog.jsonl"), "rb").read()
    c2 = open(os.path.join(clean.out_dir, "catalog.jsonl"), "rb").read()
    assert c1 == c2


def sleeping_in_tickets(args):
    """_process_ticket that walks the root but sleeps through each ticket."""
    if args[2]:
        time.sleep(30)
    return process_ticket(args)


@pytest.mark.parametrize("stop", ["KeyboardInterrupt", "SIGTERM"])
def test_a_stopped_job_kills_its_workers(tmp_path, monkeypatch, stop):
    """Ctrl-C, or a SIGTERM to ``kssearch pipeline``, stops a job with
    workers at once: the workers are killed, not left to run the walks
    still queued or, orphaned, to outlive the job."""
    from kssearch.cli import main

    spec = spec_for(tmp_path / "j", 8, ticket_depth=4, workers=2)
    argv = ["pipeline", "--n", "1..8", "--tickets-depth", "4", "--workers", "2"]
    argv += ["--out", spec.out_dir]
    monkeypatch.setattr(pipeline, "_process_ticket", sleeping_in_tickets)

    def fire(*_):
        if stop == "SIGTERM":
            os.kill(os.getpid(), signal.SIGTERM)
        else:
            raise KeyboardInterrupt

    def unhandled(*_):  # fails the test rather than ending the test run
        raise AssertionError("the SIGTERM reached the test, not the job")

    term = signal.signal(signal.SIGTERM, unhandled)
    alarm = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    start = time.monotonic()
    try:
        if stop == "SIGTERM":
            assert main(argv) == 128 + signal.SIGTERM
        else:
            with pytest.raises(KeyboardInterrupt):
                run_search(spec)
        assert signal.getsignal(signal.SIGTERM) is unhandled  # main restores the handler
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, alarm)
        signal.signal(signal.SIGTERM, term)
    assert time.monotonic() - start < 10  # the 3 ticket walks would sleep 2 x 30 s
    assert multiprocessing.active_children() == []
    assert sorted(os.listdir(spec.out_dir)) == ["shards", "spec.json"]
    shards = sorted(os.listdir(os.path.join(spec.out_dir, "shards")))
    assert shards == ["root.jsonl"]


# A pipeline job in its own interpreter whose ticket walks record their
# worker's pid in pids/ beside this module and then sleep
SLOW_JOB = """
import os
import sys
import time

from kssearch import cli, pipeline

PIDS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pids")
walk = pipeline._process_ticket


def slow(args):
    if args[2]:
        open(os.path.join(PIDS, str(os.getpid())), "w").close()
        time.sleep(60)
    return walk(args)


def main():
    os.makedirs(PIDS)
    pipeline._process_ticket = slow
    sys.exit(cli.main(sys.argv[1:]))
"""


@contextlib.contextmanager
def slow_job(tmp_path):
    """Run ``kssearch pipeline --workers 2`` with sleeping ticket walks;
    yields the process, its output directory and the pids of its two
    workers, once both sleep.  Kills what is left of it on the way out."""
    (tmp_path / "slowjob.py").write_text(SLOW_JOB)
    out = tmp_path / "job"
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(pipeline.__file__), os.pardir)
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), os.path.abspath(src)])
    argv = ["pipeline", "--n", "1..8", "--tickets-depth", "4", "--workers", "2", "--out", str(out)]
    proc = subprocess.Popen(
        [sys.executable, "-c", "import slowjob; slowjob.main()", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    pids_dir = tmp_path / "pids"
    pids = []
    try:
        deadline = time.monotonic() + 60
        while not (pids_dir.is_dir() and len(os.listdir(pids_dir)) == 2):
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline, "the workers never reached their ticket walks"
            time.sleep(0.05)
        pids = [int(p) for p in os.listdir(pids_dir)]
        yield proc, out, pids
    finally:
        for pid in pids:
            if running(pid):
                os.kill(pid, signal.SIGKILL)
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


def running(pid: int) -> bool:
    """Whether ``pid`` is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_a_stopped_job_prints_one_line(tmp_path, signum):
    """Ctrl-C or SIGTERM to ``kssearch pipeline`` writes one line to
    stderr, naming the job and ``--resume``, not a traceback, and exits with
    128 plus the signal's number: 130 or 143."""
    with slow_job(tmp_path) as (proc, out, pids):
        proc.send_signal(signum)
        stdout, stderr = proc.communicate(timeout=30)
        assert proc.returncode == {signal.SIGINT: 130, signal.SIGTERM: 143}[signum]
        assert stdout == ""
        assert stderr == f"stopped: rerun with --resume to continue the job in {out}\n"
        assert not any(running(pid) for pid in pids)


def test_workers_end_with_a_killed_job(tmp_path):
    """A job killed outright (SIGKILL, the OOM killer) runs no clean-up;
    its workers end themselves within 5 s of it."""
    with slow_job(tmp_path) as (proc, _, pids):
        assert all(running(pid) for pid in pids)
        proc.kill()
        proc.wait()  # its orphaned workers still hold its pipes open
        deadline = time.monotonic() + 5
        while any(running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(running(pid) for pid in pids)


def test_workers_run_under_a_forkserver_default(tmp_path):
    """The pool forks its workers whatever the interpreter's default start
    method (forkserver from Python 3.14), so each worker's parent is the
    job and no worker ends itself at its first check."""
    out = tmp_path / "job"
    run = (
        "import multiprocessing, sys; multiprocessing.set_start_method('forkserver'); "
        "from kssearch import cli; sys.exit(cli.main(sys.argv[1:]))"
    )
    argv = ["pipeline", "--n", "1..7", "--tickets-depth", "4", "--workers", "2", "--out", str(out)]
    r = subprocess.run([sys.executable, "-c", run, *argv], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["complete"] and summary["tickets_failed"] == []
    assert summary["tickets_processed"] == 1 + len(list_tickets(4))


# ---------------------------------------------------------------------------
# CLI

def cli(*args, input=None):
    return subprocess.run(
        [sys.executable, "-m", "kssearch.cli", *args],
        capture_output=True,
        text=True,
        input=input,
    )


def test_cli_enumerate_and_usage(tmp_path):
    r = cli("enumerate", "--n", "4")
    assert r.returncode == 0 and len(r.stdout.splitlines()) == 3
    r = cli("enumerate")
    assert r.returncode == 1
    for removed in ("export-poly", "random-graphs"):
        r = cli(removed)
        assert r.returncode == 1 and "invalid choice" in r.stderr
    # enumeration has one class of graphs, connected square-free ones
    out = tmp_path / "d"
    for argv in (["enumerate", "--n", "4"], ["pipeline", "--n", "4", "--out", str(out)]):
        r = cli(*argv, "--filters", "x")
        assert r.returncode == 1 and "unrecognized arguments: --filters x" in r.stderr
    assert not out.exists()


def test_cli_enumerate_tickets_partition_the_enumeration(capsys):
    from kssearch.cli import main

    assert main(["enumerate", "--n", "6", "--tickets-depth", "4"]) == 0
    tickets = capsys.readouterr().out.split()
    assert tickets == [t.ticket_id for t in list_tickets(4)]
    assert main(["enumerate", "--n", "6"]) == 0
    whole = capsys.readouterr().out.splitlines()
    parts = []
    for ticket in tickets:
        assert main(["enumerate", "--n", "6", "--ticket", ticket]) == 0
        parts += capsys.readouterr().out.splitlines()
    assert whole and sorted(parts) == sorted(whole)


@pytest.mark.parametrize("n, depth", [(3, 5), (3, 4), (4, 0), (4, -1)])
def test_cli_enumerate_tickets_depth_lies_in_1_to_n(capsys, n, depth):
    from kssearch.cli import EXIT_USAGE, main

    assert main(["enumerate", "--n", str(n), "--tickets-depth", str(depth)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --tickets-depth must lie in 1..{n} (--n), not {depth}\n"


def test_cli_enumerate_ticket_excludes_tickets_depth(capsys):
    from kssearch.cli import main

    with pytest.raises(SystemExit) as exit_:
        main(["enumerate", "--n", "5", "--ticket", "3:6", "--tickets-depth", "3"])
    assert exit_.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --tickets-depth: not allowed with argument --ticket" in captured.err


def test_cli_enumerate_rejects_unreachable_ticket():
    # 3:5 is the path 0-2-1, not canonical: an error, not an empty subtree
    r = cli("enumerate", "--n", "5", "--ticket", "3:5")
    assert r.returncode == 1 and r.stdout == ""
    assert "ticket 3:5: prefix is not canonical" in r.stderr
    r = cli("enumerate", "--n", "3", "--ticket", "3:5")
    assert r.returncode == 1 and r.stdout == ""
    r = cli("enumerate", "--n", "5", "--ticket", "3:6")
    assert r.returncode == 0 and len(r.stdout.splitlines()) == 4


@pytest.mark.parametrize("ticket", ["4:x", "abc", "4:", "3:ff"])
def test_cli_enumerate_rejects_a_malformed_ticket(capsys, ticket):
    from kssearch.cli import EXIT_USAGE, main

    # 3:ff is well formed but too wide: a 3-vertex code has 3 bits
    assert main(["enumerate", "--n", "3", "--ticket", ticket]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: ticket {ticket!r} is not N:HEX, a size N in 1..64 "
        "and a hex code of at most N(N-1)/2 bits\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["enumerate", "--n", "0"], "--n must lie in 1..64, not 0"),
        (["enumerate", "--n", "65"], "--n must lie in 1..64, not 65"),
        (["embed-grid", "--grid-n", "0"], "--grid-n must lie in 1..32, not 0"),
        (["embed-grid", "--grid-n", "40"], "--grid-n must lie in 1..32, not 40"),
    ],
)
def test_cli_rejects_a_size_outside_its_range(capsys, argv, message):
    from kssearch.cli import EXIT_USAGE, main

    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_colour_and_exports():
    g6 = graph6_encode(K3)
    r = cli("colour", input=g6 + "\n")
    data = json.loads(r.stdout)
    assert data["colourable"] and r.returncode == 0
    witness = data["witness"]
    assert set(witness) == {"0", "1", "2"} and set(witness.values()) <= {0, 1}
    r = cli("export-cnf", input=g6 + "\n")
    assert "p cnf 3 4" in r.stdout
    r = cli("colour", input="not-a-graph6-\x01\n")
    assert r.returncode == 1


def test_cli_closes_its_files(tmp_path):
    from kssearch.cli import main

    graphs, colours = tmp_path / "graphs.g6", tmp_path / "colours.jsonl"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(["enumerate", "--n", "4", "--out", str(graphs)]) == 0
        assert main(["colour", "--in", str(graphs), "--out", str(colours)]) == 0
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert len(colours.read_text().splitlines()) == 3


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
    r = cli("embed-interval", "--budget", "1", input=c4 + "\n")
    assert r.returncode == 3  # budget-exhausted-inconclusive
    # an inconclusive run is continued by a rerun with a larger budget
    r = cli("embed-interval", "--budget", "100000", input=c4 + "\n")
    assert r.returncode == 0 and json.loads(r.stdout)["verdict"] == "unembeddable"
    for budget in ("0", "-5"):
        r = cli("embed-interval", "--budget", budget, input=c4 + "\n")
        assert r.returncode == 1 and r.stdout == "" and "budget" in r.stderr
    for removed in ("--resume", "--checkpoint-out"):
        path = tmp_path / "x"
        r = cli("embed-interval", "--budget", "1", removed, str(path), input=c4 + "\n")
        assert r.returncode == 1 and "unrecognized arguments" in r.stderr
        assert not path.exists()


def test_cli_embed_interval_rejects_a_bad_delta_for_an_edgeless_graph():
    r = cli("embed-interval", "--delta", "5", input="@\n")
    assert r.returncode == 1 and r.stdout == "" and "delta must lie in" in r.stderr, r.stderr


def test_cli_embed_interval_rechecks_refutations_exactly(tmp_path, monkeypatch, capsys):
    from kssearch import embedding
    from kssearch.cli import EXIT_OK, EXIT_VERIFICATION, main

    c4 = tmp_path / "c4.g6"
    c4.write_text("Cl\n")
    argv = ["embed-interval", "--budget", "100000", "--in", str(c4)]
    recheck = embedding.recheck_refutation_exact
    kinds = []

    def spy(cs, refutation):
        kinds.append(refutation.kind)
        return recheck(cs, refutation)

    monkeypatch.setattr(embedding, "recheck_refutation_exact", spy)
    assert main(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["verdict"] == "unembeddable"
    assert kinds
    # a refutation that fails its exact re-check is no verdict
    monkeypatch.setattr(embedding, "recheck_refutation_exact", lambda cs, refutation: False)
    assert main(argv) == EXIT_VERIFICATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: verification failed: exact shadow check failed")


def test_cli_embed_interval_reports_every_input_in_order():
    c4, g10 = "Cl", "I{O_ogI@W"
    r = cli("embed-interval", "--budget", "50", input=f"{c4}\n{g10}\n")
    assert r.returncode == 3, r.stderr  # one input left inconclusive
    records = [json.loads(line) for line in r.stdout.splitlines()]
    assert [(v["graph6"], v["verdict"]) for v in records] == [
        (c4, "unembeddable"),
        (g10, "inconclusive"),
    ]
    assert all(v["budget"] == 50 for v in records)
    assert records[1]["reason"] == "budget exhausted" and records[1]["residual_boxes"] > 0


@pytest.mark.parametrize("command", [
    ["colour"], ["embed-grid", "--grid-n", "1"], ["embed-interval"], ["export-cnf"],
])
def test_cli_graph6_error_names_its_line(tmp_path, capsys, command):
    from kssearch.cli import main

    graphs = tmp_path / "graphs.g6"
    graphs.write_text("Bw\n\nB!\n")  # the bad line comes after a blank one
    with pytest.raises(SystemExit) as exit_:
        main([*command, "--in", str(graphs)])
    assert exit_.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("line 3: invalid graph6 character '!'") and "Traceback" not in err


@pytest.mark.parametrize(
    "line,message",
    [
        ("D\x14", "invalid graph6 character"),
        ("~?", "truncated graph6 vertex count"),
        ("?", "vertex count 0 outside"),
        ("C", "truncated graph6 body"),
        ("Clx", "trailing bytes"),
        ("A@", "nonzero padding bits"),
    ],
)
def test_cli_embed_interval_rejects_malformed_graph6(line, message):
    r = cli("embed-interval", input=line + "\n")
    assert r.returncode == 1 and r.stdout == "" and "Traceback" not in r.stderr
    assert r.stderr.startswith(f"line 1: {message}"), r.stderr


@pytest.mark.parametrize(
    "args,message",
    [
        (["--n", "x"], "--n must be N or A..B, not 'x'"),
        (["--n", "1..2..3"], "--n must be N or A..B, not '1..2..3'"),
        (["--n", "3.."], "--n must be N or A..B, not '3..'"),
        (["--grid-n", "2,x"], "--grid-n must be comma-separated integers, not '2,x'"),
        (["--n", "5..3"], "n range"),
        (["--grid-n", "0"], "grid ladder"),
        (["--workers", "0"], "workers"),
        (["--budget", "0"], "interval budget"),
        (["--delta", "2"], "delta"),
        (["--tickets-depth", "0"], "ticket depth"),
    ],
)
def test_cli_pipeline_rejects_bad_arguments(tmp_path, capsys, args, message):
    from kssearch.cli import main

    out = tmp_path / "job"
    argv = ["pipeline", "--n", "3", "--out", str(out), *args]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err, err
    assert not out.exists()  # refused before any job file is written


def test_cli_verify_known_failure_exit_code(monkeypatch):
    r = cli("verify-known", "grid-counts")
    assert r.returncode == 0
    r = cli("verify-known", "bogus")
    assert r.returncode == 1  # usage: unknown choice


def test_cli_pipeline_and_report(tmp_path, monkeypatch):
    out = str(tmp_path / "job")
    r = cli("pipeline", "--n", "1..5", "--out", out)
    assert r.returncode == 0
    r = cli("pipeline", "--n", "1..5", "--out", out)
    assert r.returncode == 1  # refuses to clobber without --resume
    # a job stopped before any ticket finished holds only spec.json: still a job
    started = str(tmp_path / "started")
    assert interrupt_on_call(monkeypatch, JobSpec(n_min=1, n_max=5, out_dir=started), 1) == []
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
    # n = 1..4 lies below the default ticket depth: one walk of the root
    failure = {1: OSError("disk went away")}
    monkeypatch.setattr(pl, "_process_ticket", failing_on_calls(real, failure))
    assert main(["pipeline", "--n", "1..4", "--out", out]) == EXIT_VERIFICATION
    summary = json.loads(capsys.readouterr().err)
    assert summary["tickets_failed"] == [
        "n=1..4, ticket=root: OSError: disk went away"
    ]
    monkeypatch.setattr(pl, "_process_ticket", real)
    assert main(["pipeline", "--n", "1..4", "--out", out, "--resume"]) == EXIT_OK
