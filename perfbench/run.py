#!/usr/bin/env python3
"""One run of one kssearch benchmark workload.

    python3 perfbench/run.py --workload {search,candidates,verdicts} \\
        --seed N --seconds S --trace {0,1} [--smoke]

The checkout root is this file's parent directory; the program is imported
from its ``src``, and a run fails (exit 2, no result) when that is missing.
BENCHMARK.json at the root lists the workloads and metrics; jobs.py says
what each workload runs and checks.  The loop is closed: one process runs
one job at a time.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
over fresh interpreters, each importing kssearch and building the
workload's grids and inputs.  The job then repeats while another pass fits
in ``--seconds``, and at least MIN_PASSES times.  ``wall_s`` is the median
over the passes of the job's wall time.  The detail line also holds each
pass's CPU time, which shows whether a slow pass lost time to other
processes or ran slower on the CPU.

``--trace 1`` reports the per-layer metrics: one untraced job, then one
job with every layer wrapped in spans (spans.py).  ``trace.overhead_s`` is
the traced minus the untraced wall time, one pair of jobs, so on a shared
machine it is as noisy as a single job's wall time.

Every job's output is checked.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the provenance (commit, Python, numpy, CPU, nproc) and the run's details.
Both are also written, with the spans of a traced run, to
``.perfbench_out/`` in the checkout.  ``--smoke`` runs reduced inputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import jobs
import spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
MIN_PASSES = 3

_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import jobs
jobs.setup({workload!r}, {seed!r}, {smoke!r}, {workdir!r})
print(time.perf_counter() - t0)
"""


def probe_setup(workload: str, seed: int, smoke: bool, workdir: str) -> float:
    """Seconds one fresh interpreter takes to import kssearch and set up."""
    code = _PROBE.format(
        src=str(SRC), bench=str(Path(__file__).parent),
        workload=workload, seed=seed, smoke=smoke, workdir=workdir,
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, cwd=ROOT
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def provenance() -> dict:
    import numpy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, cwd=ROOT, env=env,
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"
    except OSError:
        commit = "unknown (git not found)"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def timed(workload):
    """One job: its wall seconds, its CPU seconds and its output."""
    gc.collect()
    w0, c0 = time.perf_counter(), time.process_time()
    output = workload.job()
    return time.perf_counter() - w0, time.process_time() - c0, output


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="reduced inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "kssearch" / "__init__.py").is_file():
        print(f"perfbench: no kssearch source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kssearch

    if Path(kssearch.__file__).resolve().parent != SRC / "kssearch":
        print(f"perfbench: kssearch imported from {kssearch.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    setup_s = None
    if not args.trace:
        setup_s = statistics.median(
            probe_setup(args.workload, args.seed, args.smoke, workdir) for _ in range(SETUP_PROBES)
        )
    workload = jobs.setup(args.workload, args.seed, args.smoke, workdir)

    outcome = jobs.Outcome()
    wall_s, cpu_s, sweeps = [], [], []

    def checked(output):
        one = workload.check(output)
        outcome.attempted += one.attempted
        outcome.failed += one.failed
        outcome.questions += one.questions
        outcome.certified += one.certified
        outcome.problems += one.problems
        sweeps.append(one.sweeps)

    tracer = None
    if args.trace:
        untraced, cpu, output = timed(workload)
        checked(output)
        gc.collect()
        with spans.Tracer() as tracer:
            t0 = time.perf_counter()
            output = workload.job()
            traced = time.perf_counter() - t0
        checked(output)
        wall_s, cpu_s = [untraced, traced], [cpu]
        values = spans.layer_metrics(tracer.spans, traced)
        values["trace.overhead_s"] = traced - untraced
    else:
        start = time.perf_counter()
        while True:
            wall, cpu, output = timed(workload)
            wall_s.append(wall)
            cpu_s.append(cpu)
            checked(output)
            spent = time.perf_counter() - start
            if len(wall_s) >= MIN_PASSES and spent + statistics.median(wall_s) > args.seconds:
                break
        values = {
            "wall_s": statistics.median(wall_s),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": 1 - outcome.failed / outcome.attempted,
            # no embeddability question arises (search at n <= 10): vacuously 1
            "certified_ratio": outcome.certified / outcome.questions if outcome.questions else 1.0,
        }
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "provenance": provenance(),
        "job_wall_s": wall_s,
        "job_cpu_s": cpu_s,
        "sweeps_per_job": sweeps,
        "questions": outcome.questions,
        "certified": outcome.certified,
        "problems": outcome.problems[:20],
    }
    stem = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    if tracer is not None:
        with open(OUT / f"{stem}-spans.json", "w") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
