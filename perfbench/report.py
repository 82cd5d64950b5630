#!/usr/bin/env python3
"""Print every benchmark metric by name, with its unit, and check the outputs.

    python3 perfbench/report.py

Runs every workload in BENCHMARK.json at seed 0 for the benchmark's
``run_seconds``, untraced and traced, each run in its own process (about
three minutes in all).  Prints the provenance once and then one line per
metric: workload, metric, value, unit.  Exits 1 when any run's outputs fail
their checks.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    all_correct = True
    shown_provenance = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).with_name("run.py")),
                "--workload", workload, "--seed", "0",
                "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
            if proc.returncode != 0:
                print(f"{workload} trace={trace}: run failed\n{proc.stderr}", file=sys.stderr)
                return 1
            *_, detail_line, result_line = proc.stdout.splitlines()
            detail, result = json.loads(detail_line), json.loads(result_line)
            if not shown_provenance:
                print("provenance", json.dumps(detail["provenance"]))
                shown_provenance = True
            print(
                f"{workload} trace={trace}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}"
            )
            for name, m in result["metrics"].items():
                print(f"{workload:11s} {name:34s} {m['value']:>16.6g} {m['unit']}")
            for problem in detail["problems"]:
                print(f"{workload:11s} failed check: {problem}")
            all_correct &= result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
