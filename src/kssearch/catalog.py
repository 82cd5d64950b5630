"""Append-only JSON-lines results catalog with sorted compaction.

Raw shards carry timestamps for provenance; compaction produces the
canonical catalog (sorted by (n, graph6), deduplicated, timestamp-free) so
repeated runs compare byte-identical.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

TOOL_VERSION = "kssearch 0.1.0"

FLAG_NAMES = (
    "square_free",
    "connected",
    "min_degree_ge3",
    "every_vertex_in_triangle",
    "three_colourable",
    "four_colourable",
    "colourable_101",
)


@dataclass
class CatalogRecord:
    graph6: str
    n: int
    flags: dict
    grid: dict = field(default_factory=lambda: {"embedded_n": None, "tried_up_to": None})
    interval: dict | None = None
    timestamps: dict = field(default_factory=dict)
    tool_version: str = TOOL_VERSION

    def __post_init__(self):
        if not self.timestamps:
            self.timestamps = {"created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
        bad = self.consistency_errors()
        if bad:
            raise ValueError(f"inconsistent record for {self.graph6}: {bad}")

    def consistency_errors(self) -> list[str]:
        out = []
        f = self.flags
        if f.get("three_colourable") and not f.get("colourable_101"):
            out.append("3-colourable record not marked 101-colourable")
        if self.grid.get("embedded_n") is not None and not f.get("four_colourable"):
            out.append("grid-embedded record not marked 4-colourable")
        if self.grid.get("embedded_n") is not None and not f.get("square_free"):
            out.append("grid-embedded record not marked square-free")
        return out

    def to_json(self, include_timestamps: bool = True) -> str:
        data = {
            "graph6": self.graph6,
            "n": self.n,
            "flags": {k: self.flags.get(k) for k in FLAG_NAMES},
            "grid": self.grid,
            "interval": self.interval,
            "tool_version": self.tool_version,
        }
        if include_timestamps:
            data["timestamps"] = self.timestamps
        return json.dumps(data, sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "CatalogRecord":
        data = json.loads(line)
        return CatalogRecord(
            graph6=data["graph6"],
            n=data["n"],
            flags=data["flags"],
            grid=data.get("grid") or {"embedded_n": None, "tried_up_to": None},
            interval=data.get("interval"),
            timestamps=data.get("timestamps") or {"created": "unknown"},
            tool_version=data.get("tool_version", "unknown"),
        )


def read_records(path: str) -> list[CatalogRecord]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(CatalogRecord.from_json(line))
    return out


def compact(shard_paths, out_path: str) -> int:
    """Merge shards into the canonical catalog: sorted, deduplicated by
    graph6 text, timestamps stripped.  Atomic (write-then-rename)."""
    by_key: dict[tuple[int, str], CatalogRecord] = {}
    for path in shard_paths:
        if not os.path.exists(path):
            continue
        for rec in read_records(path):
            by_key[(rec.n, rec.graph6)] = rec
    tmp = out_path + ".tmp"
    with open(tmp, "w") as fh:
        for key in sorted(by_key):
            fh.write(by_key[key].to_json(include_timestamps=False) + "\n")
    os.replace(tmp, out_path)
    return len(by_key)
