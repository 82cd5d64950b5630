"""JSON-lines results catalog with sorted compaction.

Shard lines and catalog lines share one format; compaction merges shards
into the canonical catalog (sorted by (n, graph6), deduplicated) so repeated
runs compare byte-identical.  Every job file is written through
:func:`write_synced`, so a file that exists is complete.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

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
    tool_version: str = TOOL_VERSION

    def __post_init__(self):
        bad = self.consistency_errors()
        if bad:
            raise ValueError(f"inconsistent record for {self.graph6}: {bad}")

    def consistency_errors(self) -> list[str]:
        out = []
        f = self.flags
        if f.get("three_colourable") and not f.get("colourable_101"):
            out.append("3-colourable record not marked 101-colourable")
        embedded = self.grid.get("embedded_n") is not None
        if embedded and not f.get("four_colourable"):
            out.append("grid-embedded record not marked 4-colourable")
        if embedded and not f.get("square_free"):
            out.append("grid-embedded record not marked square-free")
        if embedded and (self.interval or {}).get("verdict") == "unembeddable":
            # the exact witness, when delta-separated, is itself an embedding
            # the refutation excludes
            if _separated(self.grid.get("witness") or [], self.interval["delta"]):
                out.append("grid witness contradicts the interval refutation")
        return out

    def to_json(self) -> str:
        data = {
            "graph6": self.graph6,
            "n": self.n,
            "flags": {k: self.flags.get(k) for k in FLAG_NAMES},
            "grid": self.grid,
            "interval": self.interval,
            "tool_version": self.tool_version,
        }
        return json.dumps(data, sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "CatalogRecord":
        """Parse one line; keys outside the record (older shards' provenance
        stamps) are ignored."""
        data = json.loads(line)
        return CatalogRecord(
            graph6=data["graph6"],
            n=data["n"],
            flags=data["flags"],
            grid=data.get("grid") or {"embedded_n": None, "tried_up_to": None},
            interval=data.get("interval"),
            tool_version=data.get("tool_version", "unknown"),
        )


def _separated(vectors, delta: float) -> bool:
    """Exactly: every pair of integer vectors keeps projective separation at
    least delta, (u.v)^2 <= (1 - delta^2) |u|^2 |v|^2."""
    bound = 1 - Fraction(delta) ** 2
    norms = [sum(c * c for c in v) for v in vectors]
    return all(
        sum(a * b for a, b in zip(vectors[i], vectors[j])) ** 2 <= bound * norms[i] * norms[j]
        for i, j in combinations(range(len(vectors)), 2)
    )


def read_records(path: str) -> list[CatalogRecord]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(CatalogRecord.from_json(line))
    return out


def write_synced(path: str, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to ``path`` atomically: a synced ``<path>.tmp``
    renamed into place, so a crash leaves the old file or the whole new one."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.writelines(chunks)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def compact(shard_paths, out_path: str) -> list[CatalogRecord]:
    """Merge shards into the canonical catalog, sorted by (n, graph6) and
    deduplicated (a later shard's record wins); returns its records in
    catalog order."""
    by_key: dict[tuple[int, str], CatalogRecord] = {}
    for path in shard_paths:
        for rec in read_records(path):
            by_key[(rec.n, rec.graph6)] = rec
    records = [by_key[key] for key in sorted(by_key)]
    write_synced(out_path, (rec.to_json() + "\n" for rec in records))
    return records
