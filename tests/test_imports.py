"""What kssearch imports.

Every name a kssearch module imports is read somewhere in that module.
Each module is parsed with ``ast``; a name bound by ``import`` or
``from … import`` that no expression of the module reads is dead.  The
package's ``__init__.py`` exports nothing: each name is imported from its
module, so importing the package loads no module, and an interval decision
loads only the modules it uses.

numpy and the process pool are imported by the functions that use them,
so enumeration, colouring, a search over 101-colourable graphs and
``report`` run without loading either.
"""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kssearch"

# (module, name) pairs that stay imported without being read, with the reason
ALLOWED = {
    # perfbench/spans.py traces ("pipeline", "read_records"); without the
    # binding every traced benchmark run raises AttributeError
    ("pipeline", "read_records"),
}


def unread_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_no_unread_imports():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    unread = {(p.stem, name) for p in modules for name in unread_imports(p)}
    assert unread - ALLOWED == set()
    # an allowance the module no longer needs is removed with it
    assert ALLOWED <= unread


_LAZY_IMPORTS = """
import sys
sys.path.insert(0, {src!r})
import kssearch
assert not [m for m in sys.modules if m.startswith("kssearch.")]
from kssearch import embedding
loaded = sorted(m for m in sys.modules if m.startswith("kssearch."))
assert loaded == ["kssearch.constraints", "kssearch.embedding", "kssearch.graphs", "kssearch.intervals"], loaded
from kssearch import cli
from kssearch.embedding import ProvedEmbeddable, decide_embeddability
from kssearch.graphs import Graph
from kssearch.pipeline import JobSpec, run_search

run_search(JobSpec(1, 6, {job!r}))
assert cli.main(["enumerate", "--n", "6", "--out", {graphs!r}]) == 0
assert cli.main(["report", "--catalog", {catalog!r}, "--out", {csv!r}]) == 0
loaded = [m for m in ("numpy", "multiprocessing", "concurrent.futures.process") if m in sys.modules]
assert not loaded, loaded
paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
verdict = decide_embeddability(paw)
assert isinstance(verdict, ProvedEmbeddable) and verdict.certificate is not None, verdict
assert "numpy" in sys.modules
"""


def test_numpy_and_process_pool_load_on_first_use(tmp_path):
    """In a fresh interpreter: ``import kssearch`` loads no module and the
    embedding module loads only what it imports; a search over n <= 6,
    ``enumerate`` and ``report`` load neither numpy nor the process pool;
    the first interval decision loads numpy."""
    job = tmp_path / "job"
    code = _LAZY_IMPORTS.format(
        src=str(SRC.parent),
        job=str(job),
        graphs=str(tmp_path / "graphs.g6"),
        catalog=str(job / "catalog.jsonl"),
        csv=str(tmp_path / "counts.csv"),
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
