"""Every name a kssearch module imports is read somewhere in that module.

Each module is parsed with ``ast``; a name bound by ``import`` or
``from … import`` that no expression of the module reads is dead.  The
package's ``__init__.py`` is not scanned: its imports are the package's
exports.
"""

import ast
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
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unread = {(p.stem, name) for p in modules for name in unread_imports(p)}
    assert unread - ALLOWED == set()
    # an allowance the module no longer needs is removed with it
    assert ALLOWED <= unread
