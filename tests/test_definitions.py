"""What kssearch defines.

Every module-level function or class of a kssearch module, and every method
that is not a dunder, is read by the program: its name appears as a name,
an attribute or an import in ``src/``, ``scripts/`` or ``perfbench/``.  A
``def`` or ``class`` statement is not a read.  A string literal that is
exactly the name counts, since ``perfbench/spans.py`` looks its bindings up
by name; comments and docstrings do not.  A definition only tests reach is
dead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kssearch"
PROGRAM = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]

# (module, name) definitions that stay without a program reader, with the reason
ALLOWED = {
    # _Parser.error overrides argparse.ArgumentParser.error, which argparse
    # calls on a bad argument; the override exits with EXIT_USAGE, not 2
    ("cli", "error"),
}


def definitions(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    names = set()
    for node in tree.body:
        if isinstance(node, defs):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(
                m.name for m in node.body
                if isinstance(m, defs[:2]) and not (m.name.startswith("__") and m.name.endswith("__"))
            )
    return names


def program_reads(path: Path) -> set[str]:
    """Names a file reads: names, attributes, imports, and string literals
    that are identifiers, docstrings excluded."""
    tree = ast.parse(path.read_text(), filename=str(path))
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
    }
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.alias):
            reads.add(node.name)
        elif (
            isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.isidentifier() and id(node) not in docstrings
        ):
            reads.add(node.value)
    return reads


def test_every_definition_has_a_program_reader():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    read = set().union(*(program_reads(f) for d in PROGRAM for f in sorted(d.rglob("*.py"))))
    unread = {(p.stem, name) for p in modules for name in definitions(p) if name not in read}
    assert unread - ALLOWED == set()
    # an allowance the program no longer needs is removed with it
    assert ALLOWED <= unread


def test_the_scan_sees_defs_strings_and_comments_apart(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "class Box:\n"
        "    def width(self):  # height\n"
        '        """depth"""\n'
        "        return 0\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "def unread():\n"
        "    return Box().width()\n"
        'TRACED = [("m", "looked_up"), "two words"]\n'
    )
    assert definitions(source) == {"Box", "width", "unread"}
    reads = program_reads(source)
    assert {"Box", "width", "looked_up"} <= reads
    assert not {"unread", "height", "depth", "two words", "__len__"} & reads
