"""What kssearch defines.

Every module-level function or class of a kssearch module, and every method
that is not a dunder, is read by the program: its name appears as a name,
an attribute or an import in ``src/``, ``scripts/`` or ``perfbench/``.  A
``def`` or ``class`` statement is not a read.  A string literal that is
exactly the name counts, since ``perfbench/spans.py`` looks its bindings up
by name; comments and docstrings do not.  A definition only tests reach is
dead.

Likewise every defaulted parameter of a kssearch function is set by some
program call: a call of that name in ``src/``, ``scripts/`` or ``perfbench/``
passes it by keyword or by position.  A default no program call overrides
is a setting only tests use.
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

# (function, parameter) defaults that no program call sets, with the reason
ALLOWED_DEFAULTS = {
    # tests pass argv; the console script calls main() with none
    ("main", "argv"),
    # re-checks a stored KrawczykCertificate with its own slices
    ("prove_root_in_box", "slices"),
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


def defaulted_parameters(path: Path) -> set[tuple[str, str, int | None]]:
    """``(function, parameter, position)`` for every parameter with a default
    of every function in the file, nested ones included.  The position is
    the argument index a call passes it at, after ``self`` or ``cls`` for a
    method; None for a keyword-only parameter."""
    out = set()

    def visit(node, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list
                )
                bound = in_class and not static
                first = len(positional) - len(a.defaults)
                for i in range(first, len(positional)):
                    out.add((child.name, positional[i].arg, i - bound))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        out.add((child.name, arg.arg, None))
            visit(child, isinstance(child, ast.ClassDef))

    visit(ast.parse(path.read_text(), filename=str(path)), False)
    return out


def program_calls(path: Path) -> list[tuple[str, int, set]]:
    """``(name, positional, keywords)`` for every call of a name or an
    attribute in the file.  ``positional`` is the count of positional
    arguments, unbounded with a ``*`` argument; ``keywords`` holds None for
    a ``**`` argument, which may pass any keyword."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            star = any(isinstance(a, ast.Starred) for a in node.args)
            positional = float("inf") if star else len(node.args)
            out.append((name, positional, {k.arg for k in node.keywords}))
    return out


def unset_defaults(modules, program_files) -> set[tuple[str, str]]:
    calls = [c for f in program_files for c in program_calls(f)]
    unset = set()
    for path in modules:
        for function, parameter, position in defaulted_parameters(path):
            if not any(
                name == function
                and (parameter in keywords or None in keywords
                     or (position is not None and positional > position))
                for name, positional, keywords in calls
            ):
                unset.add((function, parameter))
    return unset


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


def test_every_default_is_set_by_a_program_call():
    modules = sorted(SRC.glob("*.py"))
    program = [f for d in PROGRAM for f in sorted(d.rglob("*.py"))]
    unset = unset_defaults(modules, program)
    assert unset - ALLOWED_DEFAULTS == set()
    # an allowance the program no longer needs is removed with it
    assert ALLOWED_DEFAULTS <= unset


def test_the_default_scan_sees_positions_keywords_and_methods(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    def inner(x=0):\n"
        "        return x\n"
        "    return inner()\n"
        "class C:\n"
        "    def m(self, p=0, q=0):\n"
        "        return p\n"
        "    @staticmethod\n"
        "    def s(p=0):\n"
        "        return p\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text(
        "f(0, 1, d=2)\n"
        "C().m(1)\n"
        "C.s(*args)\n"
        "g(c=1, q=1, e=1)\n"  # keywords of another function set nothing here
    )
    assert unset_defaults([module], [caller]) == {
        ("f", "c"), ("f", "e"), ("inner", "x"), ("m", "q"),
    }
    caller.write_text("f(**options)\n")
    assert ("f", "c") not in unset_defaults([module], [caller])
