"""Which ordcalc modules the trusted checker, the engine and the sequent
calculus import, read off their source with ast: the checker and the
engine import nothing of ordcalc but names, and the sequent calculus loads
neither the engine nor the certificate search."""

import ast
import pathlib

import pytest

import ordcalc

SRC = pathlib.Path(ordcalc.__file__).parent


def _modules(node) -> set:
    """The ordcalc modules one import statement names; the package itself
    counts as "ordcalc"."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom):
        base = "." * node.level + (node.module or "")
        names = ([f"{base}.{a.name}" for a in node.names]
                 if base in (".", "ordcalc") else [base])
    else:
        return set()
    found = set()
    for name in names:
        parts = name.lstrip(".").split(".")
        if name.startswith("."):
            found.add(parts[0])
        elif parts[0] == "ordcalc":
            found.add(parts[1] if len(parts) > 1 else "ordcalc")
    return found


def imports(source: str) -> set:
    """The ordcalc modules the source imports, at any depth of its code."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        found |= _modules(node)
    return found


def module_imports(module: str) -> set:
    return imports((SRC / f"{module}.py").read_text())


def loads(module: str) -> set:
    """The ordcalc modules that importing module loads, itself left out."""
    seen, todo = set(), [module]
    while todo:
        for m in module_imports(todo.pop()) - seen:
            seen.add(m)
            if m != "ordcalc":
                todo.append(m)
    return seen - {module}


def test_checker_imports_only_names():
    assert module_imports("checker") == {"names"}


def test_engine_imports_only_names():
    assert module_imports("compare") == {"names"}


def test_sequent_calculus_loads_neither_engine_nor_search():
    assert loads("mlseq").isdisjoint({"compare", "kernel", "ordcalc"})


@pytest.mark.parametrize("source, want", [
    ("from . import cnf, compare", {"cnf", "compare"}),
    ("from .names import und", {"names"}),
    ("from ordcalc.kernel import le_cert", {"kernel"}),
    ("from ordcalc import kernel", {"kernel"}),
    ("import ordcalc.compare", {"compare"}),
    ("import ordcalc", {"ordcalc"}),
    ("def f():\n    from .arith import add", {"arith"}),
    ("import ast\nfrom typing import Optional", set()),
])
def test_every_form_of_import_is_read(source, want):
    assert imports(source) == want
