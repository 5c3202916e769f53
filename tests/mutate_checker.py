"""Mutation scan of the trusted checks: would the tests notice a wrong one?

    python tests/mutate_checker.py

Negates, one at a time, each comparison and each other boolean test (of an
``if``, ``while``, conditional expression or ``and``/``or`` operand) in the
functions of src/ordcalc/checker.py, in the sequent calculus's rule checks
(mlseq's ``_check_r1``, ``_check_r2`` and ``_check_r2_premise``) and in the
functions of names that verify runs (the trusted base that
tests/test_trusted_base.py pins), and runs TESTS against each mutant in a
fresh copy of the package.  A mutant that passes every test has survived:
nothing pins that check.  Prints each survivor with its file and line, and
exits 1 when there is one or when the tests fail on the unmutated package.
pytest does not collect this script: a run takes about a minute.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the modules of src/ordcalc to mutate, each with the qualified names
# (Class.method for a method) of the functions whose tests are negated
# (None: every function)
TARGETS = {"checker.py": None,
           "mlseq.py": ("_check_r1", "_check_r2", "_check_r2_premise"),
           "names.py": ("Node.child", "Family.at", "Fin.__contains__",
                        "_NatIndex.__contains__", "OrdName.is_zero",
                        "OrdName.__hash__")}
# the tests of the checker's walker and rules, of the calculi built on
# them, of its value types (Judgment, the policies, VerifyReport) and of
# the names it reads
TESTS = ["tests/test_verify_core.py", "tests/test_kernel.py",
         "tests/test_derived_rules.py", "tests/test_mlseq.py",
         "tests/test_value_types.py", "tests/test_trusted_base.py",
         "tests/test_names.py"]


def functions(tree: ast.Module) -> list:
    """(qualified name, node) for each function and lambda, named as
    Python's __qualname__ names them: Class.method, outer.<locals>.inner,
    <lambda>."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                found.append((name, child))
                visit(child, f"{name}.<locals>.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def sites(tree: ast.Module, only=None) -> list:
    """The nodes to negate, in source order: every comparison, and every
    other test of a branch or operand of a boolean operator, inside a
    function, or only inside the functions whose qualified names are in
    only."""
    found = []
    for name, fn in functions(tree):
        if only is not None and name not in only:
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Compare):
                found.append(node)
            elif isinstance(node, (ast.If, ast.While, ast.IfExp)):
                found.append(node.test)
            elif isinstance(node, ast.BoolOp):
                found.extend(node.values)
    # a nested function's nodes are met again, as is a comparison that is
    # also a test
    unique = {id(n): n for n in found}
    return sorted(unique.values(), key=lambda n: (n.lineno, n.col_offset))


class _Negate(ast.NodeTransformer):
    def __init__(self, target: ast.AST):
        self.target = target

    def visit(self, node):
        if node is self.target:
            return ast.UnaryOp(op=ast.Not(), operand=node)
        return self.generic_visit(node)


def passes(src_dir: str) -> bool:
    """Do TESTS pass with the ordcalc package under src_dir?"""
    env = dict(os.environ, PYTHONPATH=src_dir, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *TESTS], cwd=ROOT, env=env, capture_output=True)
    return run.returncode == 0


def main() -> int:
    survivors = []
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(os.path.join(ROOT, "src", "ordcalc"),
                        os.path.join(tmp, "ordcalc"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        if not passes(tmp):
            print("the tests fail on the unmutated package")
            return 1
        for name, only in TARGETS.items():
            with open(os.path.join(ROOT, "src", "ordcalc", name)) as f:
                source = f.read()
            target = os.path.join(tmp, "ordcalc", name)
            total = len(sites(ast.parse(source), only))
            for k in range(total):
                # a fresh tree each time, so the k-th site is negated alone
                tree = ast.parse(source)
                node = sites(tree, only)[k]
                where = f"{name}:{node.lineno}: not ({ast.unparse(node)})"
                mutant = ast.fix_missing_locations(_Negate(node).visit(tree))
                with open(target, "w") as f:
                    f.write(ast.unparse(mutant))
                if passes(tmp):
                    survivors.append(where)
                    print(f"SURVIVED {where}")
            # the next module's mutants run against this one unmutated
            with open(target, "w") as f:
                f.write(source)
            count += total
    print(f"{count} mutants, {count - len(survivors)} killed,"
          f" {len(survivors)} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
