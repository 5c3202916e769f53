"""The package's small value types: construction checks, reprs, equality
and hashes, and an import that loads neither dataclasses nor inspect."""

import os
import pathlib
import subprocess
import sys

import pytest

import ordcalc
from ordcalc.arith import LinearIndexOrder
from ordcalc.compare import Fuel, Judgment
from ordcalc.expr import BinOp, Call, Const, Num
from ordcalc.kernel import Exhaustive, SpotCheck, VerifyReport
from ordcalc.mlseq import Atom
from ordcalc.names import Fin, und
from ordcalc.oracle import GenParams

SRC = pathlib.Path(ordcalc.__file__).resolve().parents[1]
A, B = und(1), und(2)


def test_import_loads_neither_dataclasses_nor_inspect():
    # a child process: pytest itself has both modules loaded
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = ("import sys, ordcalc, ordcalc.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


@pytest.mark.parametrize("make, message", [
    (lambda: Fuel(width=-1), "fuel must be nonnegative"),
    (lambda: Fuel(depth=-1), "fuel must be nonnegative"),
    (lambda: Fuel(steps=0), "step budget must be positive"),
    (lambda: SpotCheck(()), "spot check needs at least one sample"),
    (lambda: SpotCheck((0, -1)), "sample indices must be nonnegative"),
    (lambda: Judgment("eq", A, (B,)), "bad judgment kind 'eq'"),
    (lambda: Judgment("lt", A, ()), "judgment needs at least one bound"),
    (lambda: Atom(A, "eq", B), "bad atom relation 'eq'"),
], ids=["width", "depth", "steps", "no-samples", "negative-sample",
        "judgment-kind", "judgment-bounds", "atom-relation"])
def test_bad_arguments_raise_the_same_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("value, text", [
    (Fuel(), "Fuel(width=64, depth=512, steps=None)"),
    (Fuel(8, steps=50), "Fuel(width=8, depth=512, steps=50)"),
    (SpotCheck(), "SpotCheck(samples=(0, 1, 2), depth=64)"),
    (Exhaustive(), "Exhaustive()"),
    (VerifyReport(True), "VerifyReport(ok=True, visited=0, failures=[])"),
    (GenParams(seed=3), "GenParams(max_depth=3, max_width=3,"
                        " omega_probability=0.0, seed=3)"),
    (LinearIndexOrder(Fin(3)), "LinearIndexOrder(carrier=Fin(3))"),
    (BinOp("+", Num(1), Call("suc", (Const("w"),))),
     "BinOp(op='+', lhs=Num(value=1),"
     " rhs=Call(fn='suc', args=(Const(name='w'),)))"),
    (Atom(A, "le", B), "<ord 1> <= <ord 2>"),
    (Judgment("lt", A, (B,)), "<ord 1> < [<ord 2>]"),
], ids=["fuel", "fuel-steps", "spot-check", "exhaustive", "report",
        "gen-params", "linear-order", "expr", "atom", "judgment"])
def test_reprs_are_unchanged(value, text):
    assert repr(value) == text


def test_atoms_hash_as_their_field_tuples():
    # frozenset iteration order, and with it byte-stable output, follows
    # these hashes
    for rel in ("lt", "le"):
        assert hash(Atom(A, rel, B)) == hash((A, rel, B))
    assert hash(Judgment("le", A, (B,))) == hash(("le", A, (B,)))
    assert hash(Fuel()) == hash((64, 512, None))


def test_equality_is_by_value():
    assert Fuel() == Fuel(64, 512) and Fuel() != Fuel(steps=9)
    assert SpotCheck((0, 1, 2), 64) == SpotCheck()
    assert Atom(A, "lt", B) == Atom(A, "lt", B) != Atom(A, "le", B)
    assert VerifyReport(False, 2, [("p", "r")]) == VerifyReport(False, 2,
                                                                [("p", "r")])


def test_field_less_policy_is_truthy_and_equal():
    assert Exhaustive() == Exhaustive()
    assert not Exhaustive() != Exhaustive()
    assert hash(Exhaustive()) == hash(Exhaustive())
    assert bool(Exhaustive())
    assert Exhaustive() != SpotCheck()


def test_value_types_are_immutable():
    for value in (Fuel(), SpotCheck(), Exhaustive(), Atom(A, "lt", B),
                  Judgment("lt", A, (B,)), Num(1)):
        with pytest.raises(AttributeError):
            value.width = 3


def test_reports_collect_failures_and_are_unhashable():
    report = VerifyReport(True)
    report.fail("root", "bad rule")
    assert report == VerifyReport(False, 0, [("root", "bad rule")])
    assert VerifyReport(True).failures is not VerifyReport(True).failures
    with pytest.raises(TypeError):
        hash(report)
