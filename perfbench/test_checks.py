"""The benchmark's output checks accept right answers and reject wrong ones.

    python3 -m pytest perfbench/test_checks.py
"""

import os
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from ordcalc.compare import Ordering, TriBool  # noqa: E402
from ordcalc.expr import parse_name  # noqa: E402
from ordcalc.names import ZERO, suc_list, und  # noqa: E402

MEMO = workloads.Memo()


def test_height_by_direct_recursion():
    memo = {}
    bush = suc_list([und(1), suc_list([ZERO, und(2)])])
    assert checks.height(ZERO, memo) == 0
    assert checks.height(und(3), memo) == 3
    assert checks.height(bush, memo) == 4
    assert checks.height(bush, memo) != 3


def test_cnf_relations():
    assert checks.relations("1+w", "w")["eq"]
    assert checks.relations("w*2", "w+w")["eq"]
    assert checks.relations("w*3", "w*2+w")["eq"]
    assert checks.relations("sup(w,3)", "w")["eq"]
    assert checks.relations("w+1", "suc(w)")["eq"]
    assert checks.relations("2^w", "w")["eq"]
    assert checks.relations("(w+1)*w", "w^2")["eq"]
    assert checks.relations("w+1", "w")["gt"]
    assert checks.relations("w^w", "w*2")["gt"]
    assert checks.relations("eps0", "w^w^w")["gt"]
    assert checks.holds("lt", "3", "w")
    assert not checks.holds("le", "w+1", "w")
    assert not checks.holds("lt", "w", "1+w")


def _finitary_case(verdict: str):
    a, b, c = und(2), suc_list([und(1), und(3)]), und(4)
    case = workloads.FinitaryCase(7, (a, b, c), {})
    ok = [Ordering.LT, Ordering.EQ, Ordering.LT]
    assert case.check((17, [], ok))[2] == []
    return case.check((17, [], [Ordering(verdict), ok[1], ok[2]]))[2]


def test_finitary_check_rejects_a_wrong_verdict():
    assert _finitary_case("gt")
    assert _finitary_case("eq")


def test_finitary_check_rejects_a_law_failure():
    case = workloads.FinitaryCase(7, (und(1), und(2), und(3)), {})
    ok = [Ordering.LT] * 3
    assert case.check((17, [("suc-iso", "broke")], ok))[2]


def _cmp_output(**lines) -> str:
    rows = {"le": "unknown", "ge": "unknown", "lt": "unknown",
            "gt": "unknown", "eq": "unknown", "verdict": "unknown"}
    rows.update(lines)
    return "".join(f"{k} {v}\n" for k, v in rows.items())


def test_ord_cmp_check_rejects_a_wrong_verdict():
    req = workloads.OrdCmp(MEMO, "w+1", "w")
    right = _cmp_output(gt="true", verdict="gt")
    assert req.check((0, right)) == (False, 1, [])
    assert req.check((0, _cmp_output(lt="true", verdict="lt")))[2]
    assert req.check((0, _cmp_output(le="true")))[2]
    # the exit code must match the verdict
    assert req.check((3, right))[2]


def test_ord_cmp_check_rejects_contradictory_verdicts():
    req = workloads.OrdCmp(MEMO, "w", "1+w")
    assert req.check((3, _cmp_output(le="true", ge="true")))[2] == []
    assert req.check((3, _cmp_output(lt="true", ge="true")))[2]


def _certify(claim):
    named = {t: parse_name(t) for t in claim[1:]}
    return workloads.Certify(MEMO, claim, named), named


def _cert(kind, lhs, rhs):
    return SimpleNamespace(conclusion=SimpleNamespace(
        kind=kind, lhs=lhs, rhs=(rhs,)))


def test_certify_check_rejects_a_certified_false_claim():
    req, n = _certify(("lt", "w", "w+1"))
    found = [(_cert("lt", n["w"], n["w+1"]), SimpleNamespace(ok=True))]
    refused = [(("le", "w+1", "w"), None)]
    assert req.check((found, refused)) == (False, 1, [])
    bad = [(("le", "w+1", "w"), SimpleNamespace(ok=True))]
    assert req.check((found, bad))[2]


def test_certify_check_rejects_a_wrong_conclusion():
    req, n = _certify(("lt", "w", "w+1"))
    refused = [(("le", "w+1", "w"), None)]
    swapped = [(_cert("lt", n["w+1"], n["w"]), SimpleNamespace(ok=True))]
    assert req.check((swapped, refused))[2]
    unverified = [(_cert("lt", n["w"], n["w+1"]), SimpleNamespace(ok=False))]
    assert req.check((unverified, refused))[2]


def test_sequent_checks_reject_wrong_answers():
    def goals(kind):
        return workloads.SequentGoals(0, kind, und(2), und(3), {})

    assert goals("lt").check([True, False])[2] == []
    assert goals("lt").check([False, False])[2]
    assert goals("lt").check([True, True])[2]
    assert goals("le").check([True])[2] == []
    assert goals("le").check([False])[2]
    assert goals("lin").check([True])[2] == []
    assert goals("lin").check([False])[2]
    lpo = workloads.LpoInstance(MEMO, [0, 1])
    good = SimpleNamespace(ok=True)
    assert lpo.check((TriBool(None), [good, good]))[2] == []
    assert lpo.check((TriBool(False), [good, good]))[2]
    assert lpo.check((TriBool(None), [good, SimpleNamespace(ok=False)]))[2]
