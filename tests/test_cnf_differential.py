"""Engine verdicts on infinitary names against Cantor normal form.

The referee is the benchmark's CNF evaluator (``perfbench/checks.py``), which
has its own parser and shares no code with ordcalc.  Every definite ``le`` and
``lt`` the engine gives at default fuel, from an empty memo, must agree with
it, and the table's count of definite answers is pinned.  The Cantor normal
forms names record as search hints (``ordcalc.cnf``) are held to the same
referee on the same table, and so is every certificate the search finds
between the table's names that carry a form.
"""

import os
import sys

from ordcalc import cnf
from ordcalc.compare import clear_memo, le, lt
from ordcalc.expr import lower, parse_expr
from ordcalc.checker import SpotCheck, verify
from ordcalc.kernel import CertSearchError, le_cert, lt_cert
from ordcalc.names import NAT

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import checks  # noqa: E402

# the benchmark's infinitary and certify pairs, pairs whose lt is settled by
# membership in a bound's first members, and their neighbours; each pair is
# asked in both directions, as `ord cmp` asks it
PAIRS = [
    ("w*2", "w+w"), ("w^w", "w*2"), ("w", "1+w"), ("eps0", "w"),
    ("w+1", "w"), ("sup(w,3)", "w"), ("w*3", "w*2+w"), ("w+1", "suc(w)"),
    ("3", "w"), ("2+w", "w"), ("w", "w"), ("w", "w^w"),
    ("w*2", "w"), ("w*2", "w^2"), ("w+2", "w+1"), ("suc(w)", "w+2"),
    ("1+w", "w+1"), ("w^w", "eps0"), ("w^2", "w*3"), ("sup(1,2)", "w"),
    ("5", "3"), ("2", "suc(1)"), ("w+1", "w*2"), ("w^2+w", "w^2"),
    ("sup(w,w+1)", "w+1"),
]

# definite answers among the table's 100 queries; an engine change must not
# lower the count, and one that raises it raises this pin
DEFINITE = 52

# claims certified among the 800 searches over the table's names with a
# form; a search change must not lose one, and one that gains one raises it
CERTIFIED = 400


def _queries():
    for lhs, rhs in PAIRS:
        for a, b in ((lhs, rhs), (rhs, lhs)):
            for kind, rel in (("le", le), ("lt", lt)):
                yield kind, rel, a, b


def _name(text):
    return lower(parse_expr(text))


def test_definite_verdicts_agree_with_cnf():
    definite = 0
    for kind, rel, a, b in _queries():
        clear_memo()
        v = rel(_name(a), (_name(b),))
        if v.is_unknown:
            continue
        definite += 1
        assert v.value == checks.holds(kind, a, b), f"{a} {kind} {b}"
    assert definite == DEFINITE


def test_recorded_forms_agree_with_cnf():
    for text in sorted({t for pair in PAIRS for t in pair}):
        name = _name(text)
        form = cnf.of(name)
        if text == "eps0":
            assert form is None
            continue
        assert form == checks.value(text), text
        if name.index is NAT:
            # a name is the sup of its members' successors, so every member
            # it lists is strictly below it
            for i in range(21):
                below = cnf.of(name.child(i))
                assert below is not None and cnf.cmp(below, form) < 0, (
                    f"member {i} of {text}")


def test_certified_claims_agree_with_cnf():
    texts = sorted({t for pair in PAIRS for t in pair} - {"eps0"})
    spot = SpotCheck((0, 1, 2, 5))
    certified = 0
    for a in texts:
        for b in texts:
            for kind, search in (("le", le_cert), ("lt", lt_cert)):
                clear_memo()
                lhs, rhs = _name(a), _name(b)
                try:
                    cert = search(lhs, (rhs,))
                except CertSearchError:
                    continue
                if not verify(cert, spot).ok:
                    continue
                certified += 1
                c = cert.conclusion
                assert (c.kind, c.lhs, c.rhs) == (kind, lhs, (rhs,))
                assert checks.holds(kind, a, b), f"{a} {kind} {b}"
    assert len(texts) == 20
    assert certified == CERTIFIED
