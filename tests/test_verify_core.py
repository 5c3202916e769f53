"""The derivation core both calculi share: what the walker visits, how it
treats a premise it cannot use, and what certificate search leaves behind."""

import gc

import pytest

from ordcalc.arith import add, mul, pow
from ordcalc.checker import (Certificate, Exhaustive, Judgment, KernelError,
                             SpotCheck, verify)
from ordcalc.kernel import (contract, eq_certs, le_cert, le_intro, lt_cert,
                            refl, weaken)
from ordcalc.mlseq import (Atom, MlCertificate, ml_cert_exa123,
                           ml_le_refl_cert, ml_r2, ml_verify)
from ordcalc.names import (BitSeq, ZERO, omega, suc, suc_list, sup_finite,
                           und)

from .conftest import expand

SPOT3 = SpotCheck(samples=(0, 1, 2))
SPOT5 = SpotCheck(samples=(0, 1, 2, 5, 9))


def _exa01():
    return ml_cert_exa123(BitSeq.const_last([0, 1]))


def _sup11():
    return expand(refl(sup_finite([und(1), und(1)])))


# refl is one leaf; its expansion into le_intro and lt_intro is the
# generator-backed fixture these counts walk
@pytest.mark.parametrize("build, check, policy, visited", [
    (lambda: expand(refl(und(3))), verify, Exhaustive(), 7),
    # both policies count a shared subtree once; SpotCheck walks it from the
    # shallowest depth a path reaches it at
    (_sup11, verify, Exhaustive(), 4),
    (_sup11, verify, SpotCheck(), 4),
    (lambda: expand(refl(omega())), verify, SPOT3, 9),
    (lambda: expand(refl(omega())), verify, SPOT5, 25),
    (lambda: contract(weaken(refl(und(1)), (und(1),))), verify,
     Exhaustive(), 3),
    (lambda: ml_le_refl_cert(und(3)), ml_verify, Exhaustive(), 7),
    (_exa01, ml_verify, SPOT3, 28),
    (_exa01, ml_verify, SPOT5, 84),
], ids=["refl3", "refl-sup-exhaustive", "refl-sup-spot", "refl-w-3",
        "refl-w-5", "contract", "ml-refl3", "exa123-3", "exa123-5"])
def test_visited_counts(build, check, policy, visited):
    report = check(build(), policy)
    assert (report.ok, report.visited) == (True, visited)


def test_spot_check_walks_a_shared_premise_once():
    # every sample of w^2*2 reaches the same premises of w^2 again: walked
    # again for each path that reaches them, they cost 71,973 visits
    w2 = mul(pow(omega(), und(2)), und(2))
    report = verify(expand(refl(w2)),
                    SpotCheck(samples=(0, 1, 2, 3, 7, 30, 47)))
    assert report.ok and report.visited <= 1000


def _distinct_nodes(cert) -> int:
    seen: dict = {}
    todo = [cert]
    while todo:
        c = todo.pop()
        if id(c) not in seen:
            seen[id(c)] = c
            todo.extend(c.premises)
    return len(seen)


def test_exhaustive_walks_a_node_met_deep_first_once():
    # 2 <= [2] is a premise of both members, deep below suc(2) first and
    # directly below the root second: a shallower path must not walk it
    # again, as SpotCheck would
    cert = expand(refl(suc_list([suc(und(2)), und(2)])))
    report = verify(cert, Exhaustive())
    assert report.ok and report.visited == _distinct_nodes(cert) == 10


def _no_premise(i):
    raise ValueError(f"no premise {i}")


class TestFailurePolicy:
    """Every case fails the certificate; none raises."""

    def test_kernel_rejects_a_sequent_premise(self):
        cert = le_intro(und(1), (und(1),), premises=(ml_le_refl_cert(und(0)),))
        report = verify(cert)
        assert not report.ok
        assert [path for path, _ in report.failures] == ["root.0"]

    def test_sequent_calculus_rejects_a_kernel_premise(self):
        head = Atom(und(1), "le", und(1))
        report = ml_verify(ml_r2([head], head, premises=(refl(und(0)),)))
        assert not report.ok
        assert [path for path, _ in report.failures] == ["root.0"]

    def test_raising_generator_fails_at_each_sample(self):
        cert = le_intro(omega(), (omega(),), gen=_no_premise)
        report = verify(cert, SpotCheck())
        assert not report.ok
        assert [path for path, _ in report.failures] == [
            "root.0", "root.1", "root.2"]

    def test_generated_premises_from_the_other_calculus(self):
        head = Atom(omega(), "le", omega())
        reports = [
            verify(le_intro(omega(), (omega(),),
                            gen=lambda i: ml_le_refl_cert(und(0))),
                   SpotCheck()),
            ml_verify(ml_r2([head], head, gen=lambda i: refl(und(0))),
                      SpotCheck()),
        ]
        for report in reports:
            assert not report.ok
            assert len(report.failures) == 3


def _below_w(i):
    return lt_cert(und(i), (omega(),))


def _ml_below_w(i):
    head = Atom(und(i), "lt", omega())
    return MlCertificate("r1", frozenset({head}), head, choice=i + 1)


# (lhs, premises, gen): each breaks the one-premise-per-subordinal shape
_MISSHAPEN = [
    (ZERO, [_below_w(0)], None),
    (ZERO, None, _below_w),
    (und(2), None, None),
    (und(2), [_below_w(0), _below_w(1)], None),
    (und(2), None, _below_w),
    (omega(), [_below_w(0)], None),
    (omega(), [_below_w(0)], _below_w),
]
_MISSHAPEN_IDS = ["zero-tuple", "zero-gen", "fin-none", "fin-count",
                  "fin-gen", "nat-tuple", "nat-tuple-and-gen"]


class TestPremiseShape:
    """subordinal_arity alone states the premise shape: the constructors
    refuse what verify refuses."""

    @pytest.mark.parametrize("x, premises, gen", _MISSHAPEN,
                             ids=_MISSHAPEN_IDS)
    def test_le_intro_refuses(self, x, premises, gen):
        with pytest.raises(KernelError, match="one premise per subordinal"):
            le_intro(x, (omega(),), premises=premises, gen=gen)

    @pytest.mark.parametrize("x, premises, gen", _MISSHAPEN,
                             ids=_MISSHAPEN_IDS)
    def test_r2_refuses(self, x, premises, gen):
        head = Atom(x, "le", omega())
        mine = None if premises is None else [_ml_below_w(0)] * len(premises)
        with pytest.raises(KernelError, match="one premise per subordinal"):
            ml_r2([head], head, premises=mine,
                  gen=None if gen is None else _ml_below_w)

    def test_forged_tuple_beside_a_generator_fails_at_root(self):
        w = omega()
        forged = Certificate("le_intro", Judgment("le", w, (w,)),
                             premises=(_below_w(0),), gen=_below_w)
        report = verify(forged, SpotCheck())
        assert not report.ok
        assert report.failures == [("root", "one premise per subordinal")]
        head = Atom(w, "le", w)
        forged = MlCertificate("r2", frozenset({head}), head,
                               premises=(_ml_below_w(0),), gen=_ml_below_w)
        report = ml_verify(forged, SpotCheck())
        assert report.failures == [("root", "one premise per subordinal")]


def _lt_13():
    return lt_cert(und(1), (und(3),))


# The sup-le-intro and cut-left-length ids date from when those were kernel
# rules; both cases are now an lt_intro whose selections cannot be read.
@pytest.mark.parametrize("policy", [Exhaustive(), SPOT3], ids=["exh", "spot"])
@pytest.mark.parametrize("build, payload", [
    (_lt_13, (5,)),
    (_lt_13, None),
], ids=["sup-le-intro", "cut-left-length"])
def test_malformed_payload_is_reported(build, payload, policy):
    cert = build()
    assert verify(cert, policy).ok
    cert.payload = payload
    report = verify(cert, policy)
    assert not report.ok
    assert [path for path, _ in report.failures] == ["root"]
    assert "malformed payload" in report.failures[0][1]


def test_search_leaves_no_certificate_cycles():
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        fwd, back = eq_certs(add(und(1), omega()), omega())
        assert verify(fwd, SpotCheck()).ok and verify(back, SpotCheck()).ok
        del fwd, back
        gc.collect()
        leaked = sum(isinstance(o, Certificate) for o in gc.garbage)
        assert leaked == 0
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def test_late_premises_search_afresh():
    # samples 60 and 70 lie beyond the search's sweep, so verify asks for
    # them only after le_cert has returned
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        cert = le_cert(mul(omega(), und(2)), (add(omega(), omega()),))
        assert verify(cert, SpotCheck(samples=(0, 1, 2, 60, 70))).ok
        del cert
        gc.collect()
        kinds = [type(o).__name__ for o in gc.garbage]
        assert kinds.count("Certificate") == kinds.count("_SearchState") == 0
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
