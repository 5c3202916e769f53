"""The derivation core both calculi share: what the walker visits, how it
treats a premise it cannot use, and what certificate search leaves behind."""

import gc

import pytest

from ordcalc.arith import add, mul
from ordcalc.kernel import (Certificate, Exhaustive, SpotCheck, contract,
                            eq_certs, le_cert, le_intro, lt_cert, refl, verify,
                            weaken)
from ordcalc.mlseq import (Atom, ml_cert_exa123, ml_le_refl_cert, ml_r2,
                           ml_verify)
from ordcalc.names import BitSeq, omega, sup_finite, und

SPOT3 = SpotCheck(samples=(0, 1, 2))
SPOT5 = SpotCheck(samples=(0, 1, 2, 5, 9))


def _exa01():
    return ml_cert_exa123(BitSeq.const_last([0, 1]))


def _sup11():
    return refl(sup_finite([und(1), und(1)]))


@pytest.mark.parametrize("build, check, policy, visited", [
    (lambda: refl(und(3)), verify, Exhaustive(), 7),
    # only Exhaustive counts a shared subtree once
    (_sup11, verify, Exhaustive(), 4),
    (_sup11, verify, SpotCheck(), 5),
    (lambda: refl(omega()), verify, SPOT3, 13),
    (lambda: refl(omega()), verify, SPOT5, 45),
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


def _weaken_12():
    return weaken(refl(und(1)), (und(2),))


def _lt_13():
    return lt_cert(und(1), (und(3),))


# The sup-le-intro and cut-left-length ids date from when those were kernel
# rules; both cases are now an lt_intro whose selections cannot be read.
@pytest.mark.parametrize("policy", [Exhaustive(), SPOT3], ids=["exh", "spot"])
@pytest.mark.parametrize("build, payload", [
    (_weaken_12, ((0,),)),
    (_lt_13, (5,)),
    (_lt_13, None),
], ids=["weaken", "sup-le-intro", "cut-left-length"])
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
