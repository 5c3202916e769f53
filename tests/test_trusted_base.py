"""The trusted base, pinned: the functions of ordcalc that verify runs.

A fixed set of certificates is verified twice.  The first pass generates
every premise a policy samples and every family member the checks read, so
the second pass, traced with sys.setprofile, runs the checker alone: no
certificate generator, no name construction, no search.  The test fails if
that pass runs a function of ordcalc outside TRUSTED, or no longer runs one
of TRUSTED, so the list in README "Trusted base" stays the list verify
runs.  Generator expressions and comprehensions count as the function they
sit in.
"""

import re
import sys

import pytest

from ordcalc.checker import Certificate, Exhaustive, Judgment, SpotCheck, verify
from ordcalc.expr import parse_name
from ordcalc.kernel import eq_certs, le_cert, lt_cert, lt_intro_sel, refl
from ordcalc.mlseq import ml_cert_exa123, ml_verify
from ordcalc.names import BitSeq

TRUSTED = {
    "ordcalc.checker": {
        "Certificate.generated", "Certificate.kind", "Certificate.premise_at",
        "VerifyReport.__init__", "VerifyReport.fail",
        "check_derivation", "check_derivation.<locals>.guarded",
        "check_derivation.<locals>.local", "check_derivation.<locals>.walk",
        "subordinal_arity", "_ids", "_selected", "_unless",
        "_check_le_premise", "_check_lt_intro", "_check_refl",
        "_check_member", "<lambda>", "verify",
    },
    "ordcalc.mlseq": {
        "Atom.__new__", "MlCertificate.kind",
        "_check_r1", "_check_r2", "_check_r2_premise", "ml_verify",
    },
    "ordcalc.names": {
        "Node.child", "Family.at", "Fin.__contains__",
        "_NatIndex.__contains__", "OrdName.is_zero", "OrdName.__hash__",
    },
}

_INNER = re.compile(r"\.<locals>\.<(genexpr|listcomp|setcomp|dictcomp)>$")


def _claims():
    """(certificate, checker, policy, verdict): search certificates under
    the policy their branching allows, a sequent certificate, and forged
    certificates that must fail."""
    spot, exhaustive = SpotCheck(), Exhaustive()
    n = parse_name
    found = []
    for a, b in (("1+w", "w"), ("sup(w,3)", "w"), ("w*3", "w*2+w")):
        found += [(c, verify, spot, True) for c in eq_certs(n(a), n(b))]
    for a, b in (("w", "w+1"), ("3", "w"), ("w^2", "w^w"),
                 ("suc(59,0)", "w")):
        found.append((lt_cert(n(a), (n(b),)), verify, spot, True))
    found.append((lt_cert(n("1"), (n("2"),)), verify, exhaustive, True))
    found.append((le_cert(n("suc(1,2)"), (n("3"),)), verify, exhaustive,
                  True))
    # a member leaf: w is member 0 of w+1
    found.append((le_cert(n("w"), (n("w+1"),)), verify, exhaustive, True))
    found.append((ml_cert_exa123(BitSeq.const_last([0, 1])), ml_verify, spot,
                  True))
    three, one = n("3"), n("1")
    # 3 < [1]: the selection names 0, but the inner premise bounds by 3
    found.append((lt_intro_sel(three, (one,), ((0,),), refl(three)), verify,
                  exhaustive, False))
    found.append((Certificate("weaken", Judgment("le", one, (one,))), verify,
                  exhaustive, False))
    return found


def _run(claims):
    for cert, check, policy, verdict in claims:
        assert check(cert, policy).ok is verdict, cert


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="qualified names of frames need co_qualname")
def test_verify_runs_only_the_trusted_base():
    claims = _claims()
    _run(claims)
    ran: dict = {}

    def profile(frame, event, arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module.startswith("ordcalc."):
                name = _INNER.sub("", frame.f_code.co_qualname)
                ran.setdefault(module, set()).add(name)

    sys.setprofile(profile)
    try:
        _run(claims)
    finally:
        sys.setprofile(None)
    outside = {m: names - TRUSTED.get(m, set()) for m, names in ran.items()}
    assert not any(outside.values()), outside
    unused = {m: names - ran.get(m, set()) for m, names in TRUSTED.items()}
    assert not any(unused.values()), unused
