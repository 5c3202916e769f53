"""The derived comparison rules: each builds a derivation from le_intro,
lt_intro and weaken alone, so verify checks what they return like any other
certificate."""

import random

import pytest

from ordcalc import kernel
from ordcalc.compare import Judgment
from ordcalc.kernel import (Certificate, Exhaustive, KernelError, SpotCheck,
                            contract, cut_left, drop_left, le_cert, le_intro,
                            le_of_lt_suc, lt_cert, lt_intro_sel, lt_of_suc_le,
                            lt_suc_of_le, lt_to_le, refl, suc_le_of_lt,
                            sup_le_intro, sup_lt, trans_le_le, trans_le_lt,
                            trans_lt_le, verify, weaken)
from ordcalc.names import (Family, ZERO, omega, suc, suc_list, sup_family,
                           sup_finite, und)
from ordcalc.oracle import gen_finitary, val

SPOT = SpotCheck(samples=(0, 1, 2, 7))


def _names():
    pool = [ZERO, und(1), und(2)]
    pool += [gen_finitary(900 + s, max_depth=3 + s % 2, max_width=3)
             for s in range(14)]
    return pool


def _le(a, b):
    return le_cert(a, (b,))


def _lt(a, b):
    return lt_cert(a, (b,))


def _cases(a, b, c):
    """(rule, builder thunk, expected conclusion) for every rule whose
    premises hold on a, b, c by tree height."""
    va, vb, vc = val(a), val(b), val(c)
    if va <= vb <= vc:
        yield ("trans_le_le", lambda: trans_le_le(_le(a, b), _le(b, c)),
               Judgment("le", a, (c,)))
    if va < vb <= vc:
        yield ("trans_lt_le", lambda: trans_lt_le(_lt(a, b), _le(b, c)),
               Judgment("lt", a, (c,)))
    if va <= vb < vc:
        yield ("trans_le_lt", lambda: trans_le_lt(_le(a, b), _lt(b, c)),
               Judgment("lt", a, (c,)))
    if va <= vb:
        yield ("contract", lambda: contract(weaken(_le(a, b), (c, b))),
               Judgment("le", a, (b, c) if c.ident != b.ident else (b,)))
        yield ("lt_suc_of_le", lambda: lt_suc_of_le(_le(a, b)),
               Judgment("lt", a, (suc(b),)))
        yield ("le_of_lt_suc", lambda: le_of_lt_suc(_lt(a, suc(b))),
               Judgment("le", a, (b,)))
    if va < vb:
        yield ("lt_to_le", lambda: lt_to_le(_lt(a, b)),
               Judgment("le", a, (b,)))
        yield ("suc_le_of_lt", lambda: suc_le_of_lt(_lt(a, b)),
               Judgment("le", suc(a), (b,)))
        yield ("lt_of_suc_le", lambda: lt_of_suc_le(_le(suc(a), b)),
               Judgment("lt", a, (b,)))
        yield ("drop_left", lambda: drop_left(_lt(a, sup_finite((a, b))), b),
               Judgment("lt", a, (b,)))
    s = sup_finite((a, b))
    if max(va, vb) <= vc:
        yield ("sup_le_intro",
               lambda: sup_le_intro(s, (a, b), (c,),
                                    premises=(_le(a, c), _le(b, c))),
               Judgment("le", s, (c,)))
    if max(va, vb) < vc:
        yield ("sup_lt", lambda: sup_lt(_lt(a, c), _lt(b, c)),
               Judgment("lt", s, (c,)))
    # cut c out of b <= [sup(a, c)]: c < b, so b <= [a]
    if vc < vb <= max(va, vc):
        yield ("cut_left",
               lambda: cut_left(_lt(c, b), _le(b, sup_finite((a, c))), a),
               Judgment("le", b, (a,)))


DERIVED = ["trans_le_le", "trans_lt_le", "trans_le_lt", "contract",
           "lt_to_le", "lt_suc_of_le", "le_of_lt_suc", "suc_le_of_lt",
           "lt_of_suc_le", "sup_le_intro", "sup_lt", "cut_left", "drop_left"]


def test_derived_rules_on_finitary_names():
    rng = random.Random(6)
    pool = _names()
    seen = {rule: 0 for rule in DERIVED}
    for _ in range(120):
        a, b, c = (rng.choice(pool) for _ in range(3))
        for rule, build, want in _cases(a, b, c):
            if seen[rule] >= 8:
                continue
            cert = build()
            assert cert.conclusion == want, rule
            report = verify(cert, Exhaustive())
            assert report.ok, (rule, report.failures[:3])
            seen[rule] += 1
    assert min(seen.values()) >= 4, seen


w = omega()
w1 = suc(w)
w3 = sup_finite((w, und(3)))


@pytest.mark.parametrize("c, a", [(und(3), w), (und(3), w1), (und(3), w3),
                                  (w, w1)],
                         ids=["3-w", "3-w+1", "3-sup", "w-w+1"])
def test_cut_left_on_infinitary_names(c, a):
    # the remainder is a itself: with c = 3 and a = w, subordinal 2 of the
    # cut name is interned as subordinal 2 of the remainder too
    cert = cut_left(_lt(c, a), _le(a, sup_finite((a, c))), a)
    assert cert.conclusion == Judgment("le", a, (a,))
    assert verify(cert, SPOT).ok


@pytest.mark.parametrize("a, other", [(und(3), w), (und(3), w3), (w, w1),
                                      (w, suc(w3))],
                         ids=["3-w", "3-sup", "w-w+1", "w-sup+1"])
def test_drop_left_on_infinitary_names(a, other):
    cert = drop_left(_lt(a, sup_finite((a, other))), other)
    assert cert.conclusion == Judgment("lt", a, (other,))
    assert verify(cert, SPOT).ok


def test_drop_and_cut_through_selected_own_subordinals():
    # searches rarely select the lhs's own subordinals, so these premises
    # are written by hand to reach the cut through their sup
    # two own subordinals, so that their sup is a name of its own
    one, two, three = und(1), und(2), und(3)
    x = suc_list((one, two))
    s = sup_finite((x, und(4)))         # subordinals 1, 2 | 3
    bs = (one, two, three)
    inner = le_intro(x, bs, premises=(
        lt_intro_sel(one, bs, ((), (0,), ()), refl(one)),
        lt_intro_sel(two, bs, ((), (), (0,)), refl(two))))
    cert = drop_left(lt_intro_sel(x, (s,), ((0, 1, 2),), inner), und(4))
    assert cert.conclusion == Judgment("lt", x, (und(4),))
    assert verify(cert).ok
    s = sup_finite((three, two))        # subordinals 2 | 1
    q = le_intro(three, (s,), premises=(
        lt_intro_sel(two, (s,), ((0, 1),), le_cert(two, (two, one))),))
    cert = cut_left(lt_cert(two, (three,)), q, three)
    assert cert.conclusion == Judgment("le", three, (three,))
    assert verify(cert).ok

    bs = (w, und(5), und(6))

    def below(i):                       # und(i) < bs, through 5 or 6
        if i > 5:
            return lt_cert(und(i), bs)
        sel, top = (((), (0,), ()), 4) if i < 5 else (((), (), (0,)), 5)
        return lt_intro_sel(und(i), bs, sel, le_cert(und(i), (und(top),)))

    s = sup_finite((w, w1))             # subordinals 0, 1, w, 2, 3, 4, 5, 6
    p = lt_intro_sel(w, (s,), ((2, 6, 7),), le_intro(w, bs, gen=below))
    cert = drop_left(p, w1)
    assert cert.conclusion == Judgment("lt", w, (w1,))
    assert verify(cert, SpotCheck(samples=(0, 4, 5, 9))).ok


def test_sup_le_intro_over_a_natural_family():
    fam = Family.from_generator(lambda n: und(n + 1))
    s = sup_family(fam)
    cert = sup_le_intro(s, fam, (w,), gen=lambda j: _le(und(j + 1), w))
    assert cert.conclusion == Judgment("le", s, (w,))
    assert verify(cert, SPOT).ok


def test_transitivity_through_a_sup_middle():
    middle = (w, und(3))
    cert = trans_lt_le(lt_cert(und(5), middle), _le(w3, w1))
    assert cert.conclusion == Judgment("lt", und(5), (w1,))
    assert verify(cert, SPOT).ok
    cert = trans_le_le(le_cert(w, middle), _le(w3, w1))
    assert cert.conclusion == Judgment("le", w, (w1,))
    assert verify(cert, SPOT).ok


def test_bounds_matched_by_ident_not_position():
    # le_intro accepts premises whose bound tuples are only set-equal to
    # its own, here reordered and repeated
    x, b, c = suc_list((und(0), und(1))), und(2), und(3)
    p = le_intro(x, (b, c), premises=(lt_cert(und(0), (c, b)),
                                      lt_cert(und(1), (c, b, c))))
    assert verify(p).ok
    s = sup_finite((b, c))
    cert = trans_le_le(p, _le(s, und(4)))
    assert cert.conclusion == Judgment("le", x, (und(4),))
    assert verify(cert).ok
    cert = contract(weaken(p, (c, b)))
    assert cert.conclusion == Judgment("le", x, (b, c))
    assert verify(cert).ok


def _forged_lt():
    """Hand-built certificates claiming the false 3 < [1]."""
    three, one = und(3), und(1)
    claim = Judgment("lt", three, (one,))
    return [
        lt_intro_sel(three, (one,), ((0,),), refl(three)),
        lt_intro_sel(three, (one,), ((0,),),
                     Certificate("le_intro", Judgment("le", three, (ZERO,)))),
        Certificate("lt_intro", claim),
        Certificate("lt_intro", claim, premises=(refl(three),),
                    payload=((5,),)),
    ]


def _forged_uses():
    one, two = und(1), und(2)
    for f in _forged_lt():
        yield lambda: trans_lt_le(f, _le(one, two))
        yield lambda: trans_le_lt(_le(two, und(3)), f)
        yield lambda: lt_to_le(f)
        yield lambda: trans_le_le(lt_to_le(f), _le(one, two))
        # 1 <= [sup(0, 3)] = [3] holds; cutting the forged 3 < [1] would
        # give 1 <= [0]
        yield lambda: cut_left(f, _le(one, und(3)), ZERO)
        # 3 < [sup(3, 1)] is false too; dropping would give 3 < [1]
        s = sup_finite((und(3), one))
        yield lambda: drop_left(
            lt_intro_sel(und(3), (s,), ((0,),), f.premises[0])
            if f.premises else f, one)


def test_forged_premises_never_verify():
    for build in _forged_uses():
        try:
            cert = build()
        except KernelError:
            continue
        assert not verify(cert, Exhaustive()).ok


def test_forged_premise_beyond_the_samples_is_caught_downstream():
    # w < [4], through w <= [3] whose premises are sound at 0, 1 and 2 only,
    # so SpotCheck at those samples cannot see the forgery
    def below_3(i):
        if i < 3:
            return lt_cert(und(i), (und(3),))
        return Certificate("lt_intro", Judgment("lt", und(i), (und(3),)))

    forged = lt_intro_sel(w, (und(4),), ((0,),),
                          le_intro(w, (und(3),), gen=below_3))
    assert verify(forged, SpotCheck()).ok
    for cert in (lt_to_le(forged), trans_lt_le(forged, _le(und(4), und(5)))):
        assert verify(cert, SpotCheck()).ok
        assert not verify(cert, SPOT).ok


def test_trusted_rules():
    assert set(kernel._RULES) == {"le_intro", "lt_intro", "weaken"}
