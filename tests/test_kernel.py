"""Certificate kernel: constructors, verification, search."""

import pytest

from ordcalc import cnf, compare, kernel
from ordcalc.arith import acko, add, eps0, mul, pow
from ordcalc.checker import (Certificate, Exhaustive, Judgment, KernelError,
                             SpotCheck, incompatible, serialize, verify)
from ordcalc.compare import Fuel
from ordcalc.kernel import (CertSearchError, contract, cut_left, drop_left,
                            eq_certs, filtering_eq_certs, le_cert, le_intro,
                            le_of_lt_suc, lt_cert, lt_intro, lt_intro_sel,
                            lt_of_suc_le, lt_suc_of_le, lt_to_le, refl,
                            suc_le_of_lt, sup_le_intro, sup_lt, trans_le_le,
                            trans_le_lt, trans_lt_le, weaken, zero_le,
                            zero_lt)
from ordcalc.names import (BitSeq, Family, ZERO, eps_llpo, filtering, mk_node,
                           omega, suc, suc_list, sup_finite, und)

from .conftest import expand, failing_past_five

SPOT = SpotCheck(samples=(0, 1, 2), depth=64)


def ok(cert, policy=None) -> bool:
    return verify(cert, policy or Exhaustive()).ok


class TestRefl:
    def test_finitary_exhaustive(self):
        report = verify(refl(und(2)), Exhaustive())
        assert report.ok

    def test_natural_family_spot_checked(self):
        assert ok(refl(omega()), SpotCheck(samples=(0, 5, 17), depth=64))

    def test_conclusion_shape(self):
        c = refl(und(4)).conclusion
        assert c.kind == "le"
        assert c.lhs is und(4)
        assert c.rhs == (und(4),)

    def test_exhaustive_cannot_walk_a_generator(self):
        with pytest.raises(KernelError):
            verify(expand(refl(omega())), Exhaustive())


class TestZeroRules:
    def test_zero_le_anything(self):
        assert ok(zero_le((ZERO,)))
        assert ok(zero_le((omega(), und(2))), SPOT)

    def test_zero_lt_node(self):
        assert ok(zero_lt((omega(),)), SPOT)

    def test_zero_lt_zero_rejected(self):
        with pytest.raises(KernelError):
            zero_lt((ZERO,))
        with pytest.raises(KernelError):
            zero_lt((ZERO, ZERO))


class TestLeIntro:
    def test_finitary_premises(self):
        cert = le_cert(und(2), (und(3),))
        assert ok(cert)

    def test_omega_below_one_plus_omega(self):
        cert = le_cert(omega(), (add(und(1), omega()),))
        assert ok(cert, SPOT)

    def test_llpo_split_bound(self):
        # the parity components jointly dominate the full sequence
        v = BitSeq.opaque([0, 1, 0], tail=lambda n: 0)
        eps, e1, e2 = eps_llpo(v)
        s = sup_finite([e1, e2])

        def prem(n):
            # bit n reappears among the interleaved children of s: at the
            # parity-matching component's copy, no later than position 2n+2
            x = eps.child(n)
            k = next(k for k in range(2 * n + 3)
                     if s.child(k).ident == x.ident)
            return lt_intro_sel(x, (s,), ((k,),), refl(x))

        cert = le_intro(eps, (s,), gen=prem)
        assert ok(cert, SpotCheck(samples=(0, 1, 2, 3, 6), depth=64))

    def test_premise_lhs_must_match_child(self):
        good = lt_cert(ZERO, (und(2),))
        with pytest.raises(KernelError):
            le_intro(und(2), (und(2),), premises=(good, good))
        bad = verify(le_intro(und(1), (ZERO,),
                              premises=(lt_intro_sel(ZERO, (und(1),), ((0,),),
                                                     zero_le((ZERO,))),)))
        assert not bad.ok  # premise bounds by the wrong name


class TestLtIntro:
    def test_prefix_of_one(self):
        cert = lt_intro(und(1), (und(2),), 1, refl(und(1)))
        assert ok(cert)

    def test_sup_strictly_under_suc_list(self):
        a, b = und(1), und(2)
        s = sup_finite([a, b])
        g = suc_list([a, b])
        cert = lt_intro(s, (g,), 2, le_cert(s, (a, b)))
        assert ok(cert)

    def test_omega_under_omega_plus_omega(self):
        cert = lt_intro(omega(), (add(omega(), omega()),), 1, refl(omega()))
        assert ok(cert, SPOT)

    def test_empty_selection_rejected(self):
        with pytest.raises(KernelError):
            lt_intro_sel(ZERO, (und(1),), ((),), zero_le(()))


class TestTransitivity:
    def test_le_chain(self):
        cert = trans_le_le(le_cert(und(1), (und(2),)),
                           le_cert(und(2), (und(3),)))
        assert cert.conclusion == Judgment("le", und(1), (und(3),))
        assert ok(cert)

    def test_lt_then_le(self):
        p = lt_cert(und(5), (omega(),))
        q = le_cert(omega(), (add(und(1), omega()),))
        cert = trans_lt_le(p, q)
        assert cert.conclusion.kind == "lt"
        assert ok(cert, SPOT)

    def test_le_then_lt(self):
        cert = trans_le_lt(le_cert(und(2), (und(2),)),
                           lt_cert(und(2), (und(4),)))
        assert ok(cert)

    def test_mismatched_middle_rejected(self):
        with pytest.raises(KernelError):
            trans_le_le(le_cert(und(1), (und(2),)),
                        le_cert(und(3), (und(4),)))


class TestStructural:
    def test_weaken_extends_bounds(self):
        cert = weaken(refl(und(2)), (omega(),))
        assert cert.conclusion.rhs == (und(2), omega())
        assert ok(cert, SPOT)

    def test_contract_merges_duplicates(self):
        doubled = weaken(refl(und(1)), (und(1),))
        cert = contract(doubled)
        assert cert.conclusion.rhs == (und(1),)
        assert ok(cert)

    def test_lt_to_le(self):
        cert = lt_to_le(lt_cert(und(1), (und(3),)))
        assert cert.conclusion == Judgment("le", und(1), (und(3),))
        assert ok(cert)


class TestSucRules:
    def test_lt_suc_of_le(self):
        cert = lt_suc_of_le(refl(und(2)))
        assert cert.conclusion == Judgment("lt", und(2), (und(3),))
        assert ok(cert)

    def test_round_trip_on_conclusions(self):
        p = refl(und(2))
        again = le_of_lt_suc(lt_suc_of_le(p))
        assert again.conclusion == p.conclusion
        assert ok(again)

    def test_suc_le_of_lt(self):
        cert = suc_le_of_lt(lt_cert(und(1), (omega(),)))
        assert cert.conclusion == Judgment("le", und(2), (omega(),))
        assert ok(cert, SPOT)

    def test_lt_of_suc_le(self):
        p = suc_le_of_lt(lt_cert(und(3), (omega(),)))
        cert = lt_of_suc_le(p)
        assert cert.conclusion == Judgment("lt", und(3), (omega(),))
        assert ok(cert, SPOT)

    def test_needs_a_successor_bound(self):
        with pytest.raises(KernelError):
            le_of_lt_suc(lt_cert(und(1), (sup_finite([und(2), und(2)]),)))


class TestSupRules:
    def test_sup_le_intro(self):
        s = sup_finite([und(1), und(2)])
        cert = sup_le_intro(s, (und(1), und(2)), (und(2),),
                            premises=(le_cert(und(1), (und(2),)),
                                      refl(und(2))))
        assert ok(cert)

    def test_sup_lt(self):
        cert = sup_lt(lt_cert(und(1), (und(3),)), lt_cert(und(2), (und(3),)))
        assert cert.conclusion.lhs is sup_finite([und(1), und(2)])
        assert ok(cert)

    def test_cut_left(self):
        p = lt_cert(und(1), (und(2),))
        q = le_cert(und(2), (sup_finite([und(2), und(1)]),))
        cert = cut_left(p, q, und(2))
        assert cert.conclusion == Judgment("le", und(2), (und(2),))
        assert ok(cert)

    def test_drop_left_needs_the_right_sup(self):
        with pytest.raises(KernelError):
            drop_left(lt_cert(und(1), (und(3),)), omega())


class TestVerify:
    def test_exhaustive_counts_nodes(self):
        report = verify(expand(refl(und(3))), Exhaustive())
        assert report.ok
        assert report.visited >= 4

    def test_tampered_conclusion_fails_with_path(self):
        cert = le_cert(und(1), (und(2),))
        cert.conclusion = Judgment("le", und(5), (und(2),))
        report = verify(cert, Exhaustive())
        assert not report.ok
        assert report.failures and isinstance(report.failures[0][0], str)

    def test_forged_node_fails(self):
        forged = Certificate("le_intro", Judgment("le", und(3), (und(1),)))
        assert not verify(forged).ok

    def test_incompatible_conclusions_detected(self):
        p = refl(und(1))
        q = Certificate("lt_intro", Judgment("lt", und(1), (und(1),)),
                        payload=((0,),))
        assert incompatible(p, q)
        assert not verify(q).ok

    def test_conclusions_about_another_pair_are_compatible(self):
        # 1 <= [2] and 1 < [2] hold together; only b <= [a] clashes with a < [b]
        p, q = le_cert(und(1), (und(2),)), lt_cert(und(1), (und(2),))
        assert not incompatible(p, q) and not incompatible(q, p)

    def test_spot_check_on_omega_le_one_plus_omega(self):
        cert = le_cert(omega(), (add(und(1), omega()),))
        assert ok(cert, SpotCheck(samples=(0, 7, 31), depth=64))

    def test_every_sample_of_a_generated_premise_is_checked(self):
        # w <= [3] is false: its premises hold at members 0..2 only, and the
        # certificate has no say over which samples are checked
        forged = Certificate("le_intro", Judgment("le", omega(), (und(3),)),
                             gen=lambda i: lt_cert(und(i), (und(3),)))
        report = verify(forged, SpotCheck((0, 5)))
        assert not report.ok
        assert [path for path, _ in report.failures] == ["root.5"]
        with pytest.raises(IndexError):
            forged.premise_at(-1)


class TestSearch:
    def test_equal_names_both_ways(self):
        w1 = mul(omega(), und(1))
        fwd, back = eq_certs(w1, omega())
        assert ok(fwd, SPOT) and ok(back, SPOT)

    def test_strict_below_power(self):
        assert ok(lt_cert(omega(), (pow(omega(), omega()),)), SPOT)

    def test_suc_omega_below_doubled(self):
        assert ok(le_cert(suc(omega()), (mul(omega(), und(2)),)), SPOT)

    def test_refuses_engine_refuted_goal(self):
        with pytest.raises(CertSearchError):
            lt_cert(omega(), (omega(),))
        with pytest.raises(CertSearchError):
            le_cert(add(omega(), omega()), (omega(),))

    def test_refuses_unwitnessed_finitary_bound(self):
        # no finite sweep can warrant omega below a natural
        with pytest.raises(CertSearchError):
            le_cert(omega(), (und(40),))

    def test_refuses_family_with_a_bad_member_inside_the_sweep(self):
        fam = Family.from_generator(
            lambda n: suc(omega()) if n == 22 else und(1))
        with pytest.raises(CertSearchError):
            le_cert(mk_node(fam), (omega(),))

    def test_refuses_product_order_reversal(self):
        with pytest.raises(CertSearchError):
            le_cert(mul(omega(), und(3)), (mul(omega(), und(2)),))

    def test_refuses_power_below_product(self):
        with pytest.raises(CertSearchError):
            le_cert(pow(omega(), omega()), (mul(omega(), und(2)),))

    @pytest.mark.parametrize("search", [le_cert, lt_cert], ids=["le", "lt"])
    def test_a_product_whose_terms_are_one_name_certifies(self, search):
        # w^2*2 is the name w^2+w^2; a regression test, since the le search
        # ran out of its 6,000 steps on this true claim when it was a copy
        w = omega()
        cert = search(mul(pow(w, und(2)), und(2)), (pow(w, w),))
        assert verify(cert, SpotCheck()).ok

    def test_budget_exhaustion_reported(self, monkeypatch):
        monkeypatch.setattr(kernel, "SEARCH_STEPS", 40)
        with pytest.raises(CertSearchError, match="budget exhausted: steps"):
            le_cert(add(und(1), omega()), (omega(),))

    @pytest.mark.parametrize("k", [2, 3])
    def test_finite_prefix_absorbed_from_any_memo_state(self, k):
        # member i of k+w is the natural k+i, which no selection of width
        # i+2 from w bounds once k >= 2
        kw = add(und(k), omega())
        compare.clear_memo()
        assert ok(le_cert(kw, (omega(),)), SPOT)
        compare.le(kw, (omega(),))
        assert ok(le_cert(kw, (omega(),)), SPOT)

    def test_strict_below_a_tower_from_a_product(self):
        # w^2*2 < w^w is true; its members are steered to members of w^w
        w = omega()
        assert ok(lt_cert(mul(pow(w, und(2)), und(2)), (pow(w, w),)), SPOT)

    def test_eventually_constant_family_is_probed_at_its_constant_point(self):
        # four's members are 0, 1, 2, 3, 3, ...: the search builds the
        # premises at the start and at the constant point, and the
        # certificate generates the rest
        four = mk_node(Family.from_generator(und, const_from=3))
        cert = le_cert(four, (und(4),))
        assert cert.generated
        assert ok(cert, SpotCheck((0, 1, 2, 3, 9)))
        with pytest.raises(CertSearchError):
            le_cert(four, (und(3),))

    def test_strict_product_identities_refused(self):
        # the two names are equal, so neither strict direction can hold
        w2 = mul(omega(), und(2))
        wpw = add(omega(), omega())
        with pytest.raises(CertSearchError):
            lt_cert(w2, (wpw,))
        with pytest.raises(CertSearchError):
            lt_cert(wpw, (w2,))

    def test_a_numeral_past_the_selection_limit_is_below_w(self):
        # n is member n of w, past the default limit of 48 members: the
        # search widens to n's successor stack, as for deep premises
        for n in (47, 48, 60, 63):
            assert ok(lt_cert(und(n), (omega(),)), SPOT)

    def test_running_out_of_depth_is_reported_as_such(self, monkeypatch):
        # a numeral step takes two depth levels, so the default budget of
        # 256 ends near 128: the failure names the budget, not a selection
        # (200 <= [201] is one member leaf; 200 is no member of 202)
        with pytest.raises(CertSearchError, match="budget exhausted: depth"):
            le_cert(und(200), (und(202),))
        monkeypatch.setattr(kernel, "SEARCH_BUDGET", 1000)
        assert ok(le_cert(und(200), (und(202),)))


class TestFormOnlySearch:
    """Cantor normal forms are the search's only guide: a missing form gives
    no opinion, and the engine is asked for no verdict."""

    @pytest.mark.parametrize("bound", [
        pow(omega(), und(2)), eps0()], ids=["w^2", "eps0"])
    def test_refuses_ack_below_what_it_equals(self, bound):
        # ack(w,2,2) has no form but denotes w^2, as eps0 does today, so
        # neither strict claim holds
        a = acko(omega(), und(2), und(2))
        assert _outcome(lambda: lt_cert(a, (bound,)),
                        SpotCheck((0, 1, 2, 5))) == "refused"

    def test_formless_lhs_is_not_swept(self):
        # ack(w,2,2) denotes w^2, not below w*7, though its first 48
        # members are: a sweep over them would certify the false claim
        a = acko(omega(), und(2), und(2))
        assert _outcome(lambda: le_cert(a, (mul(omega(), und(7)),)),
                        SpotCheck((0, 1, 2, 5, 17, 40))) == "refused"

    def test_formless_bound_is_not_swept(self):
        # the bound is w+49: members w+1, ..., w+49 and ack(1,w,1), which
        # denotes w but has no form, so the bound has none either.  w*2 is
        # not below it, though its members w+0, ..., w+48 are: a sweep over
        # them would certify the false claim
        bound = sup_finite([add(omega(), und(i)) for i in range(1, 50)]
                           + [acko(und(1), omega(), und(1))])
        assert cnf.of(bound) is None
        assert _outcome(lambda: le_cert(mul(omega(), und(2)), (bound,)),
                        SpotCheck((0, 1, 2, 5, 17, 40))) == "refused"

    def test_naturally_indexed_lhs_below_a_finitary_bound(self):
        # 1^w is 1, so it is below the bound 1: the forms vouch for the
        # members past the sweep, and also refute 1^w <= 0
        one_w = pow(und(1), omega())
        assert ok(le_cert(one_w, (und(1),)), SpotCheck())
        with pytest.raises(CertSearchError, match="guidance refutes"):
            le_cert(one_w, (ZERO,))

    def test_a_wide_numeral_is_reached_through_its_height(self):
        # suc(59,0) is the natural 60 though its top node is not unary, so
        # only its height says to select member 60 of w
        assert ok(lt_cert(suc_list([und(59), ZERO]), (omega(),)), SPOT)

    @pytest.fixture
    def no_engine(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the search asked the engine for a verdict")

        for rel in ("le", "lt"):
            monkeypatch.setattr(compare, rel, refuse)

    def test_filtering_below_original_without_the_engine(self, no_engine):
        assert ok(le_cert(filtering(omega()), (omega(),)), SPOT)

    def test_product_equals_sum_without_the_engine(self, no_engine):
        fwd, back = eq_certs(mul(omega(), und(2)), add(omega(), omega()))
        assert ok(fwd, SPOT) and ok(back, SPOT)

    def test_bad_member_inside_the_sweep_without_the_engine(self, no_engine):
        fam = Family.from_generator(
            lambda n: suc(omega()) if n == 22 else und(1))
        with pytest.raises(CertSearchError):
            le_cert(mk_node(fam), (omega(),))


class TestSearchCost:
    """The search reads each bound's members, and their running largest
    form, off the bound itself, so a sweep over the lhs's members
    compares forms about once a member rather than once a member pair."""

    def test_light_claim_compares_few_forms(self, monkeypatch):
        calls = [0]
        real = cnf.cmp

        def counted(a, b):
            calls[0] += 1
            return real(a, b)

        monkeypatch.setattr(cnf, "cmp", counted)
        compare.clear_memo()
        fwd, back = eq_certs(add(und(1), omega()), omega())
        assert calls[0] <= 1500
        assert ok(fwd, SPOT) and ok(back, SPOT)

    @pytest.mark.parametrize("k", [3, 5])
    def test_bound_that_fails_past_the_member_needed(self, k):
        f = mk_node(Family.from_generator(failing_past_five))
        compare.clear_memo()
        assert ok(lt_cert(und(k), (f,)), SPOT)

    def test_bound_that_fails_at_the_member_needed(self):
        f = mk_node(Family.from_generator(failing_past_five))
        compare.clear_memo()
        with pytest.raises(compare.EngineError, match="index 6"):
            lt_cert(und(7), (f,))

    def test_lhs_that_fails_at_the_member_needed(self):
        # the sweep over the lhs's members reaches the one that fails, and
        # asks the generator for nothing past it
        asked = []

        def gen(i):
            asked.append(i)
            return failing_past_five(i)

        f = mk_node(Family.from_generator(gen))
        # a form, which a swept lhs needs; it claims w, and the members the
        # generator yields are below w
        f.cnf = cnf.OMEGA
        compare.clear_memo()
        with pytest.raises(compare.EngineError, match="index 6"):
            le_cert(f, (omega(),))
        assert max(asked) == 6


def _outcome(search, policy):
    """What a search yields: "refused", or whether verify accepts it."""
    try:
        cert = search()
    except CertSearchError:
        return "refused"
    return "accepted" if verify(cert, policy).ok else "rejected"


class TestWrongHint:
    """A Cantor normal form on a name only steers the search: a wrong one
    may cost a certificate but never yields an accepted false claim."""

    def test_wrong_form_on_the_lhs(self):
        w = mk_node(Family.from_generator(und))  # omega, built afresh
        w.cnf = cnf.add(cnf.OMEGA, cnf.OMEGA)  # claims w+w
        # true, but the form refutes it
        assert _outcome(lambda: le_cert(w, (omega(),)), SPOT) == "refused"
        # false, and the form lets the search try it
        assert _outcome(lambda: lt_cert(omega(), (w,)), SPOT) == "refused"

    def test_wrong_form_on_a_member_outside_the_samples(self):
        # member 10 is w+1, which claims to be 3; every other member is a
        # natural, so the name is w+2 and not below w.  The sweep must
        # build member 10's premise, since SpotCheck samples only 0, 1, 2.
        big = mk_node(Family.from_generator(lambda n: omega()))
        big.cnf = cnf.nat(3)
        lhs = mk_node(Family.from_generator(
            lambda n: big if n == 10 else und(n)))
        assert lhs.cnf is None
        assert _outcome(lambda: le_cert(lhs, (omega(),)), SPOT) in (
            "refused", "rejected")


class TestFilteringCerts:
    def test_omega_filtering_is_omega(self):
        fwd, back = filtering_eq_certs(omega())
        policy = SpotCheck(samples=(0, 1, 2, 6), depth=64)
        assert ok(fwd, policy) and ok(back, policy)

    def test_finitary_filtering(self):
        a = suc_list([und(1), und(2)])
        fwd, back = filtering_eq_certs(a)
        assert ok(fwd) and ok(back)

    def test_search_also_reaches_filtering_below_original(self):
        cert = le_cert(filtering(omega()), (omega(),))
        assert ok(cert, SPOT)

    def test_zero_rejected(self):
        with pytest.raises(KernelError):
            filtering_eq_certs(ZERO)


class TestSerialize:
    def test_finite_certificate_lists_every_node(self):
        text = serialize(le_cert(und(2), (und(4),)))
        lines = text.strip().split("\n")
        assert lines[0].startswith("0: ")
        assert any("le_intro" in line for line in lines)
        assert text.endswith("\n")

    def test_shared_premise_is_listed_once(self):
        # both members of suc(1, 1) rest on the one certificate of 1 <= 1
        text = serialize(expand(refl(suc_list([und(1), und(1)]))))
        assert text == ("0: le_intro(0 <= 0){}\n"
                        "1: lt_intro(0 < 1 sel 0){0}\n"
                        "2: le_intro(1 <= 1){1}\n"
                        "3: lt_intro(1 < suc(1, 1) sel 0){2}\n"
                        "4: lt_intro(1 < suc(1, 1) sel 1){2}\n"
                        "5: le_intro(suc(1, 1) <= suc(1, 1)){3,4}\n")

    def test_generator_certificates_rejected(self):
        with pytest.raises(KernelError):
            serialize(expand(refl(omega())))


class TestEngineAgreement:
    def test_certified_claims_never_engine_contradicted(self):
        claims = [
            le_cert(und(2), (und(3),)),
            le_cert(omega(), (add(und(1), omega()),)),
            lt_cert(omega(), (add(omega(), omega()),)),
        ]
        for cert in claims:
            j = cert.conclusion
            rel = compare.le if j.kind == "le" else compare.lt
            assert not rel(j.lhs, j.rhs, Fuel(width=32, depth=128)).is_false
