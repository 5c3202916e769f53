"""The two-rule sequent calculus: derivability, certificates, divergence."""

import random
from itertools import product

import pytest

from ordcalc import compare, mlseq
from ordcalc.kernel import Exhaustive, KernelError, SpotCheck
from ordcalc.mlseq import (Atom, ml_cert_exa123, ml_derivable, ml_le_refl_cert,
                           ml_r1, ml_verify, sequent)
from ordcalc.names import BitSeq, ZERO, eps_lpo, omega, suc, suc_list, und
from ordcalc.oracle import gen_finitary, val


def _names(count, salt=0):
    return [gen_finitary(i + salt) for i in range(count)]


def _holds_by_one_atom(rng, goals, depth, names, atoms):
    # soundness, and single-atom completeness under a side context: a
    # sequent is derivable exactly when one of its atoms is true
    falses = 0
    for _ in range(goals):
        pool = [gen_finitary(rng.randrange(2 ** 32), max_depth=depth,
                             max_width=3)
                for _ in range(rng.randint(*names))] + [ZERO]
        goal = [Atom(rng.choice(pool), rng.choice(("lt", "le")),
                     rng.choice(pool)) for _ in range(rng.randint(*atoms))]
        want = any(
            val(a.lhs) < val(a.rhs) if a.rel == "lt" else
            val(a.lhs) <= val(a.rhs)
            for a in goal)
        falses += not want
        assert ml_derivable(sequent(goal)) == want, goal
    assert falses >= 20


class TestDerivability:
    def test_reflexivity_always_derivable(self):
        for a in _names(25, salt=500):
            assert ml_derivable(sequent([Atom(a, "le", a)]))

    def test_strict_successor_always_derivable(self):
        for a in _names(25, salt=530):
            assert ml_derivable(sequent([Atom(a, "lt", suc(a))]))

    def test_strict_reflexivity_never_derivable(self):
        for a in _names(25, salt=560):
            assert not ml_derivable(sequent([Atom(a, "lt", a)]))

    def test_linearity_disjunction_derivable(self):
        for i in range(25):
            a, b = gen_finitary(2000 + 2 * i), gen_finitary(2001 + 2 * i)
            goal = sequent([Atom(a, "lt", b), Atom(b, "le", a)])
            assert ml_derivable(goal)

    def test_single_atoms_coincide_with_total_comparison(self):
        for i in range(60):
            a, b = gen_finitary(3000 + 2 * i), gen_finitary(3001 + 2 * i)
            order = compare.cmp_finitary(a, b)
            le_holds = order in (compare.Ordering.LT, compare.Ordering.EQ)
            lt_holds = order is compare.Ordering.LT
            assert ml_derivable(sequent([Atom(a, "le", b)])) == le_holds
            assert ml_derivable(sequent([Atom(a, "lt", b)])) == lt_holds

    def test_rejects_natural_indexing(self):
        with pytest.raises(ValueError):
            ml_derivable(sequent([Atom(omega(), "le", omega())]))

    def test_empty_sequent_rejected(self):
        with pytest.raises(ValueError):
            sequent([])

    def test_multi_atom_sequents_hold_by_one_atom(self):
        _holds_by_one_atom(random.Random(41), 150, depth=3, names=(3, 3),
                           atoms=(2, 4))

    def test_workload_shaped_sequents_hold_by_one_atom(self):
        # the sequent workload's shape: depth-4, width-3 names, 1-3 atoms
        _holds_by_one_atom(random.Random(90_417), 300, depth=4, names=(1, 3),
                           atoms=(1, 3))

    def test_goal_with_no_useful_seed_is_refused_unsaturated(self, monkeypatch):
        # b < 0 rewrites into nothing, so no zero seed {0 <= c} is useful and
        # no rule is ever tried; b <= b still needs R2
        b = gen_finitary(7, max_depth=5, max_width=3)
        r2_steps = []

        def counting_product(*slots):
            r2_steps.append(len(slots))
            return product(*slots)

        monkeypatch.setattr(mlseq, "product", counting_product)
        assert ml_derivable(sequent([Atom(_B, "lt", ZERO)])) is False
        assert ml_derivable(sequent([Atom(b, "lt", ZERO)])) is False
        assert r2_steps == []
        assert ml_derivable(sequent([Atom(b, "le", b)])) is True
        assert r2_steps


_A = und(2)
_B = suc_list([_A, _A])  # one child at two positions
_C = suc_list([und(1), _A, und(1)])


@pytest.mark.parametrize("atoms, want", [
    ([Atom(ZERO, "lt", ZERO)], False),
    ([Atom(ZERO, "le", ZERO)], True),
    ([Atom(_B, "le", suc(_A))], True),
    ([Atom(_B, "lt", suc(_A))], False),
    ([Atom(_C, "le", _B)], True),
    ([Atom(_B, "lt", _C), Atom(_C, "le", _B)], True),
    ([Atom(_A, "lt", ZERO), Atom(_B, "lt", _B)], False),
    ([Atom(_B, "lt", _B), Atom(_C, "lt", _C), Atom(_A, "lt", _A),
      Atom(ZERO, "lt", ZERO)], False),
], ids=["0<0", "0<=0", "b<=suc-a", "b<suc-a", "c<=b", "b<c,c<=b",
        "a<0,b<b", "four-irreflexive"])
def test_pinned_edge_cases(atoms, want):
    assert ml_derivable(sequent(atoms)) is want


class TestMlVerify:
    def test_refl_certificate(self):
        report = ml_verify(ml_le_refl_cert(und(3)))
        assert report.ok

    def test_tampered_principal_rejected(self):
        cert = ml_le_refl_cert(und(2))
        cert.principal = Atom(und(2), "le", und(1))
        assert not ml_verify(cert).ok

    def test_r1_demands_a_strict_principal(self):
        with pytest.raises(KernelError):
            ml_r1([Atom(und(1), "le", und(2))], Atom(und(1), "le", und(2)),
                  0, ml_le_refl_cert(und(1)))


class TestDivergencePair:
    def test_all_zero_constant_tail_verifies(self):
        cert = ml_cert_exa123(BitSeq.const_last([0, 0, 0]))
        assert ml_verify(cert, SpotCheck(samples=(0, 1, 2, 5, 9), depth=64)).ok

    def test_zero_one_prefix_takes_the_named_index_branch(self):
        cert = ml_cert_exa123(BitSeq.const_last([0, 1]))
        assert ml_verify(cert, SpotCheck(samples=(0, 1, 2, 3), depth=64)).ok

    def test_exa123_at_the_listed_samples(self):
        cert = ml_cert_exa123(BitSeq.const_last([0, 0, 1]))
        assert ml_verify(cert, SpotCheck(samples=(0, 3, 9), depth=64)).ok

    def test_certificate_provable_where_engine_unknown(self):
        u = BitSeq.opaque([0, 0, 1], tail=lambda n: 1)
        eps, eps_prime = eps_lpo(u)
        assert compare.lt(eps, (eps_prime,)).is_unknown
        assert ml_verify(ml_cert_exa123(u),
                         SpotCheck(samples=(0, 1, 2, 4), depth=64)).ok

    def test_both_policies_for_prefix_lengths_one_to_eight(self):
        for length in range(1, 9):
            for final in (0, 1):
                prefix = [0] * (length - 1) + [final]
                for u in (BitSeq.const_last(prefix),
                          BitSeq.opaque(prefix, tail=lambda n, f=final: f)):
                    cert = ml_cert_exa123(u)
                    assert ml_verify(
                        cert, SpotCheck(samples=(0, 1, length), depth=64)).ok
