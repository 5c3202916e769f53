"""Ordinal arithmetic: addition, sequential sums, products, powers, iteration."""

import pytest
from hypothesis import given, settings

from ordcalc import arith, compare, kernel, oracle
from ordcalc.arith import END, LinearIndexOrder, acko, add, eps0, mul, pow, seq_sum
from ordcalc.checker import Judgment
from ordcalc.compare import Ordering, cmp_finitary
from ordcalc.expr import lower, parse_expr
from ordcalc.names import (BitSeq, Family, Fin, NAT, ZERO, eps_lpo,
                           map_family, omega, subordinals, sup_finite, und)

from .conftest import finitary_names, seeded_pairs
from .verdict_diff import EXPRESSIONS


def _le(a, b) -> bool:
    return cmp_finitary(a, b) in (Ordering.LT, Ordering.EQ)


def _lt(a, b) -> bool:
    return cmp_finitary(a, b) is Ordering.LT


def _eq(a, b) -> bool:
    return cmp_finitary(a, b) is Ordering.EQ


# the finitary law battery; each entry takes a name triple
LAWS_33 = [
    ("add_assoc",
     lambda a, b, c: _eq(add(add(a, b), c), add(a, add(b, c)))),
    ("add_monotone",
     # a <= a+c and b <= b+c hold by construction
     lambda a, b, c: _le(add(a, b), add(add(a, c), add(b, c)))),
    ("add_cancel_le",
     lambda a, b, c: _le(add(a, b), add(a, c)) == _le(b, c)),
    ("add_cancel_lt",
     lambda a, b, c: _lt(add(a, b), add(a, c)) == _lt(b, c)),
    ("mul_assoc",
     lambda a, b, c: _eq(mul(mul(a, b), c), mul(a, mul(b, c)))),
    ("mul_left_distributes",
     lambda a, b, c: _eq(mul(a, add(b, c)), add(mul(a, b), mul(a, c)))),
    ("mul_cancel_le",
     # 1 <= 1+a forces the hypothesis on every triple
     lambda a, b, c: _le(mul(add(und(1), a), b), mul(add(und(1), a), c))
     == _le(b, c)),
    ("mul_cancel_lt",
     lambda a, b, c: _lt(mul(add(und(1), a), b), mul(add(und(1), a), c))
     == _lt(b, c)),
]


def seq_sum_pointwise_monotone(a, b, c) -> bool:
    """Raising one member never lowers any partial sum."""
    lows = (a, b, c)
    highs = (a, add(b, und(1)), add(c, a))
    order = LinearIndexOrder(Fin(3))
    for cut in range(4):
        low = seq_sum(order, Family.from_children(lows), cut)
        high = seq_sum(order, Family.from_children(highs), cut)
        if not _le(low, high):
            return False
    return True


class TestAdd:
    def test_naturals_add(self):
        assert _eq(add(und(2), und(3)), und(5))

    @given(finitary_names())
    def test_right_zero_is_identity(self, a):
        assert add(a, ZERO) is a

    @given(finitary_names())
    def test_left_zero_is_identity(self, a):
        assert add(ZERO, a) is a

    def test_one_plus_omega_is_omega(self):
        fwd, back = kernel.eq_certs(add(und(1), omega()), omega())
        policy = kernel.SpotCheck(samples=(0, 1, 2, 7), depth=64)
        assert kernel.verify(fwd, policy).ok
        assert kernel.verify(back, policy).ok

    @given(finitary_names())
    def test_one_plus_alpha_differs_on_finitary(self, a):
        # omega <= alpha fails here, so 1 + alpha must exceed alpha
        assert _lt(a, add(und(1), a))


class TestSharedTrees:
    """Arithmetic that rebuilds a tree it already has returns the name it
    has: 0 + b is b, 1 * b is b, and a sup of one naturally indexed member
    of no finite arity is that member.  Names that denote one ordinal
    through different trees stay distinct."""

    @staticmethod
    def _name(text):
        return lower(parse_expr(text))

    @staticmethod
    def _product_step(b):
        """One level of mul's recursion for 1*b, on the hypothesis of its
        proof's induction that 1*b_j is b_j."""
        one = und(1)
        return arith._sup_of(map_family(
            subordinals(b), lambda bj: add(mul(one, bj), one)))

    @pytest.mark.parametrize("lhs, rhs", [
        ("w*2", "w+w"), ("w*3", "w*2+w"), ("w*1", "w"),
        ("w^2*2", "w^2+w^2"), ("w^1", "w"), ("1*w", "w"), ("w^2", "w*w")])
    def test_one_tree_is_one_name(self, lhs, rhs):
        assert self._name(lhs) is self._name(rhs)

    def test_zero_plus_omega_is_omega(self):
        assert add(ZERO, omega()) is omega()

    def test_power_one_is_the_base_and_power_two_the_square(self):
        w = omega()
        assert pow(w, und(1)) is w
        assert pow(w, und(2)) is mul(w, w)

    @pytest.mark.parametrize("text", EXPRESSIONS + ["w^2+w"])
    def test_one_step_of_the_product_by_one_lists_b(self, text):
        # the induction step of mul's proof that 1*b is b lists b's own
        # members in b's order, so a finite b is its own interned node
        b = self._name(text)
        step = self._product_step(b)
        if b.index is NAT:
            assert [step.child(i) for i in range(64)] == [
                b.child(i) for i in range(64)]
        else:
            assert step is b

    def test_one_step_over_an_eventually_constant_b(self):
        # the diagonal sup lists b's members past its constant point too,
        # though it does not record that point, which 1*b = b keeps
        b, _ = eps_lpo(BitSeq.const_last([0, 0, 1]))
        step = self._product_step(b)
        assert [step.child(i) for i in range(64)] == [
            b.child(i) for i in range(64)]
        assert (step.arity, b.arity) == (None, 4)
        assert mul(und(1), b) is b

    @pytest.mark.parametrize("lhs, rhs", [
        ("1+w", "w"), ("eps0", "w^2"), ("sup(w,3)", "w")])
    def test_one_ordinal_through_two_trees_stays_two_names(self, lhs, rhs):
        assert self._name(lhs) is not self._name(rhs)

    def test_equal_names_certify_by_reflexivity(self):
        w2 = mul(omega(), und(2))
        assert [(c.rule, c.conclusion, c.payload)
                for c in kernel.eq_certs(w2, add(omega(), omega()))] == [
            ("refl", Judgment("le", w2, (w2,)), (0,))] * 2


class TestSeqSum:
    def test_zero_members_sum_to_zero(self):
        betas = Family.from_children([ZERO, ZERO, ZERO])
        assert seq_sum(LinearIndexOrder(Fin(3)), betas, END) is ZERO

    def test_three_ones(self):
        betas = Family.from_children([und(1)] * 3)
        total = seq_sum(LinearIndexOrder(Fin(3)), betas, END)
        assert _eq(total, und(3))

    def test_pair_matches_add(self):
        betas = Family.from_children([und(2), und(3)])
        total = seq_sum(LinearIndexOrder(Fin(2)), betas, END)
        assert _eq(total, add(und(2), und(3)))

    def test_cut_must_stay_inside_carrier(self):
        betas = Family.from_children([und(1)])
        with pytest.raises(ValueError):
            seq_sum(LinearIndexOrder(Fin(1)), betas, 5)

    @given(finitary_names(), finitary_names(), finitary_names())
    @settings(max_examples=30)
    def test_pointwise_monotone(self, a, b, c):
        assert seq_sum_pointwise_monotone(a, b, c)


class TestMul:
    def test_naturals_multiply(self):
        assert _eq(mul(und(2), und(3)), und(6))

    @given(finitary_names())
    def test_one_is_neutral(self, a):
        assert _eq(mul(a, und(1)), a)
        assert _eq(mul(und(1), a), a)

    @given(finitary_names())
    def test_zero_annihilates(self, a):
        assert mul(a, ZERO) is ZERO
        assert mul(ZERO, a) is ZERO

    def test_omega_doubled_is_omega_plus_omega(self):
        w2 = mul(omega(), und(2))
        wpw = add(omega(), omega())
        fwd, back = kernel.eq_certs(w2, wpw)
        policy = kernel.SpotCheck(samples=(0, 1, 2), depth=64)
        assert kernel.verify(fwd, policy).ok
        assert kernel.verify(back, policy).ok


class TestPow:
    def test_naturals_exponentiate(self):
        assert _eq(pow(und(2), und(3)), und(8))

    @given(finitary_names())
    def test_zero_exponent_gives_one(self, a):
        assert pow(a, ZERO) is und(1)

    def test_one_to_the_omega_is_one(self):
        p = pow(und(1), omega())
        # every subordinal of p is zero by the multiplication shortcut, so
        # the generated premise is warranted for the whole index range
        fwd = kernel.le_intro(p, (und(1),),
                              gen=lambda n: kernel.zero_lt((und(1),)))
        back = kernel.le_cert(und(1), (p,))
        policy = kernel.SpotCheck(samples=(0, 3, 17), depth=64)
        assert kernel.verify(fwd, policy).ok
        assert kernel.verify(back, policy).ok


class TestAcko:
    @given(finitary_names(), finitary_names())
    @settings(max_examples=30)
    def test_zero_steps_add(self, a, b):
        assert acko(a, b, ZERO) is add(a, b)

    @given(finitary_names())
    def test_zero_base_returns_start(self, a):
        assert acko(a, ZERO, und(2)) is a

    def test_two_two_one(self):
        assert oracle.val(acko(und(2), und(2), und(1))) == 6

    def test_eps0_is_a_natural_family(self):
        e = eps0()
        assert e.index is NAT
        assert eps0() is e


class TestLawBattery:
    def test_each_law_on_seeded_triples(self):
        triples = [
            (oracle.gen_finitary(3 * i + 50_000),
             oracle.gen_finitary(3 * i + 50_001),
             oracle.gen_finitary(3 * i + 50_002))
            for i in range(40)
        ]
        for name, law in LAWS_33:
            bad = [t for t in triples if not law(*t)]
            assert not bad, f"{name} fails on {bad[0]!r}"


class TestValuationHomomorphism:
    def test_operations_project_to_naturals(self):
        for a, b in seeded_pairs(60, salt=31_000):
            assert oracle.val(add(a, b)) == oracle.val(a) + oracle.val(b)
            assert oracle.val(mul(a, b)) == oracle.val(a) * oracle.val(b)
            assert oracle.val(pow(a, b)) == oracle.val(a) ** oracle.val(b)
