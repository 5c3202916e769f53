"""Name construction: zero, nodes, successors, sups, views, filtering."""

from itertools import islice

import pytest
from hypothesis import given, settings

from ordcalc import compare, oracle
from ordcalc.names import (Family, Fin, IllFoundedError, NAT, ZERO, BitSeq,
                           eps_lpo, filtering, fold, mk_node, mk_zero, omega,
                           subordinals, suc, suc_list, sup_decomposition,
                           sup_family, sup_finite, sup_order, und)

from .conftest import finitary_names


class TestZero:
    def test_mk_zero_is_the_distinguished_element(self):
        assert mk_zero() is ZERO
        assert ZERO.is_zero

    def test_zero_has_no_subordinal(self):
        assert ZERO.index.size == 0

    def test_zero_equals_itself(self):
        assert compare.eq(mk_zero(), mk_zero()).is_true


class TestMkNode:
    def test_singleton_zero_family_is_one(self):
        f = Family.from_children([ZERO])
        assert mk_node(f) is und(1)

    def test_natural_family_of_naturals_denotes_omega(self):
        n = mk_node(Family.from_generator(und))
        assert n.index is NAT
        for i in range(6):
            assert n.child(i) is omega().child(i)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            mk_node(Family.from_children([]))


class TestSuc:
    def test_suc_zero_is_one(self):
        assert suc(ZERO) is und(1)

    def test_suc_und_three_is_und_four(self):
        assert suc(und(3)) is und(4)

    @given(finitary_names())
    def test_strictly_below_own_successor(self, a):
        assert compare.lt(a, (suc(a),), compare.finitary_fuel(a, suc(a))).is_true


class TestSucList:
    def test_singleton_zero(self):
        assert suc_list([ZERO]) is und(1)

    def test_val_is_max_plus_one(self):
        assert oracle.val(suc_list([und(1), und(2)])) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            suc_list([])

    @given(finitary_names(), finitary_names())
    def test_sup_strictly_below_suc(self, a, b):
        s = sup_finite([a, b])
        g = suc_list([a, b])
        assert compare.lt(s, (g,), compare.finitary_fuel(s, g)).is_true


class TestUnd:
    def test_zero(self):
        assert und(0) is ZERO

    def test_order_matches_naturals(self):
        assert compare.cmp_finitary(und(2), und(3)) is compare.Ordering.LT
        assert compare.cmp_finitary(und(3), und(3)) is compare.Ordering.EQ

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            und(-1)


class TestOmega:
    def test_every_natural_sits_below(self):
        w = omega()
        for k in range(21):
            assert compare.lt(und(k), (w,)).is_true

    def test_reflexive_by_identity(self):
        assert compare.le(omega(), (omega(),)).is_true

    def test_never_below_a_natural(self):
        for k in range(21):
            assert compare.le(omega(), (und(k),)).is_false


class TestSupFamily:
    @given(finitary_names().filter(lambda a: not a.is_zero))
    def test_one_member_family_collapses(self, a):
        s = sup_family(Family.from_children([a]))
        assert compare.eq(s, a, compare.finitary_fuel(s, a)).is_true

    def test_two_member_val(self):
        s = sup_family(Family.from_children([und(1), und(2)]))
        assert oracle.val(s) == 2


class TestSupFinite:
    def test_all_zero_collapses_to_zero(self):
        assert sup_finite([ZERO, ZERO]) is ZERO

    @given(finitary_names())
    def test_zero_member_dropped(self, a):
        s = sup_finite([ZERO, a])
        assert compare.eq(s, a, compare.finitary_fuel(s, a)).is_true

    def test_val_is_max(self):
        assert oracle.val(sup_finite([und(2), und(3)])) == 3

    def test_decomposition_records_members(self):
        members = (und(2), und(3))
        s = sup_finite(members)
        assert sup_decomposition(s, members)


_STEADY = mk_node(Family.from_generator(und, const_from=2))


@pytest.mark.parametrize("members", [
    (und(2), ZERO, suc_list([und(0), und(1)])),
    (omega(), ZERO, und(3)),
    (und(3), _STEADY, omega()),
    Family.from_generator(lambda n: und(n + 1)),
], ids=["finite", "diagonal", "steady-member", "family"])
def test_sup_order_lists_the_sup(members):
    if isinstance(members, Family):
        s, at = sup_family(members), members.at
    else:
        s, at = sup_finite(members), members.__getitem__
    n = s.index.size if isinstance(s.index, Fin) else 40
    listed = [at(j).child(i) for j, i in islice(sup_order(members), n)]
    assert listed == [s.child(k) for k in range(n)]


class TestSubordinals:
    def test_one(self):
        view = subordinals(und(1))
        assert view.index == Fin(1)
        assert view.at(0) is ZERO

    def test_omega_at_five(self):
        assert subordinals(omega()).at(5) is und(5)

    def test_zero_view_is_empty(self):
        assert subordinals(ZERO).index == Fin(0)


class TestFiltering:
    def test_one_is_fixed(self):
        f = filtering(und(1))
        assert compare.eq(f, und(1), compare.finitary_fuel(f, und(1))).is_true

    def test_finitary_node_unchanged_up_to_eq(self):
        a = suc_list([und(1), und(2)])
        f = filtering(a)
        assert compare.eq(f, a, compare.finitary_fuel(f, a)).is_true

    def test_singleton_subsets_are_the_original_children(self):
        f = filtering(omega())
        for i in range(5):
            assert f.child(2 ** i - 1) is und(i)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            filtering(ZERO)


class TestFold:
    def test_node_count_on_chain(self):
        count = fold(und(3), lambda a, view: 1 + sum(view))
        assert count == 4

    @given(finitary_names())
    @settings(max_examples=40)
    def test_val_matches_oracle(self, a):
        height = fold(a, lambda n, view: 0 if n.is_zero else 1 + max(view))
        assert height == oracle.val(a)

    def test_zero_gets_empty_view(self):
        seen = []
        fold(ZERO, lambda n, view: seen.append(list(view)))
        assert seen == [[]]


class TestBitSequences:
    def test_all_zero_const_last_is_one(self):
        eps, _ = eps_lpo(BitSeq.const_last([0, 0]))
        assert compare.le(eps, (und(1),)).is_true
        assert compare.le(und(1), (eps,)).is_true

    def test_const_last_prefix_001_decides_strictness(self):
        # eventually constant, so the engine settles the LPO comparison
        eps, eps_prime = eps_lpo(BitSeq.const_last([0, 0, 1]))
        assert compare.lt(eps, (eps_prime,)).is_true

    def test_opaque_tail_stays_unknown(self):
        eps, eps_prime = eps_lpo(BitSeq.opaque([0, 0, 1], tail=lambda n: 1))
        for width in (8, 64, 256):
            v = compare.lt(eps, (eps_prime,), compare.Fuel(width=width, depth=256))
            assert v.is_unknown

    def test_bits_validated(self):
        with pytest.raises(ValueError):
            BitSeq.const_last([0, 2])
        bad = BitSeq.opaque([], tail=lambda n: 7)
        with pytest.raises(ValueError):
            bad.at(0)
