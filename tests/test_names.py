"""Name construction: zero, nodes, successors, sups, views, filtering."""

import gc
import sys
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings

from ordcalc import compare, names, oracle
from ordcalc.expr import lower, parse_expr
from ordcalc.names import (Family, Fin, IllFoundedError, NAT, ZERO, BitSeq,
                           eps_lpo, filtering, fold, max_fin_width, mk_node,
                           mk_zero, omega, structural_depth, subordinals, suc,
                           suc_list, sup_decomposition, sup_family,
                           sup_finite, sup_order, und, und_value)

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

    def test_member_that_fails_once_is_pulled_again(self):
        # member j is j+1, so position k of the sup is the natural k; the
        # first request past position 1 reads member 2, which fails once
        failures = [RuntimeError("member 2 not ready")]

        def member(j):
            if j == 2 and failures:
                raise failures.pop()
            return und(j + 1)

        s = sup_family(Family.from_generator(member))
        with pytest.raises(RuntimeError):
            s.child(5)
        assert s.child(5) is und(5)
        assert [s.child(k) for k in range(5)] == [und(k) for k in range(5)]


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

    def test_sup_of_the_same_members_is_built_once(self):
        s = lower(parse_expr("sup(w,3)"))
        assert lower(parse_expr("sup(w,3)")) is s
        assert sup_finite([omega(), und(3)]) is s
        assert sup_decomposition(s, (omega(), und(3)))
        assert not sup_decomposition(s, (und(3), omega()))

    def test_decomposition_of_a_family_sup_is_not_a_tuple(self):
        f = Family.from_generator(lambda n: und(n + 1))
        s = sup_family(f)
        assert sup_decomposition(s, f)
        assert not sup_decomposition(s, (und(1),))

    def test_decomposition_does_not_depend_on_what_was_built_before(self):
        # (w, 3) is the flattened sup of (suc(w), suc(3)) and of itself
        w = omega()
        members = (suc(w), suc(und(3)))
        n = sup_finite(members)
        assert sup_decomposition(n, members)
        assert sup_finite((suc_list([w, und(3)]),)) is n
        assert sup_decomposition(n, members)

    def test_decomposition_of_a_finite_family_sup(self):
        for f in (Family.from_children([und(1), und(2)]),
                  Family.from_children([omega(), und(3)])):
            assert sup_decomposition(sup_family(f), f)

    def test_sup_of_the_same_natural_family_is_built_once(self):
        h = Family.from_generator(lambda n: und(n + 1))
        assert sup_family(h) is sup_family(h)
        assert sup_decomposition(sup_family(h), h)

    def test_sup_of_members_of_finite_arity_concatenates_them(self):
        # eventually constant natural families have finite arity: their sup
        # lists each one's members up to its constant point and ends there,
        # where a diagonal walk would look for pairs that never come
        members = eps_lpo(BitSeq.const_last([0, 1]))
        s = sup_finite(members)
        assert s.arity == 6
        assert [s.child(k) for k in range(6)] == [und(n) for n in
                                                  (0, 1, 1, 1, 2, 2)]
        assert compare.le(s, (und(5),)).is_true
        assert compare.lt(s, (und(3),)).is_false
        assert compare.le(s, (und(2),)).is_false
        assert sup_decomposition(s, members)
        pair = (mk_node(Family.from_generator(und, const_from=2)), und(3))
        t = sup_finite(pair)
        assert t.arity == 4
        with pytest.raises(IndexError):
            t.child(4)
        listed = [pair[j].child(i) for j, i in sup_order(pair)]
        assert listed == [t.child(k) for k in range(4)]

    def test_a_lone_natural_member_is_its_own_sup(self):
        # sup_order of one naturally indexed member of no finite arity lists
        # (0, i) for i = 0, 1, 2, ...: its sup is its own tree
        w = omega()
        assert sup_finite([w]) is w
        assert sup_finite([ZERO, w]) is w
        assert sup_family(Family.from_children([w])) is w
        assert sup_decomposition(w, (w,))
        assert sup_decomposition(w, (w, ZERO))
        assert sup_decomposition(w, Family.from_children([w]))
        assert not sup_decomposition(suc(w), (w,))
        # a member constant from some index has a finite arity: its sup is
        # the finite node over its members up to that index
        steady = mk_node(Family.from_generator(und, const_from=2))
        assert sup_finite([steady]) is suc_list([und(0), und(1), und(2)])
        assert not sup_decomposition(steady, (steady,))

    def test_refused_decomposition_builds_no_node(self):
        w = mk_node(Family.from_generator(und))
        members = (suc(w), suc_list([und(7), w]))
        before = len(names._intern)
        assert not sup_decomposition(und(5), members)
        assert len(names._intern) == before


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


class TestNaturalStore:
    """A naturally indexed family holds each member once, in one list in
    index order, which is the store the engine reads."""

    @staticmethod
    def _counted(const_from=None):
        calls = []

        def gen(i):
            calls.append(i)
            # a fresh node per call, so identity shows which call made it
            return mk_node(Family.from_generator(lambda j: und(i)))

        return Family.from_generator(gen, const_from=const_from), calls

    def test_a_member_asked_ahead_is_kept_until_the_list_reaches_it(self):
        f, calls = self._counted()
        five = f.at(5)
        assert [f.at(i) for i in range(6)][5] is five
        assert sorted(calls) == list(range(6))
        assert f.at(5) is five and len(calls) == 6

    def test_a_constant_tail_is_its_first_member(self):
        for order in ((9, 3), (3, 9)):
            f, calls = self._counted(const_from=3)
            got = [f.at(i) for i in order]
            assert got[0] is got[1] and calls == [3]

    def test_a_member_pulled_outside_the_engine_is_a_held_row(self):
        b = mk_node(Family.from_generator(und))
        pulled = [b.child(i) for i in range(10)]
        compare.clear_memo()
        # the running heights read the members the store holds, and pull none
        assert compare._by_rows([b], 9, 10) == (9, True)
        assert b.pulled == pulled
        # the engine pulls into the same store
        assert compare.lt(und(12), (b,)).is_true
        assert len(b.pulled) == 13

    def test_names_compare_by_identity_and_hash_by_ident(self):
        a, b = (mk_node(Family.from_generator(und)) for _ in range(2))
        assert a != b and a == a
        for n in (a, b, ZERO, und(3), omega()):
            assert hash(n) == n.ident


class TestSubordinals:
    def test_one(self):
        view = subordinals(und(1))
        assert view.index == Fin(1)
        assert view.at(0) is ZERO

    def test_omega_at_five(self):
        assert subordinals(omega()).at(5) is und(5)

    def test_zero_view_is_empty(self):
        assert subordinals(ZERO).index == Fin(0)


class TestFiniteNodes:
    """A node over Fin(k) holds only its member tuple; index, child,
    subordinals and mk_node read it as the finite family of its members."""

    @given(finitary_names())
    def test_index_child_and_subordinals_agree(self, a):
        if a.is_zero:
            return
        k = a.arity
        assert a.index == Fin(k)
        view = subordinals(a)
        assert view.index == Fin(k)
        kids = [a.child(i) for i in range(k)]
        assert all(view.at(i) is kid for i, kid in enumerate(kids))
        assert mk_node(Family.from_children(kids)) is suc_list(kids) is a

    @pytest.mark.parametrize("i", [-1, -2, 2, 3, 10 ** 6, "0", None])
    def test_child_outside_the_index_raises(self, i):
        a = suc_list([und(1), und(2)])
        with pytest.raises(IndexError):
            a.child(i)

    def test_index_sets_and_zero_view_are_shared(self):
        pair = suc_list([und(2), und(1)])
        assert pair.index is suc_list([ZERO, und(3)]).index is names.fin(2)
        assert und(4).index is names.fin(1)
        assert ZERO.index is names.fin(0)
        assert subordinals(ZERO) is subordinals(ZERO)

    def test_interned_binary_node_costs_at_most_300_bytes(self):
        # A node over two existing children: the node, its member tuple,
        # its ident, and its average share of the intern table.  The
        # table's own growth is left out because it comes in doublings.
        # The children sit over a fresh natural node, so every pair is new.
        seed = mk_node(Family.from_generator(und))
        kids = [suc_list([seed] * j) for j in range(1, 41)]
        pairs = [(a, b) for a in kids for b in kids if a is not b]
        made = [None] * len(pairs)
        gc.collect()
        count = len(names._intern)
        tracemalloc.start()
        try:
            table = sys.getsizeof(names._intern)
            before = tracemalloc.get_traced_memory()[0]
            for k, (a, b) in enumerate(pairs):
                made[k] = suc_list([a, b])
            grown = tracemalloc.get_traced_memory()[0] - before
            grown -= sys.getsizeof(names._intern) - table
        finally:
            tracemalloc.stop()
        fresh = len(names._intern) - count
        assert fresh == len(pairs)
        share = sys.getsizeof(names._intern) / len(names._intern)
        assert grown / fresh + share <= 300, (grown / fresh, share)


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
        # the recorded shape agrees with definitions that never read it
        assert a.height == oracle.val(a) == structural_depth(a)
        assert a.width == _width(a) == max_fin_width(a)
        assert a.arity == _arity(a)

    def test_zero_gets_empty_view(self):
        seen = []
        fold(ZERO, lambda n, view: seen.append(list(view)))
        assert seen == [[]]


def _width(a):
    if a.is_zero:
        return 0
    return max([a.index.size] + [_width(a.child(i))
                                 for i in range(a.index.size)])


def _arity(a):
    if a.is_zero:
        return 0
    if isinstance(a.index, Fin):
        return a.index.size
    cf = a.family.const_from
    return None if cf is None else cf + 1


@pytest.mark.parametrize("build, arity", [
    (lambda: omega(), None),
    (lambda: suc(omega()), 1),
    (lambda: sup_finite([omega(), und(3)]), None),
    (lambda: mk_node(Family.from_generator(und, const_from=2)), 3),
    (lambda: eps_lpo(BitSeq.const_last([0, 1]))[0], 3),
    (lambda: eps_lpo(BitSeq.const_last([0, 1]))[1], 3),
    (lambda: eps_lpo(BitSeq.opaque([0], lambda n: 0))[0], None),
    (lambda: filtering(omega()), None),
], ids=["w", "suc-w", "sup-w-3", "const-from-2", "eps-lpo", "eps-lpo-prime",
        "eps-lpo-opaque", "filtering-w"])
def test_infinitary_shape(build, arity):
    a = build()
    assert a.arity == _arity(a) == arity
    assert a.height is a.width is None and not a.is_finitary
    with pytest.raises(ValueError):
        structural_depth(a)
    with pytest.raises(ValueError):
        max_fin_width(a)
    assert und_value(a) is None


def test_stack_is_independent_of_build_order():
    tall = und(600)
    assert und_value(tall) == 600
    assert und_value(und(89)) == 89
    assert und_value(suc(omega())) is None


@given(finitary_names())
@settings(max_examples=40)
def test_und_value_reads_exactly_the_chains(a):
    # finitary names are interned, so a is a chain exactly when it is the
    # chain of its height
    assert und_value(a) == (a.height if und(a.height) is a else None)


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
