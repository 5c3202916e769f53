"""Bounded comparison engine: verdicts, fuel behavior, memoization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordcalc import arith, compare, oracle
from ordcalc.compare import (DEPTH_EXHAUSTED, STEPS_EXHAUSTED, WIDTH_TRUNCATED,
                             Fuel, Ordering, clear_memo, cmp_finitary, eq,
                             finitary_fuel, le, lt, memo_stats)
from ordcalc.names import (ZERO, Family, mk_node, omega, suc_list, sup_finite,
                           und)

from .conftest import finitary_names, seeded_pairs


class TestLe:
    @given(finitary_names())
    def test_zero_below_everything(self, b):
        assert le(ZERO, (b,)).is_true
        assert le(ZERO, (omega(), b)).is_true

    def test_three_not_below_two(self):
        assert le(und(3), (und(2),)).is_false

    def test_natural_family_without_shortcut_is_unknown(self):
        # no identity on the left, infinitely many member obligations
        v = le(omega(), (arith.add(und(1), omega()),), Fuel(width=8, depth=64))
        assert v.is_unknown
        assert v.reason in (WIDTH_TRUNCATED, DEPTH_EXHAUSTED)


class TestLt:
    @given(finitary_names())
    def test_nothing_below_zero_bounds(self, a):
        assert lt(a, (ZERO, ZERO)).is_false
        assert lt(omega(), (ZERO,)).is_false

    def test_zero_below_any_node(self):
        assert lt(ZERO, (omega(),), Fuel(width=1, depth=4)).is_true

    def test_omega_below_omega_plus_omega(self):
        # the first bound member is omega itself, so width 1 suffices
        v = lt(omega(), (arith.add(omega(), omega()),), Fuel(width=1, depth=8))
        assert v.is_true


class TestEq:
    def test_sup_absorbs_smaller_member(self):
        assert eq(sup_finite([und(2), und(3)]), und(3)).is_true

    def test_distinct_naturals_differ(self):
        assert eq(und(1), und(2)).is_false

    def test_canonical_omega_is_reflexive(self):
        assert eq(omega(), omega(), Fuel(width=1, depth=1)).is_true


class TestCmpFinitary:
    def test_naturals(self):
        assert cmp_finitary(und(2), und(5)) is Ordering.LT

    def test_suc_list_equals_its_height(self):
        assert cmp_finitary(suc_list([und(1), und(2)]), und(3)) is Ordering.EQ

    @given(finitary_names())
    def test_reflexive(self, a):
        assert cmp_finitary(a, a) is Ordering.EQ

    def test_rejects_natural_indexing(self):
        with pytest.raises(ValueError):
            cmp_finitary(omega(), und(1))


class TestAgainstOracle:
    def test_verdicts_match_naive_definitions(self):
        for a, b in seeded_pairs(100, salt=900):
            fuel = finitary_fuel(a, b)
            assert le(a, (b,), fuel).value == oracle.naive_le(a, (b,))
            assert lt(a, (b,), fuel).value == oracle.naive_lt(a, (b,))

    @given(finitary_names())
    def test_naive_lt_rejects_zero_bound(self, a):
        assert not oracle.naive_lt(a, [ZERO])

    @given(finitary_names(), finitary_names())
    def test_naive_le_accepts_zero(self, a, b):
        assert oracle.naive_le(ZERO, [a, b])


class TestFuelMonotonicity:
    @given(finitary_names(), finitary_names())
    @settings(max_examples=60)
    def test_definite_verdicts_survive_more_fuel(self, a, b):
        lean = Fuel(width=2, depth=3)
        rich = Fuel(width=6, depth=10)
        for rel in (le, lt):
            first = rel(a, (b,), lean)
            if not first.is_unknown:
                assert rel(a, (b,), rich).value == first.value

    def test_starved_depth_reports_unknown(self):
        # a definite verdict memoized at richer fuel would mask the
        # starvation, soundly but beside the point here
        clear_memo()
        v = le(und(5), (und(6),), Fuel(width=4, depth=2))
        assert v.is_unknown


class TestHeightShortcut:
    @given(finitary_names(), st.lists(finitary_names(), min_size=1, max_size=3))
    @settings(max_examples=200)
    def test_recursion_agrees_with_heights(self, a, bs):
        fuel = finitary_fuel(a, *bs)
        h = oracle.val(a)
        top = max(oracle.val(b) for b in bs)
        clear_memo()
        quick = (le(a, bs, fuel).value, lt(a, bs, fuel).value)
        clear_memo()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compare, "_by_height", lambda *args: None)
            slow = (le(a, bs, fuel).value, lt(a, bs, fuel).value)
        assert slow == quick == (h <= top, h < top)

    def test_shortcut_is_one_memoized_eval(self):
        clear_memo()
        a = suc_list([und(2), und(4)])
        bs = (und(6), und(1))
        assert lt(a, bs, finitary_fuel(a, *bs)).is_true
        assert memo_stats() == {"evals": 1, "hits": 0, "entries": 1}
        assert lt(a, bs, finitary_fuel(a, *bs)).is_true
        assert memo_stats() == {"evals": 1, "hits": 1, "entries": 1}

    def test_deep_chains_at_default_fuel(self):
        for n in range(25002):
            und(n)
        # too deep for the default fuel either way: the recursion runs dry
        assert le(und(25000), (und(25001),)).is_unknown
        # shallow enough on the left: the heights settle it
        assert lt(und(3), (und(25000),)).is_true


class TestStepBudget:
    def test_spent_steps_are_reported_as_such(self):
        # both scans could still end definite, so the budget is what stops
        # them: le(w, [w+1]) refutes through the cover of w+1, and
        # lt(w+1, [w]) can be settled by a selection of w's members
        w = omega()
        w1 = arith.add(w, und(1))
        for rel, a, b in ((le, w, w1), (lt, w1, w)):
            clear_memo()
            v = rel(a, (b,), Fuel(steps=50))
            assert v.is_unknown
            assert v.reason == STEPS_EXHAUSTED


def _evals_of(rel, a, bs, fuel=Fuel()):
    clear_memo()
    v = rel(a, bs, fuel)
    return v, memo_stats()["evals"]


class TestUnsettledScans:
    """A query whose lhs has no finite arity, against bounds with no cover,
    cannot end in a refutation, nor in a le that exhausts the lhs: it is
    answered at once."""

    def test_both_relations_answer_in_one_eval(self):
        # the reason is width-truncated whatever the step budget, since no
        # budget would settle w*2 against w+w
        w2 = arith.mul(omega(), und(2))
        wpw = arith.add(omega(), omega())
        for fuel in (Fuel(), Fuel(steps=50)):
            for rel in (le, lt):
                v, evals = _evals_of(rel, w2, (wpw,), fuel)
                assert (v.value, v.reason, evals) == (None, WIDTH_TRUNCATED,
                                                      1)

    def test_lt_without_membership_answers_in_one_eval(self):
        v, evals = _evals_of(lt, omega(), (arith.add(und(1), omega()),))
        assert (v.value, v.reason, evals) == (None, WIDTH_TRUNCATED, 1)

    def test_lt_by_membership_stays_true(self):
        # w is the first member of eps0's fundamental sequence
        v, evals = _evals_of(lt, omega(), (arith.eps0(),))
        assert v.is_true
        assert evals == 1
        assert memo_stats()["entries"] == 1

    def test_membership_reaches_past_the_first_bound(self):
        w = omega()
        steady = mk_node(Family.from_generator(
            lambda i: und(i) if i < 3 else w))
        # steady is constant from index 3 only by its values, not by a
        # declared const_from, so it has no cover; w is its member 3
        assert lt(w, (arith.add(und(1), w), steady)).is_true
        assert lt(w, (steady,), Fuel(width=3)).is_unknown


def _failing_past_five(i: int):
    if i > 5:
        raise ValueError("no member past index 5")
    return und(i)


class TestFailingGenerator:
    """Which queries touch a family's members past the point its generator
    fails: a pruned query pulls none, a membership test pulls the bounds'."""

    def test_pruned_queries_return_unknown(self):
        f = mk_node(Family.from_generator(_failing_past_five))
        w = omega()
        for rel, a, b in ((le, f, w), (lt, f, w), (le, w, f)):
            clear_memo()
            v = rel(a, (b,))
            assert (v.value, v.reason) == (None, WIDTH_TRUNCATED)

    def test_membership_scan_of_the_bound_raises(self):
        f = mk_node(Family.from_generator(_failing_past_five))
        clear_memo()
        with pytest.raises(compare.EngineError):
            lt(omega(), (f,))


class TestMemo:
    def test_second_run_reuses_verdicts(self):
        clear_memo()
        queries = seeded_pairs(30, salt=77)
        for a, b in queries:
            cmp_finitary(a, b)
        first = memo_stats()["evals"]
        for a, b in queries:
            cmp_finitary(a, b)
        second = memo_stats()["evals"] - first
        assert second < first

    def test_clear_resets_counters(self):
        cmp_finitary(und(2), und(3))
        clear_memo()
        stats = memo_stats()
        assert stats == {"evals": 0, "hits": 0, "entries": 0}

    def test_verdicts_unchanged_by_clearing(self):
        queries = seeded_pairs(20, salt=123)
        before = [cmp_finitary(a, b) for a, b in queries]
        clear_memo()
        after = [cmp_finitary(a, b) for a, b in queries]
        assert before == after


class TestTriBool:
    def test_no_implicit_truthiness(self):
        with pytest.raises(TypeError):
            bool(le(ZERO, (ZERO,)))

    def test_kleene_tables(self):
        t, f, u = compare.TRUE, compare.FALSE, compare.UNKNOWN
        assert t.and_(u).is_unknown
        assert f.and_(u).is_false
        assert t.or_(u).is_true
        assert f.or_(u).is_unknown
        assert u.not_().is_unknown
