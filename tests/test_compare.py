"""Bounded comparison engine: verdicts, fuel behavior, memoization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordcalc import arith, cnf, compare, kernel, oracle
from ordcalc.checker import Exhaustive, KernelError, verify
from ordcalc.compare import (DEPTH_EXHAUSTED, STEPS_EXHAUSTED, WIDTH_TRUNCATED,
                             Fuel, Ordering, clear_memo, cmp_finitary, eq,
                             finitary_fuel, le, lt, memo_stats)
from ordcalc.expr import lower, parse_expr
from ordcalc.kernel import le_cert, lt_cert
from ordcalc.names import (NAT, ZERO, BitSeq, Family, eps_lpo, mk_node,
                           omega, suc_list, sup_finite, und)

from .conftest import failing_past_five, finitary_names, seeded_pairs
from .test_cnf_differential import checks
from .verdict_diff import EXPRESSIONS, TWO_NAME
from .verdict_diff import FUELS as FUEL_FIELDS


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


class TestIrreflexivity:
    """a < [a] is false by the paper's irreflexivity law, answered before
    any fuel is read: a name with no finite arity is refuted no other way."""

    @pytest.mark.parametrize("text", ["w", "w*2+1", "w^2", "eps0"])
    def test_a_name_is_not_below_itself_in_no_evals(self, text):
        a = lower(parse_expr(text))
        v, evals = _evals_of(lt, a, (a,), Fuel(depth=0))
        assert (v.value, evals) == (False, 0)

    def test_an_opaque_family_is_not_below_itself(self):
        a, _ = eps_lpo(BitSeq.opaque([0, 0, 1], tail=lambda n: 1))
        v, evals = _evals_of(lt, a, (a,), Fuel(depth=0))
        assert (v.value, evals) == (False, 0)
        assert a.pulled == []

    def test_a_wider_bound_set_is_scanned(self):
        # {w, w+1} is not {w}: w < w+1 by membership, found by the scan
        w = omega()
        v, evals = _evals_of(lt, w, (w, arith.add(w, und(1))))
        assert (v.value, evals) == (True, 1)
        v, _ = _evals_of(lt, w, (w, arith.add(w, und(1))), Fuel(depth=0))
        assert (v.value, v.reason) == (None, DEPTH_EXHAUSTED)


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
        # starvation, soundly but beside the point here.  Heights settle
        # finitary pairs at any depth, so this pair is infinitary
        clear_memo()
        w = omega()
        v = le(arith.add(w, und(3)), (arith.add(w, und(4)),), Fuel(4, 3))
        assert (v.value, v.reason) == (None, DEPTH_EXHAUSTED)

    def test_default_depth_ends_unknown_not_in_a_recursion_error(self):
        # each depth level of a scan takes two Python frames, so the default
        # depth of 512 needs the raised recursion limit compare sets on
        # import; under Python's default of 1,000 both queries raise.  The
        # bound of the second is not its lhs, which irreflexivity would
        # settle at once, but each level of its scan is one unit lower
        clear_memo()
        w = omega()
        for v in (le(arith.add(w, und(300)), (arith.add(w, und(301)),)),
                  lt(arith.add(w, und(401)), (arith.add(w, und(400)),))):
            assert (v.value, v.reason) == (None, DEPTH_EXHAUSTED)


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
            # the declined seam really sends a fixed deep pair past the
            # height read, which would answer in one eval and store no memo
            # entry: le recurses into the members, and lt reads the bound's
            # running heights, and memoizes its verdict
            deep, six = suc_list([und(2), und(4)]), und(6)
            fuel6 = finitary_fuel(deep, six)
            v, evals = _evals_of(le, deep, (six,), fuel6)
            assert v.is_true and evals > 1
            v, evals = _evals_of(lt, deep, (six,), fuel6)
            assert v.is_true and memo_stats()["entries"] == 1
        assert slow == quick == (h <= top, h < top)

    def test_shortcut_is_one_eval_and_no_record(self):
        # a height read costs one eval each time, stores no memo entry and
        # files no bound record
        clear_memo()
        a = suc_list([und(2), und(4)])
        bs = (und(6), und(1))
        for n in (1, 2):
            assert lt(a, bs).is_true
            assert memo_stats() == {"evals": n, "hits": 0, "entries": 0}
            assert not compare._sel_cache

    def test_deep_chains_at_default_fuel(self):
        for n in range(25002):
            und(n)
        # far deeper than the default fuel's depth: the heights settle it
        v, evals = _evals_of(le, und(25000), (und(25001),))
        assert (v.value, evals) == (True, 1)
        assert lt(und(3), (und(25000),)).is_true


class TestStepBudget:
    def test_spent_steps_are_reported_as_such(self):
        # neither query can end definite: le(w, [w+2]) is never True, since
        # w has no finite arity and is no member of w+2, and lt(w+1, [2+w])
        # is never True, since 2+w denotes w, nor False, since {2+w} has no
        # cover.  Both still scan, so at 50 steps the budget runs out before
        # the width does, and that is the reason they give
        w = omega()
        w1 = arith.add(w, und(1))
        for rel, a, b in ((le, w, arith.add(w, und(2))),
                          (lt, w1, arith.add(und(2), w))):
            clear_memo()
            v = rel(a, (b,), Fuel(steps=50))
            assert v.is_unknown
            assert v.reason == STEPS_EXHAUSTED


class TestLeByMembership:
    """A member of a bound is below the bounds: a <= bs is confirmed when a
    is one of the bounds' first width members, where a scan of a's own
    members could not end."""

    def test_a_member_of_the_bound_is_below_it(self):
        names = {t: lower(parse_expr(t)) for t in ("w*2", "w*2+1")}
        clear_memo()
        assert le(names["w*2"], (names["w*2+1"],)).is_true

    def test_a_member_past_the_width_is_not_found(self):
        w = omega()
        bound = suc_list([ZERO] * 70 + [w])
        v, _ = _evals_of(le, w, (bound,))
        assert (v.value, v.reason) == (None, WIDTH_TRUNCATED)
        v, evals = _evals_of(le, w, (bound,), Fuel(width=128))
        assert (v.value, evals) == (True, 1)


class TestLtByMembership:
    """a < bs over an lhs that is not finitary is asked by membership
    before any selection, whatever the lhs's arity and the bounds' cover:
    member i of a bound is below it by lt_intro with the selection {i}."""

    @pytest.mark.parametrize("a, b", [("w+4", "w+w"), ("w+10", "w*2"),
                                      ("w*2+5", "w*3"), ("w+2", "w+w")])
    def test_a_member_is_confirmed_without_a_selection(self, a, b):
        # w+4 is member 4 of w+w; the selection scan alone confirms it
        # only after spending the whole default budget
        v, evals = _evals_of(lt, lower(parse_expr(a)), (lower(parse_expr(b)),))
        assert v.is_true
        assert evals <= 2

    def test_a_member_of_a_finite_bound_is_confirmed(self):
        # w+1 has a finite arity and the bound a cover, yet w+1 is its member
        w1 = lower(parse_expr("w+1"))
        bound = suc_list([ZERO, w1, und(2)])
        v, evals = _evals_of(lt, w1, (bound,))
        assert (v.value, evals) == (True, 1)


def _evals_of(rel, a, bs, fuel=Fuel()):
    clear_memo()
    v = rel(a, bs, fuel)
    return v, memo_stats()["evals"]


class TestMemberTable:
    """Scans whose selections or members are finitary are read off the
    names' stores: their running heights settle them in one eval."""

    def test_finitary_lhs_is_confirmed_at_the_first_row_that_reaches_it(self):
        v, evals = _evals_of(lt, und(40), (omega(),))
        assert (v.value, evals) == (True, 1)

    def test_light_pair_scans_cost_a_few_evals_per_member(self):
        w = omega()
        w1 = arith.add(w, und(1))
        # w is w+1's member: confirmed without a scan
        v, evals = _evals_of(le, w, (w1,))
        assert (v.value, evals) == (True, 1)
        v, evals = _evals_of(lt, w1, (w,))
        assert (v.value, v.reason) == (None, WIDTH_TRUNCATED)
        assert evals <= 4 * Fuel().width

    def test_covering_selection_settles_by_heights(self):
        # a family constant from index 3 is not finitary, but its cover, the
        # first 4 rows, is: 4 is as high as it, and 3 below it
        four = mk_node(Family.from_generator(und, const_from=3))
        for a, value in ((und(6), False), (und(4), False), (und(3), True)):
            v, evals = _evals_of(lt, a, (four,))
            assert (v.value, evals) == (value, 1)
        # with rows past the width the covering selection is out of reach
        v, evals = _evals_of(lt, und(6), (four,), Fuel(width=2))
        assert (v.value, v.reason, evals) == (None, WIDTH_TRUNCATED, 1)

    def test_a_row_wider_than_the_fuel_is_read_off_its_heights(self):
        # member 0 of the bound reaches height 3 only through an index set
        # of 4, wider than a width of 2 lets a scan look: its height settles
        # the query all the same
        x = suc_list([und(0), und(0), und(0), und(5)])
        steady = mk_node(Family.from_generator(lambda i: x))
        for width in (2, 4):
            v, evals = _evals_of(lt, und(3), (steady,), Fuel(width=width))
            assert (v.value, evals) == (True, 1)
        # the same when row 0 was measured by an earlier query
        clear_memo()
        assert lt(und(6), (steady,), Fuel(width=4)).is_true
        assert lt(und(3), (steady,), Fuel(width=2)).is_true

    def test_rows_pulled_by_a_membership_scan_are_measured_when_read(self):
        # the membership scan pulls w's first 64 members and reads no height
        w = omega()
        clear_memo()
        assert lt(arith.add(und(1), w), (w,)).is_unknown
        before = memo_stats()["evals"]
        assert lt(und(40), (w,)).is_true
        assert memo_stats()["evals"] - before == 1

    def test_a_member_not_finitary_stops_the_read_where_another_reaches(self):
        # row 1 holds a member 4 high, enough for a target of 3, and w, which
        # is not finitary: that row is not read, whichever bound comes first
        # and whether the rows are pulled anew or bisected.  Row 0 reaches a
        # target of 1 before w stops the read
        w = omega()
        tall = mk_node(Family.from_generator(lambda i: und(4) if i else und(1)))
        wild = mk_node(Family.from_generator(lambda i: w if i else ZERO))
        for bs in ((tall, wild), (wild, tall)):
            clear_memo()
            for target, read in ((3, (1, False)), (3, (1, False)),
                                 (1, (0, True))):
                assert compare._by_rows(list(bs), target, 8) == read

    def test_rows_past_the_held_ones_are_read_once_each(self):
        # 300 against the selections of w^w's members reads rows that no
        # bound holds yet; each is measured in the bound that grows, not
        # in every bound of the set again
        calls = [0]
        measure = compare._measure

        def counted(b):
            calls[0] += 1
            return measure(b)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compare, "_measure", counted)
            v, evals = _evals_of(lt, und(300), (lower(parse_expr("w^w")),),
                                 Fuel(steps=300))
        assert (v.value, v.reason, evals) == (None, STEPS_EXHAUSTED, 300)
        assert calls[0] <= 5_000

    def test_every_record_is_measured_from_its_names(self):
        # a witness selection is a bound set too: its record holds the
        # largest arity and height of its names, as every record does
        # (1+w)+1 and (1+w)+2 are not members of w^2 or w^w, as w+1 and
        # w+2 are, so their scans run through the selections
        q = {t: lower(parse_expr(t)) for t in
             "w w+1 w+2 w+3 w*2 w*2+1 w^2 w^w (1+w)+1 (1+w)+2".split()}
        clear_memo()
        lt(q["(1+w)+2"], [q["w^w"]], Fuel(steps=300))
        lt(q["w+1"], [q["w*2"]])
        lt(q["(1+w)+1"], [q["w^2"]], Fuel(steps=50))
        le(q["w"], [q["w+2"]], Fuel(steps=50))
        lt(und(300), [q["w*2"]], Fuel(steps=300))
        lt(q["w+3"], [q["w*2+1"]], Fuel(steps=300))
        assert len(compare._sel_cache) >= 300
        for rec in compare._sel_cache.values():
            # tables leaves out a zero bound, whose arity and height are 0
            arities = [b.arity for b in rec.tables]
            heights = [b.height for b in rec.tables]
            assert rec.cover == (None if None in arities
                                 else max(arities, default=0))
            assert rec.height == (None if None in heights
                                  else max(heights, default=0))

    def test_member_as_high_as_finitary_bounds_refutes(self):
        w = omega()
        for rel, bound in ((le, und(9)), (lt, und(10))):
            v, evals = _evals_of(rel, w, (bound,))
            assert (v.value, evals) == (False, 1)

    def test_finite_lhs_that_is_not_finitary(self):
        # four's members are 0..3: only a member as high as the bounds
        # refutes le, and only one as high as their cover refutes lt
        four = mk_node(Family.from_generator(und, const_from=3))
        for rel, bound, value in ((le, 3, False), (le, 4, True),
                                  (lt, 4, False), (lt, 5, True)):
            clear_memo()
            assert rel(four, (und(bound),)).value is value, (rel, bound)


FUELS = tuple(Fuel(*fuel) for fuel in FUEL_FIELDS)


def _verdicts(names, decline, bound_sets, fuels=FUELS):
    """Every le and lt of each name against each bound set at each fuel,
    each from an empty memo, with the member-table readers declining or
    not."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        if decline:
            mp.setattr(compare, "_by_rows", lambda *args: (0, False))
        for fuel in fuels:
            for a in EXPRESSIONS:
                for bs in bound_sets:
                    for kind, rel in (("le", le), ("lt", lt)):
                        clear_memo()
                        v = rel(names[a], [names[b] for b in bs], fuel)
                        out[(fuel, a, kind, bs)] = (v.value, v.reason)
    return out


def _agree(slow, quick):
    """A definite verdict stays.  An unknown may become definite where the
    table settles at once a scan that the fuel cuts short, and the CNF
    referee then confirms it, except where eps0 is asked: the referee reads
    it as epsilon-0, which the name does not yet denote.  An unknown that
    stays one changes its reason only to width-truncated."""
    assert quick.keys() == slow.keys()
    for query, (value, reason) in slow.items():
        now = quick[query]
        if value is not None:
            assert now[0] is value, (query, (value, reason), now)
        elif now[0] is not None:
            _, a, kind, bs = query
            if "eps0" not in (a,) + bs:
                rhs = bs[0] if len(bs) == 1 else f"sup({','.join(bs)})"
                assert checks.holds(kind, a, rhs) is now[0], (query, now)
        elif now[1] != reason:
            assert now[1] == WIDTH_TRUNCATED, (query, reason, now)


def _definite(verdicts):
    """How many verdicts are definite: a floor on it fails an engine change
    that loses definiteness on both sides of the differential at once."""
    return sum(value is not None for value, _ in verdicts.values())


@pytest.fixture(scope="module")
def one_name():
    """The names, and the one-name table with the readers declining and
    not, scanned once for every test that reads them."""
    names = {t: lower(parse_expr(t)) for t in EXPRESSIONS}
    bound_sets = [(b,) for b in EXPRESSIONS]
    return (names, _verdicts(names, True, bound_sets),
            _verdicts(names, False, bound_sets))


@pytest.fixture(scope="module")
def two_name():
    """The same for the two-name table, at the fuels but the default."""
    names = {t: lower(parse_expr(t)) for t in EXPRESSIONS}
    return (names, _verdicts(names, True, TWO_NAME, FUELS[1:]),
            _verdicts(names, False, TWO_NAME, FUELS[1:]))


def test_member_table_changes_no_definite_verdict(one_name):
    """The readers keep the scan's verdicts on one-name bound sets."""
    _, slow, quick = one_name
    assert len(quick) == 5600
    _agree(slow, quick)
    assert _definite(quick) >= 3014


def test_two_name_bound_sets_read_both_tables(two_name):
    """The same on two-name bound sets, whose rows interleave the bounds'
    tables, at the fuels other than the default."""
    _, slow, quick = two_name
    assert len(quick) == 6 * 20 * 2 * len(TWO_NAME)
    _agree(slow, quick)
    assert _definite(quick) >= 970


def _at_most(f, g):
    return (f.width <= g.width and f.depth <= g.depth
            and f.step_budget <= g.step_budget)


def test_definite_verdicts_are_monotone_in_fuel(one_name, two_name):
    """A verdict definite at one fuel is the same at every fuel at least as
    large in each field, with the readers declining or not."""
    wrong = []
    for table in one_name[1:] + two_name[1:]:
        for (fuel, *query), (value, _) in table.items():
            for more in FUELS:
                got = table.get((more, *query))
                if (value is not None and got is not None and more != fuel
                        and _at_most(fuel, more) and got[0] is not value):
                    wrong.append((fuel, more, query, value, got))
    assert wrong == []


def test_every_engine_true_certifies(one_name, two_name):
    """Each claim the engine confirms at some fuel has a finite certificate
    that the search finds and the checker accepts exhaustively: the engine
    confirms by an exhausted finite arity or by membership, and the refl
    and member leaves write membership out without a sweep."""
    claims, refused = 0, []
    for names, _, quick in (one_name, two_name):
        confirmed = {(kind, a, bs)
                     for (_, a, kind, bs), (value, _) in quick.items() if value}
        claims += len(confirmed)
        for kind, a, bs in sorted(confirmed):
            search = le_cert if kind == "le" else lt_cert
            try:
                cert = search(names[a], [names[b] for b in bs])
                # a generator-backed certificate raises KernelError here
                ok = verify(cert, Exhaustive()).ok
            except KernelError:
                ok = False
            if not ok:
                refused.append((kind, a, bs))
    assert claims >= 354 and refused == []


def _scan(b, h, k):
    """The first of b's first k members whose form reaches h, by a linear
    scan from index 0."""
    for i in range(k if b.arity is None else min(k, b.arity)):
        form = cnf.of(b.child(i))
        if form is not None and form >= h:
            return i
    return None


def _reach_bounds():
    """The differential's expressions, a natural family whose members at
    0, 3, 10 and 25 carry no form (each is w built afresh) and whose members
    at 6, 13, ... are w+i, and a finitely indexed bound."""
    w = omega()
    bounds = {t: lower(parse_expr(t)) for t in EXPRESSIONS}

    def patchy(i):
        if i in (0, 3, 10, 25):
            return mk_node(Family.from_generator(und))
        return arith.add(w, und(i)) if i % 7 == 6 else und(i)

    bounds["patchy"] = mk_node(Family.from_generator(patchy))
    bounds["fin"] = mk_node(Family.from_children(
        [und(3), mk_node(Family.from_generator(und)), und(1),
         arith.add(w, und(1)), und(2)]))
    return bounds


def _reach_goals(b):
    forms = [cnf.of(b.child(i))
             for i in range(48 if b.arity is None else min(48, b.arity))]
    goals = {f for f in forms if f is not None}
    return sorted(goals | {cnf.nat(n) for n in range(71)}, key=repr)


def _over(b):
    """A fresh name over b's members, whose store holds only what is pulled
    through it: b's own holds what _scan and earlier tests pulled."""
    cf = None if b.arity is None else b.arity - 1
    return mk_node(Family.from_generator(b.child, const_from=cf))


def test_reach_finds_what_the_linear_scan_finds():
    """kernel.reach against a scan from index 0: each query on a fresh
    name over a natural b's members, and then all of a bound's queries on
    one such name, where the rows measured by earlier queries are bisected
    (b itself keeps its running forms throughout, as every name does).  No
    row is pulled past the member that answers, nor past k when none does,
    read off the fresh name; a finite name holds every member."""
    for label, b in _reach_bounds().items():
        goals = _reach_goals(b)
        natural = b.index is NAT
        for k in (1, 5, 48):
            want = [_scan(b, h, k) for h in goals]
            for h, i in zip(goals, want):
                clear_memo()
                assert kernel.reach(b, h, k) == i, (label, h, k)
                if natural:
                    c = _over(b)
                    assert kernel.reach(c, h, k) == i, (label, h, k)
                    rows = len(c.pulled)
                    assert rows <= (k if i is None else i + 1), (label, h, k)
            clear_memo()
            c = _over(b) if natural else None
            pulled = 0
            for h, i in zip(goals, want):
                assert kernel.reach(b, h, k) == i, (label, h, k)
                if natural:
                    assert kernel.reach(c, h, k) == i, (label, h, k)
                    pulled = max(pulled, k if i is None else i + 1)
                    assert len(c.pulled) <= pulled


def test_member_index_finds_what_the_linear_scan_finds():
    """kernel._member_index starts its ident scan where reach puts the
    first member whose form reaches the lhs's; it must answer as a scan of
    idents from index 0 does, for lhs with and without a form, on each
    bound and on a fresh name over a natural bound's members."""
    for label, b in _reach_bounds().items():
        members = [b.child(i)
                   for i in range(48 if b.arity is None else min(48, b.arity))]
        lhs = members + [lower(parse_expr(t)) for t in EXPRESSIONS]
        for k in (1, 5, 48):
            for a in lhs:
                want = next((i for i, m in enumerate(members[:k])
                             if m.ident == a.ident), None)
                clear_memo()
                assert kernel._member_index(a, b, k) == want, (label, a, k)
                if b.index is NAT:
                    c = _over(b)
                    assert kernel._member_index(a, c, k) == want, (label, a, k)


class TestUnsettledScans:
    """A query whose lhs has no finite arity, against bounds with no cover,
    cannot end in a refutation, nor in a le that exhausts the lhs: it is
    answered at once."""

    def test_both_relations_answer_in_one_eval(self):
        # the reason is width-truncated whatever the step budget, since no
        # budget would settle w^2 against eps0, which denotes w^2 through
        # another tree
        wsq = arith.pow(omega(), und(2))
        for fuel in (Fuel(), Fuel(steps=50)):
            for rel in (le, lt):
                v, evals = _evals_of(rel, wsq, (arith.eps0(),), fuel)
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

    def test_membership_reads_rows_pulled_before(self):
        w = omega()
        steady = mk_node(Family.from_generator(
            lambda i: und(i) if i < 3 else w))
        for bs in ((steady,), (arith.add(und(1), w), steady)):
            clear_memo()
            # 1+w is no member: all 64 rows of steady are pulled
            assert lt(arith.add(und(1), w), (steady,)).is_unknown
            # w is member 3, in a row already pulled
            assert lt(w, bs, Fuel(width=3)).is_unknown
            assert lt(w, bs, Fuel(width=4)).is_true

    def test_repeated_bound_reads_the_bound_alone(self):
        # a bound set is a set: (steady, steady) shares the record of
        # {steady}, and membership reads steady's table, where w is member 3
        w = omega()
        steady = mk_node(Family.from_generator(
            lambda i: und(i) if i < 3 else w))
        clear_memo()
        assert lt(und(3), (steady, steady)).is_true
        for width, value in ((3, None), (4, True)):
            for bs in ((steady,), (steady, steady)):
                assert lt(w, bs, Fuel(width=width)).value is value

    def test_selection_repeating_a_name_reads_it_once(self):
        # selection 1 of two families whose members are all steady is
        # (steady, steady), filed under the ident set {steady}
        w = omega()
        steady = mk_node(Family.from_generator(
            lambda i: und(i) if i < 3 else w))
        s = mk_node(Family.from_generator(lambda i: steady))
        t = mk_node(Family.from_generator(lambda i: steady))
        clear_memo()
        assert lt(und(3), (s, t)).is_true
        assert lt(w, (steady,), Fuel(width=4)).is_true

    def test_membership_reaches_past_the_first_bound(self):
        w = omega()
        steady = mk_node(Family.from_generator(
            lambda i: und(i) if i < 3 else w))
        # steady is constant from index 3 only by its values, not by a
        # declared const_from, so it has no cover; w is its member 3
        assert lt(w, (arith.add(und(1), w), steady)).is_true
        assert lt(w, (steady,), Fuel(width=3)).is_unknown


class TestWidestSelection:
    """Against bounds with no cover, lt can only confirm, and a selection
    lies below every wider one: when the widest selection has a cover
    itself, it is the only one asked."""

    def test_widest_selection_alone_ends_the_scan(self):
        # {0, ..., 63} has a cover, and w's member 63 refutes w+1 against
        # it, which leaves the scan nothing to confirm
        w = omega()
        v, evals = _evals_of(lt, arith.add(w, und(1)), (w,))
        assert (v.value, v.reason) == (None, WIDTH_TRUNCATED)
        assert evals <= 5

    def test_widest_selection_confirms(self):
        # members w+1, w+2, ... have one member each, so the widest
        # selection, w+1 .. w+64, has a cover, and it bounds both members
        # of a; a scan from selection 1 spends every step before it
        w = omega()
        b = mk_node(Family.from_generator(lambda i: arith.add(w, und(i + 1))))
        a = sup_finite([arith.add(w, und(2)), arith.add(w, und(40))])
        for fuel in (Fuel(), Fuel(steps=50)):
            v, evals = _evals_of(lt, a, (b,), fuel)
            assert v.is_true and evals <= 5

    def test_widest_selection_without_a_cover_is_not_asked_alone(self):
        # the widest selection of w^w holds members with no finite arity:
        # asking it alone would nest widest asks over ever larger bound
        # sets, so the selections are scanned in turn.  (1+w)+k is no
        # member of w^w, as w+k is, so no membership ends the scan
        ww = lower(parse_expr("w^w"))
        for a, want in (("(1+w)+2", (None, WIDTH_TRUNCATED, 6775)),
                        ("(1+w)+3", (None, STEPS_EXHAUSTED, 32768))):
            v, evals = _evals_of(lt, lower(parse_expr(a)), (ww,))
            assert (v.value, v.reason, evals) == want


class TestFailingGenerator:
    """Which queries touch a family's members past the point its generator
    fails: a pruned query pulls none, a membership test pulls the bounds'."""

    def test_pruned_queries_return_unknown(self):
        f = mk_node(Family.from_generator(failing_past_five))
        w = omega()
        for rel, a, b in ((le, f, w), (lt, f, w), (le, w, f)):
            clear_memo()
            v = rel(a, (b,))
            assert (v.value, v.reason) == (None, WIDTH_TRUNCATED)

    def test_membership_scan_of_the_bound_raises(self):
        f = mk_node(Family.from_generator(failing_past_five))
        clear_memo()
        with pytest.raises(compare.EngineError):
            lt(omega(), (f,))

    def test_table_pulls_no_row_past_the_one_that_settles(self):
        # the store grows a row at a time: a finitary lhs is settled
        # at f's row 3, and f as an lhs against finitary bounds at its
        # member 2, both before the row that fails
        f = mk_node(Family.from_generator(failing_past_five))
        clear_memo()
        assert lt(und(3), (f,)).is_true
        clear_memo()
        assert le(f, (und(2),)).is_false

    def test_two_bounds_pull_no_row_past_the_one_that_settles(self):
        # rows are read index-major across both tables: row 3 settles each
        # query, through the other bound or through f, before f's row 6
        f = mk_node(Family.from_generator(failing_past_five))
        double = mk_node(Family.from_generator(lambda i: und(2 * i)))
        w = mk_node(Family.from_generator(und))
        steady = mk_node(Family.from_generator(
            lambda i: und(i) if i < 3 else w))
        for a, g in ((und(6), double), (und(3), w), (w, steady)):
            for bs in ((f, g), (g, f)):
                clear_memo()
                assert lt(a, bs).is_true
                assert len(f.pulled) == 4
                assert len(g.pulled) == 4

    def test_table_scan_past_the_failing_row_raises(self):
        f = mk_node(Family.from_generator(failing_past_five))
        for fuel in (Fuel(), Fuel(steps=3)):
            clear_memo()
            with pytest.raises(compare.EngineError):
                lt(und(7), (f,), fuel)


class TestSharedStores:
    """The engine reads each name's own store, so one bound's generator can
    pull another bound's members while the rows are read: a row pulled that
    way is read like any other."""

    def test_height_scan_reads_rows_another_bound_pulled(self):
        # c's row 0 pulls b's row 0, w, which stops the scan: 5 < w+1
        b = mk_node(Family.from_generator(lambda i: omega(), const_from=0))
        c = mk_node(Family.from_generator(
            lambda i: (b.child(i), und(1))[1], const_from=0))
        clear_memo()
        assert lt(und(5), (c, b)).is_true

    def test_height_scan_measures_rows_another_bound_pulled(self):
        # with no cover the scan goes on past row 0, whose w c pulled
        b = mk_node(Family.from_generator(lambda i: omega()))
        c = mk_node(Family.from_generator(lambda i: (b.child(0), und(1))[1]))
        clear_memo()
        assert lt(und(5), (c, b)).is_true

    def test_membership_reads_rows_another_bound_pulled(self):
        # m is b's member 3, pulled ahead of b's list; x+b's row 3 brings it
        # into the list before b's own row 3 is read
        b = mk_node(Family.from_generator(
            lambda i: mk_node(Family.from_generator(lambda j: und(i + j)))))
        m = b.child(3)
        assert b.pulled == []
        clear_memo()
        assert lt(m, (arith.add(und(1), b), b)).is_true


class TestMemo:
    def test_second_run_reuses_verdicts(self):
        # height reads are not memoized, so the memo is shown on scans of
        # infinitary names, whose settled subqueries it keeps
        clear_memo()
        w = omega()
        queries = [(le, arith.add(w, und(1)), arith.add(w, und(2))),
                   (le, arith.add(und(2), w), arith.add(w, und(1))),
                   (lt, w, arith.add(w, und(1)))]
        before = [rel(a, (b,)).value for rel, a, b in queries]
        first = memo_stats()["evals"]
        after = [rel(a, (b,)).value for rel, a, b in queries]
        second = memo_stats()["evals"] - first
        assert after == before
        assert memo_stats()["hits"] > 0
        assert second < first

    def test_one_cache_holds_the_verdicts_and_names_their_heights(self):
        # the bound records are the engine's one cache and hold its
        # verdicts; a name's running heights are facts about the name, kept
        # on it across clearing
        clear_memo()
        caches = [v for k, v in vars(compare).items() if isinstance(v, dict)
                  and not k.startswith("__") and k != "_stats"]
        assert caches == [{}]
        w = omega()
        b = mk_node(Family.from_generator(lambda i: und(2 * i)))
        assert lt(und(40), (b,)).is_true
        assert le(arith.add(w, und(1)), (arith.add(w, und(2)),)).is_true
        held = [len(r.le) + len(r.lt) for r in compare._sel_cache.values()]
        assert sum(n > 0 for n in held) >= 2
        assert memo_stats()["entries"] == sum(held)
        heights = list(b.heights)
        assert len(heights) == 21
        clear_memo()
        assert memo_stats()["entries"] == 0 and caches == [{}]
        assert b.heights == heights
        fresh = mk_node(Family.from_generator(b.child))
        compare._grow(fresh, len(heights))
        assert compare._measure(fresh) == heights

    @pytest.mark.parametrize("fuel", [Fuel(64, 512, 300), Fuel(4, 12),
                                      Fuel(3, 3)], ids=str)
    def test_only_definite_scan_verdicts_are_held(self, fuel):
        # each query of the differential, from an empty memo: a definite
        # scan verdict is held in its bound set's record and an unknown is
        # not, while a height read, like le's answer for zero or a bound,
        # stores nothing
        names = {t: lower(parse_expr(t)) for t in EXPRESSIONS}
        seen = {"held": 0, "unknown": 0, "read": 0}
        for bs in [(b,) for b in EXPRESSIONS] + TWO_NAME:
            bounds = [names[b] for b in bs]
            finitary = None not in [b.height for b in bounds]
            for a in names.values():
                for rel in (le, lt):
                    v, evals = _evals_of(rel, a, bounds, fuel)
                    if evals == 0 or a.height is not None and finitary:
                        assert v.value is not None and not compare._sel_cache
                        seen["read"] += 1
                        continue
                    rec = compare._sel_cache[frozenset(
                        b.ident for b in bounds)]
                    held = (rec.le if rel is le else rec.lt).get(a.ident)
                    assert held is v.value, (rel, a, bs, v)
                    seen["unknown" if held is None else "held"] += 1
        assert min(seen.values()) > 0, seen

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
