"""Fuel-bounded three-valued comparison of ordinal names.

``le(a, bs)`` asks whether a is below the supremum of the names in bs, and
``lt(a, bs)`` whether it is strictly below.  Both relations are defined by a
simultaneous recursion: a <= bs when every subordinal of a is strictly below
bs, and a < bs when some choice of finitely many subordinals, taken from the
members of bs and not all empty, bounds a from above.

Verdicts are strong-Kleene truth values.  True and False are final: True
comes only from fully exhausted index sets or an explicit witness, False only
from a counterexample, an exhausted witness space, or irreflexivity: a < bs
is false when the bound set is exactly {a}, by the paper's law that no
ordinal is below itself.  Like a <= bs when a is one of the bounds, that
answer costs no eval and no fuel.  Every budget truncation yields Unknown,
tagged with what ran out; once the step budget is spent, that reason is
reported over any width or depth truncation met on the way.  Definite
verdicts are monotone in the fuel.  Both relations, at the top
and at every level of the recursion, go through one entry, which keeps the
engine's one caching policy: it answers from heights (below) or from the
one record the engine keeps per bound set, else charges a step and a depth
level and runs the relation's scan.  A definite verdict the scan reaches is
stored in the record, keyed by lhs; one read off heights is not, since
reading the heights again costs no more than a lookup; Unknown is never
stored.

An Unknown can also mean that no scan at any budget settles the question.
a <= bs is confirmed by exhausting a's subordinals, which needs a finite
arity that fits the width, or, when the scan cannot exhaust them, by a being
one of the bounds' first width members: member i of a bound b is below b,
by lt_intro with the selection {i} and a <= a, so it is below bs.  a <= bs
is refuted only through a refuted a' < bs, which needs the bounds to have a
cover (a largest witness selection).  When a has no finite arity and the
bounds no cover, the engine answers a <= bs width-truncated at once instead
of spending its budget, without asking membership.  a < bs over an a that
is not finitary is asked by membership first, once, before any selection:
member i of a bound is below bs by the same lt_intro, and with no finite
arity and no cover membership is the only verdict there is.

On finitary names both relations come down to comparing tree heights, so
the engine reads a finitary verdict off the heights in one step at any fuel
that allows a step, storing no memo entry and no bound record: the fuel
bounds scans, not what heights settle.  The same holds one level up: when a
scan's selections or members are finitary, the engine reads them off each
name's own store of members and the running largest height that the name
keeps beside it (``pulled`` and ``heights``); row r of a bound set is member
r of each bound.  A finitary a < bs is true at the first selection that
reaches a's height and false when the covering one stays below it;
a <= bs with finitary bounds is false at the first member of a as high as
they are.  Each such scan costs one step instead of one per selection or
member, and reads no row past the scan's width.  Running maxima are facts
about the name, so clear_memo leaves them.

The search over witness selections examines prefixes only.  That loses no
generality: a selection is below any larger one, so if some selection works,
a prefix covering it works too.  For the same reason, against bounds with
no cover, where a < bs can only be confirmed, the widest selection the
width allows is the only one asked, provided it has a cover itself.  When
it has none, the selections are scanned in turn: asked alone, it would ask
the widest selection of its own members, and so on, each bound set a width
times larger than the last and built outside the step budget.  A
selection is itself a bound set: its record, cover and height, is measured
from its names like any other's, so the names keep only running maxima.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from enum import Enum
from typing import NamedTuple, Optional, Sequence, Tuple

from .names import OrdName, max_fin_width, structural_depth

sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))


class EngineError(RuntimeError):
    """A family generator failed while the engine was evaluating."""


WIDTH_TRUNCATED = "width-truncated"
DEPTH_EXHAUSTED = "depth-exhausted"
STEPS_EXHAUSTED = "steps-exhausted"


class TriBool:
    """Strong-Kleene truth value; unknowns carry a diagnostic reason that
    does not participate in equality or in the connectives."""

    __slots__ = ("value", "reason")

    def __init__(self, value: Optional[bool], reason: Optional[str] = None):
        self.value = value
        self.reason = reason

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TriBool) and other.value == self.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __bool__(self) -> bool:
        raise TypeError("three-valued verdict: test .value explicitly")

    @property
    def is_true(self) -> bool:
        return self.value is True

    @property
    def is_false(self) -> bool:
        return self.value is False

    @property
    def is_unknown(self) -> bool:
        return self.value is None

    def and_(self, other: "TriBool") -> "TriBool":
        if self.is_false or other.is_false:
            return FALSE
        if self.is_true and other.is_true:
            return TRUE
        return TriBool(None, self.reason if self.is_unknown else other.reason)

    def or_(self, other: "TriBool") -> "TriBool":
        if self.is_true or other.is_true:
            return TRUE
        if self.is_false and other.is_false:
            return FALSE
        return TriBool(None, self.reason if self.is_unknown else other.reason)

    def not_(self) -> "TriBool":
        if self.is_unknown:
            return self
        return FALSE if self.is_true else TRUE

    def __repr__(self) -> str:
        if self.value is None:
            return f"Unknown({self.reason})" if self.reason else "Unknown"
        return "True" if self.value else "False"


TRUE = TriBool(True)
FALSE = TriBool(False)
UNKNOWN = TriBool(None)


def _unknown(reason: str) -> TriBool:
    return TriBool(None, reason)


class _FuelFields(NamedTuple):
    width: int = 64
    depth: int = 512
    steps: Optional[int] = None


class Fuel(_FuelFields):
    """Search budget: width bounds every index enumeration and witness
    prefix, depth bounds recursion.  steps caps the total number of
    subqueries one evaluation may spawn; exhausting it yields Unknown, which
    keeps worst cases (nested witness searches over naturally indexed names
    re-explore selections combinatorially) bounded without ever affecting a
    verdict's soundness.  Left unset it is derived from width and depth."""

    __slots__ = ()

    def __new__(cls, width: int = 64, depth: int = 512,
                steps: Optional[int] = None) -> Fuel:
        if width < 0 or depth < 0:
            raise ValueError("fuel must be nonnegative")
        if steps is not None and steps < 1:
            raise ValueError("step budget must be positive")
        return super().__new__(cls, width, depth, steps)

    @property
    def step_budget(self) -> int:
        if self.steps is not None:
            return self.steps
        return max(20_000, self.width * self.depth)


DEFAULT_FUEL = Fuel()


# per rhs ident set: its _Bounds record, which holds the set's verdicts
_sel_cache: dict = {}
_stats = {"evals": 0, "hits": 0}


def clear_memo() -> None:
    """Drop the engine's memo, every bound set's record with its verdicts,
    and zero the eval and hit counts.  The other process-global tables stay:
    names' ``_intern``, ``_sups`` and ``_und_cache`` and arith's ``_memo``
    carry name identity, so dropping them would make a rebuilt name a
    stranger to the one a caller holds."""
    _sel_cache.clear()
    _stats["evals"] = 0
    _stats["hits"] = 0


def memo_stats() -> dict:
    entries = sum(len(r.le) + len(r.lt) for r in _sel_cache.values())
    return {"evals": _stats["evals"], "hits": _stats["hits"], "entries": entries}


def child(a: OrdName, i: int) -> OrdName:
    """Member i of a, with a failing family generator reported as
    EngineError: how the engine and the certificate search pull members."""
    try:
        return a.child(i)
    except (RecursionError, KeyboardInterrupt):
        raise
    except Exception as e:
        raise EngineError(f"family generator failed at index {i}") from e


def _rhs_key(bs: tuple) -> frozenset:
    return frozenset(b.ident for b in bs)


class _Bounds:
    """What the engine reuses about one bound set: the covering selection
    size, and, when every bound is finitary, the bounds' largest height.  A
    cover of None (some bound has no finite arity) means no selection is
    largest, so nothing is refuted against these bounds, and a query that
    only a refutation could settle is unknown at every budget.  tables
    holds the bounds with members, each once, whose stores and running
    heights the scans read; selections the witness selections built so far,
    by size; rows how many rows every bound is known to hold (or to have no
    more members past); le and lt the definite verdicts of scans against
    these bounds, keyed by lhs ident."""

    __slots__ = ("tables", "cover", "height", "selections", "rows", "le",
                 "lt")

    def __init__(self, bs: tuple):
        arities = [b.arity for b in bs]
        heights = [b.height for b in bs]
        self.tables = [b for b in bs if b.arity != 0]
        self.cover = None if None in arities else max(arities)
        self.height = None if None in heights else max(heights)
        self.selections: dict = {}
        self.rows = 0
        self.le: dict = {}
        self.lt: dict = {}


def _grow(b: OrdName, n: int) -> None:
    """Pull b's members until its store holds the first n, or all of them
    when b has fewer."""
    if b.arity is not None:
        n = min(n, b.arity)
    members = b.pulled
    while len(members) < n:
        child(b, len(members))


def _more(b: OrdName) -> bool:
    """May b have members past those its store holds?"""
    return b.arity is None or len(b.pulled) < b.arity


def _measure(b: OrdName) -> list:
    """b's running heights, extended over the members pulled so far, up to
    the first that is not finitary."""
    heights, members = b.heights, b.pulled
    for r in range(len(heights), len(members)):
        h = members[r].height
        if h is None:
            break
        if r:
            heights.append(max(heights[-1], h))
        else:
            heights = b.heights = [h]
    return heights


def _distinct(bs: tuple) -> tuple:
    """bs with each name kept at its first place only."""
    seen: set = set()
    return tuple(b for b in bs if not (b.ident in seen or seen.add(b.ident)))


def _bounds(bs: tuple, rhs_key: frozenset) -> _Bounds:
    """The record for these bounds, made on first use.  Keyed by ident set,
    so bound tuples that differ only in order or repetition share the first
    one's record, which holds each bound once."""
    rec = _sel_cache.get(rhs_key)
    if rec is None:
        if len(rhs_key) < len(bs):
            bs = _distinct(bs)
        rec = _sel_cache[rhs_key] = _Bounds(bs)
    return rec


def _pull_rows(rec: _Bounds, n: int, a: Optional[OrdName] = None) -> int:
    """Grow the bounds' stores through the bound set's row n-1, a row at a
    time and index-major, from the first row that one of them lacks.  Stop
    after the first such row that holds a, whichever bound's generator
    pulled it, and return its number, or n when none does."""
    if n <= rec.rows:
        return n
    short = [b for b in rec.tables if len(b.pulled) < n
             and (b.arity is None or len(b.pulled) < b.arity)]
    for r in range(min([len(b.pulled) for b in short], default=n), n):
        hit = False
        for b in short:
            _grow(b, r + 1)
            hit = hit or r < len(b.pulled) and b.pulled[r] is a
        if hit:
            rec.rows = r + 1
            return r
    rec.rows = n
    return n


def _selection(rec: _Bounds, m: int):
    """The m-th witness selection for these bounds: each member contributes
    its subordinal prefix of length m (clamped to the member's own arity),
    that is, the bound set's first m rows, each name kept once.  Built once
    per bound set (from selection m-1 when built), since every scan against
    the same bounds retries the same selections; its own record is filed
    by _bounds, measured from its names like any bound set's."""
    hit = rec.selections.get(m)
    if hit is None:
        _pull_rows(rec, m)
        prev = rec.selections.get(m - 1)
        sel, sel_key = prev or ((), frozenset())
        rows = [b.pulled[r] for r in range(m - 1 if prev else 0, m)
                for b in rec.tables if r < len(b.pulled)]
        sel += tuple(rows)
        sel_key = sel_key.union([x.ident for x in rows])
        if len(sel_key) < len(sel):
            sel = _distinct(sel)
        hit = rec.selections[m] = (sel, sel_key)
        _bounds(sel, sel_key)
    return hit


def _in_prefix(a: OrdName, rec: _Bounds, top: int) -> bool:
    """Is a one of the first top members of some bound, that is, a member of
    one of the first top selections?  Read off the bounds' stores without
    building the selections, pulling rows in the order the selections take
    them, and none past the first row that holds a."""
    found = min([b.pulled.index(a) for b in rec.tables if a in b.pulled],
                default=top)
    # pull the rows up to the first that holds a where a store lacks them
    end = min(found + 1, top)
    return _pull_rows(rec, end, a) < end or found < top


def _by_height(a: OrdName, bs: tuple, rec: Optional[_Bounds],
               strict: bool) -> Optional[bool]:
    """The verdict on finitary a against these bounds, read off the tree
    heights, or None when a bound is not finitary.  On finitary names
    a <= bs exactly when a is no taller than the tallest bound, and a < bs
    when it is shorter, whatever the fuel.  The bounds' height is their
    record's when one was made, else read off the bounds, making none."""
    if rec is not None:
        top = rec.height
        if top is None:
            return None
    else:
        top = 0
        for b in bs:
            h = b.height
            if h is None:
                return None
            if h > top:
                top = h
    return a.height < top if strict else a.height <= top


def _by_rows(tables: list, target: int, top: int) -> Tuple[int, bool]:
    """Read a bound set's first top rows off its bounds' running heights
    while every member is finitary: the number n of rows whose running
    height stays below target, and whether row n reaches it.  The set stops
    or reaches at the first row where one of its bounds does, so each
    bound's measured rows are bisected; past the rows all bounds hold, the
    bounds that lack a row grow by it, a row at a time, and none past row
    n.  The selections up to row n are what _by_height would refute against
    a target-high lhs, and the one ending at row n what it would confirm."""
    known, first, reached = top, top, False
    for b in tables:
        n = len(b.pulled)
        heights = b.heights
        if len(heights) < n:
            heights = _measure(b)
        # running maxima never fall, so the rows measured so far are searched
        lim = min(top, len(heights))
        reach = bisect_left(heights, target, 0, lim)
        if reach < lim and reach < first:
            first, reached = reach, True
        elif lim <= first and lim < n:
            # member lim is not finitary
            first, reached = lim, False
        if n < known and _more(b):
            known = n
    if first < known:
        return first, reached
    # every row a store holds is settled above; from row known on, row r is
    # read in every bound that has it, since another bound's generator may
    # have pulled it, and a bound with no more members is dropped
    live = [b for b in tables if _more(b)]
    for r in range(known, min(first + 1, top)):
        stop = hit = done = False
        for b in live:
            _grow(b, r + 1)
            if r < len(b.pulled):
                heights = _measure(b)
                if len(heights) == r:
                    stop = True
                elif heights[r] >= target:
                    hit = True
            done = done or not _more(b)
        if stop:
            return r, False
        if r == first:
            return first, reached
        if hit:
            return r, True
        if done:
            live = [b for b in live if _more(b)]
    return top, False


def _ask(strict: bool, a: OrdName, bs: tuple, rhs_key: frozenset,
         width: int, depth: int, budget: list) -> TriBool:
    """a < bs when strict, else a <= bs: the one entry of both relations,
    at the top and in every scan.  A verdict held in the bound set's record
    costs nothing, as does an identity answer: a <= bs when a is zero or a
    bound, and not a < bs when a is the only bound.  A height read and a
    scan each need a depth level left and cost one step, and only a scan's
    definite verdict is stored."""
    if strict:
        if len(rhs_key) == 1 and a.ident in rhs_key:
            # irreflexivity: a is not below itself
            return FALSE
    elif a.is_zero or a.ident in rhs_key:
        return TRUE
    rec = _sel_cache.get(rhs_key)
    quick = None if a.height is None else _by_height(a, bs, rec, strict)
    if quick is None and rec is not None:
        hit = (rec.lt if strict else rec.le).get(a.ident)
        if hit is not None:
            _stats["hits"] += 1
            return TRUE if hit else FALSE
    if depth == 0:
        return _unknown(DEPTH_EXHAUSTED)
    if budget[0] <= 0:
        return _unknown(STEPS_EXHAUSTED)
    budget[0] -= 1
    _stats["evals"] += 1
    if quick is not None:
        # a height read is an eval that stores nothing
        return TRUE if quick else FALSE
    if rec is None:
        rec = _bounds(bs, rhs_key)
    if strict:
        r = _lt(a, rec, width, depth, budget)
    else:
        r = _le(a, bs, rhs_key, rec, width, depth, budget)
    if r.value is not None:
        (rec.lt if strict else rec.le)[a.ident] = r.value
    return r


def _le(a: OrdName, bs: tuple, rhs_key: frozenset, rec: _Bounds, width: int,
        depth: int, budget: list) -> TriBool:
    """The scan for a <= bs, whose record is rec."""
    if a.arity is None and rec.cover is None:
        # True needs a's subordinals exhausted, so a finite arity; False
        # needs an _lt refutation, so a cover.  No scan can settle this.
        # Membership could confirm it, but is left unasked here: it would
        # pull up to width rows, and a failing generator's among them
        return _unknown(WIDTH_TRUNCATED)
    # the scan exhausts a's subordinals only when its arity fits the width
    exhausted = a.arity is not None and a.arity <= width
    n = a.arity if exhausted else width
    if (a.height is None and rec.height is not None
            and _by_rows([a], rec.height, n)[1]):
        # finitary bounds: a member as high as they are is not below them
        return FALSE
    if not exhausted and _in_prefix(a, rec, width):
        # the scan cannot exhaust a, but a is member i of a bound b, so
        # a < b by lt_intro with the selection {i} and a <= a, and a <= bs;
        # a member found at one width is found at every larger one
        return TRUE
    pending: Optional[TriBool] = None
    for i in range(n):
        r = _ask(True, child(a, i), bs, rhs_key, width, depth - 1, budget)
        if r.value is False:
            return FALSE
        if r.value is None and (pending is None
                                or r.reason == STEPS_EXHAUSTED):
            pending = r
    if pending is not None:
        return pending
    return TRUE if exhausted else _unknown(WIDTH_TRUNCATED)


def _lt(a: OrdName, rec: _Bounds, width: int, depth: int,
        budget: list) -> TriBool:
    """The scan for a < bs, whose record is rec."""
    cover = rec.cover
    if cover == 0:
        return FALSE
    if not a.is_finitary:
        if _in_prefix(a, rec, width):
            # a is member i of a bound b, so a < b by lt_intro with the
            # selection {i} and a <= a; asked before any selection, since
            # confirming a member through the selections can take the
            # whole budget (w+4 against w+w)
            return TRUE
        if a.arity is None and cover is None:
            # with no finite arity, a is below a selection only as one of
            # its members, and with no cover no refuted selection refutes
            # a < bs: only membership could give a verdict
            return _unknown(WIDTH_TRUNCATED)
    top = width if cover is None else min(width, cover)
    start = 1
    if a.is_finitary:
        # the selections are tried in row order, and each one that the
        # running heights read is settled by heights: refuted while it
        # stays below a, confirmed at the first row that reaches a
        n, reached = _by_rows(rec.tables, a.height, top)
        if reached:
            return TRUE
        if n == top:
            return FALSE if top == cover else _unknown(WIDTH_TRUNCATED)
        start = n + 1
    elif a.height is None and rec.height is not None:
        # finitary bounds: a member of a as high as the covering selection
        # refutes it, and with it every selection
        n = a.arity if a.arity is not None and a.arity <= width else width
        if _by_rows([a], rec.height - 1, n)[1]:
            return FALSE
    if cover is None and start < top:
        # with no cover the scan can only confirm, and selection top holds
        # every smaller one: ask it alone when it has a cover itself, that
        # is, no member in rows 0..top-1 lacks an arity, which keeps such
        # asks from nesting inside each other
        for b in rec.tables:
            _grow(b, top)
            if None in [m.arity for m in b.pulled[:top]]:
                break
        else:
            start = top
    covering: Optional[TriBool] = None
    starved: Optional[TriBool] = None
    for m in range(start, top + 1):
        sel, sel_key = _selection(rec, m)
        r = _ask(False, a, sel, sel_key, width, depth - 1, budget)
        if r.value is True:
            return TRUE
        if m == cover:
            covering = r
        elif r.value is None and r.reason == STEPS_EXHAUSTED:
            starved = r
    if covering is not None:
        # the covering prefix is the largest selection there is; a
        # refutation of it refutes every selection
        return covering
    return starved if starved is not None else _unknown(WIDTH_TRUNCATED)


def _as_rhs(bs) -> tuple:
    if isinstance(bs, OrdName):
        raise TypeError("rhs must be a sequence of names")
    bs = tuple(bs)
    if not bs:
        raise ValueError("rhs must be nonempty")
    for b in bs:
        if not isinstance(b, OrdName):
            raise TypeError(f"rhs member is not a name: {b!r}")
    return bs


def le(a: OrdName, bs: Sequence[OrdName], fuel: Fuel = DEFAULT_FUEL) -> TriBool:
    """Is a below the supremum of bs?  Sound in both definite directions."""
    rhs = _as_rhs(bs)
    return _ask(False, a, rhs, _rhs_key(rhs), fuel.width, fuel.depth,
                [fuel.step_budget])


def lt(a: OrdName, bs: Sequence[OrdName], fuel: Fuel = DEFAULT_FUEL) -> TriBool:
    """Is a strictly below the supremum of bs?"""
    rhs = _as_rhs(bs)
    return _ask(True, a, rhs, _rhs_key(rhs), fuel.width, fuel.depth,
                [fuel.step_budget])


def eq(a: OrdName, b: OrdName, fuel: Fuel = DEFAULT_FUEL) -> TriBool:
    """Mutual le, combined with the strong-Kleene conjunction."""
    return le(a, (b,), fuel).and_(le(b, (a,), fuel))


class Ordering(Enum):
    LT = "lt"
    EQ = "eq"
    GT = "gt"


def finitary_fuel(*names: OrdName) -> Fuel:
    """Fuel at which even the recursion, with the height readers set aside,
    reaches a definite verdict on these finitary names: width covers every
    index set, depth the interleaved descent.  With the readers, heights
    settle such queries in one step at any fuel, so nothing in the engine,
    the law battery or cmp_finitary asks for it: it is the budget of the
    recursive reference path that tests compare against.  The step
    allowance is deliberately generous; definite verdicts stop as soon as
    they are reached, so it is an emergency brake, not a cost."""
    w = max([1] + [max_fin_width(n) for n in names])
    d = 2 * sum(structural_depth(n) for n in names) + 8
    return Fuel(width=w, depth=d, steps=2_000_000)


def cmp_finitary(a: OrdName, b: OrdName) -> Ordering:
    """Total comparison on finitary names."""
    if not (a.is_finitary and b.is_finitary):
        raise ValueError("cmp_finitary is only total on finitary names")
    ab = le(a, (b,))
    ba = le(b, (a,))
    if ab.is_unknown or ba.is_unknown:
        raise RuntimeError("engine failed to decide a finitary comparison")
    if ab.is_true and ba.is_true:
        return Ordering.EQ
    if ab.is_true:
        return Ordering.LT
    if ba.is_true:
        return Ordering.GT
    raise RuntimeError("finitary comparison yielded an order gap")
