"""Fuel-bounded three-valued comparison of ordinal names.

``le(a, bs)`` asks whether a is below the supremum of the names in bs, and
``lt(a, bs)`` whether it is strictly below.  Both relations are defined by a
simultaneous recursion: a <= bs when every subordinal of a is strictly below
bs, and a < bs when some choice of finitely many subordinals, taken from the
members of bs and not all empty, bounds a from above.

Verdicts are strong-Kleene truth values.  True and False are final: True
comes only from fully exhausted index sets or an explicit witness, False only
from a counterexample or an exhausted witness space.  Every budget truncation
yields Unknown, tagged with what ran out; once the step budget is spent, that
reason is reported over any width or depth truncation met on the way.
Definite verdicts are monotone in the fuel and are cached; Unknown is never
cached.

An Unknown can also mean that no scan at any budget settles the question.
a <= bs is confirmed only by exhausting a's subordinals, which needs a finite
arity, and refuted only through a refuted a' < bs, which needs the bounds to
have a cover (a largest witness selection).  When a has neither, the engine
answers width-truncated at once instead of spending its budget; a < bs is
then true only when a is one of the bounds' first members, which it tests
directly.

On finitary names both relations come down to comparing tree heights.  When
the fuel would carry the recursion to a verdict anyway, the engine reads it
off the heights in one step instead.  The same holds one level up: when a
scan's selections or members are finitary, the engine reads them off member
tables, one per name, holding its members with their running largest height
and index set; row r of a bound set is member r of each bound.  A finitary
a < bs is true at the first selection that reaches a's height and false when
the covering one stays below it; a <= bs with finitary bounds is false at
the first member of a as high as they are.  Each such scan costs one step
instead of one per selection or member.  The certificate search reads the
tables too, for members and their running largest Cantor normal form
(``reach`` and ``members``); no verdict reads a form.

The search over witness selections examines prefixes only.  That loses no
generality: a selection is below any larger one, so if some selection works,
a prefix covering it works too.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from enum import Enum
from typing import NamedTuple, Optional, Sequence, Tuple

from . import cnf
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


class _JudgmentFields(NamedTuple):
    kind: str
    lhs: OrdName
    rhs: Tuple[OrdName, ...]


class Judgment(_JudgmentFields):
    """A comparison claim: kind is "le" or "lt", rhs a nonempty tuple."""

    __slots__ = ()

    def __new__(cls, kind: str, lhs: OrdName,
                rhs: Tuple[OrdName, ...]) -> Judgment:
        if kind not in ("le", "lt"):
            raise ValueError(f"bad judgment kind {kind!r}")
        if not rhs:
            raise ValueError("judgment needs at least one bound")
        return super().__new__(cls, kind, lhs, rhs)

    def __repr__(self) -> str:
        op = "<=" if self.kind == "le" else "<"
        return f"{self.lhs!r} {op} {list(self.rhs)!r}"


# definite verdicts only, keyed by (kind, lhs ident, rhs ident set)
_memo: dict = {}
# per rhs ident set: its _Bounds record
_sel_cache: dict = {}
# per name ident: its member table, a _Rows
_tables: dict = {}
_stats = {"evals": 0, "hits": 0}


def clear_memo() -> None:
    _memo.clear()
    _sel_cache.clear()
    _tables.clear()
    _stats["evals"] = 0
    _stats["hits"] = 0


def memo_stats() -> dict:
    return {"evals": _stats["evals"], "hits": _stats["hits"], "entries": len(_memo)}


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
    size, and, when every bound is finitary, the bounds' largest height and
    largest index set.  A cover of None (some bound has no finite arity)
    means no selection is largest, so nothing is refuted against these
    bounds, and a query that only a refutation could settle is unknown at
    every budget.  selections holds the witness selections built so far,
    by size, and tables the bounds' member tables once first read."""

    __slots__ = ("bs", "cover", "height", "width", "selections", "tables")

    def __init__(self, bs: tuple, cover: Optional[int],
                 height: Optional[int], width: int):
        self.bs = bs
        self.cover = cover
        self.height = height
        self.width = width
        self.selections: dict = {}
        self.tables: Optional[list] = None


class _Rows:
    """One name's member table: members[r] is its member r (idents[r] that
    member's ident), pulled once and in order, and read by every bound set
    that holds the name.  Row r of a bound set is member r of each of its
    bounds that has one.  Running maxima over members 0..r, measured on
    demand, since a membership scan reads none: cover[r] of the arities
    (None once one has none), and height[r] and width[r] of the heights and
    index sets, kept only for as long as every member is finitary.

    The certificate search reads the table too: forms[r] is the largest
    Cantor normal form among members 0..r, members without one not counted
    (None while none has one), measured by reach alone: the engine never
    reads forms."""

    __slots__ = ("name", "members", "idents", "cover", "height", "width",
                 "forms")

    def __init__(self, name: OrdName):
        self.name = name
        self.members: list = []
        self.idents: list = []
        self.cover: list = []
        self.height: list = []
        self.width: list = []
        self.forms: list = []

    def grow(self, n: int) -> None:
        """Pull members until the table holds the first n, or all of them
        when the name has fewer."""
        if self.name.arity is not None:
            n = min(n, self.name.arity)
        for r in range(len(self.members), n):
            m = child(self.name, r)
            self.members.append(m)
            self.idents.append(m.ident)

    def measure(self) -> None:
        """Extend the running maxima over the members pulled so far."""
        cover, height, width = self.cover, self.height, self.width
        for r, m in enumerate(self.members[len(cover):], len(cover)):
            c = cover[-1] if r else 0
            cover.append(None if c is None or m.arity is None
                         else max(c, m.arity))
            if len(height) == r and m.height is not None:
                height.append(max(height[-1], m.height) if r else m.height)
                width.append(max(width[-1], m.width) if r else m.width)


def _table(b: OrdName) -> _Rows:
    """b's member table, made on first use."""
    t = _tables.get(b.ident)
    if t is None:
        t = _tables[b.ident] = _Rows(b)
    return t


def _tables_of(rec: _Bounds) -> list:
    if rec.tables is None:
        rec.tables = [_table(b) for b in rec.bs if b.arity != 0]
    return rec.tables


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
        arities = [b.arity for b in bs]
        heights = [b.height for b in bs]
        finitary = None not in heights
        rec = _sel_cache[rhs_key] = _Bounds(
            bs, None if None in arities else max(arities),
            max(heights) if finitary else None,
            max(b.width for b in bs) if finitary else 0)
    return rec


def _pull_rows(tables: list, n: int, ident: Optional[int] = None) -> int:
    """Grow the tables through the bound set's row n-1, a row at a time and
    index-major, from the first row that one of them lacks.  Stop after the
    first row that pulls a member with this ident, and return that row's
    number, or n when none does."""
    short = [t for t in tables if len(t.members) < n
             and (t.name.arity is None or len(t.members) < t.name.arity)]
    for r in range(min([len(t.members) for t in short], default=n), n):
        hit = False
        for t in short:
            if len(t.members) == r:
                t.grow(r + 1)
                hit = hit or t.idents[r:] == [ident]
        if hit:
            return r
    return n


def _maxima(tables: list, r: int) -> tuple:
    """The bound set's running (cover, height, width) at row r, its tables
    holding that row: the largest of each bound's at row min(r, arity - 1).
    height is None and width 0 once a member in rows 0..r is not finitary."""
    cover, height, width = 0, 0, 0
    for t in tables:
        t.measure()
        i = min(r, len(t.members) - 1)
        c = t.cover[i]
        cover = None if cover is None or c is None else max(cover, c)
        if height is not None and i < len(t.height):
            height = max(height, t.height[i])
            width = max(width, t.width[i])
        else:
            height, width = None, 0
    return cover, height, width


def _selection(rec: _Bounds, m: int):
    """The m-th witness selection for these bounds: each member contributes
    its subordinal prefix of length m (clamped to the member's own arity),
    that is, the bound set's first m rows, each name kept once.  Built once
    per bound set (from selection m-1 when built), since every scan against
    the same bounds retries the same selections; its own record is filed
    from the bounds' running maxima at row m-1."""
    hit = rec.selections.get(m)
    if hit is None:
        tables = _tables_of(rec)
        _pull_rows(tables, m)
        prev = rec.selections.get(m - 1)
        sel, sel_key = prev or ((), frozenset())
        rows = [t.members[r] for r in range(m - 1 if prev else 0, m)
                for t in tables if r < len(t.members)]
        sel += tuple(rows)
        sel_key = sel_key.union([x.ident for x in rows])
        if len(sel_key) < len(sel):
            sel = _distinct(sel)
        hit = rec.selections[m] = (sel, sel_key)
        if sel_key not in _sel_cache:
            _sel_cache[sel_key] = _Bounds(sel, *_maxima(tables, m - 1))
    return hit


def _in_prefix(a: OrdName, rec: _Bounds, top: int) -> bool:
    """Is a one of the first top members of some bound, that is, a member of
    one of the first top selections?  Read off the bounds' tables without
    building the selections, pulling rows in the order the selections take
    them, and none past the first row that holds a."""
    ident = a.ident
    tables = _tables_of(rec)
    found = min([t.idents.index(ident) for t in tables if ident in t.idents],
                default=top)
    # pull the rows up to the first that holds a where a table lacks them
    end = min(found + 1, top)
    return _pull_rows(tables, end, ident) < end or found < top


def _by_height(a: OrdName, rec: _Bounds, width: int, depth: int,
               strict: bool) -> Optional[bool]:
    """The verdict on finitary a against these bounds, read off the tree
    heights, or None when a bound is not finitary or the fuel would not
    carry the recursion to a verdict.  On finitary names a <= bs exactly
    when a is no taller than the tallest bound, and a < bs when it is
    shorter.  The recursion descends a's tree twice per level (le, then lt)
    and scans every index set below a and the bounds; declining when fuel
    falls short of that keeps the verdicts short fuel has always given."""
    if rec.height is None:
        return None
    h = a.height
    if depth < 2 * h + strict:
        return None
    if width < rec.width or width < a.width:
        return None
    return h < rec.height if strict else h <= rec.height


def _by_rows(tables: list, target: int, top: int,
             width: int) -> Tuple[int, bool]:
    """Read a bound set's first top rows off its bounds' tables while every
    member is finitary and the rows' index sets fit the width: the number n
    of rows whose running height stays below target, and whether row n
    reaches it.  The set stops or reaches at the first row where one of its
    bounds does, so each table's measured rows are bisected; past the rows
    all tables hold, they grow a row at a time, and none past row n.  The
    selections up to row n are what _by_height would refute against a
    target-high lhs, and the one ending at row n what it would confirm."""
    known, first, reached = top, top, False
    for t in tables:
        n = len(t.members)
        if len(t.cover) < n:
            t.measure()
        # running maxima never fall, so the rows measured so far are searched
        lim = min(top, len(t.height))
        wide = bisect_right(t.width, width, 0, lim)
        reach = bisect_left(t.height, target, 0, lim)
        if reach < wide and reach < first:
            first, reached = reach, True
        elif wide <= first and (wide < lim or lim < n):
            # too wide at row wide, or member lim is not finitary
            first, reached = wide, False
        if n < known and (t.name.arity is None or n < t.name.arity):
            known = n
    if first < known:
        return first, reached
    for r in range(known, top):
        _pull_rows(tables, r + 1)
        _, height, wide = _maxima(tables, r)
        if height is None or wide > width:
            return r, False
        if height >= target:
            return r, True
    return top, False


def reach(b: OrdName, h: tuple, k: int) -> Optional[int]:
    """The index of the first of b's first k members whose Cantor normal
    form is at least h, or None: what a scan of those members from index 0
    would find, read off b's member table for the certificate search.  The
    rows whose running largest form is measured are bisected; past them the
    table grows one member at a time, and no member is pulled past the first
    that reaches h.  Nothing the engine decides reads forms."""
    rows = _table(b)
    forms = rows.forms
    if b.arity is not None:
        k = min(k, b.arity)
    cmp = cnf.cmp
    # running maxima never fall, so the rows measured so far are bisected
    n = min(k, len(forms))
    lo = bisect_left(forms, True, 0, n,
                     key=lambda f: f is not None and cmp(f, h) >= 0)
    if lo < n:
        return lo
    for r in range(len(forms), k):
        rows.grow(r + 1)
        f = cnf.of(rows.members[r])
        if f is not None and cmp(f, h) >= 0:
            # every form before it is below h, so it is the new maximum
            forms.append(f)
            return r
        top = forms[-1] if forms else None
        if f is not None and (top is None or cmp(f, top) > 0):
            top = f
        forms.append(top)
    return None


def members(b: OrdName, k: int) -> list:
    """b's first k members (all of them when it has fewer), read off b's
    member table and pulled into it as needed."""
    rows = _table(b)
    rows.grow(k)
    return rows.members[:k]


def _member_refutes(a: OrdName, target: int, n: int, width: int,
                    depth: int) -> bool:
    """Is one of a's first n members finitary and at least target high,
    with every member before it finitary, at a fuel where _by_height
    refutes it as strictly below a target-high bound set (depth is the
    member query's)?  Read off a's member table."""
    t = _table(a)
    k, reached = _by_rows([t], target, n, width)
    return reached and depth >= 2 * t.height[k] + 1


def _le(a: OrdName, bs: tuple, rhs_key: frozenset, width: int, depth: int,
        budget: list) -> TriBool:
    if a.is_zero or a.ident in rhs_key:
        return TRUE
    key = ("le", a.ident, rhs_key)
    hit = _memo.get(key)
    if hit is not None:
        _stats["hits"] += 1
        return TRUE if hit else FALSE
    if depth == 0:
        return _unknown(DEPTH_EXHAUSTED)
    if budget[0] <= 0:
        return _unknown(STEPS_EXHAUSTED)
    budget[0] -= 1
    _stats["evals"] += 1
    rec = _bounds(bs, rhs_key)
    if a.is_finitary:
        quick = _by_height(a, rec, width, depth, False)
        if quick is not None:
            _memo[key] = quick
            return TRUE if quick else FALSE
    if a.arity is None and rec.cover is None:
        # True needs a's subordinals exhausted, so a finite arity; False
        # needs an _lt refutation, so a cover.  No scan can settle this.
        return _unknown(WIDTH_TRUNCATED)
    # the scan exhausts a's subordinals only when its arity fits the width
    exhausted = a.arity is not None and a.arity <= width
    n = a.arity if exhausted else width
    if (a.height is None and rec.height is not None and rec.width <= width
            and _member_refutes(a, rec.height, n, width, depth - 1)):
        # finitary bounds: a member as high as they are is not below them
        _memo[key] = False
        return FALSE
    pending: Optional[TriBool] = None
    for i in range(n):
        r = _lt(child(a, i), bs, rhs_key, width, depth - 1, budget)
        if r.is_false:
            _memo[key] = False
            return FALSE
        if r.is_unknown and (pending is None or r.reason == STEPS_EXHAUSTED):
            pending = r
    if pending is not None:
        return pending
    if not exhausted:
        return _unknown(WIDTH_TRUNCATED)
    _memo[key] = True
    return TRUE


def _lt(a: OrdName, bs: tuple, rhs_key: frozenset, width: int, depth: int,
        budget: list) -> TriBool:
    key = ("lt", a.ident, rhs_key)
    hit = _memo.get(key)
    if hit is not None:
        _stats["hits"] += 1
        return TRUE if hit else FALSE
    if depth == 0:
        return _unknown(DEPTH_EXHAUSTED)
    if budget[0] <= 0:
        return _unknown(STEPS_EXHAUSTED)
    budget[0] -= 1
    _stats["evals"] += 1
    rec = _bounds(bs, rhs_key)
    if a.is_finitary:
        quick = _by_height(a, rec, width, depth, True)
        if quick is not None:
            _memo[key] = quick
            return TRUE if quick else FALSE
    cover = rec.cover
    if cover == 0:
        _memo[key] = False
        return FALSE
    if a.arity is None and cover is None:
        # with no finite arity, a is below a selection only as one of its
        # members, and with no cover no refuted selection refutes a < bs:
        # only membership can give a verdict
        if _in_prefix(a, rec, width):
            _memo[key] = True
            return TRUE
        return _unknown(WIDTH_TRUNCATED)
    top = width if cover is None else min(width, cover)
    start = 1
    if a.is_finitary and depth - 1 >= 2 * a.height and width >= a.width:
        # the selections are tried in row order, and each one that the
        # table reads is settled by heights: refuted while it stays below
        # a, confirmed at the first row that reaches a
        n, reached = _by_rows(_tables_of(rec), a.height, top, width)
        if reached:
            _memo[key] = True
            return TRUE
        if n == top:
            if top == cover:
                _memo[key] = False
                return FALSE
            return _unknown(WIDTH_TRUNCATED)
        start = n + 1
    elif a.height is None and rec.height is not None and rec.width <= width:
        # finitary bounds whose cover fits the width: a member of a as high
        # as the covering selection refutes it, and with it every selection
        n = a.arity if a.arity is not None and a.arity <= width else width
        if _member_refutes(a, rec.height - 1, n, width, depth - 2):
            _memo[key] = False
            return FALSE
    covering: Optional[TriBool] = None
    starved: Optional[TriBool] = None
    for m in range(start, top + 1):
        sel, sel_key = _selection(rec, m)
        r = _le(a, sel, sel_key, width, depth - 1, budget)
        if r.is_true:
            _memo[key] = True
            return TRUE
        if m == cover:
            covering = r
        elif r.is_unknown and r.reason == STEPS_EXHAUSTED:
            starved = r
    if covering is not None:
        # the covering prefix is the largest selection there is; a definite
        # refutation of it refutes every selection
        if covering.is_false:
            _memo[key] = False
            return FALSE
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
    return _le(a, rhs, _rhs_key(rhs), fuel.width, fuel.depth,
               [fuel.step_budget])


def lt(a: OrdName, bs: Sequence[OrdName], fuel: Fuel = DEFAULT_FUEL) -> TriBool:
    """Is a strictly below the supremum of bs?"""
    rhs = _as_rhs(bs)
    return _lt(a, rhs, _rhs_key(rhs), fuel.width, fuel.depth,
               [fuel.step_budget])


def eq(a: OrdName, b: OrdName, fuel: Fuel = DEFAULT_FUEL) -> TriBool:
    """Mutual le, combined with the strong-Kleene conjunction."""
    return le(a, (b,), fuel).and_(le(b, (a,), fuel))


class Ordering(Enum):
    LT = "lt"
    EQ = "eq"
    GT = "gt"


def finitary_fuel(*names: OrdName) -> Fuel:
    """Fuel provably sufficient for definite verdicts on these finitary
    names: width covers every index set, depth the interleaved descent.
    The step allowance is deliberately generous; definite verdicts stop as
    soon as they are reached, so it is an emergency brake, not a cost."""
    w = max([1] + [max_fin_width(n) for n in names])
    d = 2 * sum(structural_depth(n) for n in names) + 8
    return Fuel(width=w, depth=d, steps=2_000_000)


def cmp_finitary(a: OrdName, b: OrdName) -> Ordering:
    """Total comparison on finitary names."""
    if not (a.is_finitary and b.is_finitary):
        raise ValueError("cmp_finitary is only total on finitary names")
    fuel = finitary_fuel(a, b)
    ab = le(a, (b,), fuel)
    ba = le(b, (a,), fuel)
    if ab.is_unknown or ba.is_unknown:
        raise RuntimeError("engine failed to decide a finitary comparison")
    if ab.is_true and ba.is_true:
        return Ordering.EQ
    if ab.is_true:
        return Ordering.LT
    if ba.is_true:
        return Ordering.GT
    raise RuntimeError("finitary comparison yielded an order gap")
