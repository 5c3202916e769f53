"""Rule constructors, derived rules and certificate search.

This module builds certificates and vouches for none: one is trusted only
once ``checker.verify`` accepts it.  Besides the constructors of the
checker's four rules (``le_intro``, ``lt_intro`` and the leaves ``refl``
and ``member``) it holds the derived rules (weakening, transitivity, cut,
drop, the successor and sup rules), untrusted functions that build
derivations from those four.  A derived rule that needs the premises of a
leaf unfolds it one level into the ``le_intro`` it abbreviates.

``le_cert`` and ``lt_cert`` are untrusted searchers, steered toward a
certificate that is then checked like any other.  Their only guide is the
Cantor normal form names carry (``cnf``): the forms pick the selections to
try and refuse goals they refute, and a missing form gives no opinion, save
that a sweep over a naturally indexed lhs needs forms on both sides.  The
search asks the comparison engine for no verdict; it pulls members through
``compare.child``.  A hint only prunes, refuses or picks the steps tried:
every step is still built as a derivation, so a wrong hint can make a
search fail but cannot make ``verify`` accept a false claim.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import count, islice
from typing import Callable, Optional, Sequence, Tuple

from . import cnf, compare
# SpotCheck and verify are only re-exported, for callers that read them here
from .checker import (_RULES, Certificate, Judgment, KernelError, SpotCheck,
                      _ids, _selected, subordinal_arity, verify)
from .names import (Family, Fin, OrdName, ZERO, _mask_bits,
                    filtering, fin, suc, sup_decomposition, sup_finite,
                    sup_order)


class CertSearchError(KernelError):
    """Certificate search failed to find a derivation."""


class _Spent(CertSearchError):
    """The search ran out of depth or of steps."""


def _rhs(bs) -> Tuple[OrdName, ...]:
    bs = tuple(bs)
    if not bs or not all(isinstance(b, OrdName) for b in bs):
        raise KernelError("rhs must be a nonempty tuple of names")
    return bs


# ---------------------------------------------------------------------------
# constructors


def le_intro(a: OrdName, bs, premises: Optional[Sequence[Certificate]] = None,
             gen: Optional[Callable[[int], Certificate]] = None) -> Certificate:
    """a <= bs from one strict bound per subordinal of a: no premises for
    zero, a tuple below a finitely branching a, a generator otherwise."""
    c = Certificate("le_intro", Judgment("le", a, _rhs(bs)),
                    () if premises is None else tuple(premises), gen)
    reason = subordinal_arity(a, c)
    if reason is not None:
        raise KernelError(reason)
    return c


def lt_intro_sel(a: OrdName, bs, selections: Sequence[Sequence[int]],
                 inner: Certificate) -> Certificate:
    """a < bs by explicitly selected subordinal indices, one selection per
    bound, not all empty; inner shows a below the sup of the selection."""
    bs = _rhs(bs)
    selections = tuple(tuple(s) for s in selections)
    if len(selections) != len(bs):
        raise KernelError("one selection per bound")
    if all(not s for s in selections):
        raise KernelError("selections must not all be empty")
    for b, s in zip(bs, selections):
        for i in s:
            if b.is_zero or i not in b.index:
                raise KernelError(f"selection index {i} invalid for {b!r}")
    return Certificate("lt_intro", Judgment("lt", a, bs),
                       premises=(inner,), payload=selections)


def lt_intro(a: OrdName, bs, m: int, inner: Certificate) -> Certificate:
    """a < bs by the width-m prefix selection from every bound."""
    bs = _rhs(bs)
    if m < 1:
        raise KernelError("prefix width must be positive")
    sels = []
    for b in bs:
        if b.is_zero:
            sels.append(())
        elif isinstance(b.index, Fin):
            sels.append(tuple(range(min(m, b.index.size))))
        else:
            sels.append(tuple(range(m)))
    return lt_intro_sel(a, bs, sels, inner)


def _le_node(x: OrdName, T, prem: Callable[[int], Certificate]) -> Certificate:
    """x <= T by le_intro with premise i from prem: a tuple below a finitely
    branching x, a generator below a naturally indexed one."""
    if x.is_zero:
        return le_intro(x, T)
    if isinstance(x.index, Fin):
        return le_intro(x, T, premises=[prem(i) for i in range(x.index.size)])
    return le_intro(x, T, gen=prem)


def zero_le(bs) -> Certificate:
    return le_intro(ZERO, bs)


def zero_lt(bs) -> Certificate:
    """0 < bs whenever some bound has a subordinal at all."""
    bs = _rhs(bs)
    for b in bs:
        if not b.is_zero:
            return _lt_node(ZERO, bs, [(b, 0)], zero_le)
    raise KernelError("no bound has a subordinal: nothing is below all zeros")


_LEAVES = ("refl", "member")


def _leaf(rule: str, a: OrdName, bs: tuple, payload: tuple) -> Certificate:
    """The leaf a <= bs of rule refl (payload (j,): bound j is a) or member
    (payload (j, i): member i of bound j is a), unchecked: every caller
    either builds it from what the payload names or checks it (_check)."""
    return Certificate(rule, Judgment("le", a, bs), payload=payload)


def _check(p: Certificate, ps: tuple = ()) -> Certificate:
    """p, unless its rule check fails on ps, its premises' conclusions."""
    try:
        reason = _RULES[p.rule].check(p, ps)
    except (TypeError, ValueError) as e:
        reason = f"malformed payload: {e!r}"
    if reason:
        raise KernelError(reason)
    return p


def refl(a: OrdName) -> Certificate:
    """a <= [a], one leaf."""
    return _leaf("refl", a, (a,), (0,))


def _member_le(b: OrdName, i: int) -> Certificate:
    """b.child(i) <= [b], one leaf."""
    return _leaf("member", b.child(i), (b,), (0, i))


def _unfold(p: Certificate) -> Certificate:
    """The leaf p: a <= bs as the le_intro it abbreviates, one level deep.
    Member k of a is below bs by selecting, from bound j, member k of a
    when bound j is a (over a.child(k) <= [a.child(k)]), or member i when
    a is member i of bound j (over a.child(k) <= [a])."""
    c = _check(p).conclusion
    a, bs = c.lhs, c.rhs
    j = p.payload[0]

    def prem(k: int) -> Certificate:
        y = a.child(k)
        if p.rule == "refl":
            i, inner = k, refl(y)
        else:
            i, inner = p.payload[1], _member_le(a, k)
        sels = tuple((i,) if n == j else () for n in range(len(bs)))
        return lt_intro_sel(y, bs, sels, inner)

    return _le_node(a, bs, prem)


# ---------------------------------------------------------------------------
# derived rules
#
# Untrusted: everything below builds derivations from the four rules.
# Bounds are matched by ident, not position, since a premise's bound set
# need only be set-equal to its parent's.  Premises below a naturally
# indexed name are built lazily; recursions descend the lhs.


def _expect(cert: Certificate, kind: str, role: str) -> Judgment:
    if type(cert) is not Certificate:
        raise KernelError(f"{role} is not a certificate")
    if cert.conclusion.kind != kind:
        raise KernelError(f"{role} must conclude a {kind} judgment")
    return cert.conclusion


def _intro(p: Certificate, kind: str) -> Certificate:
    """p, which must conclude kind by kind's defining rule; a leaf is
    unfolded into the le_intro it abbreviates."""
    _expect(p, kind, "premise")
    if kind == "le" and p.rule in _LEAVES:
        return _unfold(p)
    if p.rule != kind + "_intro":
        raise KernelError(f"not a {kind}_intro derivation")
    return p


def _le_premise(p: Certificate, i: int) -> Certificate:
    """From p: x <= B, x.child(i) < B."""
    p = _intro(p, "le")
    r = p.premise_at(i) if not subordinal_arity(p.conclusion.lhs, p) else None
    if type(r) is not Certificate or _RULES["le_intro"].premise(p, i, r):
        raise KernelError(f"premise {i} of the le_intro does not fit it")
    return r


def _lt_parts(p: Certificate) -> Tuple[list, Certificate]:
    """From p: x < B, the selected (bound, index) pairs and x <= them."""
    _intro(p, "lt")
    inner = p.premises[0] if len(p.premises) == 1 else None
    _expect(inner, "le", "inner premise")
    _check(p, (inner.conclusion,))
    pairs = [(b, i) for b, s in zip(p.conclusion.rhs, p.payload) for i in s]
    return pairs, inner


def weaken(p: Certificate, extra) -> Certificate:
    """Enlarge the bound set; the judgment only gets easier.  Admissible,
    not a rule: an lt_intro selects nothing from the extra bounds, a leaf
    keeps its payload, and an le_intro weakens each of its premises, lazily
    below a naturally indexed lhs."""
    extra = _rhs(extra)
    if type(p) is Certificate and p.rule == "lt_intro":
        pairs, inner = _lt_parts(p)
        return _lt_node(p.conclusion.lhs, p.conclusion.rhs + extra, pairs,
                        lambda S: inner)
    c = _expect(p, "le", "premise")
    if p.rule in _LEAVES:
        return _check(_leaf(p.rule, c.lhs, c.rhs + extra, p.payload))
    _intro(p, "le")
    return _le_node(c.lhs, c.rhs + extra,
                    lambda i: weaken(_le_premise(p, i), extra))


def _widen(p: Certificate, T: Tuple[OrdName, ...]) -> Certificate:
    """p against a bound set equal to T as a set; p's bounds are among T's."""
    have = _ids(p.conclusion.rhs)
    extra = tuple(b for b in T if b.ident not in have)
    return weaken(p, extra) if extra else p


def _lt_node(x: OrdName, T, pairs,
             inner: Callable[[tuple], Certificate]) -> Certificate:
    """x < T selecting the (bound, index) pairs, bounds matched into T;
    inner(S) must show x <= S for the selected subordinals S."""
    T = _rhs(T)
    where = {b.ident: k for k, b in reversed(list(enumerate(T)))}
    sels: list = [set() for _ in T]
    for b, i in pairs:
        if b.ident not in where:
            raise KernelError(f"{b!r} is not among the bounds")
        sels[where[b.ident]].add(i)
    sels = tuple(tuple(sorted(s)) for s in sels)
    return lt_intro_sel(x, T, sels, inner(_selected(T, sels)))


def _chain(p: Certificate, up: dict, T) -> Certificate:
    """From p: x <= M (or x < M) and up[m.ident]: m <= (part of T) for each
    bound m that p's selections reach, x <= T (or x < T).  The lt case
    lifts each selected m.child(j) < T out of up[m] and recurses into p's
    inner premise with those lifts as its middle."""
    T = _rhs(T)
    x = p.conclusion.lhs
    if p.kind == "le":
        return _le_node(x, T, lambda i: _chain(_le_premise(p, i), up, T))
    pairs, inner = _lt_parts(p)
    lifted, below = [], {}
    for m, j in pairs:
        if m.ident not in up:
            raise KernelError(f"{m!r} is not a middle bound")
        more, below[m.child(j).ident] = _lt_parts(_le_premise(up[m.ident], j))
        lifted += more
    return _lt_node(x, T, lifted, lambda S: _chain(inner, below, S))


def _refls(T) -> dict:
    """The middle of a chain that only regroups T: b <= [b]."""
    return {b.ident: refl(b) for b in T}


def _sup_le(s: OrdName, members, T,
            prem: Callable[[int], Certificate]) -> Certificate:
    """s <= T for s the sup of members from prem(j): member j <= (part of
    T).  Premise k of s is premise i of member j, (j, i) = sup_order[k]."""
    got: dict = {}

    def premise(k: int) -> Certificate:
        j, i = next(islice(sup_order(members), k, None))
        if j not in got:
            got[j] = prem(j)
        return _widen(_le_premise(got[j], i), T)

    return _le_node(s, T, premise)


def _sup_member_le(q: Certificate, y: OrdName) -> Certificate:
    """From q: s <= T, y <= T for a member y of the sup s: premise i of y is
    q's premise where s lists y.child(i)."""
    s, T = q.conclusion.lhs, q.conclusion.rhs

    def premise(i: int) -> Certificate:
        z = y.child(i).ident
        return _widen(_le_premise(q, next(
            k for k in count() if s.child(k).ident == z)), T)

    return _le_node(y, T, premise)


def _spread(s: OrdName, members: tuple) -> Certificate:
    """s <= members, for s the sup of members."""
    return _sup_le(s, members, members, lambda j: refl(members[j]))


def _strict(p: Certificate, x: OrdName, B) -> Certificate:
    """From p: x < (bounds among B and x), x < B: the subordinals of x that
    p selects, unless also selected through B, are cut via their sup g."""
    pairs, inner = _lt_parts(p)
    in_b = _ids(B)
    if any(b.ident not in in_b | {x.ident} for b, _ in pairs):
        raise KernelError("a selected bound is neither the lhs nor in the set")
    others = [(b, i) for b, i in pairs if b.ident in in_b]
    rest = tuple(b.child(i) for b, i in others)
    own = {x.child(i).ident: i for b, i in pairs if b.ident not in in_b
           and x.child(i).ident not in _ids(rest)}
    if own:
        ys = tuple(x.child(i) for i in own.values())
        g = sup_finite(ys)
        below_x = _lt_node(g, (x,), [(x, i) for i in own.values()],
                           lambda S: _spread(g, ys))
        up = _refls(rest)
        up.update((y.ident, _sup_member_le(refl(g), y)) for y in ys)
        inner = _cut(below_x, _chain(inner, up, rest + (g,)), rest)
    return _lt_node(x, B, others, lambda S: inner)


def _cut(pc: Certificate, q: Certificate, B) -> Certificate:
    """From pc: c < [x] and q: x <= (bounds among B and c), x <= B: drop c's
    own subordinals from c < B and c (_strict), and chain c <= B into q."""
    c, x = pc.conclusion.lhs, q.conclusion.lhs
    up = _refls(B)
    if c.ident not in up:
        up[c.ident] = lt_to_le(_strict(_chain(pc, {x.ident: q}, B + (c,)),
                                       c, B))
    return _chain(q, up, B)


def _through(rhs: Tuple[OrdName, ...], q: Certificate) -> dict:
    """The middle of a chain from q: mid <= C, mid rhs's one bound or sup."""
    mid = q.conclusion.lhs
    if rhs != (mid,) and not sup_decomposition(mid, rhs):
        raise KernelError("middle name of the chain does not match")
    return {m.ident: q if rhs == (mid,) else _sup_member_le(q, m)
            for m in rhs}


def trans_le_le(p: Certificate, q: Certificate) -> Certificate:
    cp, cq = _expect(p, "le", "left premise"), _expect(q, "le", "right premise")
    return _chain(p, _through(cp.rhs, q), cq.rhs)


def trans_lt_le(p: Certificate, q: Certificate) -> Certificate:
    cp, cq = _expect(p, "lt", "left premise"), _expect(q, "le", "right premise")
    return _chain(p, _through(cp.rhs, q), cq.rhs)


def trans_le_lt(p: Certificate, q: Certificate) -> Certificate:
    cp, cq = _expect(p, "le", "left premise"), _expect(q, "lt", "right premise")
    pairs, inner = _lt_parts(q)
    up = _through(cp.rhs, inner)
    return _lt_node(cp.lhs, cq.rhs, pairs, lambda S: _chain(p, up, S))


def contract(p: Certificate) -> Certificate:
    """Drop duplicate bounds."""
    out = tuple({b.ident: b for b in p.conclusion.rhs}.values())
    return _chain(p, _refls(out), out)


def lt_to_le(p: Certificate) -> Certificate:
    """From a < bs conclude a <= bs: a is below the selection, and each
    selected subordinal is below its bound."""
    c = _expect(p, "lt", "premise")
    pairs, inner = _lt_parts(p)
    up = {b.child(i).ident: _member_le(b, i) for b, i in pairs}
    return _chain(inner, up, c.rhs)


def lt_suc_of_le(p: Certificate) -> Certificate:
    """From a <= [b] conclude a < [suc b]."""
    c = _expect(p, "le", "premise")
    if len(c.rhs) != 1:
        raise KernelError("needs a single bound")
    return lt_intro_sel(c.lhs, (suc(c.rhs[0]),), ((0,),), p)


def le_of_lt_suc(p: Certificate) -> Certificate:
    """From a < [suc b] conclude a <= [b]."""
    c = _expect(p, "lt", "premise")
    if len(c.rhs) != 1 or c.rhs[0].index != fin(1):
        raise KernelError("bound must be a single unary node")
    b = c.rhs[0].child(0)
    return _chain(_lt_parts(p)[1], _refls((b,)), (b,))


def suc_le_of_lt(p: Certificate) -> Certificate:
    """From b < [a] conclude suc b <= [a]."""
    c = _expect(p, "lt", "premise")
    return le_intro(suc(c.lhs), c.rhs, premises=(p,))


def lt_of_suc_le(p: Certificate) -> Certificate:
    """From suc b <= [a] conclude b < [a]."""
    c = _expect(p, "le", "premise")
    if c.lhs.index != fin(1):
        raise KernelError("lhs must be a unary node")
    return _chain(_le_premise(p, 0), _refls(c.rhs), c.rhs)


def sup_le_intro(s: OrdName, members, bs,
                 premises: Optional[Sequence[Certificate]] = None,
                 gen: Optional[Callable[[int], Certificate]] = None) -> Certificate:
    """sup(members) <= bs from one bound per member.  s must be the
    flattened sup of the given members; a naturally indexed member family
    takes a premise generator instead of a tuple."""
    bs = _rhs(bs)
    fam = isinstance(members, Family)
    members = members if fam else tuple(members)
    if not sup_decomposition(s, members):
        raise KernelError("name is not the sup of the claimed "
                          + ("family" if fam else "members"))
    if gen is not None and premises is not None:
        raise KernelError("pass premises or a generator, not both")
    if gen is None:
        premises = tuple(premises or ())
        if fam or len(premises) != len(members):
            raise KernelError("a member family takes a premise generator"
                              if fam else "one premise per member")
        gen = premises.__getitem__
    return _sup_le(s, members, bs, gen)


def sup_lt(p: Certificate, q: Certificate) -> Certificate:
    """From a < [c] and b < [c] conclude sup(a, b) < [c]."""
    cp, cq = _expect(p, "lt", "left premise"), _expect(q, "lt", "right premise")
    if len(cp.rhs) != 1 or len(cq.rhs) != 1 or cp.rhs[0].ident != cq.rhs[0].ident:
        raise KernelError("premises must share a single bound")
    members = (cp.lhs, cq.lhs)
    s = sup_finite(members)
    (pa, ia), (pb, ib) = _lt_parts(p), _lt_parts(q)
    return _lt_node(s, cp.rhs, pa + pb,
                    lambda S: _sup_le(s, members, S, (ia, ib).__getitem__))


def cut_left(p: Certificate, q: Certificate, other: OrdName) -> Certificate:
    """From c < [a] and a <= [sup(other, c)] conclude a <= [other]."""
    cp, cq = _expect(p, "lt", "left premise"), _expect(q, "le", "right premise")
    if len(cp.rhs) != 1 or len(cq.rhs) != 1:
        raise KernelError("premises must carry single bounds")
    a = cq.lhs
    if cp.rhs[0].ident != a.ident:
        raise KernelError("strict premise must bound by the main name")
    s, members = cq.rhs[0], (other, cp.lhs)
    if not sup_decomposition(s, members):
        raise KernelError("bound is not the sup of the remainder and the cut name")
    return _cut(p, _chain(q, {s.ident: _spread(s, members)}, members),
                (other,))


def drop_left(p: Certificate, other: OrdName) -> Certificate:
    """From a < [sup(a, other)] conclude a < [other]."""
    cp = _expect(p, "lt", "premise")
    if len(cp.rhs) != 1:
        raise KernelError("premise must carry a single bound")
    if not sup_decomposition(cp.rhs[0], (cp.lhs, other)):
        raise KernelError("bound is not the sup of the lhs and the remainder")
    s, members = cp.rhs[0], (cp.lhs, other)
    return _strict(_chain(p, {s.ident: _spread(s, members)}, members),
                   cp.lhs, (other,))


# ---------------------------------------------------------------------------
# certificate search


# search nodes one le_cert/lt_cert call may expand before giving up
SEARCH_STEPS = 6_000
# members a selection or a sweep reaches, widened for deep goals (_finite_part)
SEARCH_LIMIT = 48
# recursion depth one le_cert/lt_cert call may descend
SEARCH_BUDGET = 256


class _SearchState:
    """Bookkeeping shared across one le_cert/lt_cert invocation: the step
    counter and a memo from each goal to the certificate found for it.
    Identical subgoals recur heavily (sibling candidates peel the same
    spines), so found certificates are reused; a failed goal is searched
    again when it recurs.  done marks a search that has returned."""

    __slots__ = ("steps", "memo", "done")

    def __init__(self):
        self.steps = SEARCH_STEPS
        self.memo: dict = {}
        self.done = False


def le_cert(a: OrdName, bs) -> Certificate:
    """Search for a certificate of a <= bs, steered by Cantor normal forms.

    SEARCH_LIMIT caps selection sizes (widened for deep goals),
    SEARCH_BUDGET the recursion depth, SEARCH_STEPS the total nodes
    expanded.  The result carries no authority of its own; verify it."""
    return _search("le", a, bs, SEARCH_LIMIT, SEARCH_BUDGET)


def lt_cert(a: OrdName, bs) -> Certificate:
    """Search for a certificate of a < bs."""
    return _search("lt", a, bs, SEARCH_LIMIT, SEARCH_BUDGET)


def _search(kind: str, a: OrdName, bs, limit: int,
            budget: int) -> Certificate:
    st = _SearchState()
    try:
        return _settle(kind, a, _rhs(bs), limit, budget, st)
    finally:
        # Generated premises close over st, so a memo that outlived the
        # search would tie found certificates into reference cycles.
        st.memo.clear()
        st.done = True


def _spend(budget: int, st: _SearchState) -> None:
    """Charge one search step, naming the budget that ran out: the depth
    left to this goal or the steps left to the whole search."""
    if budget <= 0:
        raise _Spent("search budget exhausted: depth")
    if st.steps <= 0:
        raise _Spent("search budget exhausted: steps")
    st.steps -= 1


def _settle(kind: str, a: OrdName, bs: tuple, limit: int, budget: int,
            st: _SearchState) -> Certificate:
    """Certificate of a <= bs or a < bs (kind "le" or "lt"), memoized in
    st once found.  A goal posed after st's search returned is a search of
    its own."""
    if st.done:
        return _search(kind, a, bs, limit, budget)
    key = (kind, a.ident, tuple(sorted(b.ident for b in bs)))
    cert = st.memo.get(key)
    if cert is None:
        body = _le_body if kind == "le" else _lt_body
        cert = st.memo[key] = body(a, bs, limit, budget, st)
    return cert


def _refuted(kind: str, a: OrdName, bs: tuple) -> bool:
    """Do the Cantor normal forms refute a <= bs or a < bs (kind "le" or
    "lt")?  Only when a and every bound carry one: a missing form gives no
    opinion.  The answer only refuses; it confirms nothing."""
    ha = cnf.of(a)
    hbs = [cnf.of(b) for b in bs]
    if ha is None or None in hbs:
        return False
    order = cnf.cmp(ha, cnf.top(hbs))
    return order > 0 or order == 0 and kind == "lt"


def _finite_part(a: OrdName) -> int:
    """The finite part of a's ordinal as far as a's shape shows it: a
    finitary name's height, else the w^0 coefficient of its form, else 0.
    The natural n is first reached at member n of w, so a goal with finite
    part n needs selections at least n + 1 wide."""
    if a.height is not None:
        return a.height
    form = a.cnf
    return form[-1][1] if form and not form[-1][0] else 0


def _member_index(a: OrdName, b: OrdName, limit: int) -> Optional[int]:
    """The index of a among b's first limit members, or None."""
    if b.is_zero:
        return None
    for i in range(limit if b.arity is None else min(limit, b.arity)):
        if compare.child(b, i).ident == a.ident:
            return i
    return None


def _le_body(a: OrdName, bs: tuple, limit: int, budget: int,
             st: _SearchState) -> Certificate:
    _spend(budget, st)
    if _refuted("le", a, bs):
        raise CertSearchError(f"guidance refutes {a!r} <= {list(bs)!r}")
    if a.is_zero:
        return zero_le(bs)
    for j, b in enumerate(bs):
        if b.ident == a.ident:
            return _leaf("refl", a, bs, (j,))
    for j, b in enumerate(bs):
        i = _member_index(a, b, limit)
        if i is not None:
            return _leaf("member", a, bs, (j, i))

    def prem(i: int) -> Certificate:
        # deep premises may need selections about as wide as their index
        # or as their finite part, such as member i of k+w, the natural k+i
        member = compare.child(a, i)
        return _settle("lt", member, bs,
                       max(limit, i + 2, _finite_part(member) + 2),
                       budget - 1, st)

    if a.arity is None:
        # Only forms on both sides refute the members past the sweep, which
        # may outgrow the bounds there: ack(w,2,2) <= w*7 is false, yet its
        # first 48 members are below w*7.  A formless bound is no better:
        # w*2 <= sup(w+1, ..., w+49, ack(1,w,1)), which is ω+49, is false,
        # yet w+0, ..., w+48 are below it.
        if cnf.of(a) is None or any(cnf.of(b) is None for b in bs):
            raise CertSearchError(
                f"no normal form of {a!r} <= {list(bs)!r} vouches for the"
                " members past the sweep")
    cert = _le_node(a, bs, prem)
    if cert.generated:
        # An eventually constant family is settled by probing the constant
        # point and the start.  Otherwise sweep the whole index range the
        # selections can reach.  Families need not enumerate their members
        # in increasing size, so spot probes are not enough: every swept
        # member yields its premise now, whose search refuses what the
        # forms refute, and a member with no premise sinks the family.
        # Members beyond the sweep remain the caller's totality obligation,
        # as with any generator handed to le_intro.
        if a.arity is None:
            samples = range(max(limit, 2) + 1)
        else:
            samples = (0, 1, 2, a.arity - 1)
        for i in samples:
            cert.premise_at(i)
    return cert


def reach(b: OrdName, h: tuple, k: int) -> Optional[int]:
    """The index of the first of b's first k members whose Cantor normal
    form is at least h, or None: what a scan of those members from index 0
    would find, read off b's running largest forms.  The rows whose running
    form is measured are bisected; past them b's members are pulled one at
    a time, and none past the first that reaches h."""
    forms = b.forms
    if b.arity is not None:
        k = min(k, b.arity)
    cmp = cnf.cmp
    # running maxima never fall, so the rows measured so far are bisected
    n = min(k, len(forms))
    lo = bisect_left(forms, True, 0, n,
                     key=lambda f: f is not None and cmp(f, h) >= 0)
    if lo < n:
        return lo
    if not forms and k:
        forms = b.forms = []
    for r in range(len(forms), k):
        f = cnf.of(compare.child(b, r))
        if f is not None and cmp(f, h) >= 0:
            # every form before it is below h, so it is the new maximum
            forms.append(f)
            return r
        top = forms[-1] if forms else None
        if f is not None and (top is None or cmp(f, top) > 0):
            top = f
        forms.append(top)
    return None


def _steered(a: OrdName, bs: tuple, limit: int):
    """For each bound, the single-member selection of its first member
    (among the first limit) whose Cantor normal form reaches a's, when a and
    that member carry one.  reach keeps each bound's running largest form
    on the bound, so a goal bisects what earlier goals measured instead of
    rescanning the bound from index 0."""
    ha = cnf.of(a)
    if ha is None:
        return
    for j, b in enumerate(bs):
        i = reach(b, ha, limit)
        if i is not None:
            yield tuple((i,) if k == j else () for k in range(len(bs)))


def _lt_body(a: OrdName, bs: tuple, limit: int, budget: int,
             st: _SearchState) -> Certificate:
    _spend(budget, st)
    if _refuted("lt", a, bs):
        raise CertSearchError(f"guidance refutes {a!r} < {list(bs)!r}")
    # widen as prem does: the numeral 60 is first reached at member 60 of w
    spent = None
    for sels in _steered(a, bs, max(limit, _finite_part(a) + 2)):
        _spend(budget, st)
        try:
            inner = _settle("le", a, _selected(bs, sels), limit, budget - 1,
                            st)
        except CertSearchError as e:
            if st.steps <= 0:
                raise
            # a candidate that ran out of depth is the failure to report
            spent = spent or (e if isinstance(e, _Spent) else None)
            continue
        return lt_intro_sel(a, bs, sels, inner)
    raise spent or CertSearchError(
        f"no selection bounds {a!r} within {list(bs)!r}")


def eq_certs(a: OrdName, b: OrdName) -> Tuple[Certificate, Certificate]:
    """Certificates for both directions of a = b."""
    return le_cert(a, (b,)), le_cert(b, (a,))


def filtering_eq_certs(alpha: OrdName) -> Tuple[Certificate, Certificate]:
    """Certificates that alpha and filtering(alpha) name the same ordinal.

    The generic searchers cannot find these: the subset enumerated at
    position 2^i - 1 is the singleton {i}, far beyond any linear selection
    scan.  Each obligation is finitary, so the witnesses are written down
    directly: member i of alpha is bounded by the singleton-subset sup at
    position 2^i - 1, and a subset's sup is bounded by the member prefix
    reaching its largest element."""
    if alpha.is_zero:
        raise KernelError("filtering is defined on nodes")
    beta = filtering(alpha)
    size = alpha.index.size if isinstance(alpha.index, Fin) else None

    def fwd(i: int) -> Certificate:
        x = alpha.child(i)
        pos = 2 ** i - 1
        target = beta.child(pos)
        return lt_intro_sel(x, (beta,), ((pos,),), le_cert(x, (target,)))

    def back(n: int) -> Certificate:
        top = max(_mask_bits(n + 1))
        sel = tuple(range(top + 1))
        inner = le_cert(beta.child(n), tuple(alpha.child(j) for j in sel))
        return lt_intro_sel(beta.child(n), (alpha,), (sel,), inner)

    if size is not None:
        forward = le_intro(alpha, (beta,),
                           premises=tuple(fwd(i) for i in range(size)))
        backward = le_intro(beta, (alpha,),
                            premises=tuple(back(n)
                                           for n in range(2 ** size - 1)))
    else:
        forward = le_intro(alpha, (beta,), gen=fwd)
        backward = le_intro(beta, (alpha,), gen=back)
    return forward, backward
