"""Certificate kernel for comparison judgments.

A certificate is a tree (shared subtrees allowed) whose nodes each apply one
inference rule to premise certificates and claim a conclusion.  The checker
trusts three rules: ``le_intro`` and ``lt_intro``, the defining clauses of
<= and <, and ``weaken``; the other constructors (transitivity, cut, drop,
the successor and sup rules) are untrusted functions that build derivations
from those three.  ``verify`` walks a certificate and independently
rederives every visited conclusion from the rule and premises, so nothing
is trusted at construction time.  Premises below a naturally indexed
family are held as a generator, so certificates about infinitely branching
names are finite objects; verifying those requires a spot-check policy,
since an exhaustive walk is only meaningful when every branching is finite.
Each rule is one entry of a rule table read by a single walker,
``check_derivation``; the sequent calculus (``mlseq``) runs the same walker
over a table of its own.

``le_cert`` and ``lt_cert`` are untrusted searchers, steered toward a
certificate that is then checked like any other.  Where the names carry a
Cantor normal form (``cnf``), comparing the forms steers the search; where
one does not, the bounded comparison engine is probed instead.  A hint, like
a probe, only prunes, refuses or orders the steps tried: every step is still
built as a derivation, so a wrong hint can make a search fail but cannot
make ``verify`` accept a false claim.
"""

from __future__ import annotations

from itertools import chain, count, islice
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from . import cnf, compare
from .compare import FALSE, TRUE, Fuel, Judgment, TriBool
from .names import (Family, Fin, NAT, Index, OrdName, ZERO, _mask_bits,
                    filtering, suc, sup_decomposition, sup_finite, sup_order)


class KernelError(Exception):
    """A certificate constructor or verifier was used incorrectly."""


class CertSearchError(KernelError):
    """Certificate search failed to find a derivation."""


class Exhaustive:
    """Check every premise; legal only when all branching is finite."""

    __slots__ = ()

    def __eq__(self, other):
        return True if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(())

    def __repr__(self) -> str:
        return "Exhaustive()"


class _SpotCheckFields(NamedTuple):
    samples: Tuple[int, ...] = (0, 1, 2)
    depth: int = 64


class SpotCheck(_SpotCheckFields):
    """Check generated premises at these sample indices, to this depth."""

    __slots__ = ()

    def __new__(cls, samples: Tuple[int, ...] = (0, 1, 2),
                depth: int = 64) -> SpotCheck:
        if not samples:
            raise ValueError("spot check needs at least one sample")
        if any(s < 0 for s in samples):
            raise ValueError("sample indices must be nonnegative")
        return super().__new__(cls, samples, depth)


VerifyPolicy = object  # Exhaustive | SpotCheck


class Certificate:
    """One rule application.  Immutable by convention; compared by identity.

    Premises are a tuple, or a generator over gen_index whose results are
    cached.  The sequent calculus subclasses this type."""

    __slots__ = ("rule", "conclusion", "premises", "gen_index", "_gen",
                 "_gen_cache", "payload")

    def __init__(self, rule: str, conclusion: Judgment,
                 premises: Tuple["Certificate", ...] = (),
                 gen_index: Optional[Index] = None,
                 gen: Optional[Callable[[int], "Certificate"]] = None,
                 payload: tuple = ()):
        self.rule = rule
        self.conclusion = conclusion
        self.premises = premises
        self.gen_index = gen_index
        self._gen = gen
        self._gen_cache: dict = {}
        self.payload = payload

    @property
    def generated(self) -> bool:
        return self._gen is not None

    @property
    def kind(self) -> str:
        """The relation the rule concludes; rule tables match on it."""
        return self.conclusion.kind

    def premise_at(self, i: int) -> "Certificate":
        """Premise i, generated on first use; the verifier checks its type."""
        if self._gen is None:
            return self.premises[i]
        if i not in self.gen_index:
            raise IndexError(f"premise index {i!r} outside {self.gen_index!r}")
        hit = self._gen_cache.get(i)
        if hit is None:
            hit = self._gen_cache[i] = self._gen(i)
        return hit

    def __repr__(self) -> str:
        return f"<cert {self.rule}: {self.conclusion!r}>"


def _rhs(bs) -> Tuple[OrdName, ...]:
    bs = tuple(bs)
    if not bs or not all(isinstance(b, OrdName) for b in bs):
        raise KernelError("rhs must be a nonempty tuple of names")
    return bs


def _ids(names: Sequence[OrdName]) -> frozenset:
    return frozenset(n.ident for n in names)


def subordinal_premises(x: OrdName, premises=None, gen=None) -> dict:
    """The premise slots of a rule with one premise per subordinal of x
    (le_intro, and R2 of the sequent calculus): none for zero, a tuple for
    finite branching, a generator over the naturals otherwise."""
    if x.is_zero:
        if premises or gen:
            raise KernelError("zero takes no premises")
        return {}
    if isinstance(x.index, Fin):
        if gen is not None or premises is None:
            raise KernelError("finitely branching name takes a premise tuple")
        premises = tuple(premises)
        if len(premises) != x.index.size:
            raise KernelError(
                f"need {x.index.size} premises, got {len(premises)}")
        return {"premises": premises}
    if gen is None or premises:
        raise KernelError("naturally indexed name takes a premise generator")
    return {"gen_index": NAT, "gen": gen}


def subordinal_arity(x: OrdName, c: Certificate) -> Optional[str]:
    """The verifier's side of subordinal_premises: a failure reason, or
    None when c's premises have the shape x's subordinals demand."""
    if x.is_zero:
        fits = not c.premises and not c.generated
    elif isinstance(x.index, Fin):
        fits = not c.generated and len(c.premises) == x.index.size
    else:
        fits = c.generated
    return None if fits else "one premise per subordinal"


# ---------------------------------------------------------------------------
# constructors


def le_intro(a: OrdName, bs, premises: Optional[Sequence[Certificate]] = None,
             gen: Optional[Callable[[int], Certificate]] = None) -> Certificate:
    """a <= bs from one strict bound per subordinal of a."""
    return Certificate("le_intro", Judgment("le", a, _rhs(bs)),
                       **subordinal_premises(a, premises, gen))


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


def _selected(bs: Tuple[OrdName, ...], selections) -> Tuple[OrdName, ...]:
    return tuple(b.child(i) for b, s in zip(bs, selections) for i in s)


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


_refl_cache: dict = {}


def refl(a: OrdName) -> Certificate:
    """a <= [a], built by mutual recursion with a < [a] at each subordinal."""
    hit = _refl_cache.get(a.ident)
    if hit is None:
        hit = _refl_cache[a.ident] = _le_node(a, (a,), lambda i: lt_intro_sel(
            a.child(i), (a,), ((i,),), refl(a.child(i))))
    return hit


def weaken(p: Certificate, extra) -> Certificate:
    """Enlarge the bound set; the judgment only gets easier."""
    extra = _rhs(extra)
    c = p.conclusion
    return Certificate("weaken", Judgment(c.kind, c.lhs, c.rhs + extra),
                       (p,), payload=extra)


# ---------------------------------------------------------------------------
# derived rules
#
# Untrusted: everything below builds derivations from le_intro, lt_intro and
# weaken alone.  Bounds are matched by ident, not position, since a premise's
# bound set need only be set-equal to its parent's.  Premises below a
# naturally indexed name are built lazily; recursions descend the lhs.


def _expect(cert: Certificate, kind: str, role: str) -> Judgment:
    if type(cert) is not Certificate:
        raise KernelError(f"{role} is not a certificate")
    if cert.conclusion.kind != kind:
        raise KernelError(f"{role} must conclude a {kind} judgment")
    return cert.conclusion


def _unweaken(p: Certificate, kind: str) -> Certificate:
    """p's claim against part of p's bounds, by kind's defining rule."""
    _expect(p, kind, "premise")
    while p.rule == "weaken":
        p = p.premises[0] if len(p.premises) == 1 else None
        _expect(p, kind, "weakened premise")
    if p.rule != kind + "_intro":
        raise KernelError(f"not a {kind}_intro derivation")
    return p


def _le_premise(p: Certificate, i: int) -> Certificate:
    """From p: x <= B, x.child(i) < (part of B)."""
    q = _unweaken(p, "le")
    r = q.premise_at(i) if not subordinal_arity(q.conclusion.lhs, q) else None
    if type(r) is not Certificate or _check_le_premise(q, i, r):
        raise KernelError(f"premise {i} of the le_intro does not fit it")
    return r


def _lt_parts(p: Certificate) -> Tuple[list, Certificate]:
    """From p: x < B, the selected (bound, index) pairs and x <= them."""
    q = _unweaken(p, "lt")
    inner = q.premises[0] if len(q.premises) == 1 else None
    _expect(inner, "le", "inner premise")
    try:
        reason = _check_lt_intro(q, (inner.conclusion,))
    except (TypeError, ValueError) as e:
        reason = f"malformed payload: {e!r}"
    if reason:
        raise KernelError(reason)
    pairs = [(b, i) for b, s in zip(q.conclusion.rhs, q.payload) for i in s]
    return pairs, inner


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


def _member_le(b: OrdName, i: int) -> Certificate:
    """b.child(i) <= [b]: its subordinals are below b by the selection {i}."""
    y = b.child(i)
    return _le_node(y, (b,), lambda k: lt_intro_sel(
        y.child(k), (b,), ((i,),), _member_le(y, k)))


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
    if len(c.rhs) != 1 or c.rhs[0].index != Fin(1):
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
    if c.lhs.index != Fin(1):
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
# verification


class VerifyReport:
    __slots__ = ("ok", "visited", "failures")

    def __init__(self, ok: bool, visited: int = 0,
                 failures: Optional[List[Tuple[str, str]]] = None):
        self.ok = ok
        self.visited = visited
        self.failures = [] if failures is None else failures

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.ok, self.visited, self.failures)
                == (other.ok, other.visited, other.failures))

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return (f"VerifyReport(ok={self.ok!r}, visited={self.visited!r},"
                f" failures={self.failures!r})")

    def fail(self, path: str, reason: str) -> None:
        self.ok = False
        self.failures.append((path, reason))


class Rule(NamedTuple):
    """One rule of a calculus, as the verifier rederives it.

    kinds lists the kinds of a fixed premise tuple (None in a slot: any
    kind), or is None when check decides the premise count itself.  concl
    is the kind the rule concludes (None: any).  check(c, ps) gets ps, the
    conclusions of a fixed premise tuple; premise(c, i, p) checks premise i
    before the walk descends into it.  Both return a failure reason, or
    None."""

    kinds: Optional[Tuple[Optional[str], ...]]
    concl: Optional[str]
    check: Callable[[Certificate, tuple], Optional[str]]
    premise: Optional[Callable[[Certificate, int, Certificate],
                               Optional[str]]] = None


def check_derivation(cert: Certificate, policy: VerifyPolicy, cls: type,
                     rules: dict) -> VerifyReport:
    """Walk a derivation whose nodes must all be of type cls, rederiving
    every visited node from its entry in rules.

    Exhaustive visits everything, each shared subtree once, and is rejected
    outright on certificates with generated premises.  SpotCheck visits
    finite premises exhaustively and generated ones at the sample indices,
    descending at most its depth; a shared premise is walked once, from the
    shallowest depth any path reaches it at, since that walk goes at least
    as far down as any other.  A premise that cannot be generated, or is
    not of type cls, fails at its own path and is not descended into; a
    rule check that raises on a malformed payload fails its node."""
    report = VerifyReport(ok=True)
    spot = policy if isinstance(policy, SpotCheck) else None
    if spot is None and not isinstance(policy, Exhaustive):
        raise KernelError(f"unknown verification policy: {policy!r}")
    foreign = f"not a certificate of this calculus ({cls.__name__})"
    # id of each node walked: the node, held so that a generated premise is
    # not freed and its id reused while the walk lasts, and the depth
    walked: dict = {}

    def guarded(check: Callable[..., Optional[str]], *args) -> Optional[str]:
        try:
            return check(*args)
        except RecursionError:
            raise
        except Exception as e:
            return f"malformed payload: {e!r}"

    def local(c: Certificate) -> Optional[str]:
        rule = rules.get(c.rule)
        if rule is None:
            return f"unknown rule {c.rule!r}"
        if rule.concl is not None and c.kind != rule.concl:
            return f"{c.rule} concludes {rule.concl}"
        if rule.kinds is None:
            return guarded(rule.check, c, ())
        if c.generated or len(c.premises) != len(rule.kinds):
            return f"{c.rule} takes {len(rule.kinds)} premises"
        if any(type(p) is not cls for p in c.premises):
            return f"a premise is {foreign}"
        if any(k is not None and p.kind != k
               for p, k in zip(c.premises, rule.kinds)):
            return "premise kinds do not fit the rule"
        return guarded(rule.check, c,
                       tuple(p.conclusion for p in c.premises))

    def walk(c: Certificate, path: str, depth: int) -> None:
        if spot is not None and depth > spot.depth:
            return
        prior = walked.get(id(c))
        if prior is not None and (spot is None or prior[1] <= depth):
            return
        walked[id(c)] = (c, depth)
        report.visited += 1
        msg = foreign if type(c) is not cls else local(c)
        if msg is not None:
            report.fail(path, msg)
            return
        if c.generated:
            if spot is None:
                raise KernelError(
                    "exhaustive verification is only meaningful for "
                    "finitely branching certificates; use SpotCheck")
            indices = [s for s in spot.samples if s in c.gen_index]
            if not indices:
                report.fail(path, "no sample index fits the premise family")
                return
        else:
            indices = range(len(c.premises))
        check = rules[c.rule].premise
        for i in indices:
            sub = f"{path}.{i}"
            try:
                p = c.premise_at(i)
            except RecursionError:
                raise
            except Exception as e:
                report.fail(sub, f"premise generation failed: {e!r}")
                continue
            if type(p) is not cls:
                msg = foreign
            else:
                msg = guarded(check, c, i, p) if check is not None else None
            if msg is not None:
                report.fail(sub, msg)
                continue
            walk(p, sub, depth + 1)

    try:
        walk(cert, "root", 0)
    finally:
        # walk is a closure that refers to itself, a cycle that would keep
        # the map, and the premises it holds, alive until a full collection
        walked.clear()
    return report


def _unless(holds: bool, reason: str) -> Optional[str]:
    return None if holds else reason


def _check_le_premise(c: Certificate, i: int, p: Certificate) -> Optional[str]:
    """Premise i of an le_intro concludes subordinal i of the lhs strictly
    below the node's own bound set."""
    p = p.conclusion
    if p.kind != "lt":
        return f"premise {i} must conclude lt"
    if p.lhs.ident != c.conclusion.lhs.child(i).ident:
        return f"premise {i} is not about member {i}"
    return _unless(_ids(p.rhs) == _ids(c.conclusion.rhs),
                   f"premise {i} bounds by the wrong set")


def _check_lt_intro(c: Certificate, ps: tuple) -> Optional[str]:
    concl, sels = c.conclusion, c.payload
    if len(sels) != len(concl.rhs) or all(not s for s in sels):
        return "selections malformed"
    if any(b.is_zero or i not in b.index
           for b, s in zip(concl.rhs, sels) for i in s):
        return "selection index invalid"
    inner = ps[0]
    return _unless(inner.lhs.ident == concl.lhs.ident
                   and _ids(inner.rhs) == _ids(_selected(concl.rhs, sels)),
                   "inner premise does not bound by the selection")


def _check_weaken(c: Certificate, ps: tuple) -> Optional[str]:
    cp, concl = ps[0], c.conclusion
    return _unless(cp.kind == concl.kind and cp.lhs.ident == concl.lhs.ident
                   and _ids(concl.rhs) == _ids(cp.rhs) | _ids(c.payload),
                   "weaken changes only the bound set")


# The trusted rules: the two defining clauses of <= and <, and weakening.
_RULES = {
    "le_intro": Rule(None, "le",
                     lambda c, ps: subordinal_arity(c.conclusion.lhs, c),
                     _check_le_premise),
    "lt_intro": Rule(("le",), "lt", _check_lt_intro),
    "weaken": Rule((None,), None, _check_weaken),
}


def verify(cert: Certificate, policy: VerifyPolicy = Exhaustive()) -> VerifyReport:
    """Walk the certificate and rederive every visited conclusion; the
    policies are those of check_derivation."""
    return check_derivation(cert, policy, Certificate, _RULES)


def incompatible(p: Certificate, q: Certificate) -> bool:
    """Do the two conclusions assert b <= [a] and a < [b] for one pair?
    Sound verification can never accept both."""
    cp, cq = p.conclusion, q.conclusion
    for x, y in ((cp, cq), (cq, cp)):
        if (x.kind == "le" and y.kind == "lt"
                and len(x.rhs) == 1 and len(y.rhs) == 1
                and x.lhs.ident == y.rhs[0].ident
                and y.lhs.ident == x.rhs[0].ident):
            return True
    return False


# ---------------------------------------------------------------------------
# certificate search


def _gen_probe(gen: Callable[[int], Certificate], samples) -> None:
    for s in samples:
        gen(s)


# Engine guidance during search only prunes and ranks candidates, so it runs
# on deliberately small fuel; the certificate that comes out is checked by
# verify like any other.  The step cap is tight because an unknown that
# takes long to report starves the search worse than a missed pruning.
SEARCH_FUEL = Fuel(width=16, depth=128, steps=2_000)

# search nodes one le_cert/lt_cert call may expand before giving up
SEARCH_STEPS = 6_000


class _SearchState:
    """Bookkeeping shared across one le_cert/lt_cert invocation: the step
    counter and a memo of settled subproblems.  Identical subgoals recur
    heavily (sibling candidates peel the same spines), so both found
    certificates and naturally failed goals are cached.  start is the
    call's step allowance; done marks a search that has returned."""

    __slots__ = ("steps", "memo", "start", "done")

    def __init__(self, steps: int):
        self.steps = self.start = steps
        self.memo: dict = {}
        self.done = False


_DEAD_END = object()


def _memo_get(st: _SearchState, key: tuple, limit: int):
    entry = st.memo.get(key)
    if entry is None:
        return None
    if entry[0] == "ok":
        return entry[1]
    # a failure with at least as many candidates available covers this query
    return _DEAD_END if entry[1] >= limit else None


def _memo_fail(st: _SearchState, key: tuple, limit: int) -> None:
    entry = st.memo.get(key)
    if entry is not None and entry[0] == "ok":
        return
    prev = entry[1] if entry is not None else -1
    st.memo[key] = ("fail", max(prev, limit))


def le_cert(a: OrdName, bs, fuel: Fuel = SEARCH_FUEL, limit: int = 48,
            budget: int = 256, steps: int = SEARCH_STEPS) -> Certificate:
    """Search for a certificate of a <= bs, steered by CNF hints or the
    engine.

    limit caps selection sizes (scaled up for deep premises), budget the
    recursion depth, steps the total nodes expanded.  The result carries no
    authority of its own; verify it."""
    return _search("le", a, bs, fuel, limit, budget, steps)


def lt_cert(a: OrdName, bs, fuel: Fuel = SEARCH_FUEL, limit: int = 48,
            budget: int = 256, steps: int = SEARCH_STEPS) -> Certificate:
    """Search for a certificate of a < bs."""
    return _search("lt", a, bs, fuel, limit, budget, steps)


def _search(kind: str, a: OrdName, bs, fuel: Fuel, limit: int, budget: int,
            steps: int) -> Certificate:
    st = _SearchState(steps)
    try:
        return _settle(kind, a, _rhs(bs), fuel, limit, budget, st)
    finally:
        # Generated premises close over st, so a memo that outlived the
        # search would tie found certificates into reference cycles.
        st.memo.clear()
        st.done = True


def _spend(budget: int, st: _SearchState) -> None:
    if budget <= 0 or st.steps <= 0:
        raise CertSearchError("search budget exhausted")
    st.steps -= 1


def _settle(kind: str, a: OrdName, bs: tuple, fuel: Fuel, limit: int,
            budget: int, st: _SearchState) -> Certificate:
    """Certificate of a <= bs or a < bs (kind "le" or "lt"), memoized in
    st: found certificates, and failures with the selection limit tried.
    A goal posed after st's search returned is a search of its own."""
    if st.done:
        return _search(kind, a, bs, fuel, limit, budget, st.start)
    key = (kind, a.ident, tuple(sorted(b.ident for b in bs)))
    hit = _memo_get(st, key, limit)
    if hit is not None:
        if hit is _DEAD_END:
            op = "<=" if kind == "le" else "<"
            raise CertSearchError(f"known dead end: {a!r} {op} {list(bs)!r}")
        return hit
    body = _le_body if kind == "le" else _lt_body
    try:
        cert = body(a, bs, fuel, limit, budget, st)
    except CertSearchError:
        # budget- or step-starved failures are circumstance, not verdict
        if st.steps > 0 and budget > 0:
            _memo_fail(st, key, limit)
        raise
    st.memo[key] = ("ok", cert)
    return cert


def _hints(a: OrdName, bs: tuple) -> Optional[Tuple[tuple, tuple]]:
    """The Cantor normal forms of a and of the largest bound, or None unless
    a and every bound carry one."""
    ha = cnf.of(a)
    if ha is None:
        return None
    hbs = [cnf.of(b) for b in bs]
    if None in hbs:
        return None
    return ha, cnf.top(hbs)


def _guide(kind: str, a: OrdName, bs: tuple, fuel: Fuel) -> TriBool:
    """Whether a <= bs or a < bs (kind "le" or "lt") looks worth a search:
    by the names' Cantor normal forms when a and every bound carry one,
    else by the engine at fuel.  The answer only prunes and refuses."""
    h = _hints(a, bs)
    if h is None:
        return (compare.le if kind == "le" else compare.lt)(a, bs, fuel)
    order = cnf.cmp(*h)
    return TRUE if (order < 0 or order == 0 and kind == "le") else FALSE


def _le_body(a: OrdName, bs: tuple, fuel: Fuel, limit: int, budget: int,
             st: _SearchState) -> Certificate:
    _spend(budget, st)
    if _guide("le", a, bs, fuel).is_false:
        raise CertSearchError(f"guidance refutes {a!r} <= {list(bs)!r}")
    if a.is_zero:
        return zero_le(bs)
    if any(b.ident == a.ident for b in bs):
        c = refl(a)
        extra = tuple(b for b in bs if b.ident != a.ident)
        return weaken(c, extra) if extra else c
    memo: dict = {}

    def prem(i: int) -> Certificate:
        if i not in memo:
            # deep premises may need selections about as wide as their index
            # or, for successor stacks such as member i of k+w, as their stack
            member = compare.child(a, i)
            memo[i] = _settle("lt", member, bs, fuel,
                                 max(limit, i + 2, member.stack + 2),
                                 budget - 1, st)
        return memo[i]

    if isinstance(a.index, Fin):
        return le_intro(a, bs, premises=tuple(
            prem(i) for i in range(a.index.size)))
    cf = a.family.const_from
    if cf is None and all(b.is_finitary for b in bs):
        # Against purely finitary bounds a naturally indexed family either
        # gets refuted by the engine or needs a totality argument the
        # sampled premise checks cannot supply; guessing a generator here
        # can smuggle in a premise that fails beyond the samples.
        raise CertSearchError(
            f"no finite evidence that every member of {a!r} stays below"
            " finitary bounds")
    if cf is not None:
        # An eventually constant family is settled by probing the constant
        # point and the start.
        _gen_probe(prem, (0, 1, 2, cf))
        return le_intro(a, bs, gen=prem)
    # Sweep the whole index range the selections can reach.  Families need
    # not enumerate their members in increasing size, so spot probes are
    # not enough: every member the engine cannot confirm below the bounds
    # must yield a premise certificate now, and a refuted member sinks the
    # family.  A hint confirms nothing, so a hinted member always yields
    # its premise, whose search asks the hint first and refuses what it
    # refutes.  Members beyond the sweep remain the caller's totality
    # obligation, as with any generator handed to le_intro.
    for n in range(limit + 1):
        member = compare.child(a, n)
        if _hints(member, bs) is not None:
            prem(n)
            continue
        verdict = compare.lt(member, bs, fuel)
        if verdict.is_false:
            raise CertSearchError(
                f"member {n} of {a!r} is not below {list(bs)!r}")
        if not verdict.is_true:
            prem(n)
    _gen_probe(prem, (0, 1, 2))
    return le_intro(a, bs, gen=prem)


def _single(bs: tuple, j: int, i: int) -> tuple:
    """The selection of member i of bound j alone."""
    return tuple((i,) if k == j else () for k in range(len(bs)))


def _steered(a: OrdName, bs: tuple, limit: int):
    """For each bound, the single-member selection of its first member
    (among the first limit) whose Cantor normal form reaches a's, when a and
    that member carry one.  Each bound's running largest form is kept on
    its member table, the one the engine reads for that name
    (compare.reach), so a goal bisects what earlier goals of the search
    measured instead of rescanning the bound from index 0."""
    ha = cnf.of(a)
    if ha is None:
        return
    for j, b in enumerate(bs):
        i = compare.reach(b, ha, limit)
        if i is not None:
            yield _single(bs, j, i)


def _ranked(a: OrdName, bs: tuple, limit: int):
    """Selection tuples to try, ranked by successor stack, the tallest stack
    among the members a selection takes: selections at least as tall as the
    goal come first, closest fit leading; too-short ones follow, tallest
    first.  Ties keep generation order: single members (they catch shared
    structure through the identity shortcut), then widening prefixes, whose
    stacks are running maxima over their rows (row r holds member r of each
    bound).  The members are read off each bound's member table, the one
    the engine reads for that name (compare.members).  Nothing is ranked
    until the first is asked for."""
    stacks = [[m.stack for m in compare.members(b, limit)] for b in bs]
    arities = [len(column) for column in stacks]
    candidates = []
    for j, column in enumerate(stacks):
        for i, dm in enumerate(column):
            candidates.append((_single(bs, j, i), dm))
    dm = -1
    for m in range(1, max(arities, default=0) + 1):
        dm = max([dm] + [c[m - 1] for c in stacks if m <= len(c)])
        candidates.append((tuple(tuple(range(min(m, k))) for k in arities),
                           dm))
    da = a.stack
    rank: dict = {}
    for order, (sels, dm) in enumerate(candidates):
        if sels not in rank and any(sels):
            rank[sels] = (0, dm, order) if dm >= da else (1, -dm, order)
    yield from sorted(rank, key=rank.get)


def _lt_body(a: OrdName, bs: tuple, fuel: Fuel, limit: int, budget: int,
             st: _SearchState) -> Certificate:
    _spend(budget, st)
    if _guide("lt", a, bs, fuel).is_false:
        raise CertSearchError(f"guidance refutes {a!r} < {list(bs)!r}")
    for sels in chain(_steered(a, bs, limit), _ranked(a, bs, limit)):
        _spend(budget, st)
        try:
            inner = _settle("le", a, _selected(bs, sels), fuel, limit,
                            budget - 1, st)
        except CertSearchError:
            if st.steps <= 0:
                raise
            continue
        return lt_intro_sel(a, bs, sels, inner)
    raise CertSearchError(f"no selection bounds {a!r} within {list(bs)!r}")


def eq_certs(a: OrdName, b: OrdName, fuel: Fuel = SEARCH_FUEL,
             limit: int = 48) -> Tuple[Certificate, Certificate]:
    """Certificates for both directions of a = b."""
    return le_cert(a, (b,), fuel, limit), le_cert(b, (a,), fuel, limit)


def filtering_eq_certs(alpha: OrdName,
                       fuel: Fuel = SEARCH_FUEL) -> Tuple[Certificate,
                                                          Certificate]:
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
        inner = refl(x) if target.ident == x.ident else \
            le_cert(x, (target,), fuel)
        return lt_intro_sel(x, (beta,), ((pos,),), inner)

    def back(n: int) -> Certificate:
        top = max(_mask_bits(n + 1))
        sel = tuple(range(top + 1))
        inner = le_cert(beta.child(n), tuple(alpha.child(j) for j in sel),
                        fuel)
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


# ---------------------------------------------------------------------------
# serialization


def serialize(cert: Certificate) -> str:
    """Line-oriented text for finite certificates: one numbered node per
    line, premises before conclusions.  Generator-backed certificates have
    no finite listing and are rejected."""
    from .names import format_name

    order: List[Certificate] = []
    number: dict = {}

    def visit(c: Certificate) -> int:
        if id(c) in number:
            return number[id(c)]
        if c.generated:
            raise KernelError("cannot serialize a generator-backed certificate")
        refs = [visit(p) for p in c.premises]
        n = len(order)
        number[id(c)] = n
        order.append((c, refs))
        return n

    visit(cert)
    lines = []
    for n, (c, refs) in enumerate(order):
        j = c.conclusion
        op = "<=" if j.kind == "le" else "<"
        rhs = ", ".join(format_name(b) for b in j.rhs)
        extra = ""
        if c.rule == "lt_intro":
            extra = " sel " + "|".join(
                ",".join(str(i) for i in s) for s in c.payload)
        body = f"{format_name(j.lhs)} {op} {rhs}{extra}"
        lines.append(f"{n}: {c.rule}({body})" + "{" +
                     ",".join(str(r) for r in refs) + "}")
    return "\n".join(lines) + "\n"
