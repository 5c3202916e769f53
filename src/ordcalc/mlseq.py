"""A two-rule sequent calculus of comparison atoms, and its derivability.

Sequents are finite sets of atoms a < b, a <= b, read disjunctively.  The
calculus has exactly two rules, each keeping an arbitrary side context G:

  R1:  from  G, a <= w_n   infer  G, a < w      (n any index of node w)
  R2:  from  G, w_i < b  for every i  infer  G, w <= b

Zero has no subordinals, so R2 gives every sequent containing 0 <= b outright.

``ml_derivable`` decides derivability of finitary sequents by a forward
closure that tracks the minimal derivable sequents; side contexts make
derivability upward closed, so tracking minima loses nothing.  On finitary
names these minima are single atoms (the invariant ``ml_derivable``
proves), so no sequent the closure stores subsumes another.  The closure
is a semi-naive worklist: each new sequent meets the known ones once,
through an index from atom to the stored sequents holding it.  It is
goal-directed: both rules carry every non-principal atom of a premise into
the conclusion, so only sequents whose atoms can each be rewritten into a
goal atom can lead to the goal, and the closure applies no rule to any
other (the magic-sets restriction of a bottom-up closure to what can reach
the query, Bancilhon, Maier, Sagiv & Ullman, 1986).  Certificates
mirror the two rules.  They are the checker's certificates with a sequent
as conclusion, built and checked by the checker's code: R2 shares
le_intro's one premise per subordinal (generator-backed below a naturally
indexed node, and spot-checked there), and ``ml_verify`` is the checker's
walker run over a two-entry rule table.
"""

from __future__ import annotations

from itertools import product
from typing import (Callable, FrozenSet, Iterable, List, NamedTuple, Optional,
                    Tuple)

from .checker import (Certificate, Exhaustive, KernelError, Rule,
                      VerifyReport, check_derivation, subordinal_arity)
from .names import BitSeq, OrdName, ZERO, eps_lpo, structural_depth, und


class _AtomFields(NamedTuple):
    lhs: OrdName
    rel: str  # "lt" | "le"
    rhs: OrdName


class Atom(_AtomFields):
    __slots__ = ()

    def __new__(cls, lhs: OrdName, rel: str, rhs: OrdName) -> Atom:
        if rel not in ("lt", "le"):
            raise ValueError(f"bad atom relation {rel!r}")
        return super().__new__(cls, lhs, rel, rhs)

    def __repr__(self) -> str:
        op = "<" if self.rel == "lt" else "<="
        return f"{self.lhs!r} {op} {self.rhs!r}"


Sequent = FrozenSet[Atom]


def sequent(atoms: Iterable[Atom]) -> Sequent:
    s = frozenset(atoms)
    if not s:
        raise ValueError("a sequent needs at least one atom")
    return s


# ---------------------------------------------------------------------------
# derivability on finitary sequents


def _universe(goal: Sequent) -> List[OrdName]:
    """Subterm closure of the names in the goal, zero included."""
    seen: dict = {}

    def walk(n: OrdName) -> None:
        if n.ident in seen:
            return
        if not n.is_finitary:
            raise ValueError("derivability search needs finitary names")
        seen[n.ident] = n
        if not n.is_zero:
            for i in range(n.index.size):
                walk(n.child(i))

    walk(ZERO)
    for atom in goal:
        walk(atom.lhs)
        walk(atom.rhs)
    return list(seen.values())


def ml_derivable(goal: Sequent) -> bool:
    """Is the sequent derivable by the two rules?

    Saturates the set of minimal derivable sequents over the goal's subterm
    universe by a semi-naive worklist: seeds are the zero-rule instances
    {0 <= b}, and each sequent, once popped, meets the known ones only
    through an index from atom to the stored sequents containing it.  R1
    rewrites one of its non-strict atoms; R2 puts it in one subordinal slot
    and fills the others from the index.  Atoms are coded as ints over the
    universe.  The universe is finite, so the closure terminates.

    Every sequent pushed is a single atom, by induction on the rules: each
    seed is one, R1 swaps a singleton's one atom for another, and R2's
    conclusion is its head plus what each slot's sequent holds besides its
    slot atom, which for a singleton is nothing.  Distinct singletons never
    subsume each other, so no stored sequent is ever made redundant by a
    later one.  The answer does not rest on this: every stored sequent is
    derivable, and every pushed one is popped and tested against the goal,
    so an empty queue means no derivation of the goal was found.

    Only sequents of *useful* atoms, those some chain of rewrites turns into
    a goal atom, are stored: read backwards, R1 makes x <= c useful for
    x < w and each child c of w, and R2 makes c < y useful for x <= y and
    each child c of x.  Both rules carry every non-principal atom of a
    premise into the conclusion, so a sequent holding a useless atom derives
    only sequents that hold one, none of them a subset of the goal.  Nor
    does storing it help elsewhere: it subsumes only sequents that hold its
    useless atom, and it fills R2 slots only in conclusions that are useless
    themselves, since a useful head w <= y makes every slot atom c < y
    useful.  So push drops it, which loses no derivation of the goal, and a
    goal with no useful seed is refused without applying a rule.
    """
    goal = sequent(goal)
    names = _universe(goal)
    size = len(names)
    pos = {n.ident: p for p, n in enumerate(names)}

    def code(x: int, y: int, strict: int) -> int:
        return (x * size + y) * 2 + strict

    kids = {pos[w.ident]: [pos[w.child(i).ident] for i in range(w.index.size)]
            for w in names if not w.is_zero}
    parents: dict = {}
    for w, cs in kids.items():
        for i, c in enumerate(cs):
            parents.setdefault(c, []).append((w, i))
    target = frozenset(code(pos[a.lhs.ident], pos[a.rhs.ident], a.rel == "lt")
                       for a in goal)

    useful = set(target)
    todo = list(target)
    while todo:
        atom = todo.pop()
        x, y = divmod(atom >> 1, size)
        if atom & 1:  # R1 backwards: x < y comes from x <= c, c a child of y
            more = [code(x, c, 0) for c in kids.get(y, ())]
        else:  # R2 backwards: x <= y comes from c < y, c each child of x
            more = [code(c, y, 1) for c in kids.get(x, ())]
        for a in more:
            if a not in useful:
                useful.add(a)
                todo.append(a)

    index: dict = {}  # atom -> the stored sequents containing it
    queue: List[FrozenSet[int]] = []

    def push(s: FrozenSet[int]) -> None:
        if not s <= useful or any(m <= s for a in s for m in index.get(a, ())):
            return
        for a in s:
            index.setdefault(a, set()).add(s)
        queue.append(s)

    for b in range(size):
        push(frozenset({code(pos[ZERO.ident], b, 0)}))

    while queue:
        s = queue.pop()
        if s <= target:
            return True
        for atom in s:
            x, y = divmod(atom >> 1, size)
            if not atom & 1:  # R1: x <= y becomes x < w for each parent w of y
                for w, _ in parents.get(y, ()):
                    push((s - {atom}) | {code(x, w, 1)})
                continue
            for w, i in parents.get(x, ()):  # R2: s fills slot i of w <= y
                qs = [code(c, y, 1) for c in kids[w]]
                slots = [[s] if j == i else list(index.get(q, ()))
                         for j, q in enumerate(qs)]
                head = code(w, y, 0)
                for combo in product(*slots):
                    gamma = {head}
                    for m, q in zip(combo, qs):
                        gamma |= m - {q}
                    push(frozenset(gamma))
    return False


# ---------------------------------------------------------------------------
# certificates


class MlCertificate(Certificate):
    """One rule application on sequents: a checker certificate whose
    conclusion is a sequent, plus the principal atom and R1's choice."""

    __slots__ = ("principal", "choice")

    def __init__(self, rule: str, conclusion: Sequent, principal: Atom,
                 choice: Optional[int] = None,
                 premises: Tuple["MlCertificate", ...] = (),
                 gen: Optional[Callable[[int], "MlCertificate"]] = None):
        super().__init__(rule, conclusion, premises, gen)
        self.principal = principal
        self.choice = choice

    @property
    def kind(self) -> str:
        """The principal atom's relation: R1 concludes lt, R2 le."""
        return self.principal.rel

    def __repr__(self) -> str:
        return f"<mlcert {self.rule} |{len(self.conclusion)} atoms|>"


def ml_r1(conclusion: Iterable[Atom], principal: Atom, n: int,
          premise: MlCertificate) -> MlCertificate:
    """R1: conclusion contains principal a < w; the premise sequent carries
    a <= w_n instead."""
    conclusion = sequent(conclusion)
    if principal.rel != "lt" or principal not in conclusion:
        raise KernelError("principal must be a strict atom of the conclusion")
    w = principal.rhs
    if w.is_zero or n not in w.index:
        raise KernelError(f"index {n} invalid for the principal bound")
    return MlCertificate("r1", conclusion, principal, choice=n,
                         premises=(premise,))


def ml_r2(conclusion: Iterable[Atom], principal: Atom,
          premises: Optional[Tuple[MlCertificate, ...]] = None,
          gen: Optional[Callable[[int], MlCertificate]] = None) -> MlCertificate:
    """R2: conclusion contains principal w <= b; one premise per subordinal
    of w carries w_i < b instead."""
    conclusion = sequent(conclusion)
    if principal.rel != "le" or principal not in conclusion:
        raise KernelError("principal must be a non-strict atom of the conclusion")
    c = MlCertificate("r2", conclusion, principal,
                      premises=() if premises is None else tuple(premises),
                      gen=gen)
    reason = subordinal_arity(principal.lhs, c)
    if reason is not None:
        raise KernelError(reason)
    return c


def _check_r1(c: MlCertificate, ps: tuple) -> Optional[str]:
    p, n, premise = c.principal, c.choice, ps[0]
    w = p.rhs
    if p not in c.conclusion:
        return "principal missing from the conclusion"
    if w.is_zero or n is None or n not in w.index:
        return "choice index invalid"
    q = Atom(p.lhs, "le", w.child(n))
    if q not in premise:
        return "premise lacks the replaced atom"
    if not (premise - {q} <= c.conclusion):
        return "premise context exceeds the conclusion"
    if not (c.conclusion - {p} <= premise):
        return "conclusion context exceeds the premise"
    return None


def _check_r2(c: MlCertificate, ps: tuple) -> Optional[str]:
    if c.principal not in c.conclusion:
        return "principal missing from the conclusion"
    return subordinal_arity(c.principal.lhs, c)


def _check_r2_premise(c: MlCertificate, i: int,
                      prem: MlCertificate) -> Optional[str]:
    p, premise = c.principal, prem.conclusion
    q = Atom(p.lhs.child(i), "lt", p.rhs)
    gamma = c.conclusion - {p}
    if q not in premise:
        return f"premise {i} lacks its subordinal atom"
    if not (premise - {q} <= gamma):
        return f"premise {i} context exceeds the conclusion's"
    if not (gamma <= premise):
        return f"premise {i} drops part of the context"
    return None


_RULES = {
    "r1": Rule((None,), "lt", _check_r1),
    "r2": Rule(None, "le", _check_r2, _check_r2_premise),
}


def ml_verify(cert: MlCertificate, policy=Exhaustive()) -> VerifyReport:
    """Rederive every visited rule instance; the checker's walker and
    policies (checker.check_derivation)."""
    return check_derivation(cert, policy, MlCertificate, _RULES)


# ---------------------------------------------------------------------------
# certificate builders for true finitary atoms


def _cert_le_atom(x: OrdName, y: OrdName, side: Sequent) -> MlCertificate:
    if structural_depth(x) > structural_depth(y):
        raise KernelError(f"cannot derive {x!r} <= {y!r}")
    head = Atom(x, "le", y)
    concl = side | {head}
    if x.is_zero:
        return ml_r2(concl, head)
    prem = tuple(_cert_lt_atom(x.child(i), y, side)
                 for i in range(x.index.size))
    return ml_r2(concl, head, premises=prem)


def _cert_lt_atom(x: OrdName, y: OrdName, side: Sequent) -> MlCertificate:
    hx = structural_depth(x)
    if y.is_zero or hx >= structural_depth(y):
        raise KernelError(f"cannot derive {x!r} < {y!r}")
    n = next(i for i in range(y.index.size)
             if structural_depth(y.child(i)) >= hx)
    head = Atom(x, "lt", y)
    inner = _cert_le_atom(x, y.child(n), side)
    return ml_r1(side | {head}, head, n, inner)


def ml_le_refl_cert(a: OrdName) -> MlCertificate:
    """Certificate of the singleton sequent a <= a, finitary a."""
    return _cert_le_atom(a, a, frozenset())


# ---------------------------------------------------------------------------
# the divergence pair


def ml_cert_exa123(u: BitSeq) -> MlCertificate:
    """Certificate of {a < b} for the bit-sequence pair a, b with
    a's members und(u_n) and b's members und(u_n + 1).

    Each generated premise consults finitely many bits: the derivation
    splits on the decidable test u_n <= u_0 rather than on any property of
    the whole sequence.  When u_n <= u_0 the premise compares und(u_n)
    against b's first member directly; otherwise u_n = 1 bounds every bit,
    and the premise routes through b's n-th member.  That case split is
    total for 0/1 sequences, which is how the certificate stays finite
    where the bounded comparison engine cannot decide the same judgment
    for an opaque tail.
    """
    a, b = eps_lpo(u)
    p_top = Atom(a, "lt", b)
    c0 = frozenset({p_top})
    v0 = b.child(0)
    q1 = Atom(a, "le", v0)
    c1 = c0 | {q1}

    def low_premise(n: int) -> MlCertificate:
        # sequent {a < b, und(u_n) < v0}
        x = und(u.at(n))
        if u.at(n) <= u.at(0):
            return _cert_lt_atom(x, v0, c0)
        # u_n exceeds u_0: name that n and bound a by b's n-th member
        q_atom = Atom(x, "lt", v0)
        side = frozenset({q_atom})
        vn = b.child(n)
        inner = ml_r2(
            side | {Atom(a, "le", vn)}, Atom(a, "le", vn),
            gen=lambda m: _cert_lt_atom(und(u.at(m)), vn, side))
        return ml_r1(side | {p_top}, p_top, n, inner)

    middle = ml_r2(c1, q1, gen=low_premise)
    return ml_r1(c0, p_top, 0, middle)
