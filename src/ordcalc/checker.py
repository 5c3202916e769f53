"""The trusted checker for comparison judgments.

A certificate is a tree (shared subtrees allowed) whose nodes each apply one
inference rule to premise certificates and claim a conclusion, a
``Judgment``.  The checker trusts four rules: ``le_intro`` and ``lt_intro``,
the defining clauses of <= and <, and two premise-free leaves that each
check one line by ident, ``refl`` (a <= bs when a is a bound) and
``member`` (a <= bs when a is a member of a bound).  Both leaves are
admissible: ``le_intro`` and ``lt_intro`` derive them member by member.
Weakening and the other structural rules are derived (``kernel``).
``verify`` walks a certificate and independently rederives every visited
conclusion from the rule and premises, so nothing is trusted at
construction time.  Premises below a naturally indexed family are held as
a generator, so certificates about infinitely branching names are finite
objects; verifying those requires a spot-check policy, since an
exhaustive walk is only meaningful when every branching is finite.  Each
rule is one entry of a rule table read by a single walker,
``check_derivation``; the sequent calculus (``mlseq``) runs the same walker
over a table of its own.

Nothing else vouches for a judgment.  The rule constructors, the derived
rules and the certificate search (``kernel``) only build certificates, and
the comparison engine (``compare``) is not consulted: this module reads
names, and nothing else of ordcalc.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .names import NAT, Fin, OrdName, format_name


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


class KernelError(Exception):
    """A certificate constructor or verifier was used incorrectly."""


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


class Certificate:
    """One rule application.  Immutable by convention; compared by identity.

    Premises are a tuple, or a generator over the naturals whose results are
    cached.  The sequent calculus subclasses this type."""

    __slots__ = ("rule", "conclusion", "premises", "_gen", "_gen_cache",
                 "payload")

    def __init__(self, rule: str, conclusion: Judgment,
                 premises: Tuple["Certificate", ...] = (),
                 gen: Optional[Callable[[int], "Certificate"]] = None,
                 payload: tuple = ()):
        self.rule = rule
        self.conclusion = conclusion
        self.premises = premises
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
        if i not in NAT:
            raise IndexError(f"premise index {i!r} outside {NAT!r}")
        hit = self._gen_cache.get(i)
        if hit is None:
            hit = self._gen_cache[i] = self._gen(i)
        return hit

    def __repr__(self) -> str:
        return f"<cert {self.rule}: {self.conclusion!r}>"


def _ids(names: Sequence[OrdName]) -> frozenset:
    return frozenset(n.ident for n in names)


def subordinal_arity(x: OrdName, c: Certificate) -> Optional[str]:
    """The premise shape of a rule with one premise per subordinal of x
    (le_intro, and R2 of the sequent calculus): none for zero, a tuple for
    finite branching, else a generator and no tuple.  A failure reason, or
    None when c's premises have that shape."""
    if x.is_zero:
        fits = not c.premises and not c.generated
    elif isinstance(x.index, Fin):
        fits = not c.generated and len(c.premises) == x.index.size
    else:
        fits = c.generated and not c.premises
    return None if fits else "one premise per subordinal"


def _selected(bs: Tuple[OrdName, ...], selections) -> Tuple[OrdName, ...]:
    return tuple(b.child(i) for b, s in zip(bs, selections) for i in s)


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
    is the kind the rule concludes.  check(c, ps) gets ps, the
    conclusions of a fixed premise tuple; premise(c, i, p) checks premise i
    before the walk descends into it.  Both return a failure reason, or
    None."""

    kinds: Optional[Tuple[Optional[str], ...]]
    concl: str
    check: Callable[[Certificate, tuple], Optional[str]]
    premise: Optional[Callable[[Certificate, int, Certificate],
                               Optional[str]]] = None


def check_derivation(cert: Certificate, policy: Exhaustive | SpotCheck,
                     cls: type, rules: dict) -> VerifyReport:
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
        if c.kind != rule.concl:
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
            indices = spot.samples
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


def _check_refl(c: Certificate, ps: tuple) -> Optional[str]:
    """a <= bs, payload (j,): bound j is a."""
    concl, (j,) = c.conclusion, c.payload
    if j not in range(len(concl.rhs)):
        return "bound index invalid"
    return _unless(concl.rhs[j].ident == concl.lhs.ident,
                   "the bound is not the lhs")


def _check_member(c: Certificate, ps: tuple) -> Optional[str]:
    """a <= bs, payload (j, i): member i of bound j is a."""
    concl, (j, i) = c.conclusion, c.payload
    if j not in range(len(concl.rhs)):
        return "bound index invalid"
    b = concl.rhs[j]
    if b.is_zero or i not in b.index:
        return "member index invalid"
    return _unless(b.child(i).ident == concl.lhs.ident,
                   "the member is not the lhs")


# The trusted rules: the two defining clauses of <= and <, and the two
# leaves, each one line read by ident.
_RULES = {
    "le_intro": Rule(None, "le",
                     lambda c, ps: subordinal_arity(c.conclusion.lhs, c),
                     _check_le_premise),
    "lt_intro": Rule(("le",), "lt", _check_lt_intro),
    "refl": Rule((), "le", _check_refl),
    "member": Rule((), "le", _check_member),
}


def verify(cert: Certificate,
           policy: Exhaustive | SpotCheck = Exhaustive()) -> VerifyReport:
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


def serialize(cert: Certificate) -> str:
    """Line-oriented text for finite certificates: one numbered node per
    line, premises before conclusions; an lt_intro lists its selections
    after ``sel``, a leaf its payload after ``at``.  Generator-backed
    certificates have no finite listing and are rejected."""
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
        elif c.payload:
            extra = " at " + ",".join(str(i) for i in c.payload)
        body = f"{format_name(j.lhs)} {op} {rhs}{extra}"
        lines.append(f"{n}: {c.rule}({body})" + "{" +
                     ",".join(str(r) for r in refs) + "}")
    return "\n".join(lines) + "\n"
