"""Certificate kernel for comparison judgments.

A certificate is a tree (shared subtrees allowed) whose nodes each apply one
inference rule to premise certificates and claim a conclusion.  Nothing is
trusted at construction time beyond cheap shape checks; ``verify`` walks a
certificate and independently rederives every visited conclusion from the
rule and premises.  Premises below a naturally indexed family are held as a
generator, so certificates about infinitely branching names are finite
objects; verifying those requires a spot-check policy, since an exhaustive
walk is only meaningful when every branching is finite.  Each rule is one
entry of a rule table read by a single walker, ``check_derivation``; the
sequent calculus (``mlseq``) runs the same walker over a table of its own.

``le_cert`` and ``lt_cert`` are untrusted searchers: they use the bounded
comparison engine to steer toward a certificate, which is then checked like
any other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from . import compare
from .compare import Fuel, Judgment
from .names import (Family, Fin, NAT, Index, OrdName, ZERO, _mask_bits,
                    filtering, sup_decomposition, sup_finite)


class KernelError(Exception):
    """A certificate constructor or verifier was used incorrectly."""


class CertSearchError(KernelError):
    """Certificate search failed to find a derivation."""


@dataclass(frozen=True)
class Exhaustive:
    """Check every premise; legal only when all branching is finite."""


@dataclass(frozen=True)
class SpotCheck:
    """Check generated premises at these sample indices, to this depth."""

    samples: Tuple[int, ...] = (0, 1, 2)
    depth: int = 64

    def __post_init__(self):
        if not self.samples:
            raise ValueError("spot check needs at least one sample")
        if any(s < 0 for s in self.samples):
            raise ValueError("sample indices must be nonnegative")


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


def zero_le(bs) -> Certificate:
    return le_intro(ZERO, bs)


def zero_lt(bs) -> Certificate:
    """0 < bs whenever some bound has a subordinal at all."""
    bs = _rhs(bs)
    for k, b in enumerate(bs):
        if not b.is_zero:
            sels = [()] * len(bs)
            sels[k] = (0,)
            return lt_intro_sel(ZERO, bs, sels, zero_le((b.child(0),)))
    raise KernelError("no bound has a subordinal: nothing is below all zeros")


_refl_cache: dict = {}


def refl(a: OrdName) -> Certificate:
    """a <= [a], built by mutual recursion with a < [a] at each subordinal."""
    hit = _refl_cache.get(a.ident)
    if hit is not None:
        return hit
    if a.is_zero:
        cert = le_intro(a, (a,))
    elif isinstance(a.index, Fin):
        prem = tuple(
            lt_intro_sel(a.child(i), (a,), ((i,),), refl(a.child(i)))
            for i in range(a.index.size))
        cert = le_intro(a, (a,), premises=prem)
    else:
        cert = le_intro(
            a, (a,),
            gen=lambda i: lt_intro_sel(a.child(i), (a,), ((i,),),
                                       refl(a.child(i))))
    _refl_cache[a.ident] = cert
    return cert


def _expect(cert: Certificate, kind: str, role: str) -> Judgment:
    if type(cert) is not Certificate:
        raise KernelError(f"{role} is not a certificate")
    if cert.conclusion.kind != kind:
        raise KernelError(f"{role} must conclude a {kind} judgment")
    return cert.conclusion


def _middle_matches(rhs: Tuple[OrdName, ...], lhs: OrdName) -> bool:
    if len(rhs) == 1 and rhs[0].ident == lhs.ident:
        return True
    return sup_decomposition(lhs, rhs)


def trans_le_le(p: Certificate, q: Certificate) -> Certificate:
    cp, cq = _expect(p, "le", "left premise"), _expect(q, "le", "right premise")
    if not _middle_matches(cp.rhs, cq.lhs):
        raise KernelError("middle name of the chain does not match")
    return Certificate("trans_le_le", Judgment("le", cp.lhs, cq.rhs), (p, q))


def trans_lt_le(p: Certificate, q: Certificate) -> Certificate:
    cp, cq = _expect(p, "lt", "left premise"), _expect(q, "le", "right premise")
    if not _middle_matches(cp.rhs, cq.lhs):
        raise KernelError("middle name of the chain does not match")
    return Certificate("trans_lt_le", Judgment("lt", cp.lhs, cq.rhs), (p, q))


def trans_le_lt(p: Certificate, q: Certificate) -> Certificate:
    cp, cq = _expect(p, "le", "left premise"), _expect(q, "lt", "right premise")
    if not _middle_matches(cp.rhs, cq.lhs):
        raise KernelError("middle name of the chain does not match")
    return Certificate("trans_le_lt", Judgment("lt", cp.lhs, cq.rhs), (p, q))


def weaken(p: Certificate, extra) -> Certificate:
    """Enlarge the bound set; the judgment only gets easier."""
    extra = _rhs(extra)
    c = p.conclusion
    return Certificate("weaken", Judgment(c.kind, c.lhs, c.rhs + extra),
                       (p,), payload=extra)


def contract(p: Certificate) -> Certificate:
    """Drop duplicate bounds."""
    c = p.conclusion
    seen, out = set(), []
    for b in c.rhs:
        if b.ident not in seen:
            seen.add(b.ident)
            out.append(b)
    return Certificate("contract", Judgment(c.kind, c.lhs, tuple(out)), (p,))


def lt_to_le(p: Certificate) -> Certificate:
    c = _expect(p, "lt", "premise")
    return Certificate("lt_to_le", Judgment("le", c.lhs, c.rhs), (p,))


def _is_suc(n: OrdName) -> bool:
    return (not n.is_zero) and isinstance(n.index, Fin) and n.index.size == 1


def lt_suc_of_le(p: Certificate) -> Certificate:
    """From a <= [b] conclude a < [suc b]."""
    c = _expect(p, "le", "premise")
    if len(c.rhs) != 1:
        raise KernelError("needs a single bound")
    from .names import suc
    return Certificate("lt_suc_of_le",
                       Judgment("lt", c.lhs, (suc(c.rhs[0]),)), (p,))


def le_of_lt_suc(p: Certificate) -> Certificate:
    """From a < [suc b] conclude a <= [b]."""
    c = _expect(p, "lt", "premise")
    if len(c.rhs) != 1 or not _is_suc(c.rhs[0]):
        raise KernelError("bound must be a single unary node")
    return Certificate("le_of_lt_suc",
                       Judgment("le", c.lhs, (c.rhs[0].child(0),)), (p,))


def suc_le_of_lt(p: Certificate) -> Certificate:
    """From b < [a] conclude suc b <= [a]."""
    c = _expect(p, "lt", "premise")
    from .names import suc
    return Certificate("suc_le_of_lt",
                       Judgment("le", suc(c.lhs), c.rhs), (p,))


def lt_of_suc_le(p: Certificate) -> Certificate:
    """From suc b <= [a] conclude b < [a]."""
    c = _expect(p, "le", "premise")
    if not _is_suc(c.lhs):
        raise KernelError("lhs must be a unary node")
    return Certificate("lt_of_suc_le",
                       Judgment("lt", c.lhs.child(0), c.rhs), (p,))


def sup_le_intro(s: OrdName, members, bs,
                 premises: Optional[Sequence[Certificate]] = None,
                 gen: Optional[Callable[[int], Certificate]] = None) -> Certificate:
    """sup(members) <= bs from one bound per member.  s must be the
    flattened sup of the given members; a naturally indexed member family
    takes a premise generator instead of a tuple."""
    bs = _rhs(bs)
    if isinstance(members, Family):
        if not sup_decomposition(s, members):
            raise KernelError("name is not the sup of the claimed family")
        if gen is None or premises is not None:
            raise KernelError("a member family takes a premise generator")
        return Certificate("sup_le_intro", Judgment("le", s, bs),
                           gen_index=members.index, gen=gen, payload=members)
    members = tuple(members)
    if not sup_decomposition(s, members):
        raise KernelError("name is not the sup of the claimed members")
    if gen is not None:
        if premises is not None:
            raise KernelError("pass premises or a generator, not both")
        return Certificate("sup_le_intro", Judgment("le", s, bs),
                           gen_index=NAT, gen=gen, payload=members)
    premises = tuple(premises or ())
    if len(premises) != len(members):
        raise KernelError("one premise per member")
    return Certificate("sup_le_intro", Judgment("le", s, bs),
                       premises=premises, payload=members)


def sup_lt(p: Certificate, q: Certificate) -> Certificate:
    """From a < [c] and b < [c] conclude sup(a, b) < [c]."""
    cp, cq = _expect(p, "lt", "left premise"), _expect(q, "lt", "right premise")
    if len(cp.rhs) != 1 or len(cq.rhs) != 1 or cp.rhs[0].ident != cq.rhs[0].ident:
        raise KernelError("premises must share a single bound")
    s = sup_finite((cp.lhs, cq.lhs))
    return Certificate("sup_lt", Judgment("lt", s, cp.rhs), (p, q),
                       payload=(cp.lhs, cq.lhs))


def cut_left(p: Certificate, q: Certificate, other: OrdName) -> Certificate:
    """From c < [a] and a <= [sup(other, c)] conclude a <= [other]."""
    cp, cq = _expect(p, "lt", "left premise"), _expect(q, "le", "right premise")
    if len(cp.rhs) != 1 or len(cq.rhs) != 1:
        raise KernelError("premises must carry single bounds")
    a = cq.lhs
    if cp.rhs[0].ident != a.ident:
        raise KernelError("strict premise must bound by the main name")
    if not sup_decomposition(cq.rhs[0], (other, cp.lhs)):
        raise KernelError("bound is not the sup of the remainder and the cut name")
    return Certificate("cut_left", Judgment("le", a, (other,)), (p, q),
                       payload=(other,))


def drop_left(p: Certificate, other: OrdName) -> Certificate:
    """From a < [sup(a, other)] conclude a < [other]."""
    cp = _expect(p, "lt", "premise")
    if len(cp.rhs) != 1:
        raise KernelError("premise must carry a single bound")
    if not sup_decomposition(cp.rhs[0], (cp.lhs, other)):
        raise KernelError("bound is not the sup of the lhs and the remainder")
    return Certificate("drop_left", Judgment("lt", cp.lhs, (other,)), (p,),
                       payload=(other,))


# ---------------------------------------------------------------------------
# verification


@dataclass
class VerifyReport:
    ok: bool
    visited: int = 0
    failures: List[Tuple[str, str]] = field(default_factory=list)

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
    descending at most its depth.  A premise that cannot be generated, or
    is not of type cls, fails at its own path and is not descended into; a
    rule check that raises on a malformed payload fails its node."""
    report = VerifyReport(ok=True)
    spot = policy if isinstance(policy, SpotCheck) else None
    if spot is None and not isinstance(policy, Exhaustive):
        raise KernelError(f"unknown verification policy: {policy!r}")
    foreign = f"not a certificate of this calculus ({cls.__name__})"
    seen_exhaustive: set = set()

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
        if spot is None and id(c) in seen_exhaustive:
            return
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
            if spot is None:
                seen_exhaustive.add(id(c))
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

    walk(cert, "root", 0)
    return report


def _unless(holds: bool, reason: str) -> Optional[str]:
    return None if holds else reason


def _same_ends(x: Judgment, y: Judgment) -> bool:
    return x.lhs.ident == y.lhs.ident and _ids(x.rhs) == _ids(y.rhs)


def _bounds_each(kind: str, member: Callable[[Certificate, int], OrdName]):
    """Premise check: premise i concludes member i of the node, in the
    given relation, to the node's own bound set."""

    def check(c: Certificate, i: int, p: Certificate) -> Optional[str]:
        p = p.conclusion
        if p.kind != kind:
            return f"premise {i} must conclude {kind}"
        want = member(c, i)
        if want is None or p.lhs.ident != want.ident:
            return f"premise {i} is not about member {i}"
        return _unless(_ids(p.rhs) == _ids(c.conclusion.rhs),
                       f"premise {i} bounds by the wrong set")

    return check


def _sup_member(c: Certificate, i: int) -> Optional[OrdName]:
    members = c.payload
    if isinstance(members, Family):
        return members.at(i)
    return members[i] if i < len(members) else None


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


def _check_trans(c: Certificate, ps: tuple) -> Optional[str]:
    cp, cq = ps
    if (cp.lhs.ident != c.conclusion.lhs.ident
            or _ids(cq.rhs) != _ids(c.conclusion.rhs)):
        return "endpoints do not match"
    return _unless(_middle_matches(cp.rhs, cq.lhs), "middle name mismatch")


def _check_weaken(c: Certificate, ps: tuple) -> Optional[str]:
    cp, concl = ps[0], c.conclusion
    return _unless(cp.kind == concl.kind and cp.lhs.ident == concl.lhs.ident
                   and _ids(concl.rhs) == _ids(cp.rhs) | _ids(c.payload),
                   "weaken changes only the bound set")


def _suc_bound(x: Judgment, y: Judgment) -> bool:
    """x bounds y's lhs by the successor of y's single bound."""
    return (len(x.rhs) == 1 == len(y.rhs) and _is_suc(x.rhs[0])
            and x.rhs[0].child(0).ident == y.rhs[0].ident
            and x.lhs.ident == y.lhs.ident)


def _suc_lhs(x: Judgment, y: Judgment) -> bool:
    """x's lhs is the successor of y's, under the same bounds."""
    return (_is_suc(x.lhs) and x.lhs.child(0).ident == y.lhs.ident
            and _ids(x.rhs) == _ids(y.rhs))


def _check_sup_le(c: Certificate, ps: tuple) -> Optional[str]:
    members = c.payload
    if not sup_decomposition(c.conclusion.lhs, members):
        return "lhs is not the sup of the claimed members"
    if isinstance(members, Family):
        return _unless(c.generated, "a member family needs generated premises")
    return _unless(c.generated or len(c.premises) == len(members),
                   "one premise per member")


def _check_sup_lt(c: Certificate, ps: tuple) -> Optional[str]:
    concl = c.conclusion
    if len(concl.rhs) != 1 or any(
            len(p.rhs) != 1 or p.rhs[0].ident != concl.rhs[0].ident
            for p in ps):
        return "premises must share the conclusion's single bound"
    return _unless(sup_decomposition(concl.lhs, (ps[0].lhs, ps[1].lhs)),
                   "lhs is not the sup of the premise names")


def _check_cut_left(c: Certificate, ps: tuple) -> Optional[str]:
    (cp, cq), concl, (other,) = ps, c.conclusion, c.payload
    if (len(cp.rhs) != 1 or len(cq.rhs) != 1 or len(concl.rhs) != 1
            or cp.rhs[0].ident != cq.lhs.ident
            or cq.lhs.ident != concl.lhs.ident
            or concl.rhs[0].ident != other.ident):
        return "endpoints do not wire up"
    return _unless(sup_decomposition(cq.rhs[0], (other, cp.lhs)),
                   "bound is not the sup of remainder and cut name")


def _check_drop_left(c: Certificate, ps: tuple) -> Optional[str]:
    cp, concl, (other,) = ps[0], c.conclusion, c.payload
    if (len(cp.rhs) != 1 or len(concl.rhs) != 1
            or cp.lhs.ident != concl.lhs.ident
            or concl.rhs[0].ident != other.ident):
        return "endpoints do not wire up"
    return _unless(sup_decomposition(cp.rhs[0], (cp.lhs, other)),
                   "bound is not the sup of lhs and remainder")


_SUC = "successor conversion shape"

_RULES = {
    "le_intro": Rule(None, "le",
                     lambda c, ps: subordinal_arity(c.conclusion.lhs, c),
                     _bounds_each("lt", lambda c, i: c.conclusion.lhs.child(i))),
    "lt_intro": Rule(("le",), "lt", _check_lt_intro),
    "trans_le_le": Rule(("le", "le"), "le", _check_trans),
    "trans_lt_le": Rule(("lt", "le"), "lt", _check_trans),
    "trans_le_lt": Rule(("le", "lt"), "lt", _check_trans),
    "weaken": Rule((None,), None, _check_weaken),
    "contract": Rule((None,), None, lambda c, ps: _unless(
        ps[0].kind == c.kind and _same_ends(ps[0], c.conclusion),
        "contract preserves the bound set")),
    "lt_to_le": Rule(("lt",), "le", lambda c, ps: _unless(
        _same_ends(ps[0], c.conclusion), "endpoints must be unchanged")),
    "lt_suc_of_le": Rule(("le",), "lt", lambda c, ps: _unless(
        _suc_bound(c.conclusion, ps[0]), _SUC)),
    "le_of_lt_suc": Rule(("lt",), "le", lambda c, ps: _unless(
        _suc_bound(ps[0], c.conclusion), _SUC)),
    "suc_le_of_lt": Rule(("lt",), "le", lambda c, ps: _unless(
        _suc_lhs(c.conclusion, ps[0]), _SUC)),
    "lt_of_suc_le": Rule(("le",), "lt", lambda c, ps: _unless(
        _suc_lhs(ps[0], c.conclusion), _SUC)),
    "sup_le_intro": Rule(None, "le", _check_sup_le,
                         _bounds_each("le", _sup_member)),
    "sup_lt": Rule(("lt", "lt"), "lt", _check_sup_lt),
    "cut_left": Rule(("lt", "le"), "le", _check_cut_left),
    "drop_left": Rule(("lt",), "lt", _check_drop_left),
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


# Guidance queries during search only prune and rank candidates, so they run
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
    certificates and naturally failed goals are cached."""

    __slots__ = ("steps", "memo")

    def __init__(self, steps: int):
        self.steps = steps
        self.memo: dict = {}


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
    """Search for a certificate of a <= bs, steered by the engine.

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


def _spend(budget: int, st: _SearchState) -> None:
    if budget <= 0 or st.steps <= 0:
        raise CertSearchError("search budget exhausted")
    st.steps -= 1


def _settle(kind: str, a: OrdName, bs: tuple, fuel: Fuel, limit: int,
            budget: int, st: _SearchState) -> Certificate:
    """Certificate of a <= bs or a < bs (kind "le" or "lt"), memoized in
    st: found certificates, and failures with the selection limit tried."""
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


def _le_body(a: OrdName, bs: tuple, fuel: Fuel, limit: int, budget: int,
             st: _SearchState) -> Certificate:
    _spend(budget, st)
    if compare.le(a, bs, fuel).is_false:
        raise CertSearchError(f"engine refutes {a!r} <= {list(bs)!r}")
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
            # or, for successor stacks such as member i of k+w, as their height
            member = a.child(i)
            memo[i] = _settle("lt", member, bs, fuel,
                                 max(limit, i + 2, _peel_height(member) + 2),
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
    # family.  Members beyond the sweep remain the caller's totality
    # obligation, as with any generator handed to le_intro.
    for n in range(limit + 1):
        verdict = compare.lt(a.child(n), bs, fuel)
        if verdict.is_false:
            raise CertSearchError(
                f"member {n} of {a!r} is not below {list(bs)!r}")
        if not verdict.is_true:
            prem(n)
    _gen_probe(prem, (0, 1, 2))
    return le_intro(a, bs, gen=prem)


def _lt_candidates(bs: tuple, limit: int):
    """Selection tuples to try: single members first (they catch shared
    structure through the identity shortcut), then widening prefixes."""
    arities = []
    for b in bs:
        if b.is_zero:
            arities.append(0)
        elif isinstance(b.index, Fin):
            arities.append(b.index.size)
        else:
            cf = b.family.const_from
            arities.append(limit if cf is None else min(cf + 1, limit))
    for j, k in enumerate(arities):
        for i in range(min(k, limit)):
            sel = [()] * len(bs)
            sel[j] = (i,)
            yield tuple(sel)
    top = max(arities, default=0)
    for m in range(1, min(limit, top) + 1):
        yield tuple(tuple(range(min(m, k))) for k in arities)


_HEIGHT_MEMO: dict = {}


def _peel_height(a: OrdName) -> int:
    """Single-child levels stacked on a's core (zero or a wider node).

    A cheap structural surrogate for comparing names that differ by a
    finite stack of successors; it only steers candidate order, never
    justifies anything."""
    spine = []
    x = a
    while (x.ident not in _HEIGHT_MEMO and not x.is_zero
           and isinstance(x.index, Fin) and x.index.size == 1
           and len(spine) < 512):
        spine.append(x)
        x = x.child(0)
    h = _HEIGHT_MEMO.get(x.ident, 0)
    for y in reversed(spine):
        h += 1
        _HEIGHT_MEMO[y.ident] = h
    return h


def _lt_body(a: OrdName, bs: tuple, fuel: Fuel, limit: int, budget: int,
             st: _SearchState) -> Certificate:
    _spend(budget, st)
    if compare.lt(a, bs, fuel).is_false:
        raise CertSearchError(f"engine refutes {a!r} < {list(bs)!r}")
    # Rank candidates before any engine query: selections at least as tall
    # as the goal come first, closest fit leading; too-short ones follow,
    # tallest first.  Ties keep generation order (single members, then
    # widening prefixes).
    da = _peel_height(a)
    ranked = []
    tried = set()
    for order, sels in enumerate(_lt_candidates(bs, limit)):
        if sels in tried:
            continue
        tried.add(sels)
        if all(not s for s in sels):
            continue
        sel_names = _selected(bs, sels)
        dm = max(_peel_height(s) for s in sel_names)
        rank = (0, dm, order) if dm >= da else (1, -dm, order)
        ranked.append((rank, sels, sel_names))
    ranked.sort(key=lambda t: t[0])
    for _, sels, sel_names in ranked:
        _spend(budget, st)
        if compare.le(a, sel_names, fuel).is_false:
            continue
        try:
            inner = _settle("le", a, sel_names, fuel, limit, budget - 1,
                            st)
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
