"""Ordinal names: zero and nodes carrying countable families of names.

A name is either the distinguished zero or a node holding a total family of
names indexed by a finite set Fin(k) or by the naturals.  Names are immutable.
Finitary names (every index set in the tree is finite) are hash-consed, so for
them structural equality coincides with object identity; names over natural
index sets are fresh per construction except for a few canonical constants.

Every name carries an opaque integer ``ident``.  Ident equality implies
observational equality; the converse holds only on the finitary fragment.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Iterator, Optional, Sequence, Union


class IllFoundedError(RuntimeError):
    """Raised when a structural recursion exceeds its depth guard."""


# ---------------------------------------------------------------------------
# index sets


class Fin:
    """The finite index set {0, ..., size-1}."""

    __slots__ = ("size",)

    def __init__(self, size: int):
        if size < 0:
            raise ValueError("Fin size must be nonnegative")
        self.size = size

    def __contains__(self, i: object) -> bool:
        return isinstance(i, int) and 0 <= i < self.size

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Fin) and other.size == self.size

    def __hash__(self) -> int:
        return hash(("Fin", self.size))

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.size))

    def __repr__(self) -> str:
        return f"Fin({self.size})"


class _NatIndex:
    """The index set of all naturals."""

    __slots__ = ()
    _instance: Optional["_NatIndex"] = None

    def __new__(cls) -> "_NatIndex":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __contains__(self, i: object) -> bool:
        return isinstance(i, int) and i >= 0

    def __repr__(self) -> str:
        return "Nat"


NAT = _NatIndex()

Index = Union[Fin, _NatIndex]

_lock = threading.Lock()
_next_ident = 1  # 0 is reserved for zero


def _fresh_ident() -> int:
    global _next_ident
    with _lock:
        n = _next_ident
        _next_ident += 1
        return n


# ---------------------------------------------------------------------------
# families


class Family:
    """A total map from an index set to names.

    Finitely indexed families hold their members eagerly.  Naturally indexed
    ones hold a generator whose results are cached, so repeated queries at the
    same index return the same object.  ``const_from`` marks a family whose
    members stabilize: for i >= const_from, at(i) returns at(const_from)
    itself.  The wrapper enforces this, which is what lets bounded search
    treat such a family as exhaustible.
    """

    __slots__ = ("index", "ident", "const_from", "_children", "_gen", "_cache")

    def __init__(self, index: Index, children: Optional[tuple],
                 gen: Optional[Callable[[int], "OrdName"]],
                 const_from: Optional[int]):
        self.index = index
        self.ident = _fresh_ident()
        self.const_from = const_from
        self._children = children
        self._gen = gen
        self._cache: dict = {}

    @staticmethod
    def from_children(children: Sequence["OrdName"]) -> "Family":
        children = tuple(children)
        for c in children:
            if not isinstance(c, OrdName):
                raise TypeError(f"family member is not a name: {c!r}")
        return Family(Fin(len(children)), children, None, None)

    @staticmethod
    def from_generator(gen: Callable[[int], "OrdName"],
                       const_from: Optional[int] = None) -> "Family":
        if const_from is not None and const_from < 0:
            raise ValueError("const_from must be nonnegative")
        return Family(NAT, None, gen, const_from)

    def at(self, i: int) -> "OrdName":
        if i not in self.index:
            raise IndexError(f"index {i!r} outside {self.index!r}")
        if self._children is not None:
            return self._children[i]
        if self.const_from is not None and i > self.const_from:
            i = self.const_from
        hit = self._cache.get(i)
        if hit is None:
            hit = self._gen(i)
            if not isinstance(hit, OrdName):
                raise TypeError(f"family generator returned non-name: {hit!r}")
            self._cache[i] = hit
        return hit

    @property
    def is_finite(self) -> bool:
        return isinstance(self.index, Fin)

    def __repr__(self) -> str:
        return f"<family {self.index!r} #{self.ident}>"


def map_family(fam: Family, fn: Callable[["OrdName"], "OrdName"]) -> Family:
    """Apply fn pointwise; preserves index and any stabilization mark."""
    if fam._children is not None:
        return Family.from_children(tuple(fn(c) for c in fam._children))
    memo: dict = {}

    def gen(i: int) -> "OrdName":
        base = fam.at(i)
        hit = memo.get(base.ident)
        if hit is None:
            hit = fn(base)
            memo[base.ident] = hit
        return hit

    return Family.from_generator(gen, const_from=fam.const_from)


# ---------------------------------------------------------------------------
# names


class OrdName:
    """Base class: either the zero name or a node over a family."""

    __slots__ = ("ident", "__weakref__")

    @property
    def is_zero(self) -> bool:
        return self is ZERO

    @property
    def index(self) -> Index:
        raise NotImplementedError

    def child(self, i: int) -> "OrdName":
        raise NotImplementedError

    @property
    def is_finitary(self) -> bool:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OrdName) and other.ident == self.ident

    def __hash__(self) -> int:
        return self.ident

    def __repr__(self) -> str:
        return f"<ord {format_name(self)}>"


class _ZeroName(OrdName):
    __slots__ = ()

    def __new__(cls) -> "_ZeroName":
        inst = super().__new__(cls)
        inst.ident = 0
        return inst

    @property
    def index(self) -> Index:
        return Fin(0)

    def child(self, i: int) -> OrdName:
        raise IndexError("zero has no subordinals")

    @property
    def is_finitary(self) -> bool:
        return True


ZERO = _ZeroName()


class Node(OrdName):
    __slots__ = ("family", "_finitary")

    def __init__(self, family: Family, finitary: bool):
        self.ident = _fresh_ident()
        self.family = family
        self._finitary = finitary

    @property
    def index(self) -> Index:
        return self.family.index

    def child(self, i: int) -> OrdName:
        return self.family.at(i)

    @property
    def is_finitary(self) -> bool:
        return self._finitary


# Finitary nodes interned by (arity, child idents): structurally equal
# constructions return the same object.
_intern: dict = {}

# Provenance of non-interned sup results, so sup_decomposition (the argument
# check of the certificate builders that take a sup) can recognize a
# flattened node without guessing its decomposition.  Keyed by the node
# object itself; interned nodes are recomputable instead.
_sup_members: "weakref.WeakKeyDictionary[OrdName, tuple]" = weakref.WeakKeyDictionary()


def mk_zero() -> OrdName:
    return ZERO


def _node_fin(children: tuple) -> OrdName:
    key = tuple(c.ident for c in children)
    with _lock:
        hit = _intern.get(key)
    if hit is not None:
        return hit
    finitary = all(c.is_finitary for c in children)
    node = Node(Family(Fin(len(children)), children, None, None), finitary)
    with _lock:
        return _intern.setdefault(key, node)


def mk_node(family: Family) -> OrdName:
    """Wrap a family as a node.  Empty finite families are rejected: the
    name with no subordinals is the zero constant, not a node."""
    if isinstance(family.index, Fin):
        if family.index.size == 0:
            raise ValueError("empty family: use mk_zero")
        return _node_fin(tuple(family._children))
    return Node(family, False)


def suc(alpha: OrdName) -> OrdName:
    return _node_fin((alpha,))


def suc_list(alphas: Sequence[OrdName]) -> OrdName:
    alphas = tuple(alphas)
    if not alphas:
        raise ValueError("suc_list needs at least one name")
    return _node_fin(alphas)


_und_cache: dict = {0: ZERO}


def und(n: int) -> OrdName:
    """The finite ordinal name n: a chain of n unary nodes over zero."""
    if n < 0:
        raise ValueError("no negative ordinals")
    hit = _und_cache.get(n)
    if hit is None:
        hit = suc(und(n - 1))
        _und_cache[n] = hit
    return hit


_omega: Optional[OrdName] = None


def omega() -> OrdName:
    """The first limit name: the naturally indexed family n -> n."""
    global _omega
    if _omega is None:
        _omega = Node(Family.from_generator(und), False)
    return _omega


def subordinals(alpha: OrdName) -> Family:
    """The definitional family of a name; empty for zero."""
    if alpha.is_zero:
        return Family(Fin(0), (), None, None)
    return alpha.family


# ---------------------------------------------------------------------------
# suprema

# Valid (member, position) pairs in diagonal order: diagonal d = j + i with j
# ascending, skipping positions past a member's arity.  Some member is always
# nonempty, so the stream never dries up while more pairs are demanded.


def _pair_stream(count: Optional[int], arity: Callable[[int], Optional[int]]):
    d = 0
    while True:
        j_top = d if count is None else min(d, count - 1)
        for j in range(j_top + 1):
            i = d - j
            a = arity(j)
            if a is None or i < a:
                yield (j, i)
        d += 1


def _member_arity(m: OrdName) -> Optional[int]:
    if m.is_zero:
        raise ValueError("sup over a family containing zero")
    idx = m.index
    if isinstance(idx, Fin):
        return idx.size
    if m.family.const_from is not None:
        return m.family.const_from + 1
    return None


def sup_order(members) -> Iterator[tuple]:
    """The pairs (j, i) in the order the flattened sup of members lists its
    subordinals: position k of the sup is subordinal i of member j.

    members is a naturally indexed Family of nonzero names, or a tuple whose
    zero members contribute nothing, as in sup_finite.  Finitely many
    finitely branching members are concatenated in member order; otherwise
    the valid pairs are walked diagonally, an eventually constant member
    contributing positions up to its constant point."""
    if isinstance(members, Family):
        return _pair_stream(None, lambda j: _member_arity(members.at(j)))
    keep = [j for j, m in enumerate(members) if not m.is_zero]
    if all(isinstance(m.index, Fin) for m in members):
        return ((j, i) for j in keep for i in range(members[j].index.size))
    walk = _pair_stream(len(keep), lambda j: _member_arity(members[keep[j]]))
    return ((keep[j], i) for j, i in walk)


def sup_family(family: Family) -> OrdName:
    """Flatten an indexed family of nonzero names into one node, its
    subordinals listed in sup_order."""
    if isinstance(family.index, Fin):
        members = tuple(family.at(j) for j in range(family.index.size))
        return _sup_of_members(members)
    node = _sup_diagonal(family)
    _sup_members[node] = family
    return node


def _sup_of_members(members: tuple) -> OrdName:
    if not members:
        raise ValueError("sup of an empty family")
    for m in members:
        if m.is_zero:
            raise ValueError("sup over a family containing zero")
    if all(isinstance(m.index, Fin) for m in members):
        # sup_order's concatenation, spelled out: this path is hot
        flat: list = []
        for m in members:
            flat.extend(m.family._children)
        node = _node_fin(tuple(flat))
        if not node.is_finitary:
            _sup_members[node] = members
        return node
    node = _sup_diagonal(members)
    _sup_members[node] = members
    return node


def _sup_diagonal(members) -> OrdName:
    at = members.at if isinstance(members, Family) else members.__getitem__
    pairs: list = []
    order = sup_order(members)

    def gen(k: int) -> OrdName:
        while len(pairs) <= k:
            pairs.append(next(order))
        j, i = pairs[k]
        return at(j).child(i)

    return Node(Family.from_generator(gen), False)


def sup_finite(alphas: Sequence[OrdName]) -> OrdName:
    """Supremum of finitely many names; zero members are dropped first."""
    live = tuple(a for a in alphas if not a.is_zero)
    if not live:
        return ZERO
    return _sup_of_members(live)


def sup_decomposition(alpha: OrdName, members) -> bool:
    """Does alpha denote the flattened sup of exactly these members?

    Finitary claims are recomputed and compared; other nodes are matched
    against their recorded construction.  A Family argument asks whether
    alpha is that family's sup.
    """
    if isinstance(members, Family):
        return _sup_members.get(alpha) is members
    members = tuple(m for m in members if not m.is_zero)
    if not members:
        return alpha.is_zero
    if all(m.is_finitary for m in members) and alpha.is_finitary:
        return _sup_of_members(members).ident == alpha.ident
    recorded = _sup_members.get(alpha)
    if recorded is None:
        return False
    return tuple(m.ident for m in recorded) == tuple(m.ident for m in members)


# ---------------------------------------------------------------------------
# filtering


def _mask_bits(mask: int) -> list:
    bits = []
    j = 0
    while mask:
        if mask & 1:
            bits.append(j)
        mask >>= 1
        j += 1
    return bits


def filtering(alpha: OrdName) -> OrdName:
    """The name whose subordinals are the sups of every nonempty finite
    subset of alpha's subordinals, subsets enumerated by bitmask value."""
    if alpha.is_zero:
        raise ValueError("filtering needs a node")
    idx = alpha.index
    if isinstance(idx, Fin):
        ks = range(1, 2 ** idx.size)
        children = tuple(
            sup_finite([alpha.child(j) for j in _mask_bits(mask)]) for mask in ks
        )
        return _node_fin(children)

    def gen(n: int) -> OrdName:
        return sup_finite([alpha.child(j) for j in _mask_bits(n + 1)])

    return Node(Family.from_generator(gen), False)


# ---------------------------------------------------------------------------
# structural recursion


class FoldView:
    """Lazy view of the recursive results below one node."""

    __slots__ = ("index", "_at")

    def __init__(self, index: Index, at: Callable[[int], object]):
        self.index = index
        self._at = at

    def at(self, i: int):
        if i not in self.index:
            raise IndexError(f"index {i!r} outside {self.index!r}")
        return self._at(i)

    def __iter__(self):
        if not isinstance(self.index, Fin):
            raise TypeError("cannot iterate a naturally indexed view")
        return (self._at(i) for i in range(self.index.size))


def fold(alpha: OrdName, step: Callable[[OrdName, FoldView], object],
         depth_guard: int = 2048):
    """Structural recursion: step receives the name and a view of the
    recursive results of its subordinals.  The guard bounds nesting depth so
    an ill-founded generator raises instead of looping."""

    def rec(a: OrdName, d: int):
        if d > depth_guard:
            raise IllFoundedError(f"fold exceeded depth guard {depth_guard}")
        if a.is_zero:
            return step(a, FoldView(Fin(0), lambda i: None))
        cache: dict = {}

        def at(i: int):
            if i not in cache:
                cache[i] = rec(a.child(i), d + 1)
            return cache[i]

        return step(a, FoldView(a.index, at))

    return rec(alpha, 0)


# ---------------------------------------------------------------------------
# structural measures (finitary fragment)

_depth_cache: dict = {0: 0}
_width_cache: dict = {0: 0}


def _measure(alpha: OrdName, cache: dict, what: str,
             combine: Callable[[OrdName, list], int]) -> int:
    """Fold a finitary name bottom-up with an explicit stack, caching every
    node's value by ident, so chains of any height fit in constant Python
    stack.  combine receives a node and its children's values."""
    hit = cache.get(alpha.ident)
    if hit is not None:
        return hit
    if not alpha.is_finitary:
        raise ValueError(f"{what} needs a finitary name")
    stack = [alpha]
    while stack:
        node = stack[-1]
        if node.ident in cache:
            stack.pop()
            continue
        children = node.family._children
        missing = [c for c in children if c.ident not in cache]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        cache[node.ident] = combine(node, [cache[c.ident] for c in children])
    return cache[alpha.ident]


def structural_depth(alpha: OrdName) -> int:
    """Height of a finitary name's tree."""
    return _measure(alpha, _depth_cache, "structural_depth",
                    lambda node, kids: 1 + max(kids, default=0))


def max_fin_width(alpha: OrdName) -> int:
    """Largest index-set size anywhere in a finitary name."""
    return _measure(alpha, _width_cache, "max_fin_width",
                    lambda node, kids: max([node.index.size] + kids))


def und_value(alpha: OrdName) -> Optional[int]:
    """n when alpha is the chain und(n), else None."""
    n = 0
    while True:
        if alpha.is_zero:
            return n
        if isinstance(alpha.index, Fin) and alpha.index.size == 1:
            alpha = alpha.child(0)
            n += 1
            continue
        return None


def format_name(alpha: OrdName) -> str:
    """Readable rendering; finitary names round-trip through the expression
    grammar, naturally indexed ones fall back to canonical symbols or a tag."""
    v = und_value(alpha)
    if v is not None:
        return str(v)
    if alpha is _omega:
        return "w"
    if not alpha.is_finitary:
        return f"~nat#{alpha.ident}"
    inner = ", ".join(format_name(c) for c in alpha.family._children)
    return f"suc({inner})"


# ---------------------------------------------------------------------------
# bit sequences


class BitSeq:
    """A total 0/1 sequence given by a finite prefix plus a tail policy.

    A const-last sequence repeats its final prefix bit (0 for an empty
    prefix) forever, and says so: eventually_constant_from marks where.  An
    opaque sequence answers pointwise through a caller-supplied total map and
    promises nothing else.
    """

    __slots__ = ("prefix", "_tail_const", "_tail_gen")

    def __init__(self, prefix: Sequence[int], tail_const: Optional[int],
                 tail_gen: Optional[Callable[[int], int]]):
        prefix = tuple(prefix)
        if any(b not in (0, 1) for b in prefix):
            raise ValueError("bits must be 0 or 1")
        self.prefix = prefix
        self._tail_const = tail_const
        self._tail_gen = tail_gen

    @staticmethod
    def const_last(prefix: Sequence[int]) -> "BitSeq":
        prefix = tuple(prefix)
        last = prefix[-1] if prefix else 0
        return BitSeq(prefix, last, None)

    @staticmethod
    def opaque(prefix: Sequence[int], tail: Callable[[int], int]) -> "BitSeq":
        return BitSeq(prefix, None, tail)

    def at(self, n: int) -> int:
        if n < 0:
            raise IndexError("bit index must be nonnegative")
        if n < len(self.prefix):
            return self.prefix[n]
        if self._tail_const is not None:
            return self._tail_const
        b = self._tail_gen(n)
        if b not in (0, 1):
            raise ValueError(f"tail produced a non-bit: {b!r}")
        return b

    @property
    def eventually_constant_from(self) -> Optional[int]:
        if self._tail_const is None:
            return None
        return len(self.prefix)


def _bit_family(bits: BitSeq, fn: Callable[[int], OrdName]) -> Family:
    return Family.from_generator(
        lambda n: fn(bits.at(n)), const_from=bits.eventually_constant_from
    )


def eps_lpo(u: BitSeq):
    """The pair of naturally indexed names whose comparison expresses
    limited omniscience about u: (family of u_n, family of u_n + 1)."""
    eps = Node(_bit_family(u, und), False)
    eps_prime = Node(_bit_family(u, lambda b: und(b + 1)), False)
    return eps, eps_prime


def eps_llpo(v: BitSeq):
    """Names for the lesser limited omniscience split of v: the full family
    and its even- and odd-position subfamilies."""
    thr = v.eventually_constant_from
    eps = Node(_bit_family(v, und), False)
    eps1 = Node(Family.from_generator(lambda m: und(v.at(2 * m)), const_from=thr), False)
    eps2 = Node(Family.from_generator(lambda m: und(v.at(2 * m + 1)), const_from=thr), False)
    return eps, eps1, eps2
