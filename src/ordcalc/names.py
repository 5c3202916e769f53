"""Ordinal names: zero and nodes carrying countable families of names.

A name is either the distinguished zero or a node holding a total family of
names indexed by a finite set Fin(k) or by the naturals.  Names are immutable.
Finitary names (every index set in the tree is finite) are hash-consed, so for
them structural equality coincides with object identity; names over natural
index sets are fresh per construction except for a few canonical constants.

Every name object draws its own opaque integer ``ident``: names hash by it
and compare by identity.  Identity implies observational equality; the
converse holds only on the finitary fragment.  A name's members are held
once, in its store (``pulled``), which the comparison engine reads, and the
running maxima measured over them are kept beside it on the name.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Optional, Sequence, Union

from . import cnf


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


# One Fin per size, shared by every node and by zero as their index.
_fins: dict = {}


def fin(size: int) -> Fin:
    """The shared Fin(size)."""
    hit = _fins.get(size)
    if hit is None:
        hit = _fins[size] = Fin(size)
    return hit


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

# 0 is reserved for zero
_fresh_ident = itertools.count(1).__next__


# ---------------------------------------------------------------------------
# families


class Family:
    """A total map from an index set to names.

    Its one store of members, ``_members``, is a tuple over Fin(k).  Over
    the naturals it is a list that a generator fills in index order, so the
    generator runs once per index; a member asked for ahead of the list
    waits in ``_ahead`` until the list reaches it.  ``const_from`` marks a
    family whose members stabilize: for i >= const_from, at(i) returns
    at(const_from) itself.  The wrapper enforces this, which is what lets
    bounded search treat such a family as exhaustible.  A family draws no
    ``ident``: a name's identity lives on its node.
    """

    __slots__ = ("index", "const_from", "_members", "_gen", "_ahead")

    def __init__(self, index: Index, members: Union[tuple, list],
                 gen: Optional[Callable[[int], "OrdName"]],
                 const_from: Optional[int]):
        self.index = index
        self.const_from = const_from
        self._members = members
        self._gen = gen
        self._ahead = None if gen is None else {}

    @staticmethod
    def from_children(children: Sequence["OrdName"]) -> "Family":
        children = tuple(children)
        for c in children:
            if not isinstance(c, OrdName):
                raise TypeError(f"family member is not a name: {c!r}")
        return Family(fin(len(children)), children, None, None)

    @staticmethod
    def from_generator(gen: Callable[[int], "OrdName"],
                       const_from: Optional[int] = None) -> "Family":
        if const_from is not None and const_from < 0:
            raise ValueError("const_from must be nonnegative")
        return Family(NAT, [], gen, const_from)

    def at(self, i: int) -> "OrdName":
        if i not in self.index:
            raise IndexError(f"index {i!r} outside {self.index!r}")
        m = self._members
        if self._gen is None:
            return m[i]
        if self.const_from is not None and i > self.const_from:
            i = self.const_from
        if i < len(m):
            return m[i]
        hit = self._ahead.pop(i, None)
        if hit is None:
            hit = self._gen(i)
            if not isinstance(hit, OrdName):
                raise TypeError(f"family generator returned non-name: {hit!r}")
        if i == len(m):
            m.append(hit)
        else:
            self._ahead[i] = hit
        return hit

    def __repr__(self) -> str:
        return f"<family {self.index!r}>"


def map_family(fam: Family, fn: Callable[["OrdName"], "OrdName"]) -> Family:
    """Apply fn pointwise; preserves index and any stabilization mark."""
    if fam._gen is None:
        return Family.from_children(tuple(fn(c) for c in fam._members))
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
    """Base class: either the zero name or a node over a family.

    A name's shape is fixed when it is built, from its family and the names
    built before it, and is recorded in five slots (besides ``ident``):

    - ``index``: its index set, the shared ``fin(k)`` over k members (zero
      is over ``fin(0)``) or NAT;
    - ``arity``: how many subordinals cover it: k over Fin(k), c + 1 over a
      family constant from c, None over any other natural family, 0 for zero;
    - ``height``: on a finitary name its tree height, else None;
    - ``width``: on a finitary name its largest index set, else None;
    - ``cnf``: on an infinitary name whose construction shows its Cantor
      normal form, that form (see ``cnf.of``), else None.  It is a hint for
      search only, and nothing checks it.

    Every name also has a store ``pulled`` and running maxima ``heights``
    and ``forms`` over it (see Node).
    """

    __slots__ = ("ident", "index", "arity", "height", "width", "cnf")

    @property
    def is_zero(self) -> bool:
        return self is ZERO

    def child(self, i: int) -> "OrdName":
        raise NotImplementedError

    @property
    def is_finitary(self) -> bool:
        return self.height is not None

    def __hash__(self) -> int:
        return self.ident

    def __repr__(self) -> str:
        return f"<ord {format_name(self)}>"


class _ZeroName(OrdName):
    __slots__ = ()
    pulled = heights = forms = ()

    def __new__(cls) -> "_ZeroName":
        inst = super().__new__(cls)
        inst.ident = inst.arity = inst.height = inst.width = 0
        inst.index = fin(0)
        inst.cnf = None
        return inst

    def child(self, i: int) -> OrdName:
        raise IndexError("zero has no subordinals")


ZERO = _ZeroName()

_NO_SUBORDINALS = Family(fin(0), (), None, None)


class Node(OrdName):
    """A node over a nonempty family.  Its store ``pulled`` holds the
    members held so far in index order: over Fin(k) its k-tuple, and nothing
    else is kept, a Family being built only when ``family`` is read; over
    the naturals the list that its Family, kept in ``_family``, fills.
    Beside the store sit the running maxima that readers measure on demand:
    ``heights[r]``, the largest height among members 0..r, up to the first
    member that is not finitary, and ``forms[r]``, the largest Cantor normal
    form among them (None while none has one); both are () until measured.
    One class serves both index sets, so that the engine's attribute reads
    stay monomorphic."""

    __slots__ = ("pulled", "_family", "heights", "forms")

    def __init__(self, members: Union[tuple, Family]):
        self.ident = _fresh_ident()
        self.height = self.width = self.cnf = self._family = None
        self.heights = self.forms = ()
        if isinstance(members, Family):
            self.index = NAT
            self._family = members
            self.pulled = members._members
            cf = members.const_from
            self.arity = None if cf is None else cf + 1
            return
        self.pulled = members
        self.index = fin(len(members))
        self.arity = len(members)
        heights = [c.height for c in members]
        if None not in heights:
            self.height = 1 + max(heights)
            self.width = max([len(members)] + [c.width for c in members])
            return
        # one more than the largest child
        hints = [cnf.of(c) for c in members]
        if None not in hints:
            self.cnf = cnf.add(cnf.top(hints), cnf.ONE)

    @property
    def family(self) -> Family:
        if self.index is NAT:
            return self._family
        return Family(self.index, self.pulled, None, None)

    def child(self, i: int) -> OrdName:
        if self.index is NAT:
            return self._family.at(i)
        m = self.pulled
        if isinstance(i, int) and 0 <= i < len(m):
            return m[i]
        raise IndexError(f"index {i!r} outside {self.index!r}")


# Finitary nodes interned by their member tuple (names hash and compare by
# ident): structurally equal constructions return the same object.
_intern: dict = {}

# Sups of members not all of finite arity, interned by their member tuple,
# or over the naturals by their Family: the same members always flatten to
# the same tree, so one diagonal node, and one member store, serves every
# sup of them.  It is also the record sup_decomposition (the argument check
# of the certificate builders that take a sup) reads; a sup of members of
# finite arity is the node _intern holds for their concatenation.
_sups: dict = {}


def mk_zero() -> OrdName:
    return ZERO


def _node_fin(children: tuple) -> OrdName:
    hit = _intern.get(children)
    if hit is None:
        hit = _intern[children] = Node(children)
    return hit


def mk_node(family: Family) -> OrdName:
    """Wrap a family as a node.  Empty finite families are rejected: the
    name with no subordinals is the zero constant, not a node."""
    if isinstance(family.index, Fin):
        if family.index.size == 0:
            raise ValueError("empty family: use mk_zero")
        return _node_fin(family._members)
    return Node(family)


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
        _omega = Node(Family.from_generator(und))
        _omega.cnf = cnf.OMEGA
    return _omega


def subordinals(alpha: OrdName) -> Family:
    """The definitional family of a name; empty for zero."""
    if alpha.is_zero:
        return _NO_SUBORDINALS
    return alpha.family


# ---------------------------------------------------------------------------
# suprema

class _PairStream:
    """Valid (member, position) pairs in diagonal order: diagonal d = j + i
    with j ascending, skipping positions past a member's arity.  There are
    infinitely many members or one has no finite arity, so the stream never
    dries up while more pairs are demanded.  The position is kept in plain
    fields and moves only past a member whose arity was read, so a member
    that raises is read again on the next pull, where a generator would
    have ended for good."""

    __slots__ = ("count", "arity", "d", "j")

    def __init__(self, count: Optional[int],
                 arity: Callable[[int], Optional[int]]):
        self.count = count
        self.arity = arity
        self.d = self.j = 0

    def __iter__(self) -> "_PairStream":
        return self

    def __next__(self) -> tuple:
        while True:
            d = self.d
            j_top = d if self.count is None else min(d, self.count - 1)
            while self.j <= j_top:
                j = self.j
                a = self.arity(j)
                self.j = j + 1
                if a is None or d - j < a:
                    return (j, d - j)
            self.d = d + 1
            self.j = 0


def _member_arity(m: OrdName) -> Optional[int]:
    if m.is_zero:
        raise ValueError("sup over a family containing zero")
    return m.arity


def sup_order(members) -> Iterator[tuple]:
    """The pairs (j, i) in the order the flattened sup of members lists its
    subordinals: position k of the sup is subordinal i of member j.

    members is a naturally indexed Family of nonzero names, or a tuple whose
    zero members contribute nothing, as in sup_finite.  Finitely many
    members of finite arity are concatenated in member order, an eventually
    constant member contributing positions up to its constant point;
    otherwise the valid pairs are walked diagonally."""
    if isinstance(members, Family):
        return _PairStream(None, lambda j: _member_arity(members.at(j)))
    keep = [j for j, m in enumerate(members) if not m.is_zero]
    if None not in [m.arity for m in members]:
        return ((j, i) for j in keep for i in range(members[j].arity))
    walk = _PairStream(len(keep), lambda j: _member_arity(members[keep[j]]))
    return ((keep[j], i) for j, i in walk)


def sup_family(family: Family) -> OrdName:
    """Flatten an indexed family of nonzero names into one node, its
    subordinals listed in sup_order.  The same family's sup is one node."""
    if isinstance(family.index, Fin):
        return _sup_of_members(tuple(family._members))
    node = _sups.get(family)
    if node is None:
        node = _sups[family] = _sup_diagonal(family)
    return node


def _own_sup(members: tuple) -> Optional[OrdName]:
    """The one member of members when it is naturally indexed with no finite
    arity, else None.  Such a member is its own sup: sup_order of it alone
    lists (0, i) for i = 0, 1, 2, ..., so the flattened sup has member i's
    subordinals in member i's order, the same tree."""
    if len(members) == 1:
        m = members[0]
        if m.index is NAT and m.arity is None:
            return m
    return None


def _sup_of_members(members: tuple) -> OrdName:
    """The flattened sup of nonzero members; a member that is its own sup
    (``_own_sup``) is returned, not rebuilt."""
    if not members:
        raise ValueError("sup of an empty family")
    for m in members:
        if m.is_zero:
            raise ValueError("sup over a family containing zero")
    own = _own_sup(members)
    if own is not None:
        return own
    flat = _flat(members)
    if flat is not None:
        return _node_fin(flat)
    node = _sups.get(members)
    if node is None:
        node = _sups[members] = _sup_diagonal(members)
        hints = [cnf.of(m) for m in members]
        if None not in hints:
            node.cnf = cnf.top(hints)
    return node


def _flat(members: tuple) -> Optional[tuple]:
    """The subordinals of nonzero members in sup_order (a hot path) when
    every member has a finite arity, else None; a natural member is pulled
    through its constant point once no member is found to lack an arity."""
    flat: list = []
    for m in members:
        if m.index is NAT:
            if None in [x.arity for x in members]:
                return None
            for i in range(len(m.pulled), m.arity):
                m.child(i)
        flat.extend(m.pulled)
    return tuple(flat)


def _sup_diagonal(members) -> OrdName:
    at = members.at if isinstance(members, Family) else members.__getitem__
    pairs: list = []
    order = sup_order(members)

    def gen(k: int) -> OrdName:
        while len(pairs) <= k:
            pairs.append(next(order))
        j, i = pairs[k]
        return at(j).child(i)

    return Node(Family.from_generator(gen))


def sup_finite(alphas: Sequence[OrdName]) -> OrdName:
    """Supremum of finitely many names; zero members are dropped first."""
    live = tuple(a for a in alphas if not a.is_zero)
    if not live:
        return ZERO
    return _sup_of_members(live)


def sup_decomposition(alpha: OrdName, members) -> bool:
    """Does alpha denote the flattened sup of exactly these members?

    When every member has a finite arity alpha must be the interned node
    over their concatenated subordinals, which is looked up, not built; a
    lone naturally indexed member with no finite arity lists its own
    subordinals in its own order (``_own_sup``), so alpha must be that
    member; otherwise alpha must be the sup ``_sups`` holds for these
    members.  A finite Family counts as its member tuple, and a natural one
    asks whether alpha is that family's sup.
    """
    if isinstance(members, Family):
        if members.index is NAT:
            return _sups.get(members) is alpha
        members = members._members
    members = tuple(m for m in members if not m.is_zero)
    if not members:
        return alpha.is_zero
    own = _own_sup(members)
    if own is not None:
        return own is alpha
    flat = _flat(members)
    return (_sups.get(members) if flat is None else _intern.get(flat)) is alpha


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

    node = Node(Family.from_generator(gen))
    # both denote one ordinal (kernel.filtering_eq_certs), so one form
    node.cnf = alpha.cnf
    return node


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
            return step(a, FoldView(a.index, lambda i: None))
        cache: dict = {}

        def at(i: int):
            if i not in cache:
                cache[i] = rec(a.child(i), d + 1)
            return cache[i]

        return step(a, FoldView(a.index, at))

    return rec(alpha, 0)


# ---------------------------------------------------------------------------
# structural measures (finitary fragment)


def structural_depth(alpha: OrdName) -> int:
    """Height of a finitary name's tree."""
    if alpha.height is None:
        raise ValueError("structural_depth needs a finitary name")
    return alpha.height


def max_fin_width(alpha: OrdName) -> int:
    """Largest index-set size anywhere in a finitary name."""
    if alpha.width is None:
        raise ValueError("max_fin_width needs a finitary name")
    return alpha.width


def und_value(alpha: OrdName) -> Optional[int]:
    """n when alpha is the chain und(n), else None: the finitary names no
    wider than one are exactly those chains."""
    return alpha.height if alpha.width in (0, 1) else None


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
    inner = ", ".join(format_name(c) for c in alpha.pulled)
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
    eps = Node(_bit_family(u, und))
    eps_prime = Node(_bit_family(u, lambda b: und(b + 1)))
    return eps, eps_prime


def eps_llpo(v: BitSeq):
    """Names for the lesser limited omniscience split of v: the full family
    and its even- and odd-position subfamilies."""
    thr = v.eventually_constant_from
    eps = Node(_bit_family(v, und))
    eps1 = Node(Family.from_generator(lambda m: und(v.at(2 * m)), const_from=thr))
    eps2 = Node(Family.from_generator(lambda m: und(v.at(2 * m + 1)), const_from=thr))
    return eps, eps1, eps2
