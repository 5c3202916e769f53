"""Ordinal arithmetic on names: sum, indexed sum, product, power, and a
transfinite iteration, acko.

eps0() is acko(w, w, 1).  With g = 1 acko is repeated addition, so eps0()
denotes w^2, not the first fixed point of exponentiation its name promises;
ROADMAP.md's item "Make eps0 denote ε0" plans the redefinition.

Each operation follows its defining recursion literally, building suprema of
pointwise-transformed families.  Results are memoized on operand identity, so
equal calls return the identical name; in particular add(a, zero) is a
itself, which keeps identities like a < a + a cheaply recognizable.  Sums,
products and powers of operands with a Cantor normal form record the
result's, the hint certificate search steers by.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Union

from . import cnf
from .names import (Family, Fin, Index, NAT, OrdName, ZERO, map_family,
                    mk_node, omega, subordinals, sup_family, sup_finite, und)

_add_memo: dict = {}
_mul_memo: dict = {}
_pow_memo: dict = {}
_acko_memo: dict = {}


def _sup_of(fam: Family) -> OrdName:
    if isinstance(fam.index, Fin):
        return sup_finite([fam.at(j) for j in range(fam.index.size)])
    return sup_family(fam)


def _hint(result: OrdName, op: Callable, a: OrdName, b: OrdName) -> OrdName:
    """Record op's Cantor normal form on a naturally indexed result when
    both operands have one.  Finitely branching results get theirs from
    their children as they are built."""
    if result.cnf is None and result.arity is None:
        ha, hb = cnf.of(a), cnf.of(b)
        if ha is not None and hb is not None:
            result.cnf = op(ha, hb)
    return result


def add(a: OrdName, b: OrdName) -> OrdName:
    """a + b: rebuild b's spine on top of a."""
    if b.is_zero:
        return a
    key = (a.ident, b.ident)
    hit = _add_memo.get(key)
    if hit is None:
        hit = _hint(mk_node(map_family(subordinals(b), lambda bj: add(a, bj))),
                    cnf.add, a, b)
        _add_memo[key] = hit
    return hit


class _End:
    __slots__ = ()

    def __repr__(self) -> str:
        return "END"


END = _End()


class LinearIndexOrder(NamedTuple):
    """An index set under the standard order on naturals."""

    carrier: Index

    def precedes(self, i: int, j: int) -> bool:
        if i not in self.carrier or j not in self.carrier:
            raise IndexError("position outside the carrier")
        return i < j

    @property
    def least(self) -> int:
        return 0


def seq_sum(order: LinearIndexOrder, betas: Family,
            ell: Union[int, _End]) -> OrdName:
    """Sum of betas over the positions strictly before ell.

    ell = END sums a whole finite carrier.  The empty sum is zero, and each
    partial sum is the sup of earlier-partial-plus-member, so partial sums
    grow monotonically along the carrier.
    """
    if betas.index != order.carrier:
        raise ValueError("family and order disagree on the carrier")
    if isinstance(ell, _End):
        if not isinstance(order.carrier, Fin):
            raise ValueError("END only bounds a finite carrier")
        ell = order.carrier.size
    elif ell < 0 or (isinstance(order.carrier, Fin) and ell > order.carrier.size):
        raise ValueError(f"cut {ell!r} outside the carrier")
    partial: dict = {0: ZERO}

    def upto(k: int) -> OrdName:
        hit = partial.get(k)
        if hit is None:
            hit = sup_finite([add(upto(j), betas.at(j)) for j in range(k)])
            partial[k] = hit
        return hit

    return upto(ell)


def mul(a: OrdName, b: OrdName) -> OrdName:
    """a * b: the sup over b's subordinals of a*b_j + a.

    With either factor zero the family above has no nonzero members, so the
    product is zero.
    """
    if b.is_zero or a.is_zero:
        return ZERO
    key = (a.ident, b.ident)
    hit = _mul_memo.get(key)
    if hit is None:
        hit = _hint(_sup_of(map_family(subordinals(b),
                                       lambda bj: add(mul(a, bj), a))),
                    cnf.mul, a, b)
        _mul_memo[key] = hit
    return hit


def pow(a: OrdName, b: OrdName) -> OrdName:
    """a ^ b: iterated product, a^0 = 1."""
    if b.is_zero:
        return und(1)
    if a.is_zero:
        return ZERO
    key = (a.ident, b.ident)
    hit = _pow_memo.get(key)
    if hit is None:
        hit = _hint(_sup_of(map_family(subordinals(b),
                                       lambda bj: mul(pow(a, bj), a))),
                    cnf.power, a, b)
        _pow_memo[key] = hit
    return hit


def acko(a: OrdName, b: OrdName, g: OrdName) -> OrdName:
    """Transfinite iteration: with g = 0 a plain sum, with b = 0 just a,
    otherwise the double sup over g's and b's subordinals of the displayed
    nesting acko(a, acko(a, b_j, g), g_k)."""
    if g.is_zero:
        return add(a, b)
    if b.is_zero:
        return a
    key = (a.ident, b.ident, g.ident)
    hit = _acko_memo.get(key)
    if hit is None:
        def layer(gk: OrdName) -> OrdName:
            return _sup_of(map_family(
                subordinals(b), lambda bj: acko(a, acko(a, bj, g), gk)))

        hit = _sup_of(map_family(subordinals(g), layer))
        _acko_memo[key] = hit
    return hit


_eps0: Optional[OrdName] = None


def eps0() -> OrdName:
    """acko(w, w, 1), the sup of its members w*k + n: it denotes w^2.

    acko(a, b, 1) is a*(b+1), so this is not epsilon_0 (ROADMAP.md, "Make
    eps0 denote ε0")."""
    global _eps0
    if _eps0 is None:
        _eps0 = acko(omega(), omega(), und(1))
    return _eps0
