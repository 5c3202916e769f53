"""Independent reference implementations for testing the engine.

Everything here is defined directly from the recursive definitions, with no
shortcuts, no fuel, and no prefix restriction: the strict-bound search below
ranges over all tuples of finite index subsets.  Only total on finitary
names.  Results are memoized structurally, which changes cost, not meaning.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple, Sequence

from .names import Fin, OrdName, ZERO, _node_fin, omega

_val_cache: dict = {}


def val(alpha: OrdName) -> int:
    """Tree height: zero maps to 0, a node to 1 + max over its children."""
    hit = _val_cache.get(alpha.ident)
    if hit is not None:
        return hit
    if alpha.is_zero:
        v = 0
    else:
        if not isinstance(alpha.index, Fin):
            raise ValueError("val is only total on finitary names")
        v = 1 + max(val(alpha.child(i)) for i in range(alpha.index.size))
    _val_cache[alpha.ident] = v
    return v


_rel_cache: dict = {}


def naive_le(a: OrdName, bs: Sequence[OrdName]) -> bool:
    """a <= sup bs, evaluated literally: every subordinal of a is strictly
    bounded."""
    bs = tuple(bs)
    key = ("le", a.ident, frozenset(b.ident for b in bs))
    hit = _rel_cache.get(key)
    if hit is None:
        if a.is_zero:
            hit = True
        else:
            if not isinstance(a.index, Fin):
                raise ValueError("naive_le is only total on finitary names")
            hit = all(naive_lt(a.child(i), bs) for i in range(a.index.size))
        _rel_cache[key] = hit
    return hit


def naive_lt(a: OrdName, bs: Sequence[OrdName]) -> bool:
    """a < sup bs, evaluated literally: some tuple of finite index subsets,
    one per bound and not all empty, selects an upper bound for a."""
    bs = tuple(bs)
    key = ("lt", a.ident, frozenset(b.ident for b in bs))
    hit = _rel_cache.get(key)
    if hit is None:
        subsets = []
        for b in bs:
            if b.is_zero:
                subsets.append([()])
                continue
            if not isinstance(b.index, Fin):
                raise ValueError("naive_lt is only total on finitary names")
            idx = range(b.index.size)
            subsets.append([c for n in range(b.index.size + 1)
                            for c in itertools.combinations(idx, n)])
        hit = False
        for choice in itertools.product(*subsets):
            if all(not f for f in choice):
                continue
            sel = tuple(b.child(i) for b, f in zip(bs, choice) for i in f)
            if naive_le(a, sel):
                hit = True
                break
        _rel_cache[key] = hit
    return hit


def clear_oracle_memo() -> None:
    _rel_cache.clear()
    _val_cache.clear()


class GenParams(NamedTuple):
    """Shape controls for random name generation."""

    max_depth: int = 3
    max_width: int = 3
    omega_probability: float = 0.0
    seed: int = 0


def _canonical_limits() -> tuple:
    w = omega()
    return (w,)


def gen_name(params: GenParams) -> OrdName:
    """Deterministic pseudo-random name.  Finitary except that with
    omega_probability a leaf position is replaced by a canonical naturally
    indexed constant."""
    rng = random.Random(params.seed)
    # bound once; randrange(1, w + 1) draws exactly what randint(1, w) does
    draw, randrange = rng.random, rng.randrange
    limits = _canonical_limits() if params.omega_probability > 0 else ()
    p, top = params.omega_probability, params.max_width + 1

    def go(depth: int) -> OrdName:
        if limits and draw() < p:
            return rng.choice(limits)
        if depth == 0 or draw() < 0.3:
            return ZERO
        return _node_fin(tuple([go(depth - 1)
                                for _ in range(randrange(1, top))]))

    return go(params.max_depth)


def gen_finitary(seed: int, max_depth: int = 3, max_width: int = 3) -> OrdName:
    return gen_name(GenParams(max_depth=max_depth, max_width=max_width, seed=seed))
