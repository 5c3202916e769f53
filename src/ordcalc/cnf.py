"""Cantor normal form below epsilon-0: the untrusted hint that steers
certificate search.

Every ordinal below epsilon-0 is uniquely w^e1*c1 + ... + w^ek*ck with
e1 > ... > ek and each ci a positive natural; the exponents are again in
that form.  A value here is the tuple of its (exponent, coefficient) terms
in that order, so zero is the empty tuple and two values denote the same
ordinal exactly when they are equal.

Python's own tuple order on values is the ordinal order, so values are
compared with ``<`` and ``max``.  Two forms are ordered by the first term
where they differ, exponent first and then coefficient: the larger
exponent wins since every later term of the other form sits below that
power, and at equal exponents the larger coefficient wins for the same
reason.  A form that runs out first is a proper prefix of the other, whose
extra terms are positive, so it is the smaller.  Tuple order compares
exactly that way: terms pairwise, a pair by its exponent (again a form,
ordered by induction) and then by its coefficient (a positive int), and a
prefix below the longer tuple.

Names record the form of the ordinal they denote where the construction
makes it obvious (``of``).  Nothing in the trusted checker reads it: the
search uses it only to choose, order and prune the steps it tries, and every
step it takes is still checked by ``verify``.
"""

from __future__ import annotations

from typing import Optional

ZERO: tuple = ()


def nat(n: int) -> tuple:
    """The natural n: a single w^0 term, or no term at all."""
    return ((ZERO, n),) if n else ZERO


ONE = nat(1)
OMEGA = ((ONE, 1),)


def add(a: tuple, b: tuple) -> tuple:
    """a + b: the terms of a below b's leading power are absorbed, and a term
    at that power adds its coefficient to b's leading one."""
    if not b:
        return a
    lead, coeff = b[0]
    head = []
    for e, c in a:
        if e < lead:
            break
        if e == lead:
            coeff += c
            break
        head.append((e, c))
    return tuple(head) + ((lead, coeff),) + b[1:]


def mul(a: tuple, b: tuple) -> tuple:
    """a * b, distributed over b's terms from the right: a * w^e is
    w^(e1 + e) for e > 0, where w^e1 leads a, and a * n scales only a's
    leading coefficient."""
    if not a or not b:
        return ZERO
    (e1, c1), rest = a[0], a[1:]
    out = ZERO
    for e, c in b:
        if e:
            out = add(out, ((add(e1, e), c),))
        else:
            out = add(out, ((e1, c1 * c),) + rest)
    return out


def _finite(a: tuple) -> Optional[int]:
    """a as a natural, or None when a is infinite."""
    if not a:
        return 0
    if len(a) == 1 and not a[0][0]:
        return a[0][1]
    return None


def power(a: tuple, b: tuple) -> Optional[tuple]:
    """w^b, and n^b for a natural n; None for any other base.

    For n >= 2 write b = w*d + k with k finite: then n^b = (n^w)^d * n^k =
    w^d * n^k.  d takes one w off each infinite term of b: w^m becomes
    w^(m-1) for finite m, and w^e stays for infinite e, since 1 + e = e."""
    if a == OMEGA:
        return ((b, 1),)
    n = _finite(a)
    if n is None:
        return None
    if not b:
        return ONE
    if n < 2:
        return nat(n)
    k = 0
    d = []
    for e, c in b:
        m = _finite(e)
        if m == 0:
            k = c
        else:
            d.append((e if m is None else nat(m - 1), c))
    return mul(((tuple(d), 1),) if d else ONE, nat(n ** k))


def of(name) -> Optional[tuple]:
    """The form a name records for its ordinal, or None.  A finitary name
    denotes its tree height, so it records nothing of its own."""
    h = name.height
    return name.cnf if h is None else nat(h)
