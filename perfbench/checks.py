"""Output checks made apart from ordcalc's own code.

Two references, both written from the textbook definitions:

* ``height``: the height of a finitary name's tree, by direct recursion over
  the public ``index``/``child`` accessors.  On finitary names the order is
  exactly the order of heights.
* Cantor normal form: ordinals below epsilon-0, with their sum, product,
  the powers the corpus uses, and comparison.  ``value`` evaluates
  the corpus's expression strings with its own small parser, so nothing of
  ``ordcalc.expr`` or ``ordcalc.arith`` is trusted.

A CNF ordinal is a tuple of (exponent, coefficient) terms with strictly
decreasing exponents, each exponent itself a CNF ordinal; zero is ().
epsilon-0 is the one value outside that form, and only comparison accepts it.
"""

from __future__ import annotations

import re
from typing import Dict

ZERO: tuple = ()
EPS0 = "eps0"


def height(name, memo: Dict[int, int]) -> int:
    """Zero has height 0; a node one more than its tallest child."""
    hit = memo.get(name.ident)
    if hit is None:
        if name.is_zero:
            hit = 0
        else:
            hit = 1 + max(height(name.child(i), memo)
                          for i in range(name.index.size))
        memo[name.ident] = hit
    return hit


def nat(n: int) -> tuple:
    return ((ZERO, n),) if n else ZERO


OMEGA = ((nat(1), 1),)


def compare(a, b) -> int:
    """-1, 0 or 1 as a is below, equal to or above b."""
    if a == EPS0 or b == EPS0:
        return (a == EPS0) - (b == EPS0)
    for (ea, ca), (eb, cb) in zip(a, b):
        c = compare(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    return (len(a) > len(b)) - (len(a) < len(b))


def _finite(a) -> bool:
    return a != EPS0 and all(e == ZERO for e, _ in a)


def _need_cnf(*xs) -> None:
    if any(x == EPS0 for x in xs):
        raise ValueError("arithmetic on epsilon-0 is outside this checker")


def add(a, b):
    """Terms of a below b's leading exponent are absorbed."""
    _need_cnf(a, b)
    if not b:
        return a
    lead, coeff = b[0]
    kept = tuple(t for t in a if compare(t[0], lead) > 0)
    same = [c for e, c in a if compare(e, lead) == 0]
    return kept + ((lead, coeff + sum(same)),) + b[1:]


def mul(a, b):
    """Right-distributive: a * w^e = w^(lead(a) + e) for e > 0, and a * n
    multiplies only a's leading coefficient."""
    _need_cnf(a, b)
    if not a or not b:
        return ZERO
    lead, coeff = a[0]
    out = ZERO
    for e, c in b:
        if e == ZERO:
            part = ((lead, coeff * c),) + a[1:]
        else:
            part = ((add(lead, e), c),)
        out = add(out, part)
    return out


def power(a, b):
    """w^b, and n^b for a natural base n."""
    _need_cnf(a, b)
    if a == OMEGA:
        return ((b, 1),)
    if not _finite(a):
        raise ValueError("only powers of w or of a natural are supported")
    n = a[0][1] if a else 0
    if not b or n == 1:
        return nat(1)
    if n == 0:
        return ZERO
    # n^(w*beta + k) = w^beta * n^k, where w*beta peels one w off each
    # infinite term: w^e = w * w^(e-1) for finite e, and w * w^e for
    # infinite e since 1 + e = e
    k = b[-1][1] if b[-1][0] == ZERO else 0
    beta = tuple((nat(e[0][1] - 1) if _finite(e) else e, c)
                 for e, c in b if e != ZERO)
    return mul(((beta, 1),) if beta else nat(1), nat(n ** k))


_TOKEN = re.compile(r"\s*(\d+|w|eps0|suc|sup|[+*^(),])")


def value(text: str):
    """The CNF value of a corpus expression."""
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")
    at = [0]

    def peek() -> str:
        return tokens[at[0]]

    def take(want: str = None) -> str:
        tok = tokens[at[0]]
        if want is not None and tok != want:
            raise ValueError(f"expected {want!r} in {text!r}")
        at[0] += 1
        return tok

    def expr():
        v = term()
        while peek() == "+":
            take()
            v = add(v, term())
        return v

    def term():
        v = factor()
        while peek() == "*":
            take()
            v = mul(v, factor())
        return v

    def factor():
        v = atom()
        if peek() == "^":
            take()
            v = power(v, factor())
        return v

    def atom():
        tok = take()
        if tok.isdigit():
            return nat(int(tok))
        if tok == "w":
            return OMEGA
        if tok == "eps0":
            return EPS0
        if tok in ("suc", "sup"):
            take("(")
            args = [expr()]
            while peek() == ",":
                take()
                args.append(expr())
            take(")")
            top = args[0]
            for x in args[1:]:
                if compare(x, top) > 0:
                    top = x
            return add(top, nat(1)) if tok == "suc" else top
        if tok == "(":
            v = expr()
            take(")")
            return v
        raise ValueError(f"unexpected {tok!r} in {text!r}")

    v = expr()
    take("")
    return v


def holds(kind: str, lhs: str, rhs: str) -> bool:
    """Is the claim lhs <= rhs ("le") or lhs < rhs ("lt") true?"""
    c = compare(value(lhs), value(rhs))
    return c <= 0 if kind == "le" else c < 0


def relations(lhs: str, rhs: str) -> Dict[str, bool]:
    """The truth of every line ``ord cmp lhs rhs`` prints."""
    c = compare(value(lhs), value(rhs))
    return {"le": c <= 0, "ge": c >= 0, "lt": c < 0, "gt": c > 0,
            "eq": c == 0}

