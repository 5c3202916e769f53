"""Surface syntax for ordinal names.

Grammar, loosest binding first:

  expr   := term ('+' term)*
  term   := factor ('*' factor)*
  factor := atom ('^' factor)?          right associative
  atom   := NUM | 'w' | 'eps0'
          | 'suc' '(' expr (',' expr)* ')'
          | 'sup' '(' expr (',' expr)* ')'
          | 'ack' '(' expr ',' expr ',' expr ')'
          | '(' expr ')'

A multi-argument suc is the successor family: suc(a, b) names the node
whose subordinals are exactly a and b.

``format_expr`` prints the canonical form: spaces around '+', none around
'*' or '^', parentheses only where precedence demands them.  ``lower`` maps
an expression to the ordinal name it denotes.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional, Tuple, Union

from . import arith
from .names import OrdName, ZERO, omega, suc_list, sup_finite, und


class ExprError(ValueError):
    """Syntax error with a 1-based column."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} at column {column}")
        self.column = column


class Num(NamedTuple):
    value: int


class Const(NamedTuple):
    name: str  # "w" | "eps0"


class Call(NamedTuple):
    fn: str  # "suc" | "sup" | "ack"
    args: Tuple["Expr", ...]


class BinOp(NamedTuple):
    op: str  # "+" | "*" | "^"
    lhs: "Expr"
    rhs: "Expr"


Expr = Union[Num, Const, Call, BinOp]

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(<=|<|[+*^(),]))")
_CONSTS = ("w", "eps0")
_CALLS = {"suc": None, "sup": None, "ack": 3}  # None: any positive arity


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    """(kind, text, column) triples; kind is num, name or sym."""
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            col = len(text) - len(rest) + 1
            raise ExprError(f"unexpected character {rest[0]!r}", col)
        pos = m.end()
        if m.group(1):
            out.append(("num", m.group(1), m.start(1) + 1))
        elif m.group(2):
            out.append(("name", m.group(2), m.start(2) + 1))
        else:
            out.append(("sym", m.group(3), m.start(3) + 1))
    out.append(("end", "", len(text) + 1))
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> Tuple[str, str, int]:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, sym: str) -> None:
        kind, text, col = self.peek()
        if kind != "sym" or text != sym:
            shown = repr(text) if kind != "end" else "end of input"
            raise ExprError(f"expected {sym!r}, found {shown}", col)
        self.pos += 1

    def expr(self) -> Expr:
        node = self.term()
        while self.peek()[:2] == ("sym", "+"):
            self.take()
            node = BinOp("+", node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek()[:2] == ("sym", "*"):
            self.take()
            node = BinOp("*", node, self.factor())
        return node

    def factor(self) -> Expr:
        node = self.atom()
        if self.peek()[:2] == ("sym", "^"):
            self.take()
            node = BinOp("^", node, self.factor())
        return node

    def atom(self) -> Expr:
        kind, text, col = self.take()
        if kind == "num":
            return Num(int(text))
        if kind == "name":
            if text in _CONSTS:
                return Const(text)
            if text in _CALLS:
                self.expect("(")
                args = [self.expr()]
                while self.peek()[:2] == ("sym", ","):
                    self.take()
                    args.append(self.expr())
                self.expect(")")
                want = _CALLS[text]
                if want is not None and len(args) != want:
                    raise ExprError(
                        f"{text} takes {want} argument{'s' if want != 1 else ''},"
                        f" got {len(args)}", col)
                return Call(text, tuple(args))
            raise ExprError(f"unknown name {text!r}", col)
        if kind == "sym" and text == "(":
            node = self.expr()
            self.expect(")")
            return node
        shown = repr(text) if kind != "end" else "end of input"
        raise ExprError(f"expected an expression, found {shown}", col)


def parse_expr(text: str) -> Expr:
    p = _Parser(text)
    node = p.expr()
    kind, tok, col = p.peek()
    if kind != "end":
        raise ExprError(f"trailing input {tok!r}", col)
    return node


_PREC = {"+": 1, "*": 2, "^": 3}


def _fmt(e: Expr, context: int) -> str:
    if isinstance(e, Num):
        return str(e.value)
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(_fmt(a, 0) for a in e.args)})"
    mine = _PREC[e.op]
    sep = " + " if e.op == "+" else e.op
    # the associative side admits equal precedence: '^' groups rightward
    left = _fmt(e.lhs, mine if e.op != "^" else mine + 1)
    right = _fmt(e.rhs, mine + 1 if e.op != "^" else mine)
    body = f"{left}{sep}{right}"
    return f"({body})" if mine < context else body


def format_expr(e: Expr) -> str:
    """Canonical rendering; parse(format_expr(e)) rebuilds e."""
    return _fmt(e, 0)


NUMERAL_LIMIT = 512


class _TooDeep(Exception):
    def __init__(self, value: int):
        super().__init__(str(value))
        self.value = value


def _chk(v: int) -> int:
    if v > NUMERAL_LIMIT:
        raise _TooDeep(v)
    return v


def _ack_value(a: int, b: int, g: int) -> int:
    # same recursion the name-level iteration follows, on machine naturals;
    # the b-descent is unrolled into a loop so only g consumes stack
    if g == 0:
        return _chk(a + b)
    acc = a
    for _ in range(b):
        acc = _ack_value(a, acc, g - 1)
    return acc


def _numeral(e: Expr) -> Optional[int]:
    """Machine value of a numeral expression, None once w or eps0 occurs.

    Arithmetic rebuilds a numeral operand's whole spine eagerly, so a
    numeral reaching an operator position must stay below NUMERAL_LIMIT;
    anything deeper would overflow the stack during construction.  Bare
    numerals and suc/sup arguments build iteratively and pass unchecked.
    """
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Const):
        return None
    if isinstance(e, Call):
        vals = [_numeral(a) for a in e.args]
        if e.fn == "suc":
            known = [v for v in vals if v is not None]
            if len(known) < len(vals):
                return None
            return max(known) + 1
        if e.fn == "sup":
            known = [v for v in vals if v is not None]
            if len(known) < len(vals):
                return None
            return max(known)
        for v in vals:
            if v is not None:
                _chk(v)
        if any(v is None for v in vals):
            return None
        return _ack_value(vals[0], vals[1], vals[2])
    l, r = _numeral(e.lhs), _numeral(e.rhs)
    for v in (l, r):
        if v is not None:
            _chk(v)
    if l is None or r is None:
        return None
    if e.op == "+":
        return _chk(l + r)
    if e.op == "*":
        return _chk(l * r)
    if l <= 1:
        return 1 if r == 0 else l
    # exponent clamp keeps the probe itself cheap; past the limit the
    # exact value no longer matters
    return _chk(l ** min(r, 10))


def lower(e: Expr) -> OrdName:
    """The ordinal name an expression denotes.

    Numeral subterms feeding an arithmetic operator are bounded by
    NUMERAL_LIMIT; ValueError past that, since the name would be deeper
    than any stack the construction could recurse on.
    """
    try:
        _numeral(e)
    except _TooDeep as t:
        raise ValueError(
            f"numeral of magnitude {t.value} is too deep to take part in"
            f" arithmetic (limit {NUMERAL_LIMIT})") from None
    return _lower(e)


def _lower(e: Expr) -> OrdName:
    if isinstance(e, Num):
        return und(e.value)
    if isinstance(e, Const):
        return omega() if e.name == "w" else arith.eps0()
    if isinstance(e, Call):
        args = [_lower(a) for a in e.args]
        if e.fn == "suc":
            return suc_list(args)
        if e.fn == "sup":
            return sup_finite(args)
        return arith.acko(args[0], args[1], args[2])
    a, b = _lower(e.lhs), _lower(e.rhs)
    if e.op == "+":
        return arith.add(a, b)
    if e.op == "*":
        return arith.mul(a, b)
    return arith.pow(a, b)


def kernel_eligible(e: Expr) -> bool:
    """Is this expression in the fragment the certificate search handles
    dependably: naturals and w combined by +, suc, sup, and products with
    a literal natural on the right.

    Outside this fragment (powers, ack, eps0, symbolic right factors) the
    search may exhaust its budget, or worse, a sampled sweep may miss the
    index that refutes a generator.  Callers use this to decide when a
    failed engine verdict is worth escalating to a certificate search.
    """
    if isinstance(e, Num):
        return True
    if isinstance(e, Const):
        return e.name == "w"
    if isinstance(e, Call):
        if e.fn not in ("suc", "sup"):
            return False
        return all(kernel_eligible(a) for a in e.args)
    if isinstance(e, BinOp):
        if e.op == "+":
            return kernel_eligible(e.lhs) and kernel_eligible(e.rhs)
        if e.op == "*":
            return kernel_eligible(e.lhs) and isinstance(e.rhs, Num)
    return False


def parse_name(text: str) -> OrdName:
    return lower(parse_expr(text))


def parse_sequent(text: str) -> List[Tuple[OrdName, str, OrdName]]:
    """Comma-separated comparison atoms: "a < b, c <= d".

    Returns (lhs name, "lt" or "le", rhs name) triples.
    """
    p = _Parser(text)
    atoms: List[Tuple[OrdName, str, OrdName]] = []
    while True:
        lhs = p.expr()
        kind, tok, col = p.take()
        if kind != "sym" or tok not in ("<", "<="):
            shown = repr(tok) if kind != "end" else "end of input"
            raise ExprError(f"expected '<' or '<=', found {shown}", col)
        rel = "lt" if tok == "<" else "le"
        rhs = p.expr()
        atoms.append((lower(lhs), rel, lower(rhs)))
        kind, tok, col = p.peek()
        if kind == "end":
            return atoms
        if kind == "sym" and tok == ",":
            p.take()
            continue
        shown = repr(tok)
        raise ExprError(f"expected ',' between atoms, found {shown}", col)
