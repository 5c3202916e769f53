"""Command line: compare names, list tree nodes, prove sequents, check laws.

Exit codes: 0 for a definite answer, 2 for a usage or input error, 3 when
the bounded engine cannot decide at the given fuel, or when `--emit-cert`
has no verified, serializable certificate for the verdict.

`ord cmp` takes every certificate from `_certified`, which searches once
and verifies once.  `--kernel` turns an unknown line true on one, and the
search alone decides, by Cantor normal form, which claims it settles;
`--emit-cert` prints the verdict's certificates from it, all or none.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import trees
from .checker import KernelError, SpotCheck, serialize, verify
from .compare import TRUE, Fuel, le, lt
from .expr import ExprError, lower, parse_expr, parse_name, parse_sequent
from .kernel import le_cert, lt_cert
from .laws import run_laws
from .mlseq import Atom, ml_cert_exa123, ml_derivable, ml_verify
from .names import BitSeq, eps_llpo, eps_lpo

_ASSIST = SpotCheck(samples=(0, 1, 2), depth=64)


def _show(v) -> str:
    return {True: "true", False: "false", None: "unknown"}[v.value]


def _certified(search, x, y):
    """(certificate, None) when the search finds a certificate of x against
    [y] and verify accepts it, else (None, the reason)."""
    try:
        cert = search(x, (y,))
    except KernelError as e:
        return None, str(e)
    if not verify(cert, _ASSIST).ok:
        return None, "the certificate fails verification"
    return cert, None


def cmd_cmp(args) -> int:
    a = lower(parse_expr(args.lhs))
    b = lower(parse_expr(args.rhs))
    fuel = Fuel(width=args.width, depth=args.depth)
    # each label's certificate search and its operands, lhs then the bound
    claims = {"le": (le_cert, a, b), "ge": (le_cert, b, a),
              "lt": (lt_cert, a, b), "gt": (lt_cert, b, a)}
    vs = {"le": le(a, (b,), fuel), "ge": le(b, (a,), fuel),
          "lt": lt(a, (b,), fuel), "gt": lt(b, (a,), fuel)}
    found = {}

    def certified(label):
        if label not in found:
            found[label] = _certified(*claims[label])
        return found[label]

    # the search itself refuses what normal forms refute; an unknown line
    # turns true only on a certificate that verify accepts, or, for a
    # non-strict line, on its strict line being true, since a < b gives
    # a <= b (kernel.lt_to_le)
    if args.kernel:
        for weak, strict in (("le", "lt"), ("ge", "gt")):
            for label in (strict, weak):
                if vs[label].value is None and (
                        vs[strict].value or certified(label)[0] is not None):
                    vs[label] = TRUE
    vs["eq"] = vs["le"].and_(vs["ge"])
    for label, v in vs.items():
        print(f"{label} {_show(v)}")
    if vs["lt"].value:
        verdict = "lt"
    elif vs["gt"].value:
        verdict = "gt"
    elif vs["eq"].value:
        verdict = "eq"
    else:
        verdict = "unknown"
    print(f"verdict {verdict}")
    if verdict == "unknown":
        if args.emit_cert:
            print("error: no certificate for an unknown verdict",
                  file=sys.stderr)
        return 3
    if args.emit_cert:
        # every block is written before any is printed: all or none
        blocks = []
        for label in ((verdict,) if verdict != "eq" else ("le", "ge")):
            cert, reason = certified(label)
            if cert is not None:
                try:
                    blocks.append(f"cert {label}\n{serialize(cert)}")
                except KernelError as e:
                    cert, reason = None, str(e)
            if cert is None:
                print(f"error: no certificate for {label}: {reason}",
                      file=sys.stderr)
                return 3
        for block in blocks:
            print(block)
    return 0


def cmd_tree(args) -> int:
    name = parse_name(args.expr)
    for path in trees.enumerate(name, args.mu_bound):
        print("[" + ",".join(str(e) for e in path) + "]")
    return 0


def cmd_ml_prove(args) -> int:
    triples = parse_sequent(args.sequent)
    goal = frozenset(Atom(lhs, rel, rhs) for lhs, rel, rhs in triples)
    print(f"derivable {'true' if ml_derivable(goal) else 'false'}")
    return 0


def cmd_check_laws(args) -> int:
    ran, failures = run_laws(seed=args.seed, cases=args.cases,
                             names=args.law or None,
                             max_depth=args.size, max_width=args.size)
    if failures:
        name, msg = failures[0]
        print(f"FAIL {name}: {msg}")
        return 1
    print(f"PASS {ran}/{ran}")
    return 0


def _bits(text: str) -> List[int]:
    if not text or any(c not in "01" for c in text):
        raise ExprError("prefix must be a nonempty string of 0s and 1s", 1)
    return [int(c) for c in text]


def _bitseq(prefix: List[int], tail: str) -> BitSeq:
    if tail == "const":
        return BitSeq.const_last(prefix)
    last = prefix[-1] if prefix else 0
    return BitSeq.opaque(prefix, tail=lambda i: last)


def cmd_demo(args) -> int:
    bits = _bits(args.prefix)
    u = _bitseq(bits, args.tail)
    if args.which == "lpo":
        a, b = eps_lpo(u)
        v = lt(a, (b,), Fuel(width=args.width, depth=args.depth))
        print(f"engine: {_show(v)}")
        report = ml_verify(ml_cert_exa123(u),
                           SpotCheck(samples=(0, 1, 2, 3), depth=128))
        print(f"ml: {'provable' if report.ok else 'not provable'}")
        return 0
    full, evens, odds = eps_llpo(u)
    fuel = Fuel(width=args.width, depth=args.depth)
    print(f"engine evens: {_show(le(full, (evens,), fuel))}")
    print(f"engine odds: {_show(le(full, (odds,), fuel))}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ord", description="calculate with countable ordinal names")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cmp", help="compare two ordinal expressions")
    c.add_argument("lhs")
    c.add_argument("rhs")
    c.add_argument("--width", type=int, default=64)
    c.add_argument("--depth", type=int, default=512)
    c.add_argument("--kernel", action="store_true",
                   help="let certificate search settle unknown verdicts")
    c.add_argument("--emit-cert", action="store_true",
                   help="print a serialized certificate for the verdict")
    c.set_defaults(fn=cmd_cmp)

    t = sub.add_parser("tree", help="list tree nodes up to a weight bound")
    t.add_argument("expr")
    t.add_argument("--mu-bound", type=int, required=True)
    t.set_defaults(fn=cmd_tree)

    m = sub.add_parser("ml-prove", help="decide sequent derivability")
    m.add_argument("sequent", help='e.g. "suc(0) < w, 0 <= 1"')
    m.set_defaults(fn=cmd_ml_prove)

    k = sub.add_parser("check-laws", help="run the order-law battery")
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("--cases", type=int, default=200)
    k.add_argument("--size", type=int, default=3,
                   help="depth and width bound for the drawn names")
    k.add_argument("--law", action="append", metavar="NAME",
                   help="restrict to named laws (repeatable)")
    k.set_defaults(fn=cmd_check_laws)

    d = sub.add_parser("demo", help="run an omniscience demonstration")
    d.add_argument("which", choices=("lpo", "llpo"))
    d.add_argument("--prefix", required=True, help="bit string, e.g. 001")
    d.add_argument("--tail", choices=("const", "opaque"), default="const")
    d.add_argument("--width", type=int, default=64)
    d.add_argument("--depth", type=int, default=512)
    d.set_defaults(fn=cmd_demo)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ExprError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        # a numeral tower like 9^9 names a finite ordinal far deeper
        # than any stack; refuse it instead of crashing
        print("error: expression builds a name too deep to represent",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
