"""Command line: compare names, list tree nodes, prove sequents, check laws.

Exit codes: 0 for a definite answer, 2 for a usage or input error, 3 when
the bounded engine cannot decide at the given fuel.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import trees
from .compare import TRUE, Fuel, le, lt
from .expr import (ExprError, kernel_eligible, lower, parse_expr, parse_name,
                   parse_sequent)
from .kernel import (CertSearchError, KernelError, SpotCheck, le_cert,
                     lt_cert, serialize, verify)
from .laws import run_laws
from .mlseq import Atom, ml_cert_exa123, ml_derivable, ml_verify
from .names import BitSeq, eps_llpo, eps_lpo

_ASSIST = SpotCheck(samples=(0, 1, 2), depth=64)


def _show(v) -> str:
    return {True: "true", False: "false", None: "unknown"}[v.value]


def _upgrade(v, search, a, bs):
    """Replace an unknown engine verdict by true when a certificate for the
    judgment is found and survives verification."""
    if v.value is not None:
        return v, None
    try:
        cert = search(a, bs)
    except (CertSearchError, KernelError):
        return v, None
    if verify(cert, _ASSIST).ok:
        return TRUE, cert
    return v, None


def cmd_cmp(args) -> int:
    ea = parse_expr(args.lhs)
    eb = parse_expr(args.rhs)
    a = lower(ea)
    b = lower(eb)
    fuel = Fuel(width=args.width, depth=args.depth)
    vle = le(a, (b,), fuel)
    vge = le(b, (a,), fuel)
    vlt = lt(a, (b,), fuel)
    vgt = lt(b, (a,), fuel)
    certs = {}
    # The search only escalates on shapes it is known to settle; outside
    # that fragment the engine's verdict stands.
    if args.kernel and kernel_eligible(ea) and kernel_eligible(eb):
        vle, certs["le"] = _upgrade(vle, le_cert, a, (b,))
        vge, certs["ge"] = _upgrade(vge, le_cert, b, (a,))
        vlt, certs["lt"] = _upgrade(vlt, lt_cert, a, (b,))
        vgt, certs["gt"] = _upgrade(vgt, lt_cert, b, (a,))
    veq = vle.and_(vge)
    for label, v in (("le", vle), ("ge", vge), ("lt", vlt), ("gt", vgt),
                     ("eq", veq)):
        print(f"{label} {_show(v)}")
    if vlt.value:
        verdict = "lt"
    elif vgt.value:
        verdict = "gt"
    elif veq.value:
        verdict = "eq"
    else:
        verdict = "unknown"
    print(f"verdict {verdict}")
    if args.emit_cert:
        if verdict == "unknown":
            print("error: no certificate for an unknown verdict",
                  file=sys.stderr)
            return 3
        try:
            for label in (("lt",) if verdict == "lt" else
                          ("gt",) if verdict == "gt" else ("le", "ge")):
                cert = certs.get(label)
                if cert is None:
                    if label == "lt":
                        cert = lt_cert(a, (b,))
                    elif label == "gt":
                        cert = lt_cert(b, (a,))
                    elif label == "le":
                        cert = le_cert(a, (b,))
                    else:
                        cert = le_cert(b, (a,))
                print(f"cert {label}")
                print(serialize(cert))
        except (CertSearchError, KernelError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    return 0 if verdict != "unknown" else 3


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
    if args.which in ("lpo", "ml-lpo"):
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
    d.add_argument("which", choices=("lpo", "ml-lpo", "llpo"))
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
