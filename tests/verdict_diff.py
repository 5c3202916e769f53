"""Verdict differential: does a change to the engine lose a definite verdict?

    python tests/verdict_diff.py BASE_SRC [CHANGE_SRC]

Asks every le and lt of the expressions below against each one-name and
each two-name bound set at each fuel, each from an empty memo, once with
the ordcalc package under BASE_SRC and once with the one under CHANGE_SRC
(default: this checkout's src/), each side in a fresh interpreter.  Exits 1
when a verdict that is definite on the base side is unknown or flipped on
the change side; an unknown that becomes definite, or changes its reason,
is counted but allowed.  Each table's summed evals on both sides, and on
how many queries the eval count rose and on how many it fell, are printed
too, to show the direction of cost drift; they do not affect the exit
code.  The tests import the same tables, but
do not collect this script: a run takes about ten seconds a side.
"""

import json
import os
import subprocess
import sys

EXPRESSIONS = ("0 1 3 7 w w+1 w+2 w+3 1+w 2+w suc(w) w*2 w+w w*2+1 w*3 w^2 "
               "w^w sup(w,3) sup(w,w+1) eps0").split()
# (width, depth, steps), in the order of Fuel's fields
FUELS = ((64, 512, None), (64, 512, 50), (64, 512, 300), (4, 12, None),
         (8, 6, None), (16, 40, None), (3, 3, None))
# two-name bound sets: a zero bound, finitary bounds, bounds of finite arity
# whose last member stands in for the rows past it, and bounds with no cover
TWO_NAME = [tuple(p.split("|")) for p in (
    "0|w 7|w w|1+w w*2|w+w 3|w+1 w+1|w+3 w|w+2 sup(w,3)|eps0 w^2|eps0 "
    "w+2|w+w 3|w^w").split()]
TABLES = {"one-name": [(b,) for b in EXPRESSIONS], "two-name": TWO_NAME}


def dump() -> dict:
    """Every verdict of both tables with the ordcalc on sys.path, with the
    evals it took, keyed by table and then by (fuel, lhs, kind, bounds)
    joined into one string."""
    from ordcalc.compare import Fuel, clear_memo, le, lt, memo_stats
    from ordcalc.expr import lower, parse_expr

    names = {t: lower(parse_expr(t)) for t in EXPRESSIONS}
    out = {}
    for table, bound_sets in TABLES.items():
        rows = out[table] = {}
        for fuel in FUELS:
            for a in EXPRESSIONS:
                for bs in bound_sets:
                    for kind, rel in (("le", le), ("lt", lt)):
                        clear_memo()
                        v = rel(names[a], [names[b] for b in bs], Fuel(*fuel))
                        key = f"{fuel} {kind} {a} {'|'.join(bs)}"
                        evals = memo_stats()["evals"]
                        rows[key] = (v.value, v.reason, evals)
    return out


def verdicts_of(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    run = subprocess.run([sys.executable, os.path.abspath(__file__), "--dump"],
                         env=env, capture_output=True, text=True)
    if run.returncode:
        sys.exit(f"dumping the verdicts under {src} failed:\n{run.stderr}")
    return json.loads(run.stdout)


def compare(base: dict, change: dict) -> list:
    """Print each table's counts and return the lost or flipped verdicts."""
    bad = []
    for table, rows in base.items():
        now = change[table]
        assert rows.keys() == now.keys(), table
        lost = [(q, rows[q], now[q]) for q in rows
                if rows[q][0] is not None and now[q][0] is not rows[q][0]]
        gained = sum(rows[q][0] is None and now[q][0] is not None for q in rows)
        moved = sum(rows[q][0] is None and now[q][0] is None
                    and rows[q][1] != now[q][1] for q in rows)
        definite = [sum(v[0] is not None for v in side.values())
                    for side in (rows, now)]
        evals = [sum(v[2] for v in side.values()) for side in (rows, now)]
        rose = sum(now[q][2] > rows[q][2] for q in rows)
        fell = sum(now[q][2] < rows[q][2] for q in rows)
        print(f"{table}: {len(rows)} queries, definite {definite[0]} -> "
              f"{definite[1]}, lost or flipped {len(lost)}, gained {gained}, "
              f"unknown with another reason {moved}; evals {evals[0]} -> "
              f"{evals[1]}, rose on {rose} queries, fell on {fell}")
        bad += lost
    return bad


def main(argv: list) -> int:
    if argv == ["--dump"]:
        json.dump(dump(), sys.stdout)
        return 0
    if len(argv) not in (1, 2) or argv[0].startswith("-"):
        print("usage: python tests/verdict_diff.py BASE_SRC [CHANGE_SRC]",
              file=sys.stderr)
        return 2
    here = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    base = verdicts_of(argv[0])
    change = verdicts_of(argv[1] if len(argv) == 2 else here)
    bad = compare(base, change)
    for query, was, now in bad:
        print(f"LOST {query}: {was} -> {now}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
