"""End-to-end acceptance battery: seven checks, one reported line each.

Every check prints a single pass/fail summary through the terminal
reporter, so a verbose run shows the seven verdicts at a glance.  All
randomness is seeded; reruns see the same instances.
"""

import subprocess
import sys
import time
from itertools import product

from ordcalc import kernel, trees
from ordcalc.arith import add, mul, pow
from ordcalc.compare import Fuel, Ordering, cmp_finitary, finitary_fuel, le, lt
from ordcalc.checker import SpotCheck, verify
from ordcalc.kernel import eq_certs, lt_intro, refl
from ordcalc.laws import LAWS, run_laws
from ordcalc.mlseq import Atom, ml_cert_exa123, ml_derivable, ml_verify
from ordcalc.names import (BitSeq, ZERO, eps_llpo, eps_lpo, omega, suc,
                           suc_list, sup_finite, und)
from ordcalc.oracle import GenParams, gen_finitary, gen_name, naive_le, naive_lt, val

from .test_arith import LAWS_33, seq_sum_pointwise_monotone
from .test_expr_cli import GOLDEN, GOLDEN_CASES, corpus, run_cli
from .test_trees import (OMEGA_MU5, W_PLUS_1_MU5, W_PLUS_2_MU5, W_PLUS_W_MU5)
from ordcalc.expr import format_expr, parse_expr

SPOT = SpotCheck(samples=(0, 1, 2), depth=64)


def _conclude(report_line, n, label, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    report_line(f"acceptance {n} {verdict}  {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_1_oracle_triangle(report_line):
    t0 = time.time()
    unknown = disagree = 0
    for i in range(500):
        a = gen_name(GenParams(max_depth=4, max_width=3, seed=7_000 + 2 * i))
        b = gen_name(GenParams(max_depth=4, max_width=3, seed=7_001 + 2 * i))
        fuel = finitary_fuel(a, b)
        vle, vlt = le(a, (b,), fuel), lt(a, (b,), fuel)
        if vle.value is None or vlt.value is None:
            unknown += 1
            continue
        if vle.value != naive_le(a, (b,)) or vlt.value != naive_lt(a, (b,)):
            disagree += 1
        if vle.value != (val(a) <= val(b)) or vlt.value != (val(a) < val(b)):
            disagree += 1
    took = time.time() - t0
    ok = unknown == 0 and disagree == 0 and took < 60
    _conclude(report_line, 1, "oracle triangle",
              ok, f"500 pairs, {unknown} unknown, {disagree} disagreements,"
                  f" {took:.1f}s")


def test_criterion_2_order_law_battery(report_line):
    strengthenings = {"suc-iso", "suc-sup-commute"}
    ran, failures = run_laws(seed=11, cases=1000)
    ok = (len(LAWS) >= 15 and strengthenings <= set(LAWS)
          and not failures and ran == len(LAWS) * 1000)
    head = failures[0] if failures else None
    _conclude(report_line, 2, "order-law battery",
              ok, f"{ran} checks over {len(LAWS)} laws, first failure: {head}")


def test_criterion_3_golden_facts(report_line):
    bad = []

    # naturals embed order-exactly
    for m in range(21):
        for n in range(21):
            want = Ordering.LT if m < n else (
                Ordering.EQ if m == n else Ordering.GT)
            if cmp_finitary(und(m), und(n)) is not want:
                bad.append(f"und {m} vs {n}")

    # the sup of a finite family sits strictly below its successor node
    for i in range(200):
        xs = [gen_finitary(10_000 + 7 * i + j, max_depth=3, max_width=3)
              for j in range(1 + i % 3)]
        lo, hi = sup_finite(xs), suc_list(xs)
        if not lt(lo, (hi,), finitary_fuel(lo, hi)).value:
            bad.append(f"sup<suc pair {i}")

    for n in range(11):
        if trees.node_count(und(n)) != n + 1:
            bad.append(f"node_count und {n}")

    listings = [(omega(), OMEGA_MU5), (add(omega(), und(1)), W_PLUS_1_MU5),
                (add(omega(), und(2)), W_PLUS_2_MU5),
                (add(omega(), omega()), W_PLUS_W_MU5)]
    for name, expected in listings:
        if not all(trees.member(p, name) for p in expected):
            bad.append("membership")
        if sorted(trees.enumerate(name, 5)) != sorted(expected):
            bad.append("mu<=5 universe")

    _conclude(report_line, 3, "golden facts",
              not bad, f"441 natural pairs, 200 sup/suc pairs, 4 tree"
                       f" listings; failures: {bad[:3]}")


def test_criterion_4_arithmetic(report_line):
    bad = []

    pairs = [(gen_finitary(41_000 + 2 * i, max_depth=3, max_width=3),
              gen_finitary(41_001 + 2 * i, max_depth=3, max_width=3))
             for i in range(500)]
    for a, b in pairs:
        if val(add(a, b)) != val(a) + val(b):
            bad.append("add hom")
        if val(mul(a, b)) != val(a) * val(b):
            bad.append("mul hom")

    # exponents draw shallower names: a natural's spine is its value, so
    # the power's value must stay stack-representable
    done = seed = 0
    while done < 500:
        a = gen_finitary(43_000 + 2 * seed, max_depth=2, max_width=2)
        b = gen_finitary(43_001 + 2 * seed, max_depth=2, max_width=2)
        seed += 1
        if val(a) ** val(b) > 1024:
            continue
        done += 1
        if val(pow(a, b)) != val(a) ** val(b):
            bad.append("pow hom")

    triples = [(gen_finitary(45_000 + 3 * i, max_depth=3, max_width=3),
                gen_finitary(45_001 + 3 * i, max_depth=3, max_width=3),
                gen_finitary(45_002 + 3 * i, max_depth=3, max_width=3))
               for i in range(300)]
    for name, law in LAWS_33:
        for t in triples:
            if not law(*t):
                bad.append(name)
                break
    for t in triples:
        if not seq_sum_pointwise_monotone(*t):
            bad.append("seq_sum monotone")
            break

    # certified identities survive verification and the engine never
    # contradicts them
    w = omega()
    ww = add(w, w)
    claims = []
    for c in eq_certs(add(und(1), w), w):
        claims.append(c)
    for c in eq_certs(mul(w, und(2)), ww):
        claims.append(c)
    claims.append(lt_intro(w, (ww,), 1, refl(w)))
    fuel = Fuel(width=32, depth=128)
    for cert in claims:
        if not verify(cert, SPOT).ok:
            bad.append(f"verify {cert.rule}")
            continue
        j = cert.conclusion
        probe = (le if j.kind == "le" else lt)(j.lhs, j.rhs, fuel)
        if probe.value is False:
            bad.append(f"engine contradicts {cert.rule}")

    _conclude(report_line, 4, "arithmetic",
              not bad, f"1500 homomorphism pairs, {len(LAWS_33)}+1 laws x 300"
                       f" triples, 5 certified claims; failures: {bad[:3]}")


def test_criterion_5_omniscience_demos(report_line):
    bad = []

    # opaque tails: every verdict stays unknown at every width
    for width in (8, 64, 256):
        fuel = Fuel(width=width, depth=512)
        for prefix in ([0], [0, 0, 0], [0, 0, 1, 0]):
            u = BitSeq.opaque(prefix, tail=lambda n: 0)
            a, b = eps_lpo(u)
            full, evens, odds = eps_llpo(u)
            if lt(a, (b,), fuel).value is not None:
                bad.append(f"lpo opaque w={width}")
            if (le(full, (evens,), fuel).value is not None
                    or le(full, (odds,), fuel).value is not None):
                bad.append(f"llpo opaque w={width}")

    fuel = Fuel(width=64, depth=512)

    # eventually constant tails: a 0/1 sequence with a computable tail
    # attains its maximum, so the strict comparison is always provable
    for bits in (bits for k in range(1, 5)
                 for bits in product((0, 1), repeat=k)):
        u = BitSeq.const_last(list(bits))
        attains_max = 1 in bits or bits[-1] == 0
        a, b = eps_lpo(u)
        if lt(a, (b,), fuel).value is not attains_max:
            bad.append(f"lpo const {bits}")

    # valid split presentations: at most one 1, constant-zero tail; the
    # verdict per parity is read off the position of the 1
    for length in range(1, 7):
        prefixes = [[0] * length]
        prefixes += [[1 if i == j else 0 for i in range(length)]
                     for j in range(length - 1)]
        for prefix in prefixes:
            u = BitSeq.const_last(prefix)
            full, evens, odds = eps_llpo(u)
            ones = [i for i, bit in enumerate(prefix) if bit]
            for k, side in ((0, evens), (1, odds)):
                want = all(i % 2 == k for i in ones)
                if le(full, (side,), fuel).value is not want:
                    bad.append(f"llpo const {prefix} k={k}")

    _conclude(report_line, 5, "omniscience demos",
              not bad, f"3 widths x 3 opaque prefixes, 30 + 21 constant"
                       f" presentations; failures: {bad[:3]}")


def test_criterion_6_sequent_calculus(report_line):
    bad = []

    for i in range(100):
        a = gen_finitary(91_000 + i, max_depth=3, max_width=3)
        if not ml_derivable(frozenset({Atom(a, "le", a)})):
            bad.append(f"refl {i}")
        if not ml_derivable(frozenset({Atom(a, "lt", suc(a))})):
            bad.append(f"suc {i}")
        if ml_derivable(frozenset({Atom(a, "lt", a)})):
            bad.append(f"strict refl {i}")

    for i in range(100):
        a = gen_finitary(92_000 + 2 * i, max_depth=3, max_width=3)
        b = gen_finitary(92_001 + 2 * i, max_depth=3, max_width=3)
        if not ml_derivable(frozenset({Atom(a, "lt", b), Atom(b, "le", a)})):
            bad.append(f"linearity {i}")

    for i in range(300):
        a = gen_finitary(93_000 + 2 * i, max_depth=3, max_width=3)
        b = gen_finitary(93_001 + 2 * i, max_depth=3, max_width=3)
        order = cmp_finitary(a, b)
        facts = {"lt": order is Ordering.LT,
                 "le": order is not Ordering.GT}
        for rel, truth in facts.items():
            if ml_derivable(frozenset({Atom(a, rel, b)})) is not truth:
                bad.append(f"coincidence {i} {rel}")

    # the divergence family: the sequent certificate verifies while the
    # engine stays unknown on the opaque presentation
    for length in range(1, 9):
        for final in (0, 1):
            prefix = [0] * (length - 1) + [final]
            hidden = BitSeq.opaque(prefix, tail=lambda n, f=final: f)
            a, b = eps_lpo(hidden)
            if lt(a, (b,), Fuel(width=64, depth=512)).value is not None:
                bad.append(f"divergence engine {prefix}")
            if not ml_verify(ml_cert_exa123(hidden), SPOT).ok:
                bad.append(f"divergence ml opaque {prefix}")
            if not ml_verify(ml_cert_exa123(BitSeq.const_last(prefix)),
                             SPOT).ok:
                bad.append(f"divergence ml const {prefix}")

    _conclude(report_line, 6, "sequent calculus",
              not bad, f"300 single-judgment goals, 100 linearity pairs,"
                       f" 600 coincidence checks, 16 divergence instances;"
                       f" failures: {bad[:3]}")


def test_criterion_7_cli(report_line):
    bad = []

    for e in corpus():
        if parse_expr(format_expr(e)) != e:
            bad.append("round trip")
            break

    for fname, (args, want_exit) in sorted(GOLDEN_CASES.items()):
        first = run_cli(args)
        second = run_cli(args)
        if first != second:
            bad.append(f"unstable {fname}")
        code, out, _ = first
        if code != want_exit:
            bad.append(f"exit {fname}: {code}")
        if out != (GOLDEN / fname).read_text():
            bad.append(f"bytes {fname}")

    code, _, err = run_cli(["cmp", "w +", "1"])
    if code != 2 or "error" not in err:
        bad.append("parse error exit")

    _conclude(report_line, 7, "command line",
              not bad, f"100-expression round trip, {len(GOLDEN_CASES)}"
                       f" transcripts run twice; failures: {bad[:3]}")
