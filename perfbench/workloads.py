"""The four workloads: their corpora, requests and output checks.

A workload builds its inputs once (``setup``), then runs passes.  A pass is
the same list of requests every time, so every run attempts whole passes of
the same operations.  Each request has an untimed ``prepare`` (memo resets
that start a request), a timed ``run`` that calls ordcalc, and an untimed
``check`` against ``checks``; ``check`` returns whether the request failed,
how many of its questions were answered definitely, and any problems.

ordcalc is always called through its module attributes (``compare.le``,
``kernel.eq_certs``, ...) so that the tracer's wrappers see the calls.
Import this module with ordcalc's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import io
import random
from typing import List, Tuple

import checks
from ordcalc import cli, compare, expr, kernel, laws, mlseq, names, oracle

# Corpora are fixed: every run does the same work, and --seed only sets the
# order of requests within a pass.  Seed-drawn corpora measured the corpus
# more than the program: the CPU time of 60 seeded sequent pairs ranged
# from 5.8 s to 14.4 s over 12 seeds.
FINITARY_POOL = 20_220_104
FINITARY_CASES = 500
SEQUENT_POOL = 20_220_435
# small enough for two passes in a 25 s run, so that each request's latency
# is the mean of two samples taken some seconds apart: with 45 pairs one pass
# filled the run, and the median of single samples spread twice as far as
# the throughput did
SEQUENT_PAIRS = 20

SPOT = kernel.SpotCheck(samples=(0, 1, 2), depth=64)


class Memo:
    """Resets of the engine memo, and its counters summed over them."""

    def __init__(self):
        self.zero()

    def reset(self) -> None:
        """Read memo_stats, then clear the engine memo."""
        s = compare.memo_stats()
        self.evals += s["evals"]
        self.hits += s["hits"]
        self.peak_entries = max(self.peak_entries, s["entries"])
        compare.clear_memo()

    def zero(self) -> None:
        self.evals = self.hits = self.peak_entries = 0


class Request:
    def __init__(self, label: str):
        self.label = label

    def prepare(self) -> None:
        pass


class Workload:
    """A corpus of requests; ``setup`` builds ``self.requests``."""

    def __init__(self, memo: Memo):
        self.memo = memo

    def begin_pass(self) -> None:
        pass


def _interleave(light: list, heavy: list, rounds: int) -> list:
    """Rounds of the light requests, with the heavy ones spread between."""
    out = []
    for r in range(1, rounds + 1):
        out += light
        out += [h for i, h in enumerate(heavy)
                if r == (i + 1) * rounds // (len(heavy) + 1)]
    return out


# ---------------------------------------------------------------------------
# finitary: one order-law case plus cmp_finitary on the case's pairs


class FinitaryCase(Request):
    def __init__(self, case_seed: int, triple, heights):
        super().__init__(f"case-{case_seed}")
        self.case_seed = case_seed
        self.pairs = [(triple[0], triple[1]), (triple[1], triple[2]),
                      (triple[0], triple[2])]
        self.heights = heights

    def run(self):
        ran, failures = laws.run_laws(self.case_seed, 1, max_depth=5,
                                      max_width=5)
        orders = [compare.cmp_finitary(x, y) for x, y in self.pairs]
        return ran, failures, orders

    def check(self, out) -> Tuple[bool, int, List[str]]:
        ran, failures, orders = out
        problems = [f"{self.label}: law {n}: {msg}" for n, msg in failures]
        if ran != len(laws.LAWS):
            problems.append(f"{self.label}: ran {ran} law checks")
        for (x, y), got in zip(self.pairs, orders):
            hx = checks.height(x, self.heights)
            hy = checks.height(y, self.heights)
            want = "lt" if hx < hy else "gt" if hx > hy else "eq"
            if got.value != want:
                problems.append(f"{self.label}: cmp_finitary gave {got.value},"
                                f" heights {hx} vs {hy}")
        return False, ran + len(orders), problems


class Finitary(Workload):
    """Memo cleared at the start of each pass, kept across its requests."""

    def setup(self, seed: int, tracer) -> None:
        pool = random.Random(FINITARY_POOL)
        heights: dict = {}
        self.requests = []
        with tracer.span("names.build"):
            for _ in range(FINITARY_CASES):
                cs = pool.randrange(2 ** 32)
                # the triple run_laws draws for this case seed
                draw = random.Random(cs)
                triple = [oracle.gen_name(oracle.GenParams(
                    max_depth=5, max_width=5, seed=draw.randrange(2 ** 32)))
                    for _ in range(3)]
                self.requests.append(FinitaryCase(cs, triple, heights))
        random.Random(seed).shuffle(self.requests)
        laws.run_laws(0, 2, max_depth=3, max_width=3)

    def begin_pass(self) -> None:
        self.memo.reset()


# ---------------------------------------------------------------------------
# infinitary: `ord cmp LHS RHS` at default fuel, in-process

# The heavy pairs spend the whole step budget (8-11 s each); the light ones
# take 0.1-0.2 s.  Light pairs repeat in rounds around the heavy ones, so the
# latency percentiles rest on eighty-odd samples spread over the pass, not on
# two samples taken within half a second.
INFINITARY_HEAVY = [("w*2", "w+w"), ("w^w", "w*2")]
INFINITARY_LIGHT = [("w", "1+w"), ("eps0", "w"), ("w+1", "w"),
                    ("sup(w,3)", "w")]
INFINITARY_ROUNDS = 20


class OrdCmp(Request):
    def __init__(self, memo: Memo, lhs: str, rhs: str):
        super().__init__(f"cmp {lhs} {rhs}")
        self.memo = memo
        self.lhs = lhs
        self.rhs = rhs

    def prepare(self) -> None:
        self.memo.reset()

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["cmp", self.lhs, self.rhs])
        return code, buf.getvalue()

    def check(self, out) -> Tuple[bool, int, List[str]]:
        code, text = out
        got = dict(line.split(" ", 1) for line in text.splitlines())
        truth = checks.relations(self.lhs, self.rhs)
        problems = []
        for rel, want in truth.items():
            if got.get(rel) not in ("true", "false", "unknown"):
                problems.append(f"{self.label}: no {rel} line")
            elif got[rel] != "unknown" and (got[rel] == "true") != want:
                problems.append(f"{self.label}: {rel} {got[rel]}, CNF says"
                                f" {want}")
        # lt implies le: a true lt never comes with a false le
        if got.get("lt") == "true" and got.get("le") == "false":
            problems.append(f"{self.label}: lt true but le false")
        if got.get("gt") == "true" and got.get("ge") == "false":
            problems.append(f"{self.label}: gt true but ge false")
        if "true" == got.get("lt") == got.get("ge"):
            problems.append(f"{self.label}: lt and ge both true")
        if "true" == got.get("gt") == got.get("le"):
            problems.append(f"{self.label}: gt and le both true")
        if code != (3 if got.get("verdict") == "unknown" else 0):
            problems.append(f"{self.label}: exit {code} for verdict"
                            f" {got.get('verdict')}")
        definite = sum(got.get(r) in ("true", "false")
                       for r in ("le", "ge", "lt", "gt"))
        return False, definite, problems


class Infinitary(Workload):
    """Memo cleared before each request, as in a fresh `ord` process.  The
    order is fixed: the first request on a pair materializes the lazily
    built family members the later ones reuse."""

    def setup(self, seed: int, tracer) -> None:
        for pair in INFINITARY_HEAVY + INFINITARY_LIGHT:
            for text in pair:
                expr.lower(expr.parse_expr(text))
        self.requests = _interleave(
            [OrdCmp(self.memo, l, r) for l, r in INFINITARY_LIGHT],
            [OrdCmp(self.memo, l, r) for l, r in INFINITARY_HEAVY],
            INFINITARY_ROUNDS)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["cmp", "2", "suc(1)"])


# ---------------------------------------------------------------------------
# certify: certificate search and verification, with the converse refused

# (kind, lhs, rhs); every claim is true, and "2+w = w" is the known failure.
# As in infinitary, the light claims repeat in rounds around the two heavy
# ones (6-9 s each).
CERTIFY_HEAVY = [("eq", "w*2", "w+w"), ("eq", "w*3", "w*2+w")]
CERTIFY_LIGHT = [("eq", "1+w", "w"), ("eq", "sup(w,3)", "w"),
                 ("eq", "w+1", "suc(w)"), ("lt", "w", "w+1"),
                 ("lt", "3", "w"), ("eq", "2+w", "w")]
CERTIFY_ROUNDS = 12


def _converses(kind: str, lhs: str, rhs: str):
    """The false claims that contradict a true one."""
    if kind == "eq":
        return [("lt", lhs, rhs), ("lt", rhs, lhs)]
    return [("le", rhs, lhs)]


def _as_le(kind: str, lhs: str, rhs: str):
    """The judgments a claim's certificates conclude, in search order."""
    if kind == "eq":
        return [("le", lhs, rhs), ("le", rhs, lhs)]
    return [(kind, lhs, rhs)]


class Certify(Request):
    def __init__(self, memo: Memo, claim, named: dict):
        kind, lhs, rhs = claim
        op = {"eq": "=", "lt": "<", "le": "<="}[kind]
        super().__init__(f"{lhs}{op}{rhs}")
        self.memo = memo
        self.claim = claim
        self.named = named

    def prepare(self) -> None:
        self.memo.reset()

    def _search(self, kind: str, lhs: str, rhs: str):
        a, b = self.named[lhs], self.named[rhs]
        if kind == "eq":
            return list(kernel.eq_certs(a, b))
        fn = kernel.le_cert if kind == "le" else kernel.lt_cert
        return [fn(a, (b,))]

    def run(self):
        try:
            certs = self._search(*self.claim)
            found = [(c, kernel.verify(c, SPOT)) for c in certs]
        except kernel.CertSearchError:
            found = None
        refused = []
        for judgment in _converses(*self.claim):
            # every search starts from an empty engine memo: the memo's
            # history changes what the search finds
            self.memo.reset()
            try:
                c = self._search(*judgment)[0]
                refused.append((judgment, kernel.verify(c, SPOT)))
            except kernel.CertSearchError:
                refused.append((judgment, None))
        return found, refused

    def check(self, out) -> Tuple[bool, int, List[str]]:
        found, refused = out
        problems = []
        for kind, lhs, rhs in _as_le(*self.claim):
            if not checks.holds(kind, lhs, rhs):
                problems.append(f"{self.label}: CNF refutes the claim")
        if found is not None:
            for (cert, report), (kind, lhs, rhs) in zip(
                    found, _as_le(*self.claim)):
                concl = cert.conclusion
                if not report.ok:
                    problems.append(f"{self.label}: certificate fails verify")
                if (concl.kind != kind
                        or concl.lhs.ident != self.named[lhs].ident
                        or [b.ident for b in concl.rhs]
                        != [self.named[rhs].ident]):
                    problems.append(f"{self.label}: certificate concludes"
                                    f" {concl!r}")
        for (kind, lhs, rhs), report in refused:
            if checks.holds(kind, lhs, rhs):
                problems.append(f"{self.label}: converse {lhs} {kind} {rhs}"
                                " is true by CNF")
            if report is not None and report.ok:
                problems.append(f"{self.label}: false claim {lhs} {kind}"
                                f" {rhs} certified")
        definite = 0 if found is None else sum(r.ok for _, r in found)
        return found is None, definite, problems


class CertifyWorkload(Workload):
    """Memo cleared before every search: each request, and each converse."""

    def setup(self, seed: int, tracer) -> None:
        named = {}
        for _, lhs, rhs in CERTIFY_HEAVY + CERTIFY_LIGHT:
            for text in (lhs, rhs):
                named[text] = expr.lower(expr.parse_expr(text))
        self.requests = _interleave(
            [Certify(self.memo, c, named) for c in CERTIFY_LIGHT],
            [Certify(self.memo, c, named) for c in CERTIFY_HEAVY],
            CERTIFY_ROUNDS)
        kernel.verify(kernel.lt_cert(names.und(1), (names.und(2),)), SPOT)


# ---------------------------------------------------------------------------
# sequent: ml_derivable saturation, and the LPO divergence instances


class SequentGoals(Request):
    """Derivability of one or two sequents about a pair a, b: the strict
    atoms {a<b} and {a<a} (alone, {a<a} can take under 0.1 ms), the atom
    {a<=b}, or the linearity pair {a<b, b<=a}."""

    KINDS = ("lt", "le", "lin")

    def __init__(self, index: int, kind: str, a, b, heights):
        super().__init__(f"pair-{index}-{kind}")
        Atom = mlseq.Atom
        ha, hb = checks.height(a, heights), checks.height(b, heights)
        goals = {"lt": [({Atom(a, "lt", b)}, ha < hb),
                        ({Atom(a, "lt", a)}, False)],
                 "le": [({Atom(a, "le", b)}, ha <= hb)],
                 "lin": [({Atom(a, "lt", b), Atom(b, "le", a)}, True)]}
        self.goals = [frozenset(g) for g, _ in goals[kind]]
        self.want = [w for _, w in goals[kind]]

    def run(self):
        return [mlseq.ml_derivable(g) for g in self.goals]

    def check(self, out) -> Tuple[bool, int, List[str]]:
        problems = [f"{self.label}: sequent {i} derivable {got}, want {w}"
                    for i, (got, w) in enumerate(zip(out, self.want))
                    if got != w]
        return False, len(out), problems


class LpoInstance(Request):
    def __init__(self, memo: Memo, prefix: List[int]):
        super().__init__("lpo-" + "".join(map(str, prefix)))
        self.memo = memo
        self.prefix = prefix

    def prepare(self) -> None:
        self.memo.reset()

    def run(self):
        final = self.prefix[-1]
        hidden = names.BitSeq.opaque(self.prefix, tail=lambda n: final)
        a, b = names.eps_lpo(hidden)
        verdict = compare.lt(a, (b,), compare.DEFAULT_FUEL)
        reports = [mlseq.ml_verify(mlseq.ml_cert_exa123(u), SPOT)
                   for u in (hidden, names.BitSeq.const_last(self.prefix))]
        return verdict, reports

    def check(self, out) -> Tuple[bool, int, List[str]]:
        verdict, reports = out
        problems = []
        # a < b holds for every bit stream: b's members exceed a's
        if verdict.value is False:
            problems.append(f"{self.label}: engine refutes a true a < b")
        problems += [f"{self.label}: certificate {i} fails ml_verify"
                     for i, r in enumerate(reports) if not r.ok]
        return False, sum(r.ok for r in reports), problems


class Sequent(Workload):
    """ml_derivable uses no engine memo; the LPO engine query starts from an
    empty one."""

    def setup(self, seed: int, tracer) -> None:
        pool = random.Random(SEQUENT_POOL)
        heights: dict = {}
        pairs = []

        def draw():
            # height 2 or more keeps every request above a millisecond
            while True:
                a = oracle.gen_finitary(pool.randrange(2 ** 32), max_depth=4,
                                        max_width=3)
                if checks.height(a, heights) >= 2:
                    return a

        with tracer.span("names.build"):
            for _ in range(SEQUENT_PAIRS):
                pairs.append((draw(), draw()))
        self.requests = [SequentGoals(i, kind, a, b, heights)
                         for i, (a, b) in enumerate(pairs)
                         for kind in SequentGoals.KINDS]
        self.requests += [LpoInstance(self.memo, [0] * (n - 1) + [final])
                          for n in range(1, 9) for final in (0, 1)]
        random.Random(seed).shuffle(self.requests)
        mlseq.ml_derivable(frozenset({mlseq.Atom(names.und(1), "lt",
                                                 names.und(2))}))


WORKLOADS = {"finitary": Finitary, "infinitary": Infinitary,
             "certify": CertifyWorkload, "sequent": Sequent}
