"""Spans at ordcalc's layer boundaries, recorded from the benchmark's side.

``Tracer.install`` replaces public functions in ordcalc's modules with
wrappers that record one span per call: name, start, end, the index of the
enclosing span, and a note taken from the result.  The module attribute is
what callers look up at call time (``compare.le`` from the kernel and from
``cmp_finitary``; ``cli.le`` from ``ord cmp``), so patching it catches the
calls the layers make to each other.  Laws bind ``le``/``lt`` at import, so
their engine calls count as ``laws`` time, not as separate spans.

Spans stay in memory; ``dump`` writes them when the run ends, and
``layer_metrics`` sums them into the per-layer figures.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from typing import Callable, Dict, List, Optional

# (ordcalc module, attribute, span name, note taken from the result)
BOUNDARIES = [
    ("compare", "le", "compare.le", "unknown"),
    ("compare", "lt", "compare.lt", "unknown"),
    ("cli", "le", "compare.le", "unknown"),
    ("cli", "lt", "compare.lt", "unknown"),
    ("kernel", "le_cert", "kernel.le_cert", None),
    ("kernel", "lt_cert", "kernel.lt_cert", None),
    ("kernel", "eq_certs", "kernel.eq_certs", None),
    ("kernel", "verify", "kernel.verify", "visited"),
    ("mlseq", "ml_derivable", "mlseq.ml_derivable", None),
    ("mlseq", "ml_verify", "mlseq.ml_verify", "visited"),
    ("expr", "parse_expr", "expr.parse_expr", None),
    ("expr", "lower", "expr.lower", None),
    ("cli", "parse_expr", "expr.parse_expr", None),
    ("cli", "lower", "expr.lower", None),
    ("laws", "run_laws", "laws.run_laws", "checks"),
]

_NOTES: Dict[str, Callable] = {
    "unknown": lambda r: int(r.value is None),
    "visited": lambda r: r.visited,
    "checks": lambda r: r[0],
}

SEARCH = ("kernel.le_cert", "kernel.lt_cert", "kernel.eq_certs")
COMPARE = ("compare.le", "compare.lt")


class Tracer:
    """One span list per process; spans nest by call order."""

    def __init__(self):
        # [name, start, end, parent index or -1, note, raised]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        except BaseException:
            self._close(idx, raised=True)
            raise
        self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None,
                           False])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, note=None, raised: bool = False) -> None:
        rec = self.spans[idx]
        rec[2] = time.perf_counter()
        rec[4] = note
        rec[5] = raised
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, note: Optional[str]) -> Callable:
        take = _NOTES.get(note)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, raised=True)
                raise
            self._close(idx, take(result) if take else None)
            return result

        return traced

    def install(self) -> None:
        for mod_name, attr, name, note in BOUNDARIES:
            mod = importlib.import_module(f"ordcalc.{mod_name}")
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(name, fn, note))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "note",
                                  "raised"], "spans": self.spans}, f)


def _ms(rec) -> float:
    return (rec[2] - rec[1]) * 1000.0


def layer_metrics(spans: List[list], pass_start: int) -> Dict[str, float]:
    """Per-layer counts and busy times.  Name building, parsing and lowering
    are summed over set-up and the pass; every other layer over the spans
    from index pass_start on, which the pass recorded.  A layer's self time
    is its span minus the spans nested in it; the kernel's guidance is the
    engine calls nested under a search span."""
    setup_layers = ("expr.parse_expr", "expr.lower", "names.build")
    spans = [r if i >= pass_start or r[0] in setup_layers
             else [None] + r[1:] for i, r in enumerate(spans)]

    def under_search(rec) -> bool:
        p = rec[3]
        while p >= 0:
            if spans[p][0] in SEARCH:
                return True
            p = spans[p][3]
        return False

    def total(names) -> float:
        return sum(_ms(r) for r in spans if r[0] in names)

    def count(names) -> int:
        return sum(1 for r in spans if r[0] in names)

    def notes(name) -> int:
        return sum(r[4] or 0 for r in spans if r[0] == name)

    compare_calls = [r for r in spans if r[0] in COMPARE]
    guidance = [r for r in compare_calls if under_search(r)]
    outer_search = [r for r in spans
                    if r[0] in SEARCH and not under_search(r)]
    searches = [r for r in spans if r[0] in SEARCH[:2]]
    guidance_ms = sum(_ms(r) for r in guidance)
    return {
        "expr.parse_ms": total(("expr.parse_expr",)),
        "expr.lower_ms": total(("expr.lower",)),
        "names.build_ms": total(("names.build",)),
        "compare.calls": len(compare_calls),
        "compare.busy_ms": sum(_ms(r) for r in compare_calls),
        "compare.unknown": sum(r[4] or 0 for r in compare_calls),
        "kernel.search_calls": len(searches),
        "kernel.certs_found": sum(1 for r in searches if not r[5]),
        "kernel.search_self_ms": sum(_ms(r) for r in outer_search)
        - guidance_ms,
        "kernel.guidance_calls": len(guidance),
        "kernel.guidance_ms": guidance_ms,
        "kernel.verify_ms": total(("kernel.verify",)),
        "kernel.verified_nodes": notes("kernel.verify"),
        "mlseq.derivable_calls": count(("mlseq.ml_derivable",)),
        "mlseq.derivable_ms": total(("mlseq.ml_derivable",)),
        "mlseq.verify_ms": total(("mlseq.ml_verify",)),
        "mlseq.verified_nodes": notes("mlseq.ml_verify"),
        "laws.checks": notes("laws.run_laws"),
        "laws.run_ms": total(("laws.run_laws",)),
    }


class _NoTrace:
    def span(self, name: str):
        return contextlib.nullcontext()


NO_TRACE = _NoTrace()
