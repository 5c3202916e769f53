"""Order-structure laws, each checkable on random finitary names.

The fifteen numbered laws axiomatise the structure (E, <, <=, 0, sup, suc);
the named extras strengthen four of them to equivalences and add the two
successor isomorphism laws and successor/sup commutation.  Every check runs
the bounded comparison engine at its default fuel: on finitary names it
reads every verdict off tree heights at any fuel, so a law violation can
only mean an engine defect, and an Unknown fails the check.

``run_laws`` drives the whole battery and is shared by the test suite and
the command line ``check-laws``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from .compare import le, lt
from .names import OrdName, ZERO, format_name, subordinals, suc, sup_finite
from .oracle import GenParams, gen_name


def _d(v) -> bool:
    if v.value is None:
        raise AssertionError(f"engine returned Unknown on finitary names: {v}")
    return v.value


def _le(a: OrdName, b: OrdName) -> bool:
    return _d(le(a, (b,)))


def _lt(a: OrdName, b: OrdName) -> bool:
    return _d(lt(a, (b,)))


def _eq(a: OrdName, b: OrdName) -> bool:
    return _le(a, b) and _le(b, a)


def _sup2(a: OrdName, b: OrdName) -> OrdName:
    return sup_finite((a, b))


# Each law takes freshly drawn names and returns None, or a message
# describing the violated instance.


def law_refl_antisym(a, b, c) -> Optional[str]:
    if not _le(a, a):
        return f"{format_name(a)} <= itself failed"
    if _le(a, b) and _le(b, a) and not _eq(a, b):
        return f"mutual <= without equality on {format_name(a)}, {format_name(b)}"
    return None


def law_zero_least(a, b, c) -> Optional[str]:
    return None if _le(ZERO, a) else f"0 <= {format_name(a)} failed"


def law_irreflexive(a, b, c) -> Optional[str]:
    return f"{format_name(a)} < itself" if _lt(a, a) else None


def law_lt_implies_le(a, b, c) -> Optional[str]:
    if _lt(a, b) and not _le(a, b):
        return f"{format_name(a)} < {format_name(b)} but not <="
    return None


def law_trans_le_le(a, b, c) -> Optional[str]:
    if _le(a, b) and _le(b, c) and not _le(a, c):
        return f"<=; <= chain broke at {format_name(a)}, {format_name(c)}"
    return None


def law_trans_lt_le(a, b, c) -> Optional[str]:
    if _lt(a, b) and _le(b, c) and not _lt(a, c):
        return f"<; <= chain broke at {format_name(a)}, {format_name(c)}"
    return None


def law_trans_le_lt(a, b, c) -> Optional[str]:
    if _le(a, b) and _lt(b, c) and not _lt(a, c):
        return f"<=; < chain broke at {format_name(a)}, {format_name(c)}"
    return None


def law_suc_upper(a, b, c) -> Optional[str]:
    if _lt(a, suc(b)) != _le(a, b):
        return f"{format_name(a)} < suc({format_name(b)}) vs <= disagree"
    return None


def law_suc_lower(a, b, c) -> Optional[str]:
    if _le(suc(b), a) != _lt(b, a):
        return f"suc({format_name(b)}) <= {format_name(a)} vs < disagree"
    return None


def law_sup_strict(a, b, c) -> Optional[str]:
    # equivalence form: sup(a, b) < c exactly when both are < c
    if _lt(_sup2(a, b), c) != (_lt(a, c) and _lt(b, c)):
        return (f"sup({format_name(a)}, {format_name(b)}) < {format_name(c)}"
                " disagrees with the componentwise test")
    return None


def law_cut_strict(a, b, c) -> Optional[str]:
    # equivalence form: a < sup(a, b) exactly when a < b
    if _lt(a, _sup2(a, b)) != _lt(a, b):
        return f"{format_name(a)} < sup with itself vs < {format_name(b)} disagree"
    return None


def law_cut_nonstrict(a, b, c) -> Optional[str]:
    # under c < a: a <= sup(b, c) exactly when a <= b
    if _lt(c, a) and _le(a, _sup2(b, c)) != _le(a, b):
        return (f"with {format_name(c)} < {format_name(a)}: dropping it from"
                f" sup({format_name(b)}, {format_name(c)}) changed <=")
    return None


def law_sup_characteristic(a, b, c) -> Optional[str]:
    s = sup_finite((a, b, c))
    for bound in (a, b, c, suc(c), _sup2(a, b)):
        if _le(s, bound) != (_le(a, bound) and _le(b, bound) and _le(c, bound)):
            return (f"sup of three <= {format_name(bound)} disagrees with the"
                    " componentwise test")
    return None


def law_subordinal_bound(a, b, c) -> Optional[str]:
    # a <= b exactly when every member of a is < b
    members = [] if a.is_zero else [a.child(i) for i in range(a.index.size)]
    if _le(a, b) != all(_lt(m, b) for m in members):
        return f"{format_name(a)} <= {format_name(b)} vs member test disagree"
    return None


def law_zero_dichotomy(a, b, c) -> Optional[str]:
    below = _le(a, ZERO)
    above = _lt(ZERO, a)
    if below == above:
        return f"zero test not a dichotomy on {format_name(a)}"
    if below != a.is_zero:
        return f"{format_name(a)} <= 0 disagrees with the zero variant"
    return None


def law_suc_iso(a, b, c) -> Optional[str]:
    if _lt(suc(a), suc(b)) != _lt(a, b):
        return f"suc broke < on {format_name(a)}, {format_name(b)}"
    if _le(suc(a), suc(b)) != _le(a, b):
        return f"suc broke <= on {format_name(a)}, {format_name(b)}"
    return None


def law_suc_sup_commute(a, b, c) -> Optional[str]:
    lhs = sup_finite((suc(a), suc(b), suc(c)))
    rhs = suc(sup_finite((a, b, c)))
    if not _eq(lhs, rhs):
        return (f"sup of successors != successor of sup on {format_name(a)},"
                f" {format_name(b)}, {format_name(c)}")
    return None


LAWS: Dict[str, Callable[[OrdName, OrdName, OrdName], Optional[str]]] = {
    "refl-antisym": law_refl_antisym,
    "zero-least": law_zero_least,
    "irreflexive": law_irreflexive,
    "lt-implies-le": law_lt_implies_le,
    "trans-le-le": law_trans_le_le,
    "trans-lt-le": law_trans_lt_le,
    "trans-le-lt": law_trans_le_lt,
    "suc-upper": law_suc_upper,
    "suc-lower": law_suc_lower,
    "sup-strict": law_sup_strict,
    "cut-strict": law_cut_strict,
    "cut-nonstrict": law_cut_nonstrict,
    "sup-characteristic": law_sup_characteristic,
    "subordinal-bound": law_subordinal_bound,
    "zero-dichotomy": law_zero_dichotomy,
    "suc-iso": law_suc_iso,
    "suc-sup-commute": law_suc_sup_commute,
}


def run_laws(seed: int, cases: int, names: Optional[List[str]] = None,
             max_depth: int = 3, max_width: int = 3,
             ) -> Tuple[int, List[Tuple[str, str]]]:
    """Run each selected law on `cases` random finitary triples.

    Returns (checks run, failures); a failure pairs the law name with the
    violated instance.  The same seed always draws the same triples.
    """
    selected = list(LAWS) if names is None else names
    unknown = [n for n in selected if n not in LAWS]
    if unknown:
        raise ValueError(f"unknown law names: {', '.join(unknown)}")
    rng = random.Random(seed)
    ran = 0
    failures: List[Tuple[str, str]] = []
    for case in range(cases):
        triple = tuple(
            gen_name(GenParams(max_depth=max_depth, max_width=max_width,
                               seed=rng.randrange(2 ** 32)))
            for _ in range(3))
        for name in selected:
            msg = LAWS[name](*triple)
            ran += 1
            if msg is not None:
                failures.append((name, f"case {case}: {msg}"))
    return ran, failures
