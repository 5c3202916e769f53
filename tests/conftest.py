"""Shared generators and helpers for the test suite."""

import pytest
from hypothesis import strategies as st

from ordcalc import kernel
from ordcalc.names import ZERO, suc_list, sup_finite, und
from ordcalc.oracle import gen_finitary


def finitary_names(max_leaves: int = 8):
    """Hypothesis strategy for finitary names of modest size."""
    leaves = st.just(ZERO) | st.integers(0, 3).map(und)
    return st.recursive(
        leaves,
        lambda kids: (
            st.lists(kids, min_size=1, max_size=3).map(suc_list)
            | st.lists(kids, min_size=1, max_size=3).map(sup_finite)
        ),
        max_leaves=max_leaves,
    )


def seeded_pairs(count: int, salt: int = 0, depth: int = 3, width: int = 3):
    """Deterministic finitary name pairs for fixed-count batteries."""
    return [
        (gen_finitary(2 * i + salt, max_depth=depth, max_width=width),
         gen_finitary(2 * i + 1 + salt, max_depth=depth, max_width=width))
        for i in range(count)
    ]


def failing_past_five(i: int):
    """A family generator whose members past index 5 cannot be built."""
    if i > 5:
        raise ValueError("no member past index 5")
    return und(i)


def expand(cert):
    """cert with every refl and member leaf written out, all the way down,
    as the le_intro and lt_intro derivation it abbreviates (kernel's
    one-level unfolding, applied again to every leaf it yields).  Equal
    leaves expand to one shared derivation, as do shared nodes; premises
    below a naturally indexed lhs expand lazily."""
    done: dict = {}

    def go(c):
        j = c.conclusion
        key = ((c.rule, j.lhs.ident, tuple(b.ident for b in j.rhs),
                c.payload) if c.rule in kernel._LEAVES else id(c))
        hit = done.get(key)
        if hit is None:
            if c.rule in kernel._LEAVES:
                hit = go(kernel._unfold(c))
            elif c.rule == "lt_intro":
                hit = kernel.lt_intro_sel(j.lhs, j.rhs, c.payload,
                                          go(c.premises[0]))
            else:
                hit = kernel._le_node(j.lhs, j.rhs,
                                      lambda i: go(c.premise_at(i)))
            done[key] = (hit, c)
            return hit
        return hit[0]

    return go(cert)


@pytest.fixture
def report_line(request):
    """Write one line that stays visible under captured output."""
    reporter = request.config.pluginmanager.getplugin("terminalreporter")

    def write(text: str) -> None:
        if reporter is not None:
            reporter.ensure_newline()
            reporter.write_line(text)

    return write
