"""The demos run to completion and print what they promise."""

import os
import pathlib
import subprocess
import sys

import pytest

import ordcalc

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"
SRC = pathlib.Path(ordcalc.__file__).resolve().parents[1]

# demo script and one line its output must contain
EXPECTED = {
    "arithmetic_and_certificates": "  both directions verify: True",
    "hidden_bits": "  eps < eps' at width 256: unknown",
    "naming_and_comparing": "  41 < omega, width 48: yes",
    "sequent_divergence": "  sequent certificate for the disjunction verifies: True",
    "tree_pictures": "  [2, 0, 0] in Tree(omega): True",
}


@pytest.mark.parametrize("demo", sorted(EXPECTED))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, str(DEMOS / f"{demo}.py")],
                       capture_output=True, text=True, env=env, timeout=60)
    assert r.returncode == 0, r.stderr
    assert EXPECTED[demo] in r.stdout.splitlines()
