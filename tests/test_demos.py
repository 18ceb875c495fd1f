"""The README's runnable examples of the public API still run.

Each demo runs in a fresh interpreter with ``src`` on ``PYTHONPATH``, as
the README runs it from a checkout, and must exit 0.
``03_qubit_uncertainty.py`` is left out: its scalar loop over 20,000
qubit samples takes about 7 s, more than the other four together, and
the checkers it calls are covered by the relation and acceptance tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    ["01_bloch_variance.py", "02_structure_constants.py", "04_feasible_regions.py", "05_bound_comparison.py"],
)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert done.returncode == 0, done.stderr
