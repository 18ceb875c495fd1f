"""``tools/ab_scalar.py`` in its lanes mode, on this tree against itself."""

import importlib.util
import re
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_scalar", _ROOT / "tools" / "ab_scalar.py")
ab_scalar = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_scalar)


def test_lanes_mode_runs_one_round_of_every_qubit_job(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(_ROOT / "bench"))
    before = set(sys.modules)
    try:
        import workloads

        ab_scalar.compare(str(_ROOT), str(_ROOT), rounds=1, lanes=True)
    finally:
        for name in set(sys.modules) - before:  # the two trees' packages, and workloads
            del sys.modules[name]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "medians of 1 interleaved rounds, us per job"
    rows = {line.split(" (")[0]: line for line in lines[2:]}
    assert list(rows) == list(workloads.QUBIT_SAMPLES)
    for relation, samples in workloads.QUBIT_SAMPLES.items():
        # name (samples), two timings, the parent's quartiles, the paired
        # ratio and its quartiles, then C and Python calls per job, a pair
        # per tree, the same on both: the trees are one.
        fields = re.findall(r"\d+(?:[.,]\d+)*", rows[relation].split(")", 1)[1])
        assert rows[relation].startswith(f"{relation} ({samples})") and len(fields) == 11
        assert fields[7:9] == fields[9:11] and all(int(f.replace(",", "")) > 0 for f in fields[7:])
