"""``tools/ab_reports.py`` on a few runs of this tree against itself."""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_reports", _ROOT / "tools" / "ab_reports.py")
ab_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_reports)


def test_a_tree_against_itself_differs_nowhere(capsys):
    matrix = ab_reports.runs(str(_ROOT), samples=50)
    # Every relation at each N it admits up to 10, on two seeds, six
    # appendix-c runs of five samples and two at N = 16; four scans;
    # twenty compare runs.
    verify = [name for name in matrix if name.startswith("verify ")]
    assert len(verify) == 2 * (8 + 2 * 9) + 6 + 2 and len(matrix) == len(verify) + 4 + 20
    subset = {name: matrix[name] for name in
              ("verify theorem1 N=2 seed=5", "region triple", "compare large-norm A")}
    assert ab_reports.compare(str(_ROOT), str(_ROOT), subset) == []
    assert capsys.readouterr().out == "3 runs, 0 differ\n"
    # What a run compares: its exit code, streams and files, with the
    # wall time blanked.
    outcome = ab_reports._outcome(str(_ROOT), subset["region triple"])
    assert set(outcome) == {"exit", "stdout", "stderr", "samples.csv", "occupancy.json",
                            "report.json"}
    assert outcome["exit"] == b"0" and b'"wall_time_s": _' in outcome["report.json"]
