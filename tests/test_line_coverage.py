"""``tools/line_coverage.py``: the lines it lists as unrun, and its allowlist."""

import importlib.util
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "line_coverage.py"
_spec = importlib.util.spec_from_file_location("line_coverage", _TOOL)
line_coverage = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_coverage)

# Executable lines 1-4 and 7-9; the call below runs 1-3 and 7 (the
# module's two def statements and one branch of `called`).
_FIXTURE = """\
def called(x):
    if x > 0:
        return x
    return -x


def not_called(x):
    y = x + 1
    return y
"""


def _imported(directory, name):
    """A callable that imports ``name`` from ``directory`` and returns it."""

    def load():
        sys.path.insert(0, str(directory))
        try:
            return importlib.import_module(name)
        finally:
            sys.path.remove(str(directory))
            sys.modules.pop(name, None)

    return load


def test_lists_exactly_the_lines_that_did_not_run(tmp_path):
    path = tmp_path / "line_coverage_fixture.py"
    path.write_text(_FIXTURE)
    load = _imported(tmp_path, path.stem)
    result, ran = line_coverage.run_counted([tmp_path], lambda: load().called(2))
    assert result == 2
    assert line_coverage.unrun([path], ran) == (7, [
        (path.stem, 4, "return -x"), (path.stem, 8, "y = x + 1"), (path.stem, 9, "return y"),
    ])


def test_counts_a_package_init_after_one_outside_the_roots(tmp_path):
    # The standard filter, once it has ignored an __init__.py outside the
    # roots, ignores every __init__.py: it caches by base name.
    for name in ("outside_pkg", "inside_pkg"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "__init__.py").write_text(_FIXTURE)
    outside, inside = _imported(tmp_path, "outside_pkg"), _imported(tmp_path, "inside_pkg")
    _, ran = line_coverage.run_counted([tmp_path / "inside_pkg"],
                                       lambda: (outside().called(1), inside().called(-1)))
    assert line_coverage.unrun([tmp_path / "inside_pkg" / "__init__.py"], ran) == (7, [
        ("__init__", 3, "return x"), ("__init__", 8, "y = x + 1"), ("__init__", 9, "return y"),
    ])


def test_a_counted_run_restores_the_enclosing_tracer():
    def tracer(frame, event, arg):
        return None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        line_coverage.run_counted([Path(__file__).parent], lambda: None)
        assert sys.gettrace() is tracer
    finally:
        sys.settrace(previous)


def test_every_allowed_line_is_an_executable_line_of_the_package():
    # So that the allowlist cannot outlive the lines it names.
    for (module, text), reason in line_coverage.ALLOWED.items():
        path = line_coverage.PACKAGE / f"{module}.py"
        source = path.read_text(encoding="utf-8").splitlines()
        assert reason and any(
            source[n - 1].strip() == text for n in line_coverage.executable_lines(path)
        ), (module, text)
