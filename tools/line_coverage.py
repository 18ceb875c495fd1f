"""Lines of the blochvar package that tier-1 never runs.

Runs tier-1 (pytest over ``tests/``, as ROADMAP.md gives it) in this
interpreter under the standard library's ``trace`` line counter, then
lists every executable line of ``src/blochvar`` that did not run, as
``module:line: source``.  A line's executable lines are those of the
compiled module's code objects (``co_lines``), line 0 left out.  Lines
that tests reach only in a subprocess count as unrun.

An unrun line whose module and source text ``ALLOWED`` lists is shown
with its reason; any other unrun line makes the exit status 1.  pytest's
result is printed but does not decide the exit status: tracing slows
the scalar loop of acceptance criterion 3 past its 60 s wall cap, so
that test fails under this tool by design.

Run from the repository root (8 to 11 minutes on a 2 vCPU Xeon, against
about 2 untraced):

    python3 tools/line_coverage.py
"""

from __future__ import annotations

import os
import sys
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "blochvar"

# (module, stripped source text) -> why the line may stay unrun.
ALLOWED = {
    ("cli", "sys.exit(main())"):
        "runs only as `python -m blochvar.cli`, which tests start in subprocesses",
}


class _Within:
    """``trace``'s filter, told to count only files under ``roots``.

    ``trace.Trace``'s own filter caches its verdict by a file's base name,
    so once numpy's ``__init__.py`` is ignored as part of ``sys.prefix``,
    every other ``__init__.py`` is ignored too."""

    def __init__(self, roots):
        self.roots = tuple(os.path.join(os.path.realpath(r), "") for r in roots)
        self.ignored: dict[str, bool] = {}

    def names(self, filename: str, modulename: str) -> bool:
        if filename not in self.ignored:
            self.ignored[filename] = not os.path.realpath(filename).startswith(self.roots)
        return self.ignored[filename]


def run_counted(roots, func):
    """``func()`` with each line run in files under ``roots`` counted;
    returns (its result, the set of (real path, line) that ran).  An
    enclosing tracer, such as this tool's own around the tests that call
    this, is restored afterwards."""
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = _Within(roots)
    previous = sys.gettrace()
    try:
        result = tracer.runfunc(func)
    finally:
        sys.settrace(previous)
    ran = {(os.path.realpath(f), line) for f, line in tracer.results().counts}
    return result, ran


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that its compiled code objects run."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def unrun(paths, ran) -> tuple[int, list[tuple[str, int, str]]]:
    """(executable lines of ``paths``, the (module, line, stripped
    source) of each that is not in ``ran``)."""
    total, missed = 0, []
    for path in paths:
        lines, real = executable_lines(path), os.path.realpath(path)
        total += len(lines)
        source = path.read_text(encoding="utf-8").splitlines()
        missed += [(path.stem, n, source[n - 1].strip())
                   for n in sorted(lines) if (real, n) not in ran]
    return total, missed


def main() -> int:
    import pytest  # before tracing starts; no blochvar import precedes it

    args = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", str(ROOT / "tests")]
    status, ran = run_counted([PACKAGE], lambda: pytest.main(args))
    total, missed = unrun(sorted(PACKAGE.glob("*.py")), ran)
    print(f"\npytest exit status {int(status)} (not the tool's: see its docstring)")
    unlisted = 0
    for module, line, text in missed:
        reason = ALLOWED.get((module, text))
        unlisted += reason is None
        print(f"{module}.py:{line}: {text}" + (f"  [allowed: {reason}]" if reason else ""))
    print(f"{total:,} executable lines, {total - len(missed):,} run, {len(missed):,} unrun "
          f"({len(missed) - unlisted} allowed)")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
