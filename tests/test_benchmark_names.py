"""Every per-layer name that ``BENCHMARK.json`` lists names code that exists.

A traced run of ``bench/run.py`` reads each listed per-layer metric, so
a listed function that is deleted or renamed breaks it.  A ``.calls`` or
``.self_s`` name is ``<module>.<function>`` or
``<module>.<Class>.<method>`` of ``blochvar`` and the figure, or
``<module>`` alone and the figure (a module's total self time).  A
derived figure (``.rejected``, the ``build_basis`` probes, ``import_s``)
is checked by the same prefix, and a name that starts with no module of
the package is not checked.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = {p.stem for p in (ROOT / "src" / "blochvar").glob("*.py")}
NAMES = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def _traced(name: str) -> tuple[str, ...] | None:
    """The dotted path whose figure ``name`` is (its last part names the
    figure), or None if it starts with no module of the package."""
    path = tuple(name.split(".")[:-1])
    return path if path and path[0] in MODULES else None


def _resolves(path: tuple[str, ...]) -> bool:
    module = importlib.import_module(f"blochvar.{path[0]}")
    if len(path) == 1:
        return True
    obj = module
    for part in path[1:]:
        obj = getattr(obj, part, None)
    return inspect.isfunction(obj) and obj.__module__ == module.__name__ and (
        obj.__qualname__ == ".".join(path[1:])
    )


@pytest.mark.parametrize("name", NAMES)
def test_listed_per_layer_name_resolves(name):
    path = _traced(name)
    assert path is None or _resolves(path), name


def test_the_guard_sees_a_missing_function():
    assert _traced("relations.state_dependent_bound.calls") == ("relations", "state_dependent_bound")
    assert _traced("sun_basis.build_basis.n2_s") == ("sun_basis", "build_basis")
    assert _traced("cli.import_s") == ("cli",)
    assert _traced("trace_overhead_frac") is None
    assert _resolves(("linalg", "HermitianMatrix", "__init__"))
    assert not _resolves(("relations", "check_no_such_relation"))
    assert not _resolves(("relations", "HOLDS_TOL"))
