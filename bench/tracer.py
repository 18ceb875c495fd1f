"""Spans around the public functions of ``blochvar``, recorded from outside.

``Tracer.install`` replaces every public function of the package's
modules, at every name it is bound to (the module attribute and each
``from ... import`` copy in another module), plus a few hot methods, with
a wrapper that records a span: id, function, start, end, parent span and
job.  Spans stay in memory, in one flat array, until the run ends.
``Tracer.uninstall`` puts every original back and checks that it did.

Private helpers are not wrapped, so their time is self time of the
public function that calls them.  Self time of a span is its duration
minus the durations of its direct children; all calls run on one
thread, so children never overlap.
"""

from __future__ import annotations

import array
import inspect
import sys
import time

# Layers, in the order the package builds on them.
MODULES = ("sampling", "bloch", "linalg", "sun_basis", "variance", "relations", "regions", "cli")

# Methods wrapped on their class; every other traced name is a module function.
METHODS = (
    ("sampling", "Xoshiro256pp", "__init__"),
    ("sampling", "Xoshiro256pp", "gaussians"),
    ("linalg", "HermitianMatrix", "__init__"),
    ("sun_basis", "GeneratorBasis", "d_contract"),
)

FIELDS = 6  # span id, function id, start, end, parent span id (-1: none), job


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self.raised: list[int] = []
        self.spans = array.array("d")
        self.job = -1
        self._stack = [-1]
        self._next = 0
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        pkg = [sys.modules[f"blochvar.{m}"] for m in MODULES]
        for mod, short in zip(pkg, MODULES):
            for name, fn in sorted(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__ or inspect.isgeneratorfunction(fn):
                    continue
                wrapper = self._wrap(fn, f"{short}.{name}")
                for site in [sys.modules["blochvar"], *pkg]:
                    for alias, obj in list(vars(site).items()):
                        if obj is fn:
                            self._patch(site, alias, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"blochvar.{short}"], cls_name)
            fn = cls.__dict__[meth]
            self._patch(cls, meth, self._wrap(fn, f"{short}.{cls_name}.{meth}"))

    def uninstall(self) -> None:
        """Restore every patched name; raise if one is not restored."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        for owner, name, original in self._patched:
            if vars(owner)[name] is not original:
                raise RuntimeError(f"{owner!r}.{name} was not restored")
        self._patched.clear()

    def table(self) -> dict:
        """The recorded spans as numpy columns, with each span's self time."""
        import numpy as np

        cols = np.array(self.spans, dtype=np.float64).reshape(-1, FIELDS).T
        sid, fid, parent, job = (c.astype(np.int64) for c in cols[[0, 1, 4, 5]])
        start, end = cols[2], cols[3]
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=self._next)
        return {
            "sid": sid,
            "fid": fid,
            "start": start,
            "end": end,
            "parent": parent,
            "job": job,
            "self_s": dur - child[sid],
        }

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, qualname: str):
        fid = len(self.names)
        self.names.append(qualname)
        self.raised.append(0)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[fid] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans.extend((sid, fid, start, end, parent, self.job))

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced
