"""Span tracer for the benchmark's traced runs.

Wraps the public functions of each curvecharts layer at every module
attribute that refers to them, the public methods of the AmbientSpace
classes, and the scipy names the library imports (`brentq` in charts
and curve, `scipy.linalg.eigh` in solver).  Each call records one span
(name, start, end, parent) in flat in-memory arrays; `self_times` turns
them into per-name call counts and self time (span time minus the time
of its child spans).  Nothing under src/ is edited: the wrappers are
installed on the imported modules and removed by `uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types
from array import array

import numpy as np

# layers in dependency order; `shapes` only builds inputs and is not traced
LAYERS = ("fourier", "ambient", "curve", "charts", "functionals", "solver",
          "symmetry", "files", "cli")
AMBIENT_CLASSES = ("AmbientSpace", "Euclidean", "FlatTorus", "Sphere2")


def _interp_elems(c, P, t, order=0):
    """Complex exponentials interp_coeffs builds: len(t) * (P//2 + 1)."""
    return int(np.size(t)) * (int(P) // 2 + 1)


# name -> function of the call arguments giving a computed work count
ELEM_COUNTERS = {"fourier.interp_coeffs": _interp_elems}


class Tracer:
    """Records nested call spans; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.elems: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def clear(self):
        """Drop recorded spans and counters; installed wrappers stay."""
        for buf in (self.name_id, self.parent, self.start, self.end):
            del buf[:]
        self.elems = {}

    def wrap(self, name: str, fn):
        nid = self._id(name)
        counter = ELEM_COUNTERS.get(name)
        clock = time.perf_counter
        stack, name_ids, parents, starts, ends = (
            self._stack, self.name_id, self.parent, self.start, self.end)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                self.elems[name] = self.elems.get(name, 0) + counter(*args, **kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap every layer of an imported curvecharts package at its import sites."""
        mods = {name: importlib.import_module(f"{package.__name__}.{name}")
                for name in LAYERS}
        sites = list(mods.values()) + [package,
                                       importlib.import_module(f"{package.__name__}.shapes")]
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[id(obj)] = self.wrap(f"{short}.{name}", obj)
        for mod in sites:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, name, wrapped[id(obj)])
        for cls_name in AMBIENT_CLASSES:
            cls = getattr(mods["ambient"], cls_name)
            for name, obj in list(vars(cls).items()):
                if inspect.isfunction(obj) and not name.startswith("_"):
                    self._set(cls, name, self.wrap(f"ambient.{name}", obj))
        for site in (mods["charts"], mods["curve"]):
            self._set(site, "brentq", self.wrap("charts.root.brentq", site.brentq))
        solver = mods["solver"]
        linalg = types.SimpleNamespace(**vars(solver.scipy.linalg))
        linalg.eigh = self.wrap("solver.eigh", solver.scipy.linalg.eigh)
        self._set(solver, "scipy", types.SimpleNamespace(linalg=linalg))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def spans(self) -> dict:
        """The recorded spans as arrays, ready for `self_times` or `np.savez`."""
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def self_times(names, name_id, parent, start, end) -> dict[str, tuple[int, float]]:
    """Per-name (calls, self seconds) of a span tree.

    A span's self time is its duration minus the durations of its
    direct children.  Spans of one thread nest, so the children cover
    disjoint parts of their parent and the subtraction counts no
    interval twice, also when a name is re-entered below itself.
    """
    name_id = np.asarray(name_id, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    n = dur.size
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    own = dur - child
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    selfs = np.bincount(name_id, weights=own, minlength=k)
    return {names[i]: (int(calls[i]), float(selfs[i])) for i in range(k) if calls[i]}
