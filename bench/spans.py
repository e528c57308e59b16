"""Span recorder that times the lab's layers from outside.

`Tracer.install()` replaces every public function of the six layer modules
with a wrapper that records one span per call: name, start, end, parent span,
op id (the command being run) and one count taken at the same boundary
(`QuadResult.evals` for `integrate`, points or trajectories for array
functions).  Spans live in flat in-memory arrays and are only read back when
the run ends; `uninstall()` restores the original functions.

`experiments` and `cli` import names such as `propagate_closed` or
`run_decay` directly, so a wrapper is put in place of the original object in
every `logdamp_lab` module that holds it, not only in its home module.
`quadrature` is always reached through the module, so its in-module callers
(e.g. `integral_Jp` -> `integrate`) are caught as well.  Private helpers are
never wrapped, so the recorder keeps working when they are replaced.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "experiments", "data_catalog", "quadrature", "propagator", "symbols")


def _points(out) -> int:
    """Number of frequency/time points in a layer function's result."""
    if isinstance(out, tuple):  # (u, v) pairs and root pairs
        out = out[0]
    out = getattr(out, "u_hat", out)  # SpectralState
    return int(np.size(out)) if isinstance(out, (np.ndarray, float, complex)) else 0


def _trajectories(out) -> int:
    # oracle_grid returns (u, v) of shape (len(t_values),) + batch
    return int(np.size(out[0][0]))


def _count_for(name: str):
    if name == "quadrature.integrate":
        return lambda out: out.evals
    if name == "propagator.oracle_grid":
        return _trajectories
    if name.startswith("symbols.") or name == "propagator.propagate_closed":
        return _points
    return None


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.op = -1  # id of the command being run; set by the caller
        self.ops: list[str] = []
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._count = array("q")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_op(self, label: str) -> None:
        self.ops.append(label)
        self.op = len(self.ops) - 1

    def wrap(self, name: str, fn):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self.name_ids[name]
        count = _count_for(name)
        rec_name, rec_parent, rec_op = self._name, self._parent, self._op
        rec_start, rec_end, rec_count = self._start, self._end, self._count
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec_start)
            rec_name.append(nid)
            rec_parent.append(stack[-1] if stack else -1)
            rec_op.append(self.op)
            rec_count.append(0)
            rec_end.append(0.0)
            stack.append(idx)
            rec_start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                rec_end[idx] = clock()
                stack.pop()
            if count is not None:
                rec_count[idx] = count(out)
            return out

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer, wherever they are bound."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "logdamp_lab" or n.startswith("logdamp_lab.")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"logdamp_lab.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)].__wrapped__ is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    # -- reading back ------------------------------------------------------

    def spans(self) -> "Spans":
        if self._stack:
            raise RuntimeError("spans still open")
        return Spans(
            self.names, self.ops,
            np.frombuffer(self._name, dtype=np.int32).copy(),
            np.frombuffer(self._parent, dtype=np.int32).copy(),
            np.frombuffer(self._op, dtype=np.int32).copy(),
            np.frombuffer(self._start, dtype=np.float64).copy(),
            np.frombuffer(self._end, dtype=np.float64).copy(),
            np.frombuffer(self._count, dtype=np.int64).copy(),
        )


class Spans:
    """Recorded spans as parallel arrays, with the queries the metrics need.

    Spans are stored in call order, so a parent always precedes its children.
    """

    def __init__(self, names, ops, name, parent, op, start, end, count):
        self.names, self.ops = list(names), list(ops)
        self.name, self.parent, self.op = name, parent, op
        self.start, self.end, self.count = start, end, count
        self.dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=self.dur[has_parent],
                                 minlength=len(name))
        self.self_time = self.dur - child_time

    def select(self, names=None, prefix=None, ops=None) -> np.ndarray:
        """Boolean mask of spans by exact names, name prefix and op ids."""
        ids = [i for i, n in enumerate(self.names)
               if (names is not None and n in names)
               or (prefix is not None and n.startswith(prefix))]
        mask = np.isin(self.name, ids)
        if ops is not None:
            mask &= np.isin(self.op, list(ops))
        return mask

    def under(self, mask: np.ndarray) -> np.ndarray:
        """Spans that are in `mask` or have an ancestor in it."""
        inside = mask.copy()
        has_parent = self.parent >= 0
        while True:
            grown = inside.copy()
            grown[has_parent] |= inside[self.parent[has_parent]]
            if np.array_equal(grown, inside):
                return inside
            inside = grown

    def outermost(self, mask: np.ndarray) -> np.ndarray:
        """Spans in `mask` with no ancestor in `mask` (so nesting is not counted twice)."""
        anc = np.zeros_like(mask)
        has_parent = self.parent >= 0
        anc[has_parent] = self.under(mask)[self.parent[has_parent]]
        return mask & ~anc

    def inclusive_s(self, mask: np.ndarray) -> float:
        return float(self.dur[self.outermost(mask)].sum())

    def to_npz(self, path) -> None:
        np.savez(path, names=np.array(self.names), ops=np.array(self.ops),
                 name=self.name, parent=self.parent, op=self.op,
                 start=self.start, end=self.end, count=self.count)
