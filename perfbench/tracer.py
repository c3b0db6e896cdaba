"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package: :func:`install` replaces each
traced public function at every ``rentdyn`` module attribute that refers to
it, which is the name its callers look it up by at call time. Each span keeps
its name, start, end, parent span and operation id in compact arrays; the
whole set is written out once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute path) of each traced function -> span name
TRACED = {
    ("rentdyn.cli", "main"): "cli.main",
    ("rentdyn.params", "load_params"): "params.load_params",
    ("rentdyn.params", "with_value"): "params.with_value",
    ("rentdyn.params", "validate_params"): "params.validate_params",
    ("rentdyn.scenarios", "load_scenarios"): "scenarios.load_scenarios",
    ("rentdyn.scenarios", "Scenario.apply"): "scenarios.apply",
    ("rentdyn.scenarios", "run_scenario"): "scenarios.run_scenario",
    ("rentdyn.scenarios", "compute_metrics"): "scenarios.compute_metrics",
    ("rentdyn.scenarios", "emit_timeseries"): "scenarios.emit_timeseries",
    ("rentdyn.model", "run_model"): "model.run_model",
    ("rentdyn.engine", "simulate"): "engine.simulate",
    ("rentdyn.engine", "euler_step"): "engine.euler_step",
    ("rentdyn.validation", "sensitivity_sweep"): "validation.sweep",
    ("rentdyn.calibration", "calibrate"): "calibration.calibrate",
    ("rentdyn.calibration", "calibration_loss"): "calibration.loss",
    ("rentdyn.output", "write_csv"): "output.write_csv",
    ("rentdyn.output", "write_json"): "output.write_json",
    ("rentdyn.output", "write_manifest"): "output.manifest",
}

# the derivative is a closure, so the factory is wrapped to wrap what it returns
DERIVATIVE_FACTORY = ("rentdyn.model", "build_derivative")
DERIVATIVE_SPAN = "model.deriv"


class Tracer:
    """Span store: parallel arrays, one entry per call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = 0
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span; yields the span index."""
        idx = self._open(self._id(name))
        t0 = perf_counter()
        try:
            yield idx
        finally:
            self._close(idx, t0, perf_counter())

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, t0, perf_counter())

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            np.savez(fh, **self.arrays())

    def adopt(self, path, parent: int) -> None:
        """Append spans saved by another process under span ``parent``.

        ``perf_counter`` reads the system-wide monotonic clock on Linux, so
        a child's span times line up with this process's.
        """
        with np.load(path) as saved:
            ids = [self._id(str(n)) for n in saved["names"]]
            offset = len(self.start)
            for nid, t0, t1, par in zip(saved["name_id"], saved["start"],
                                        saved["end"], saved["parent"]):
                self.name_id.append(ids[nid])
                self.start.append(float(t0))
                self.end.append(float(t1))
                self.parent.append(parent if par < 0 else offset + int(par))
                self.op.append(self.op_id)


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *outer, name = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


def install(tracer: Tracer):
    """Wrap every traced function that is imported; returns an undo function."""
    originals = {}
    for (module, attr), span in TRACED.items():
        if module not in sys.modules:
            continue
        owner, name = _resolve(module, attr)
        fn = getattr(owner, name)
        originals[id(fn)] = (fn, tracer.wrap(span, fn))
    if DERIVATIVE_FACTORY[0] in sys.modules:
        factory = getattr(*_resolve(*DERIVATIVE_FACTORY))

        @functools.wraps(factory)
        def build_derivative(*args, **kwargs):
            return tracer.wrap(DERIVATIVE_SPAN, factory(*args, **kwargs))

        originals[id(factory)] = (factory, build_derivative)

    patched = []
    owners = [m for n, m in list(sys.modules.items())
              if n == "rentdyn" or n.startswith("rentdyn.")]
    owners += [getattr(sys.modules[m], a.split(".")[0])
               for m, a in TRACED if "." in a and m in sys.modules]
    for owner in owners:
        for name, value in list(vars(owner).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(owner, name, hit[1])
                patched.append((owner, name, value))

    def uninstall() -> None:
        for owner, name, value in patched:
            setattr(owner, name, value)

    return uninstall


def layer_stats(spans: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Calls, inclusive seconds and self seconds per span name.

    A span's self time is its duration minus the durations of its direct
    children; calls are sequential in one thread, so children never overlap.
    """
    names = spans["names"]
    nid = spans["name_id"].astype(np.int64)
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - covered
    out = {}
    for i, name in enumerate(names):
        mask = nid == i
        out[str(name)] = {
            "calls": int(mask.sum()),
            "incl_s": float(dur[mask].sum()),
            "self_s": float(self_time[mask].sum()),
        }
    return out


def child_calls(spans: dict[str, np.ndarray], child: str, parent: str) -> int:
    """Number of ``child`` spans whose direct parent is a ``parent`` span."""
    names = [str(n) for n in spans["names"]]
    if child not in names or parent not in names:
        return 0
    nid = spans["name_id"]
    par = spans["parent"]
    is_child = nid == names.index(child)
    parent_of = par[is_child]
    parent_of = parent_of[parent_of >= 0]
    return int((nid[parent_of] == names.index(parent)).sum())
