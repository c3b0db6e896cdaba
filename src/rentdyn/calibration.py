"""Least-squares calibration of model constants against scenario metrics.

A calibration spec names a handful of free parameters (with bounds) and a
set of weighted targets, each target being one metric of one scenario. Each
target contributes one weighted relative residual; the loss is their sum of
squares, and the search is :func:`least_squares`, a bounded
Levenberg-Marquardt method (More, "The Levenberg-Marquardt algorithm:
implementation and theory", Lecture Notes in Mathematics 630, 1978) with
a forward-difference Jacobian. A spec may free no more parameters than it has
targets: with more, the exact fits form a ridge and the answer would depend
on the start. Nor may it free a parameter the model only compares against
the grid times (:data:`rentdyn.model.GATE_TIMES`, such as a block's
``start_time``): its finite-difference Jacobian column is zero.

Each scenario run is made once: runs are keyed by the scenario and the free
values it can see (:meth:`rentdyn.scenarios.Scenario.reads_from`), which
leaves out a free parameter of a policy block the scenario switches off (the
model never reads it there) and one the scenario overrides (its override
puts the value back). A run is one edit of the scenario's applied
parameters, setting exactly the free values it sees, within bounds
:class:`CalibrationParameter` checked against the registry, so it is neither
re-applied nor re-validated; its metrics, or the error it raised, are kept.

Most runs start part way through. Every free value is read from some time
on (:func:`rentdyn.model.read_from`): a parameter of a policy block from
the block's onset, the first time any of its gates opens, such as the
filing drop half a month ahead of the moratorium. Before the earliest such
time among the free values a scenario sees, every run of the scenario in a
fit is, bit for bit, the run of its applied parameters at the start. So
before any worker forks, each such scenario's prefix is integrated once:
its applied parameters up to the first sample at or after that time. For
the shipped spec that is sample 105 of 201 in ``run3`` and ``run4`` (the
filing drop at 26.25 months) and 107 in ``run2`` (the shock at 26.75).
Every run of the scenario, the start's included, restarts from its prefix
(:func:`rentdyn.engine.simulate`) and keeps only the series the metrics
read (:data:`rentdyn.scenarios.METRIC_SERIES`). A prefix that goes
non-finite raises its error at once, since every run of its scenario would
meet it. A scenario that sees a value read from the start, such as a
parameter outside the policy blocks or ``assistance.total_funds`` (the
fund's initial level), makes only full runs. A point whose values cannot be
built into parameters (bounds that cross a curve's invariant) scores as a
failed run does. A fit that ends on a failed run raises the error that run
kept (the first failed scenario's, by name) and integrates nothing again.

The runs are made in the solver's rounds (:func:`least_squares`): a trial
point's round holds the points of the finite-difference Jacobian there
too, unless a trial since the last Jacobian was refused, so a step taken
costs one round and a streak of refusals makes at most one set of Jacobian
runs never read. A round's runs are shared between the calling process and
forked worker processes, each process claiming the next run left. There
is one process per usable CPU in all, but no more than the runs of one
Jacobian (the scenarios the targets name times the free parameters); the
workers live for one ``calibrate`` call. Forked from it, they share its
run function as it is: only the list of runs to make and the metrics made
cross a pipe. Without fork, on one usable CPU, for a single run, or while
the calling process runs other threads (a fork would copy locks those
threads may hold), the calling process makes the runs alone.

The search is fully deterministic: same spec, same starting parameters,
same result, however many processes made the runs.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

from rentdyn.engine import SimClock, SimulationError
from rentdyn.model import GATE_TIMES, run_model
from rentdyn.params import ModelParams, bounds_for, brief, get_value, load_yaml, \
    read_mapping, read_number, with_values
from rentdyn.scenarios import BUILTIN_SCENARIOS, METRIC_BLOCKS, METRIC_SERIES, MetricSet, \
    Scenario, compute_metrics, run_scenario

__all__ = [
    "CalibrationError",
    "CalibrationTarget",
    "CalibrationParameter",
    "CalibrationSpec",
    "CalibrationResult",
    "load_calibration_spec",
    "calibration_loss",
    "calibrate",
    "least_squares",
]

_METRIC_NAMES = tuple(f.name for f in fields(MetricSet))
_FAILURE_LOSS = 1e12
# the ftol, xtol and gtol of the solver's stopping tests (MINPACK's, at
# scipy's defaults), and its forward-difference step relative to max(1, |x|)
_TOLERANCE = 1e-8
_DIFF_STEP = math.sqrt(np.finfo(float).eps)


class CalibrationError(ValueError):
    """A calibration spec is invalid or the search cannot be set up."""


@dataclass(frozen=True)
class CalibrationTarget:
    """One fitted quantity: a metric of a named scenario and its target."""

    scenario: str
    metric: str
    value: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.metric not in _METRIC_NAMES:
            raise CalibrationError(f"target names unknown metric {brief(self.metric)}")
        if not 0.0 < self.weight < math.inf:
            raise CalibrationError(f"{self.key}: target weight must be positive and "
                                   f"finite: {self.weight}")

    @property
    def key(self) -> str:
        return f"{self.scenario}.{self.metric}"


def _registry_bounds(path: str) -> tuple[float, float]:
    """The documented bounds of ``path``."""
    try:
        return bounds_for(path)
    except KeyError:
        raise CalibrationError(f"unknown parameter path {brief(path)}") from None


@dataclass(frozen=True)
class CalibrationParameter:
    """One free parameter, with bounds inside the registry's documented ones.

    The fit's runs are not validated one by one, so a free value is only
    ever set within bounds checked here.
    """

    path: str
    lower: float
    upper: float

    def __post_init__(self) -> None:
        reg_lo, reg_hi = _registry_bounds(self.path)
        if self.lower < reg_lo or self.upper > reg_hi:
            raise CalibrationError(
                f"{self.path}: requested bounds [{self.lower}, {self.upper}] exceed the "
                f"documented bounds [{reg_lo}, {reg_hi}]")
        if not self.lower < self.upper:
            raise CalibrationError(f"{self.path}: lower bound must be below upper bound")


@dataclass(frozen=True)
class CalibrationSpec:
    """Free parameters plus weighted targets plus search options.

    ``max_iterations`` caps the residual evaluations the solver may make
    (finite-difference Jacobian evaluations come on top).
    """

    parameters: tuple[CalibrationParameter, ...]
    targets: tuple[CalibrationTarget, ...]
    max_iterations: int = 400

    def __post_init__(self) -> None:
        # a target listed twice would count twice toward a unique fit
        for kind, keys in (("parameter", [p.path for p in self.parameters]),
                           ("target", [t.key for t in self.targets])):
            for key in keys:
                if keys.count(key) > 1:
                    raise CalibrationError(f"duplicate {kind} {key!r}")
        if len(self.parameters) > len(self.targets):
            raise CalibrationError(
                f"{len(self.parameters)} free parameters but only "
                f"{len(self.targets)} targets: the fit would not be unique")
        for p in self.parameters:
            if p.path in GATE_TIMES:
                raise CalibrationError(
                    f"{p.path} cannot be fitted: the model only compares it against "
                    f"the grid times, so no finite-difference step moves a result")
        if not (self.max_iterations >= 1 and float(self.max_iterations).is_integer()):
            raise CalibrationError(f"max_iterations must be a whole number, at least 1: "
                                   f"{self.max_iterations}")
        object.__setattr__(self, "max_iterations", int(self.max_iterations))


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of one calibration run."""

    params: ModelParams
    loss: float
    initial_loss: float
    # points scored, the start's and the Jacobians' included
    evaluations: int
    # scenario integrations made: one per scenario and distinct point it
    # sees, the Jacobian points made with a trial point the solver then
    # refused included
    scenario_runs: int
    iterations: int
    converged: bool
    fitted: dict[str, float]
    achieved: dict[str, float]
    # of the relative-coordinate Jacobian at the fit; a value near zero
    # marks a direction the targets barely constrain. Empty when a
    # finite-difference point at the fit failed: its column measures the
    # failure, not the targets
    singular_values: tuple[float, ...]


def _check_target(entry: Any, scenarios: Mapping[str, Scenario]) -> CalibrationTarget:
    entry = read_mapping(entry, CalibrationError, f"target {brief(entry)}",
                         keys=("scenario", "metric", "value", "weight"),
                         required=("scenario", "metric", "value"))
    if not isinstance(entry["scenario"], str) or entry["scenario"] not in scenarios:
        raise CalibrationError(f"target names unknown scenario {brief(entry['scenario'])}")
    return CalibrationTarget(
        scenario=entry["scenario"],
        metric=entry["metric"],
        value=read_number(entry["value"], CalibrationError, "target value"),
        weight=read_number(entry.get("weight", 1.0), CalibrationError, "target weight"),
    )


def _check_parameter(entry: Any) -> CalibrationParameter:
    entry = read_mapping(entry, CalibrationError, f"parameter {brief(entry)}",
                         keys=("path", "lower", "upper"), required=("path",))
    path = entry["path"]
    if not isinstance(path, str):
        raise CalibrationError(f"parameter path is not text: {brief(path)}")
    reg_lo, reg_hi = _registry_bounds(path)
    lower = read_number(entry.get("lower", reg_lo), CalibrationError, f"{path}: lower")
    upper = read_number(entry["upper"], CalibrationError, f"{path}: upper") \
        if "upper" in entry else reg_hi
    return CalibrationParameter(path=path, lower=lower, upper=upper)


def load_calibration_spec(
    path: str | Path,
    scenarios: Mapping[str, Scenario] = BUILTIN_SCENARIOS,
) -> CalibrationSpec:
    """Read and validate a YAML calibration spec.

    Layout::

        parameters:
          - path: covid.magnitude
            lower: 0.3          # optional, defaults to the registry bounds
            upper: 0.9
        targets:
          - scenario: run2
            metric: arrears_growth_36mo
            value: 20.4e9
            weight: 1.0         # optional
        options:
          max_iterations: 400   # optional

    A key not shown here is an error, and so is a target or parameter entry
    that lacks a key not marked optional.
    """
    raw = read_mapping(load_yaml(path, CalibrationError), CalibrationError,
                       "calibration spec", keys=("parameters", "targets", "options"))
    for key in ("parameters", "targets"):
        if not raw.get(key):
            raise CalibrationError(f"calibration spec lists no {key}")
        if not isinstance(raw[key], list):
            raise CalibrationError(f"calibration spec {key!r} must be a list of mappings")
    options = read_mapping(raw.get("options") or {}, CalibrationError,
                           "calibration spec 'options'", keys=("max_iterations",))
    return CalibrationSpec(
        parameters=tuple(_check_parameter(e) for e in raw["parameters"]),
        targets=tuple(_check_target(e, scenarios) for e in raw["targets"]),
        max_iterations=read_number(options.get("max_iterations", CalibrationSpec.max_iterations),
                                   CalibrationError, "max_iterations"))


def _achieved(
    metric_sets: dict[str, MetricSet],
    spec: CalibrationSpec,
    clock: SimClock,
) -> dict[str, float]:
    """Metric values for every target, read from its scenario's metrics."""
    out = {}
    for target in spec.targets:
        value = getattr(metric_sets[target.scenario], target.metric)
        if value is None:
            # "never happened" sentinel for time-of-event metrics
            value = clock.horizon + 1.0
        out[target.key] = float(value)
    return out


def _residuals(achieved: dict[str, float], spec: CalibrationSpec) -> np.ndarray:
    """One weighted relative miss per target, in spec order."""
    out = np.empty(len(spec.targets))
    for i, target in enumerate(spec.targets):
        scale = abs(target.value) if target.value != 0.0 else 1.0
        out[i] = math.sqrt(target.weight) * (achieved[target.key] - target.value) / scale
    return out


def calibration_loss(
    params: ModelParams,
    spec: CalibrationSpec,
    clock: SimClock = SimClock(),
    scenarios: Mapping[str, Scenario] = BUILTIN_SCENARIOS,
) -> float:
    """Weighted sum of squared relative target misses (lower is better)."""
    metric_sets = {name: run_scenario(params, scenarios[name], clock=clock).metrics
                   for name in sorted({t.scenario for t in spec.targets})}
    return float(np.sum(_residuals(_achieved(metric_sets, spec, clock), spec) ** 2))


def _process_count(most: int) -> int:
    """Processes a fit runs scenarios in: one per usable CPU, at most ``most``,
    where it can fork and no other thread runs."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods() \
            or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), most)


def _make_runs(run: Callable[..., MetricSet | Exception], counter: Any,
               todo: list[tuple[str, tuple[float, ...]]]) -> dict[int, MetricSet | Exception]:
    """Claim and make runs of ``todo`` until none is left; return them by index."""
    made = {}
    while True:
        with counter.get_lock():
            index = counter.value
            counter.value += 1
        if index >= len(todo):
            return made
        made[index] = run(*todo[index])


def _serve(run: Callable[..., MetricSet | Exception], counter: Any, conn: Any) -> None:
    """A worker process of a fit: make runs of each list it is sent, until
    stopped. Forked, it is handed ``run`` as it is, without pickling."""
    while True:
        todo = conn.recv()
        try:
            conn.send(_make_runs(run, counter, todo))
        except Exception as error:
            conn.send(error)


def _difference_points(x: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The points of a forward-difference Jacobian at ``x``, one per row: a
    step of ``sqrt(eps) * max(1, |x|)`` in one coordinate, turned backward
    where it would cross the upper bound."""
    h = _DIFF_STEP * np.maximum(1.0, np.abs(x))
    return x + np.diag(np.where(x + h > upper, -h, h))


class Solution(NamedTuple):
    """Where :func:`least_squares` stopped, and why."""

    x: np.ndarray
    fun: np.ndarray
    # the forward-difference Jacobian of ``fun`` at ``x``
    jac: np.ndarray
    # residual vectors scored at the start and at trial points
    nfev: int
    # Jacobians made, one at the start and one at each trial point taken
    njev: int
    # 1, 2 or 3: the gradient, cost or step test was met; 0: max_nfev was reached
    status: int


def least_squares(
    fun: Callable[[list[np.ndarray]], list[np.ndarray]],
    x0: np.ndarray,
    bounds: tuple[np.ndarray, np.ndarray],
    max_nfev: int,
) -> Solution:
    """Minimize the sum of squares of the residuals ``fun`` scores over the
    box ``bounds`` from ``x0`` by Levenberg-Marquardt.

    Each step solves ``(J'J + mu D) p = -J'f``, with ``D`` the running
    maximum of the diagonal of ``J'J`` (Marquardt's scaling; 1 for a column
    that has been zero so far) and ``mu`` starting at 1e-3, for every
    coordinate but those on a bound the gradient pushes out of, and
    projects ``x + p`` into the box. A step that lowers the cost is taken,
    and ``mu`` shrinks with the ratio of the actual to the predicted
    reduction; one that does not, a failed run's residual among them, is
    refused, and ``mu`` grows by a factor that doubles with each refusal in
    a row (Nielsen, "Damping parameter in Marquardt's method",
    IMM-REP-1999-05).
    The search stops when the gradient projected on the box is below the
    tolerance (status 1), when a step taken lowers the cost by less than the
    tolerance relative to it (2), when a step taken or refused is shorter
    than the tolerance relative to ``x`` (3), or after ``max_nfev`` trial
    points, the start counted (0). As in MINPACK, the step test weighs each
    coordinate by the square root of ``D``: a Jacobian point past a wall of
    failed runs makes its column huge, so the search ends at the wall.

    The Jacobian is made at every point taken, by forward differences
    (:func:`_difference_points`). Each call ``fun(points)`` is one round,
    returning the points' residual vectors in order. A round holds the start
    or a trial point with the Jacobian points there, which the search needs
    next if it takes the step; once a trial since the last Jacobian was
    refused, a trial point alone, and then the Jacobian at one taken gets a
    round of its own.
    """
    lower, upper = bounds
    x = np.asarray(x0, dtype=float)
    points = _difference_points(x, upper)
    f, *columns = fun([x, *points])
    cost = f @ f
    nfev, njev, status, mu, nu, scaling = 1, 0, 0, 1e-3, 2.0, np.zeros(x.size)
    while True:
        jac = (np.array(columns) - f).T / np.diag(points - x)
        njev += 1
        g = jac.T @ f
        if np.max(np.abs(x - np.clip(x - g, lower, upper))) < _TOLERANCE:
            status = 1
        if status or nfev >= max_nfev:
            return Solution(x, f, jac, nfev, njev, status)
        a = jac.T @ jac
        scaling = np.maximum(scaling, np.diag(a))
        damping = np.where(scaling > 0.0, scaling, 1.0)
        x_norm = math.sqrt(damping @ x ** 2)
        # a coordinate on a bound that the gradient pushes out of stays there
        free = ~(((x <= lower) & (g > 0.0)) | ((x >= upper) & (g < 0.0)))
        alone = False
        while True:
            step = np.zeros(x.size)
            step[free] = np.linalg.solve((a + mu * np.diag(damping))[np.ix_(free, free)],
                                         -g[free])
            new = np.clip(x + step, lower, upper)
            points = _difference_points(new, upper)
            trial, *columns = fun([new] if alone else [new, *points])
            nfev += 1
            actual = cost - trial @ trial
            predicted = cost - np.sum((f + jac @ (new - x)) ** 2)
            gain = actual / predicted if actual > 0.0 and predicted > 0.0 else 0.0
            short = math.sqrt(damping @ (new - x) ** 2) < _TOLERANCE * (_TOLERANCE + x_norm)
            if gain > 0.0:
                status = 2 if actual < _TOLERANCE * cost and gain > 0.25 else 3 if short else 0
                x, f, cost = new, trial, trial @ trial
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
                nu = 2.0
                break
            if short or nfev >= max_nfev:
                return Solution(x, f, jac, nfev, njev, 3 if short else 0)
            alone = True
            mu *= nu
            nu *= 2.0
        if alone:
            columns = fun(list(points))


def calibrate(
    params: ModelParams,
    spec: CalibrationSpec,
    clock: SimClock = SimClock(),
    scenarios: Mapping[str, Scenario] = BUILTIN_SCENARIOS,
) -> CalibrationResult:
    """Fit the spec'd parameters by bounded least squares (:func:`least_squares`).

    Starts from ``params`` (clipping each free value into its bounds), works
    in relative coordinates so differently-scaled parameters condition the
    finite-difference Jacobian equally, and treats any simulation blow-up as
    a residual vector of effectively infinite loss, so the solver refuses
    the step and takes shorter ones away from pathological corners.

    Each scenario run is made once per distinct point it can see, restarts
    from its scenario's prefix where it has one, and the runs of each of
    the solver's rounds are spread over worker processes (see the module
    docstring); the result is the same as from full runs in one process.
    A prefix that goes non-finite raises its
    :class:`rentdyn.engine.SimulationError` before the search starts. A fit
    ending on values that cannot be built into parameters (bounds that cross
    a curve's invariant, alone or with a scenario's overrides) raises
    :class:`CalibrationError`, and one ending on another failed run the error
    that run kept (the first failed scenario's, by name); nothing runs again.
    A target whose metric reads a policy block its scenario switches off
    (:data:`rentdyn.scenarios.METRIC_BLOCKS`), and a free parameter that no
    target's scenario reads, raise :class:`CalibrationError` before any run:
    no step of the fit could move either.
    """
    for target in spec.targets:
        block = METRIC_BLOCKS.get(target.metric)
        if block is not None and not getattr(scenarios[target.scenario], block):
            raise CalibrationError(f"{target.key} cannot move: {target.scenario} switches "
                                   f"the {block} block off")
    paths = [p.path for p in spec.parameters]
    x0 = np.array([float(get_value(params, path)) for path in paths])
    lower = np.array([p.lower for p in spec.parameters])
    upper = np.array([p.upper for p in spec.parameters])
    x0 = np.clip(x0, lower, upper)
    # relative coordinates: unit step = the starting magnitude (or 1 if zero)
    scale = np.where(np.abs(x0) > 0.0, np.abs(x0), 1.0)
    failure = np.full(len(spec.targets), math.sqrt(_FAILURE_LOSS / len(spec.targets)))

    needed = sorted({t.scenario for t in spec.targets})
    # when the model first reads each free value in each scenario
    applied = {name: scenarios[name].apply(params) for name in needed}
    reads = {name: np.array([scenarios[name].reads_from(applied[name], path) for path in paths])
             for name in needed}
    # the free values each scenario can see: the model never reads one in a
    # policy block the scenario switches off, and the scenario's override
    # puts back one it overrides
    seen = {name: np.flatnonzero(r < math.inf) for name, r in reads.items()}
    for i, path in enumerate(paths):
        if not any(i in s for s in seen.values()):
            raise CalibrationError(f"{path} cannot be fitted: no target's scenario "
                                   f"({', '.join(needed)}) reads it")
    # each scenario whose runs restart does so from its prefix: the start's
    # run up to the first sample k at or after the earliest time it reads a
    # free value (the last sample for an onset past the horizon)
    prefixes = {}
    for name, r in reads.items():
        if 0.0 < r.min() < math.inf:
            k = clock.sample_at_or_after(r.min())
            prefixes[name] = (k, run_model(applied[name], SimClock(
                clock.dt, horizon=clock.grid[k], burn_in=0.0)))

    def run(name: str, values: tuple[float, ...]) -> MetricSet | Exception:
        """One scenario at the free values it sees, restarted from its prefix
        where it has one, keeping only the series its metrics read; the
        error, without its traceback, when the values cannot be built into
        parameters or the run fails."""
        try:
            candidate = with_values(applied[name],
                                    dict(zip([paths[i] for i in seen[name]], values)))
            return compute_metrics(run_model(candidate, clock, record=METRIC_SERIES,
                                             restart=prefixes.get(name)), candidate)
        # ValueError: the values break an invariant, such as a curve's
        except (ValueError, SimulationError, FloatingPointError, OverflowError,
                ZeroDivisionError) as error:
            return error.with_traceback(None)

    # the outcome of every scenario run made, keyed by the scenario and the
    # bytes of the free values it sees
    runs: dict[tuple[str, bytes], MetricSet | Exception] = {}

    def tasks(z: np.ndarray) -> list[tuple[tuple[str, bytes], tuple[str, tuple[float, ...]]]]:
        """Each scenario's run at ``z``: its key, and ``run``'s arguments."""
        values = np.clip(z * scale, lower, upper)
        return [((name, values[i].tobytes()), (name, tuple(values[i].tolist())))
                for name, i in seen.items()]

    def achieved_at(z: np.ndarray) -> dict[str, float] | None:
        outcomes = {key[0]: runs[key] for key, _ in tasks(z)}
        if any(isinstance(o, Exception) for o in outcomes.values()):
            return None
        return _achieved(outcomes, spec, clock)

    def score(z: np.ndarray) -> np.ndarray:
        achieved = achieved_at(z)
        return failure if achieved is None else _residuals(achieved, spec)

    def evaluate(points: list[np.ndarray]) -> list[np.ndarray]:
        """One round of the solver: make the runs its points need, then score them."""
        needs = dict(task for z in points for task in tasks(z) if task[0] not in runs)
        todo = list(needs.values())
        if not workers or len(todo) < 2:
            made = {index: run(*task) for index, task in enumerate(todo)}
        else:
            # this process and the workers each claim the next run left, so
            # a process slowed by other load makes fewer of them
            counter.value = 0
            for _, conn in workers:
                conn.send(todo)
            made = _make_runs(run, counter, todo)
            for _, conn in workers:
                reply = conn.recv()
                if isinstance(reply, Exception):
                    raise reply
                made.update(reply)
        runs.update((key, made[index]) for index, key in enumerate(needs))
        return [score(z) for z in points]

    # (process, pipe end) of each worker; the calling process sends each its
    # runs itself, so no thread of this process stands between them. Each
    # worker inherits the prefixes when it forks
    workers = []
    z0 = x0 / scale
    upper_z = upper / scale
    # a Jacobian needs at most one run per scenario and free parameter
    processes = _process_count(len(needed) * len(paths))
    if processes > 1:
        import multiprocessing

        context = multiprocessing.get_context("fork")
        counter = context.Value("i", 0)
    try:
        for _ in range(processes - 1):
            conn, worker_conn = context.Pipe()
            worker = context.Process(target=_serve,
                                     args=(run, counter, worker_conn), daemon=True)
            worker.start()
            worker_conn.close()
            workers.append((worker, conn))
        result = least_squares(evaluate, z0, bounds=(lower / scale, upper_z),
                               max_nfev=spec.max_iterations)
    finally:
        for worker, conn in workers:
            worker.terminate()
            worker.join()
            conn.close()
    # the solver scored the start, the fit and the Jacobian points there
    x = result.x
    achieved = achieved_at(x)
    # a Jacobian column across a wall of failed runs measures the wall
    wall = any(achieved_at(point) is None for point in _difference_points(x, upper_z))
    loss = float(np.sum(result.fun ** 2))
    initial_loss = float(np.sum(score(z0) ** 2))
    try:
        values = np.clip(x * scale, lower, upper).tolist()
        fitted_params = with_values(params, dict(zip(paths, values)))
        if achieved is None:
            # the fit ends on a failed run: raise the error the first one kept
            raise next(runs[key] for key, _ in tasks(x) if isinstance(runs[key], Exception))
    except ValueError as error:
        raise CalibrationError(f"the fit ends on parameters that cannot be built: "
                               f"{error}") from error
    return CalibrationResult(
        params=fitted_params,
        loss=loss,
        initial_loss=initial_loss,
        evaluations=result.nfev + len(paths) * result.njev,
        scenario_runs=len(runs),
        iterations=int(result.nfev),
        converged=bool(result.status > 0) and loss < _FAILURE_LOSS,
        fitted={path: float(get_value(fitted_params, path)) for path in paths},
        achieved=achieved,
        singular_values=() if wall else tuple(
            float(v) for v in np.linalg.svd(result.jac, compute_uv=False)),
    )
