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
before the search starts, each such scenario's prefix is integrated once:
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
point is scored alone, and the points of the finite-difference Jacobian at
it only once the step to it is taken, so every run made is read. Each
round's runs are made in order, in the calling process: on the compiled run
loop (:func:`rentdyn.model.scalar_kernel`) a restarted run takes under a
millisecond, and on two CPUs forked workers cost more to start and to feed
than they saved.

The search is fully deterministic: same spec, same starting parameters,
same result, on every CPU: the solver sums Python floats by
:func:`rentdyn.engine.pairwise_sum`, not by a BLAS kernel the CPU picks,
and takes singular values by one-sided Jacobi rotations (Hestenes, J. SIAM
6(1), 1958). It imports no NumPy, which enters a process only through a
batch (``model.run_model`` of a list).
"""

from __future__ import annotations

import itertools
import math
import struct
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from rentdyn.engine import SimClock, SimulationError, pairwise_sum
from rentdyn.model import GATE_TIMES, run_model
from rentdyn.params import InputError, ModelParams, bounds_for, brief, clamp, get_value, \
    load_yaml, read_mapping, read_number, with_values
from rentdyn.scenarios import BUILTIN_SCENARIOS, METRIC_BLOCKS, METRIC_SERIES, MetricSet, \
    Scenario, compute_metrics, run_many

__all__ = [
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
_DIFF_STEP = math.sqrt(sys.float_info.epsilon)


@dataclass(frozen=True)
class CalibrationTarget:
    """One fitted quantity: a metric of a named scenario and its target."""

    scenario: str
    metric: str
    value: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.metric not in _METRIC_NAMES:
            raise InputError(f"target names unknown metric {brief(self.metric)}")
        if not math.isfinite(self.value):
            raise InputError(f"{self.key}: target value must be finite: {self.value}")
        if not 0.0 < self.weight < math.inf:
            raise InputError(f"{self.key}: target weight must be positive and "
                             f"finite: {self.weight}")

    @property
    def key(self) -> str:
        return f"{self.scenario}.{self.metric}"


@dataclass(frozen=True)
class CalibrationParameter:
    """One free parameter, with bounds inside the registry's documented ones;
    a bound left out is the registry's.

    The fit's runs are not validated one by one, so a free value is only
    ever set within bounds checked here.
    """

    path: str
    lower: float | None = None
    upper: float | None = None

    def __post_init__(self) -> None:
        try:
            reg_lo, reg_hi = bounds_for(self.path)
        except KeyError:
            raise InputError(f"unknown parameter path {brief(self.path)}") from None
        object.__setattr__(self, "lower", reg_lo if self.lower is None else self.lower)
        object.__setattr__(self, "upper", reg_hi if self.upper is None else self.upper)
        if self.lower < reg_lo or self.upper > reg_hi:
            raise InputError(
                f"{self.path}: requested bounds [{self.lower}, {self.upper}] exceed the "
                f"documented bounds [{reg_lo}, {reg_hi}]")
        if not self.lower < self.upper:
            raise InputError(f"{self.path}: lower bound must be below upper bound")


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
                    raise InputError(f"duplicate {kind} {key!r}")
        if len(self.parameters) > len(self.targets):
            raise InputError(
                f"{len(self.parameters)} free parameters but only "
                f"{len(self.targets)} targets: the fit would not be unique")
        for p in self.parameters:
            if p.path in GATE_TIMES:
                raise InputError(
                    f"{p.path} cannot be fitted: the model only compares it against "
                    f"the grid times, so no finite-difference step moves a result")
        if not (self.max_iterations >= 1 and float(self.max_iterations).is_integer()):
            raise InputError(f"max_iterations must be a whole number, at least 1: "
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
    # sees
    scenario_runs: int
    # the solver met a tolerance, the fit scores no failed run, and the
    # targets identify every free parameter (see singular_values)
    converged: bool
    fitted: dict[str, float]
    # None for a time-of-event metric whose event never happened
    achieved: dict[str, float | None]
    # of the relative-coordinate Jacobian at the fit; a value near zero
    # marks a direction the targets barely constrain. Empty when the fit
    # ends at a wall of failed runs: a run failed at a finite-difference
    # point at the fit or at the last trial point the search refused
    singular_values: tuple[float, ...]


def _check_target(entry: Any, scenarios: Mapping[str, Scenario]) -> CalibrationTarget:
    entry = read_mapping(entry, f"target {brief(entry)}",
                         keys=("scenario", "metric", "value", "weight"),
                         required=("scenario", "metric", "value"))
    if not isinstance(entry["scenario"], str) or entry["scenario"] not in scenarios:
        raise InputError(f"target names unknown scenario {brief(entry['scenario'])}")
    return CalibrationTarget(
        scenario=entry["scenario"],
        metric=entry["metric"],
        value=read_number(entry["value"], "target value"),
        weight=read_number(entry.get("weight", CalibrationTarget.weight), "target weight"),
    )


def _check_parameter(entry: Any) -> CalibrationParameter:
    entry = read_mapping(entry, f"parameter {brief(entry)}", keys=("path", "lower", "upper"),
                         required=("path",))
    path = entry["path"]
    if not isinstance(path, str):
        raise InputError(f"parameter path is not text: {brief(path)}")
    return CalibrationParameter(path, **{side: read_number(entry[side], f"{path}: {side}")
                                         for side in ("lower", "upper") if side in entry})


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
    that lacks a key not marked optional. Every fault, those the spec's
    classes find included, raises an :class:`InputError` naming the file.
    """
    with load_yaml(path) as raw:
        raw = read_mapping(raw, "top level", keys=("parameters", "targets", "options"))
        for key in ("parameters", "targets"):
            if not raw.get(key):
                raise InputError(f"lists no {key}")
            if not isinstance(raw[key], list):
                raise InputError(f"{key!r} must be a list of mappings")
        options = read_mapping(raw.get("options") or {}, "'options'", keys=("max_iterations",))
        return CalibrationSpec(
            parameters=tuple(_check_parameter(e) for e in raw["parameters"]),
            targets=tuple(_check_target(e, scenarios) for e in raw["targets"]),
            max_iterations=read_number(
                options.get("max_iterations", CalibrationSpec.max_iterations), "max_iterations"))


def _achieved(metric_sets: dict[str, MetricSet],
              spec: CalibrationSpec) -> dict[str, float | None]:
    """Metric values for every target, read from its scenario's metrics;
    None for a time-of-event metric whose event never happened."""
    return {target.key: getattr(metric_sets[target.scenario], target.metric)
            for target in spec.targets}


def _residuals(achieved: dict[str, float | None], spec: CalibrationSpec,
               clock: SimClock) -> list[float]:
    """One weighted relative miss per target, in spec order; an event that
    never happened scores as happening a month past the horizon."""
    out = []
    for target in spec.targets:
        value = achieved[target.key]
        value = clock.horizon + 1.0 if value is None else value
        out.append(math.sqrt(target.weight) * (value - target.value) / (abs(target.value) or 1.0))
    return out


def calibration_loss(
    params: ModelParams,
    spec: CalibrationSpec,
    clock: SimClock = SimClock(),
    scenarios: Mapping[str, Scenario] = BUILTIN_SCENARIOS,
) -> float:
    """Weighted sum of squared relative target misses (lower is better)."""
    runs = run_many(params, {t.scenario: scenarios[t.scenario] for t in spec.targets}, clock)
    metric_sets = {name: result.metrics for name, result in runs.items()}
    residuals = _residuals(_achieved(metric_sets, spec), spec, clock)
    return _dot(residuals, residuals)


def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    """The dot product of ``u`` and ``v``, summed in pairwise order."""
    return pairwise_sum([a * b for a, b in zip(u, v)])


def _clip(values: Sequence[float], lower: Sequence[float], upper: Sequence[float]) -> list[float]:
    """``values`` moved into the box ``[lower, upper]``, one coordinate at a time."""
    return [clamp(v, lo, hi) for v, lo, hi in zip(values, lower, upper)]


def _difference_points(x: Sequence[float], upper: Sequence[float]) -> list[list[float]]:
    """The forward-difference points at ``x``, one per coordinate: a step of
    ``sqrt(eps) * max(1, |x|)`` there, backward where it would cross ``upper``."""
    h = [_DIFF_STEP * max(1.0, abs(v)) for v in x]
    h = [-s if v + s > hi else s for v, s, hi in zip(x, h, upper)]
    return [[v + (h[i] if j == i else 0.0) for j, v in enumerate(x)] for i in range(len(x))]


def _solve(a: list[list[float]], b: list[float]) -> list[float]:
    """``x`` with ``a x = b``, by Gaussian elimination with partial pivoting:
    a stable sort brings up the first row with the largest entry in column k."""
    rows = [[*row, v] for row, v in zip(a, b)]
    for k in range(len(rows)):
        rows[k:] = sorted(rows[k:], key=lambda row: abs(row[k]), reverse=True)
        for row in rows[k + 1:]:
            m = row[k] / rows[k][k]
            row[k:] = [u - m * v for u, v in zip(row[k:], rows[k][k:])]
    x = [0.0] * len(rows)
    for i in reversed(range(len(rows))):
        x[i] = (rows[i][-1] - _dot(rows[i][i + 1:-1], x[i + 1:])) / rows[i][i]
    return x


def _singular_values(columns: list[list[float]]) -> list[float]:
    """Singular values, largest first, of a matrix given by its columns, no more than its
    rows: their norms once rotations leave each pair orthogonal (Demmel and Veselic, 1992)."""
    cols = list(columns)
    for _ in range(30):
        rotated = False
        for i, k in itertools.combinations(range(len(cols)), 2):
            u, v = cols[i], cols[k]
            alpha, beta, gamma = _dot(u, u), _dot(v, v), _dot(u, v)
            if abs(gamma) > sys.float_info.epsilon * math.sqrt(alpha * beta):
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c, rotated = 1.0 / math.hypot(1.0, t), True
                cols[i] = [c * (p - t * q) for p, q in zip(u, v)]
                cols[k] = [c * (t * p + q) for p, q in zip(u, v)]
        if not rotated:
            break
    return sorted((math.sqrt(_dot(col, col)) for col in cols), reverse=True)


class Solution(NamedTuple):
    """Where :func:`least_squares` stopped, and why."""

    x: list[float]
    fun: list[float]
    # the forward-difference Jacobian of ``fun`` at ``x``, one column per coordinate
    jac: list[list[float]]
    # residual vectors scored at the start and at trial points
    nfev: int
    # Jacobians made, one at the start and one at each trial point taken
    njev: int
    # 1, 2 or 3: the gradient, cost or step test was met; 0: max_nfev was reached
    status: int
    # the trial point refused last since the Jacobian at ``x`` was made;
    # none if no trial point was
    refused: tuple[list[float], ...]


def least_squares(
    fun: Callable[[list[list[float]]], Sequence[Sequence[float]]],
    x0: Sequence[float],
    bounds: tuple[Sequence[float], Sequence[float]],
    max_nfev: int,
) -> Solution:
    """Minimize the sum of squares of the residuals ``fun`` scores over the
    box ``bounds`` from ``x0`` by Levenberg-Marquardt.

    Each step solves ``(J'J + mu D) p = -J'f``, with ``D`` the running
    maximum of the diagonal of ``J'J`` (Marquardt's scaling; 1 for a column
    that has been zero so far) and ``mu`` starting at 1e-3, for every
    coordinate but those on a bound the gradient pushes out of, and
    projects ``x + p`` into the box. A step that lowers the cost is taken,
    and ``mu`` falls by 3; one that does not, a failed run's residual among
    them, is refused, and ``mu`` rises by 10: fixed factors, raised faster
    than lowered (Marquardt, "An algorithm for least-squares estimation of
    nonlinear parameters", J. SIAM 11(2), 1963).
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
    with the Jacobian points there, or a trial point alone, or the Jacobian
    points at a trial point once the step to it is taken: the search reads
    every point it scores. Points are lists of floats, and so are the results.
    """
    lower, upper = bounds
    x = list(x0)
    points = _difference_points(x, upper)
    f, *columns = map(list, fun([x, *points]))
    cost = _dot(f, f)
    nfev, njev, status, mu, scaling, refused = 1, 0, 0, 1e-3, [0.0] * len(x), ()
    while True:
        jac = [[(c - fr) / (point[i] - x[i]) for c, fr in zip(column, f)]
               for i, (column, point) in enumerate(zip(columns, points))]
        njev += 1
        g = [_dot(column, f) for column in jac]
        if max(abs(v - w) for v, w in zip(x, _clip([v - gi for v, gi in zip(x, g)],
                                                   lower, upper))) < _TOLERANCE:
            status = 1
        if status or nfev >= max_nfev:
            return Solution(x, f, jac, nfev, njev, status, refused)
        a = [[_dot(ci, ck) for ck in jac] for ci in jac]
        scaling = [max(s, a[i][i]) for i, s in enumerate(scaling)]
        damping = [s if s > 0.0 else 1.0 for s in scaling]
        step_tolerance = _TOLERANCE * (_TOLERANCE + math.sqrt(_dot(damping, [v * v for v in x])))
        # a coordinate on a bound that the gradient pushes out of stays there
        free = [i for i, (v, gi) in enumerate(zip(x, g))
                if not (v <= lower[i] and gi > 0.0 or v >= upper[i] and gi < 0.0)]
        refused = ()
        while True:
            step = dict(zip(free, _solve([[a[i][k] + (mu * damping[i] if i == k else 0.0)
                                           for k in free] for i in free], [-g[i] for i in free])))
            new = _clip([v + step.get(i, 0.0) for i, v in enumerate(x)], lower, upper)
            (trial,) = map(list, fun([new]))
            nfev += 1
            actual = cost - _dot(trial, trial)
            dx = [v - w for v, w in zip(new, x)]
            model_f = [fr + _dot(row, dx) for fr, row in zip(f, zip(*jac))]
            predicted = cost - _dot(model_f, model_f)
            gain = actual / predicted if actual > 0.0 and predicted > 0.0 else 0.0
            short = math.sqrt(_dot(damping, [v * v for v in dx])) < step_tolerance
            if gain > 0.0:
                status = 2 if actual < _TOLERANCE * cost and gain > 0.25 else 3 if short else 0
                x, f, cost = new, trial, _dot(trial, trial)
                mu /= 3.0
                break
            refused = (new,)
            if short or nfev >= max_nfev:
                return Solution(x, f, jac, nfev, njev, 3 if short else 0, refused)
            mu *= 10.0
        points = _difference_points(x, upper)
        columns = list(map(list, fun(points)))


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

    Each scenario run is made once per distinct point it can see, in the
    calling process, and restarts from its scenario's prefix where it has
    one (see the module docstring); the result is the same as from full
    runs.
    A prefix that goes non-finite raises its
    :class:`rentdyn.engine.SimulationError` before the search starts. A fit
    ending on values that cannot be built into parameters (bounds that cross
    a curve's invariant, alone or with a scenario's overrides) raises
    :class:`InputError`, and one ending on another failed run the error
    that run kept (the first failed scenario's, by name); nothing runs again.
    A target whose metric reads a policy block its scenario switches off
    (:data:`rentdyn.scenarios.METRIC_BLOCKS`), and a free parameter that no
    target's scenario reads, raise :class:`InputError` before any run:
    no step of the fit could move either.
    """
    for target in spec.targets:
        block = METRIC_BLOCKS.get(target.metric)
        if block is not None and not getattr(scenarios[target.scenario], block):
            raise InputError(f"{target.key} cannot move: {target.scenario} switches "
                             f"the {block} block off")
    paths = [p.path for p in spec.parameters]
    lower, upper = zip(*[(p.lower, p.upper) for p in spec.parameters])
    x0 = _clip([float(get_value(params, path)) for path in paths], lower, upper)
    # relative coordinates: unit step = the starting magnitude (or 1 if zero)
    scale = [abs(v) if abs(v) > 0.0 else 1.0 for v in x0]
    failure = [math.sqrt(_FAILURE_LOSS / len(spec.targets))] * len(spec.targets)

    needed = sorted({t.scenario for t in spec.targets})
    # when the model first reads each free value in each scenario
    applied = {name: scenarios[name].apply(params) for name in needed}
    reads = {name: [scenarios[name].reads_from(applied[name], path) for path in paths]
             for name in needed}
    # the free values each scenario can see: the model never reads one in a
    # policy block the scenario switches off, and the scenario's override
    # puts back one it overrides
    seen = {name: [i for i, t in enumerate(r) if t < math.inf] for name, r in reads.items()}
    for i, path in enumerate(paths):
        if not any(i in s for s in seen.values()):
            raise InputError(f"{path} cannot be fitted: no target's scenario "
                             f"({', '.join(needed)}) reads it")
    # each scenario whose runs restart does so from its prefix: the start's
    # run up to the first sample k at or after the earliest time it reads a
    # free value (the last sample for an onset past the horizon)
    prefixes = {}
    for name, r in reads.items():
        if 0.0 < min(r) < math.inf:
            k = clock.sample_at_or_after(min(r))
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
                                             restart=prefixes.get(name)))
        # ValueError: the values break an invariant, such as a curve's
        except (ValueError, SimulationError, FloatingPointError, OverflowError,
                ZeroDivisionError) as error:
            return error.with_traceback(None)

    # the outcome of every scenario run made, keyed by the scenario and the
    # bytes of the free values it sees, which tell -0.0 from 0.0
    runs: dict[tuple[str, bytes], MetricSet | Exception] = {}

    def values_at(z: list[float]) -> list[float]:
        return _clip([v * s for v, s in zip(z, scale)], lower, upper)

    def tasks(z: list[float]) -> list[tuple[tuple[str, bytes], tuple[str, tuple[float, ...]]]]:
        """Each scenario's run at ``z``: its key, and ``run``'s arguments."""
        values = values_at(z)
        picked = {name: tuple(values[i] for i in free) for name, free in seen.items()}
        return [((name, struct.pack(f"{len(v)}d", *v)), (name, v)) for name, v in picked.items()]

    def achieved_at(z: list[float]) -> dict[str, float] | None:
        outcomes = {key[0]: runs[key] for key, _ in tasks(z)}
        if any(isinstance(o, Exception) for o in outcomes.values()):
            return None
        return _achieved(outcomes, spec)

    def score(z: list[float]) -> list[float]:
        achieved = achieved_at(z)
        return failure if achieved is None else _residuals(achieved, spec, clock)

    def evaluate(points: list[list[float]]) -> list[list[float]]:
        """One round of the solver: make the runs its points need, in order, then score them."""
        for key, args in (task for z in points for task in tasks(z)):
            if key not in runs:
                runs[key] = run(*args)
        return [score(z) for z in points]

    z0, lower_z, upper_z = ([v / s for v, s in zip(b, scale)] for b in (x0, lower, upper))
    result = least_squares(evaluate, z0, bounds=(lower_z, upper_z), max_nfev=spec.max_iterations)
    # the solver scored the start, the fit and the Jacobian points there
    x = result.x
    achieved = achieved_at(x)
    # the fit ends at a wall of failed runs when a run failed at a Jacobian
    # point there or at the last trial point the search refused: the step
    # test may stop the search before a forward difference reaches the wall
    near = [*_difference_points(x, upper_z), *result.refused]
    wall = any(achieved_at(z) is None for z in near)
    loss = _dot(result.fun, result.fun)
    try:
        fitted_params = with_values(params, dict(zip(paths, values_at(x))))
        if achieved is None:
            # the fit ends on a failed run: raise the error the first one kept
            raise next(runs[key] for key, _ in tasks(x) if isinstance(runs[key], Exception))
    except ValueError as error:
        raise InputError(f"the fit ends on parameters that cannot be built: "
                         f"{error}") from error
    singular_values = () if wall else tuple(_singular_values(result.jac))
    # a forward difference of step _DIFF_STEP resolves no singular value below
    # _DIFF_STEP times the largest: the targets leave that direction free
    identified = not singular_values or singular_values[-1] > _DIFF_STEP * singular_values[0]
    start = score(z0)
    return CalibrationResult(
        params=fitted_params,
        loss=loss,
        initial_loss=_dot(start, start),
        evaluations=result.nfev + len(paths) * result.njev,
        scenario_runs=len(runs),
        converged=bool(result.status > 0) and loss < _FAILURE_LOSS and identified,
        fitted={path: float(get_value(fitted_params, path)) for path in paths},
        achieved=achieved,
        singular_values=singular_values,
    )
