"""Least-squares calibration of model constants against scenario metrics.

A calibration spec names a handful of free parameters (with bounds) and a
set of weighted targets, each target being one metric of one scenario. Each
target contributes one weighted relative residual; the loss is their sum of
squares, and the search is bounded trust-region reflective least squares
(Branch, Coleman & Li, SIAM J. Sci. Comput. 21(1), 1999) with a
finite-difference Jacobian. A spec may free no more parameters than it has
targets: with more, the exact fits form a ridge and the answer would depend
on the start.

The search is fully deterministic: same spec, same starting parameters,
same result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

from rentdyn.engine import SimClock, SimulationError
from rentdyn.params import FIELDS, ModelParams, bounds_for, get_value, load_yaml, \
    with_value
from rentdyn.scenarios import BUILTIN_SCENARIOS, MetricSet, Scenario, run_scenario

__all__ = [
    "CalibrationError",
    "CalibrationTarget",
    "CalibrationParameter",
    "CalibrationSpec",
    "CalibrationResult",
    "load_calibration_spec",
    "calibration_loss",
    "calibrate",
]

_METRIC_NAMES = tuple(f.name for f in fields(MetricSet))
_PARAM_PATHS = tuple(f.path for f in FIELDS)
_FAILURE_LOSS = 1e12


class CalibrationError(ValueError):
    """A calibration spec is invalid or the search cannot be set up."""


@dataclass(frozen=True)
class CalibrationTarget:
    """One fitted quantity: a metric of a named scenario and its target."""

    scenario: str
    metric: str
    value: float
    weight: float = 1.0

    @property
    def key(self) -> str:
        return f"{self.scenario}.{self.metric}"


@dataclass(frozen=True)
class CalibrationParameter:
    """One free parameter; bounds default to the registry's documented ones."""

    path: str
    lower: float
    upper: float


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
        if len(self.parameters) > len(self.targets):
            raise CalibrationError(
                f"{len(self.parameters)} free parameters but only "
                f"{len(self.targets)} targets: the fit would not be unique")


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of one calibration run."""

    params: ModelParams
    loss: float
    initial_loss: float
    evaluations: int
    iterations: int
    converged: bool
    fitted: dict[str, float]
    achieved: dict[str, float]
    # of the relative-coordinate Jacobian at the fit; a value near zero
    # marks a direction the targets barely constrain
    singular_values: tuple[float, ...]


def _check_target(entry: dict, scenarios: dict[str, Scenario]) -> CalibrationTarget:
    unknown = set(entry) - {"scenario", "metric", "value", "weight"}
    if unknown:
        raise CalibrationError(f"unknown target keys {sorted(unknown)}")
    for key in ("scenario", "metric", "value"):
        if key not in entry:
            raise CalibrationError(f"target is missing {key!r}: {entry}")
    if entry["scenario"] not in scenarios:
        raise CalibrationError(f"target names unknown scenario {entry['scenario']!r}")
    if entry["metric"] not in _METRIC_NAMES:
        raise CalibrationError(f"target names unknown metric {entry['metric']!r}")
    weight = float(entry.get("weight", 1.0))
    if weight <= 0.0:
        raise CalibrationError(f"target weight must be positive: {entry}")
    return CalibrationTarget(
        scenario=str(entry["scenario"]),
        metric=str(entry["metric"]),
        value=float(entry["value"]),
        weight=weight,
    )


def _check_parameter(entry: dict) -> CalibrationParameter:
    unknown = set(entry) - {"path", "lower", "upper"}
    if unknown:
        raise CalibrationError(f"unknown parameter keys {sorted(unknown)}")
    if "path" not in entry:
        raise CalibrationError(f"parameter is missing 'path': {entry}")
    path = str(entry["path"])
    if path not in _PARAM_PATHS:
        raise CalibrationError(f"unknown parameter path {path!r}")
    reg_lo, reg_hi = bounds_for(path)
    lower = float(entry.get("lower", reg_lo))
    upper = float(entry["upper"]) if "upper" in entry else \
        (reg_hi if reg_hi is not None else math.inf)
    if lower < reg_lo or (reg_hi is not None and upper > reg_hi):
        raise CalibrationError(
            f"{path}: requested bounds [{lower}, {upper}] exceed the documented "
            f"bounds [{reg_lo}, {reg_hi}]")
    if not lower < upper:
        raise CalibrationError(f"{path}: lower bound must be below upper bound")
    return CalibrationParameter(path=path, lower=lower, upper=upper)


def load_calibration_spec(
    path: str | Path,
    scenarios: dict[str, Scenario] | None = None,
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
    """
    scenarios = scenarios if scenarios is not None else dict(BUILTIN_SCENARIOS)
    raw = load_yaml(path, CalibrationError)
    if not isinstance(raw, dict):
        raise CalibrationError("calibration spec must be a mapping")
    unknown = set(raw) - {"parameters", "targets", "options"}
    if unknown:
        raise CalibrationError(f"unknown top-level keys {sorted(unknown)}")
    for key in ("parameters", "targets"):
        if not raw.get(key):
            raise CalibrationError(f"calibration spec lists no {key}")
        if not isinstance(raw[key], list) or not all(isinstance(e, dict) for e in raw[key]):
            raise CalibrationError(f"calibration spec {key!r} must be a list of mappings")
    parameters = tuple(_check_parameter(e) for e in raw["parameters"])
    seen = set()
    for p in parameters:
        if p.path in seen:
            raise CalibrationError(f"duplicate parameter {p.path!r}")
        seen.add(p.path)
    targets = tuple(_check_target(e, scenarios) for e in raw["targets"])
    options = raw.get("options") or {}
    if not isinstance(options, dict):
        raise CalibrationError("calibration spec 'options' must be a mapping")
    unknown = set(options) - {"max_iterations"}
    if unknown:
        raise CalibrationError(f"unknown option keys {sorted(unknown)}")
    max_iterations = int(options.get("max_iterations", CalibrationSpec.max_iterations))
    if max_iterations < 1:
        raise CalibrationError("max_iterations must be at least 1")
    return CalibrationSpec(parameters=parameters, targets=targets,
                           max_iterations=max_iterations)


def _achieved_metrics(
    params: ModelParams,
    spec: CalibrationSpec,
    clock: SimClock,
    scenarios: dict[str, Scenario],
) -> dict[str, float]:
    """Metric values for every target, running each scenario once."""
    needed = sorted({t.scenario for t in spec.targets})
    metric_sets = {
        name: run_scenario(params, scenarios[name], clock=clock).metrics
        for name in needed
    }
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
    clock: SimClock | None = None,
    scenarios: dict[str, Scenario] | None = None,
) -> float:
    """Weighted sum of squared relative target misses (lower is better)."""
    clock = clock if clock is not None else SimClock()
    scenarios = scenarios if scenarios is not None else dict(BUILTIN_SCENARIOS)
    achieved = _achieved_metrics(params, spec, clock, scenarios)
    return float(np.sum(_residuals(achieved, spec) ** 2))


def calibrate(
    params: ModelParams,
    spec: CalibrationSpec,
    clock: SimClock | None = None,
    scenarios: dict[str, Scenario] | None = None,
) -> CalibrationResult:
    """Fit the spec'd parameters by bounded trust-region least squares.

    Starts from ``params`` (clipping each free value into its bounds), works
    in relative coordinates so differently-scaled parameters condition the
    finite-difference Jacobian equally, and treats any simulation blow-up as
    a residual vector of effectively infinite loss so the trust region
    shrinks away from pathological corners.
    """
    clock = clock if clock is not None else SimClock()
    scenarios = scenarios if scenarios is not None else dict(BUILTIN_SCENARIOS)

    paths = [p.path for p in spec.parameters]
    x0 = np.array([float(get_value(params, path)) for path in paths])
    lower = np.array([p.lower for p in spec.parameters])
    upper = np.array([p.upper for p in spec.parameters])
    x0 = np.clip(x0, lower, upper)
    # relative coordinates: unit step = the starting magnitude (or 1 if zero)
    scale = np.where(np.abs(x0) > 0.0, np.abs(x0), 1.0)
    failure = np.full(len(spec.targets), math.sqrt(_FAILURE_LOSS / len(spec.targets)))

    evaluations = 0
    # (residuals, achieved metrics or None on failure) of every point scored:
    # least_squares opens at the start that initial_loss has just scored (an
    # interior start reaches it unmoved), and its answer is a point it scored
    # before the last Jacobian
    scored: dict[bytes, tuple[np.ndarray, dict[str, float] | None]] = {}

    def apply(z: np.ndarray) -> ModelParams:
        candidate = params
        for path, value in zip(paths, np.clip(z * scale, lower, upper)):
            candidate = with_value(candidate, path, float(value))
        return candidate

    def score(z: np.ndarray) -> tuple[np.ndarray, dict[str, float] | None]:
        key = z.tobytes()
        if key not in scored:
            try:
                achieved = _achieved_metrics(apply(z), spec, clock, scenarios)
                scored[key] = (_residuals(achieved, spec), achieved)
            except (SimulationError, FloatingPointError, OverflowError, ZeroDivisionError):
                scored[key] = (failure, None)
        return scored[key]

    def residuals(z: np.ndarray) -> np.ndarray:
        nonlocal evaluations
        evaluations += 1
        return score(z)[0]

    initial_loss = float(np.sum(score(x0 / scale)[0] ** 2))
    result = least_squares(
        residuals,
        x0 / scale,
        method="trf",
        bounds=(lower / scale, upper / scale),
        max_nfev=spec.max_iterations,
    )
    loss = float(np.sum(result.fun ** 2))
    x = np.asarray(result.x)
    fitted_params = apply(x)
    _, achieved = scored.get(x.tobytes(), (None, None))
    if achieved is None:
        achieved = _achieved_metrics(fitted_params, spec, clock, scenarios)
    return CalibrationResult(
        params=fitted_params,
        loss=loss,
        initial_loss=initial_loss,
        evaluations=evaluations,
        iterations=int(result.nfev),
        converged=bool(result.status > 0) and loss < _FAILURE_LOSS,
        fitted={path: float(get_value(fitted_params, path)) for path in paths},
        achieved=achieved,
        singular_values=tuple(float(v) for v in
                              np.linalg.svd(result.jac, compute_uv=False)),
    )
