"""Fixed-step system-dynamics engine.

Building blocks for stock-and-flow simulation: a simulation clock with a
calendar anchor, saturating effect curves (logistic and Gompertz), and
forward-Euler integration with non-negativity clamping on declared stocks.
A first-order smooth is integrated as one more stock of the model.

The integrator is deliberately fixed-step (no adaptive error control): model
results must be reproducible bit-for-bit for a given grid, and time-step
sensitivity is probed explicitly by halving ``dt`` rather than hidden inside
a solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

EPS = 1e-9

__all__ = [
    "EPS",
    "SimClock",
    "LogisticCurve",
    "GompertzCurve",
    "ClampEvent",
    "euler_step",
    "Trajectory",
    "simulate",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised when integration produces a non-finite value."""


@dataclass(frozen=True)
class SimClock:
    """Simulation grid in months with a calendar anchor.

    ``t`` counts months since the anchor (default January 2018, so ``t=24``
    opens January 2020). ``horizon`` and ``burn_in`` lie on the grid; samples
    with ``t >= burn_in`` are the reporting (analysis) window.
    """

    dt: float = 0.25
    horizon: float = 50.0
    burn_in: float = 24.0
    start_year: int = 2018
    start_month: int = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.dt < math.inf):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (self.horizon > 0.0):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not (0.0 <= self.burn_in < self.horizon):
            raise ValueError(
                f"burn_in must lie in [0, horizon), got {self.burn_in}"
            )
        for name, value in (("horizon", self.horizon), ("burn_in", self.burn_in)):
            steps = value / self.dt
            if abs(steps - round(steps)) > 1e-9:
                raise ValueError(f"{name} {value} is not a whole number of steps of dt {self.dt}")
        if not (1 <= self.start_month <= 12):
            raise ValueError(f"start_month must be 1..12, got {self.start_month}")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    def times(self) -> np.ndarray:
        """Sample times 0, dt, 2*dt, ..., horizon (n_steps + 1 values)."""
        return np.arange(self.n_steps + 1) * self.dt

    def window(self) -> tuple[float, float]:
        """(start, end) of the analysis window in months."""
        return (self.burn_in, self.horizon)

    def window_mask(self) -> np.ndarray:
        """Boolean mask selecting samples inside the analysis window."""
        return self.times() >= self.burn_in - 1e-9

    def calendar_label(self, t: float) -> str:
        """Calendar month containing time ``t``, as ``YYYY-MM``."""
        months = int(math.floor(t + 1e-9))
        total = (self.start_month - 1) + months
        year = self.start_year + total // 12
        month = total % 12 + 1
        return f"{year:04d}-{month:02d}"


@dataclass(frozen=True)
class LogisticCurve:
    """Saturating multiplier ``y_max + (y_min - y_max) / (1 + (ratio/inflection)^slope)``.

    Evaluates to ``y_min`` at ratio 0, the midpoint of the range at
    ``ratio == inflection``, and approaches ``y_max`` for large ratios.
    Computed in log space so extreme ratios saturate instead of overflowing.
    """

    y_max: float
    y_min: float
    inflection: float
    slope: float

    def __post_init__(self) -> None:
        if self.y_max < self.y_min:
            raise ValueError(f"y_max {self.y_max} below y_min {self.y_min}")
        if not (self.inflection > 0.0):
            raise ValueError(f"inflection must be positive, got {self.inflection}")
        if not (self.slope > 0.0):
            raise ValueError(f"slope must be positive, got {self.slope}")

    def __call__(self, ratio: float) -> float:
        if ratio <= 0.0:
            return self.y_min
        if math.isinf(ratio):
            return self.y_max
        z = self.slope * (math.log(ratio) - math.log(self.inflection))
        if z >= 700.0:
            return self.y_max
        if z <= -700.0:
            return self.y_min
        return self.y_max + (self.y_min - self.y_max) / (1.0 + math.exp(z))


@dataclass(frozen=True)
class GompertzCurve:
    """Floored Gompertz multiplier ``max(floor, y_final + (y_initial - y_final) * exp(-exp(steepness) * x))``.

    With a strongly negative ``y_initial`` the raw curve sits far below the
    floor for small ``x`` and emerges steeply once ``x`` passes a threshold;
    the floor keeps the multiplier neutral (1) until then.
    """

    y_final: float
    y_initial: float
    steepness: float
    floor: float = 1.0

    def __post_init__(self) -> None:
        if self.y_final < self.floor:
            raise ValueError(
                f"y_final {self.y_final} below floor {self.floor}: curve could not saturate"
            )

    def __call__(self, x: float) -> float:
        arg = math.exp(min(self.steepness, 700.0)) * x
        if arg >= 745.0 or math.isinf(arg):
            decay = 0.0
        else:
            decay = math.exp(-arg)
        return max(self.floor, self.y_final + (self.y_initial - self.y_final) * decay)


@dataclass(frozen=True)
class ClampEvent:
    """Record of a stock clamped at zero: the flow limiter should have prevented it."""

    time: float
    name: str
    value: float


def euler_step(
    state: Mapping[str, float],
    rates: Mapping[str, float],
    dt: float,
    nonneg: frozenset[str] = frozenset(),
    time: float = 0.0,
    events: list[ClampEvent] | None = None,
) -> dict[str, float]:
    """Advance every state entry by ``dt * rate``.

    Entries named in ``nonneg`` are clamped at zero. A clamp deeper than
    rounding dust (relative 1e-9) is recorded in ``events``; well-formed
    models limit their outflows so this never fires.
    """
    out = {}
    for name, value in state.items():
        new = value + dt * rates.get(name, 0.0)
        if name in nonneg and new < 0.0:
            if events is not None and new < -EPS * max(1.0, abs(value)):
                events.append(ClampEvent(time=time, name=name, value=new))
            new = 0.0
        out[name] = new
    return out


DerivFn = Callable[[Mapping[str, float], float], "tuple[dict[str, float], dict[str, float]]"]


@dataclass
class Trajectory:
    """Simulation output: sample times plus one array per stock/auxiliary."""

    clock: SimClock
    times: np.ndarray
    series: dict[str, np.ndarray]
    clamp_events: list[ClampEvent]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.series[name]

    def __contains__(self, name: str) -> bool:
        return name in self.series

    def at(self, name: str, t: float) -> float:
        """Value of a series at time ``t`` (linear interpolation between samples)."""
        if name not in self.series:
            raise KeyError(name)
        return float(np.interp(t, self.times, self.series[name]))

    def window_mean(self, name: str) -> float:
        """Mean of a series over the analysis window."""
        mask = self.clock.window_mask()
        return float(np.mean(self.series[name][mask]))

    def window_integral(self, name: str) -> float:
        """Left-Riemann integral of a rate over the analysis window.

        Each sample's rate applies over the step it opens, so the sample at
        the horizon itself carries no weight.
        """
        mask = self.clock.window_mask()
        values = self.series[name][mask]
        return float(np.sum(values[:-1]) * self.clock.dt)


def simulate(
    deriv: DerivFn,
    clock: SimClock,
    initial: Mapping[str, float],
    nonneg: frozenset[str] = frozenset(),
) -> Trajectory:
    """Integrate ``deriv`` over the clock grid with forward Euler.

    Parameters
    ----------
    deriv : callable
        ``deriv(state, t) -> (rates, aux)``. ``rates`` maps stock names to
        time derivatives; ``aux`` maps auxiliary names (flows, effects) to
        their instantaneous values, recorded alongside the stocks.
    clock : SimClock
        Integration grid.
    initial : mapping
        Initial stock levels; its keys define the state vector.
    nonneg : frozenset
        Stock names clamped at zero after each step.

    Returns
    -------
    Trajectory
        Stocks and auxiliaries sampled at every grid point, including both
        endpoints. Raises :class:`SimulationError` on non-finite values.
    """
    times = clock.times()
    n = len(times)
    state = dict(initial)
    events: list[ClampEvent] = []
    rows: list[list[float]] = []

    for k, t in enumerate(times):
        rates, aux = deriv(state, float(t))
        rows.append([*state.values(), *aux.values()])
        if k < n - 1:
            state = euler_step(state, rates, clock.dt, nonneg, time=float(t), events=events)

    names = [*state, *aux]
    data = np.array(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        k, j = bad[0]  # row-major: earliest time first, then series order
        raise SimulationError(
            f"non-finite value for '{names[j]}' at t={times[k]:.4g}: {data[k, j]}"
        )
    series = dict(zip(names, data.T.copy()))
    return Trajectory(clock=clock, times=times, series=series, clamp_events=events)
