"""Fixed-step system-dynamics engine.

Building blocks for stock-and-flow simulation: a simulation clock with a
calendar anchor, saturating effect curves (logistic and Gompertz), and
forward-Euler integration with non-negativity clamping on declared stocks.
A first-order smooth is integrated as one more stock of the model.

The state is a sequence of stock levels in a fixed order: floats for one
run (:func:`simulate`), or one ``(stocks, B)`` array for a batch of B runs
stepped together (:func:`simulate_batch`). One run's loop is either the
reference, one derivative call and one :func:`euler_step` per sample, or a
run loop compiled from the same derivative that gives the same bits
(:func:`rentdyn.model.scalar_kernel` writes one); ``simulate`` keeps the
bookkeeping around either: restarts, clamp events, the finite scan and the
kept series. Each effect curve is one ``value`` over an ops namespace, on
floats, on ``(B,)`` arrays or on a kernel's trace. numpy is imported by the
first batch: one run never imports it, keeps every sample as a Python
float, and makes numpy arrays only when a caller asks its trajectory for them.

The integrator is deliberately fixed-step (no adaptive error control): model
results must be reproducible bit-for-bit for a given grid, and time-step
sensitivity is probed explicitly by halving ``dt`` rather than hidden inside
a solver.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from operator import add
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

EPS = 1e-9
# calendar month of t=0; the policy onsets (26.75: late March 2020) count from it
START_YEAR, START_MONTH = 2018, 1
# a scalar run keeps each sample's 48 stocks and auxiliaries as Python floats
# in one list, about 32 bytes apiece: 10**5 steps hold some 150 MB, and 10**6
# would hold 1.5 GB
MAX_STEPS = 100_000

__all__ = [
    "EPS",
    "START_YEAR",
    "START_MONTH",
    "MAX_STEPS",
    "SimClock",
    "LogisticCurve",
    "GompertzCurve",
    "ClampEvent",
    "euler_step",
    "Trajectory",
    "pairwise_sum",
    "simulate",
    "simulate_batch",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised when integration produces a non-finite value."""


@dataclass(frozen=True)
class SimClock:
    """Simulation grid in months.

    ``t`` counts months since January 2018 (``START_YEAR``/``START_MONTH``,
    so ``t=24`` opens January 2020). ``horizon`` and ``burn_in`` lie on the
    grid, and the horizon is 1 to :data:`MAX_STEPS` steps; samples with
    ``t >= burn_in`` are the reporting (analysis) window.
    """

    dt: float = 0.25
    horizon: float = 50.0
    burn_in: float = 24.0

    def __post_init__(self) -> None:
        if not (0.0 < self.dt < math.inf):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (self.horizon > 0.0):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        steps = self.horizon / self.dt
        if not (1.0 - 1e-9 <= steps <= MAX_STEPS):
            raise ValueError(f"horizon {self.horizon} must be 1 to {MAX_STEPS} steps of dt "
                             f"{self.dt}, not {steps:g}")
        if not (0.0 <= self.burn_in < self.horizon):
            raise ValueError(
                f"burn_in must lie in [0, horizon), got {self.burn_in}"
            )
        for name, value in (("horizon", self.horizon), ("burn_in", self.burn_in)):
            steps = value / self.dt
            if abs(steps - round(steps)) > 1e-9:
                raise ValueError(f"{name} {value} is not a whole number of steps of dt {self.dt}")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    @cached_property
    def grid(self) -> tuple[float, ...]:
        """Sample times 0, dt, 2*dt, ..., horizon (n_steps + 1 floats): ``k * dt``,
        the bits of ``np.arange(n_steps + 1) * dt``. Made once per clock."""
        dt = self.dt
        return tuple(k * dt for k in range(self.n_steps + 1))

    def window_start(self) -> int:
        """Index of the first sample inside the analysis window (``t >= burn_in``)."""
        return bisect_left(self.grid, self.burn_in - 1e-9)

    def sample_at_or_after(self, t: float) -> int:
        """Index of the first sample at or after time ``t``, and the last
        sample for a time past the horizon: where a run restarts
        (:func:`simulate`) to integrate every sample from ``t`` on."""
        return min(bisect_left(self.grid, t), self.n_steps)

    def calendar_label(self, t: float) -> str:
        """Calendar month containing time ``t``, as ``YYYY-MM``."""
        months = int(math.floor(t + 1e-9))
        total = (START_MONTH - 1) + months
        year = START_YEAR + total // 12
        month = total % 12 + 1
        return f"{year:04d}-{month:02d}"


def _each(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """``fn`` on every entry of a 1-D array, as on a Python float: numpy's
    own ``exp``/``log`` kernels can differ from ``math``'s in the last bit."""
    import numpy as np

    return np.fromiter(map(fn, x.tolist()), float, x.size)


# the ops on floats: a curve's call, and the untraced helpers of rentdyn.model
SCALAR = SimpleNamespace(where=lambda cond, a, b: a if cond else b, exp=math.exp, log=math.log)


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
        # constants of value, computed once; not fields, so replace() renews them
        object.__setattr__(self, "_log_inflection", math.log(self.inflection))
        object.__setattr__(self, "_span", self.y_min - self.y_max)

    def __call__(self, ratio: float) -> float:
        return self.value(self, ratio, SCALAR)

    @staticmethod
    def value(c, ratio, ops):
        """The curve ``c`` at ``ratio``, on the ops ``where``, ``exp`` and
        ``log``. Each branch is a mask, and only the inputs a branch leaves
        reach ``log`` and ``exp``: 1 in place of a ratio at or below 0 or
        infinite, and 0 in place of a ``z`` past +-700."""
        where = ops.where
        low = ratio <= 0.0
        top = ratio == math.inf  # -inf is low
        z = c.slope * (ops.log(where(low | top, 1.0, ratio)) - c._log_inflection)
        high = z >= 700.0
        under = z <= -700.0
        value = c.y_max + c._span / (1.0 + ops.exp(where(high | under, 0.0, z)))
        return where(low, c.y_min, where(top | high, c.y_max, where(under, c.y_min, value)))


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
        # constants of value, computed once; not fields, so replace() renews them
        object.__setattr__(self, "_rate", math.exp(min(self.steepness, 700.0)))
        object.__setattr__(self, "_span", self.y_initial - self.y_final)

    def __call__(self, x: float) -> float:
        return self.value(self, x, SCALAR)

    @staticmethod
    def value(c, x, ops):
        """The curve ``c`` at ``x``, on ops as in :meth:`LogisticCurve.value`.
        The decay is 0 for an infinite exponent or one of 745 or more, and
        an ``exp`` that overflows (``x`` below about -709.78 / ``_rate``)
        raises :class:`OverflowError`. A NaN value gives the floor."""
        where = ops.where
        arg = c._rate * x
        gone = (arg >= 745.0) | (arg == -math.inf)
        decay = where(gone, 0.0, ops.exp(where(gone, 0.0, -arg)))
        value = c.y_final + c._span * decay
        return where(value > c.floor, value, c.floor)


@dataclass(frozen=True)
class ClampEvent:
    """Record of a stock clamped at zero: the flow limiter should have prevented it."""

    time: float
    name: str
    value: float


def euler_step(
    state: Sequence[float],
    rates: Sequence[float],
    dt: float,
    nonneg: Mapping[int, str],
    time: float,
    events: list[ClampEvent],
) -> list[float]:
    """Advance every state entry by ``dt * rate``.

    ``nonneg`` maps the index of each entry clamped at zero to the name its
    clamp events carry. A clamp deeper than rounding dust (relative 1e-9) is
    recorded in ``events``; well-formed models limit their outflows so this
    never fires.
    """
    out = [value + dt * rate for value, rate in zip(state, rates)]
    # one scan skips the clamp when nothing is negative; min() of a list
    # that starts with a NaN is NaN, and that fails the test too
    return out if min(out) >= 0.0 else _clamp(state, out, time, nonneg, events)


def _clamp(state: Sequence[float], out: list[float], time: float, nonneg: Mapping[int, str],
           events: list[ClampEvent]) -> list[float]:
    """The clamp of :func:`euler_step`: ``out``, stepped from ``state``,
    with each entry of ``nonneg`` below zero set to zero."""
    for i in nonneg:
        new = out[i]
        if new < 0.0:
            if new < -EPS * max(1.0, abs(state[i])):
                events.append(ClampEvent(time=time, name=nonneg[i], value=new))
            out[i] = 0.0
    return out


def _euler_step_batch(
    state: np.ndarray,
    rates: np.ndarray,
    dt: float,
    nonneg: Mapping[int, str],
    time: float,
    events: list[list[ClampEvent]],
) -> np.ndarray:
    """:func:`euler_step` on a ``(stocks, B)`` array, with one event list per column."""
    import numpy as np

    out = state + dt * rates
    if (out[list(nonneg)] < 0.0).any():
        for i, name in nonneg.items():
            new = out[i]
            negative = new < 0.0
            if negative.any():
                deep = new < -EPS * np.maximum(1.0, np.abs(state[i]))
                for b in np.flatnonzero(deep):
                    events[b].append(ClampEvent(time=time, name=name, value=float(new[b])))
                new[negative] = 0.0
    return out


# deriv(state, t) -> (rates, aux): simulate takes the auxiliaries as a
# sequence, in the order of its ``auxiliaries``; simulate_batch as a mapping
DerivFn = Callable[[Sequence, float], "tuple[Sequence, Sequence]"]
BatchDerivFn = Callable[[Sequence, float], "tuple[Sequence, Mapping]"]
# run(state, grid, first, last, clamp) -> samples: see simulate
RunFn = Callable[[list, Sequence, int, int, Callable], list]


class Trajectory:
    """Simulation output: the kept series of one run, sampled on its clock's grid.

    ``data`` maps each kept series to its samples as the run holds them: a
    list of Python floats for one run, a numpy array (a view into the
    batch's block) for a column of a batch. ``times`` is the grid as a
    numpy array, made on first access, and ``traj[name]`` is one series as
    a numpy array, made on each access.
    ``restart`` is ``(k, earlier)`` for a run that took its rows before
    sample ``k`` from the trajectory ``earlier`` and integrated the rest,
    and None for a full run.
    """

    def __init__(self, clock: SimClock, data: dict[str, list[float] | np.ndarray],
                 clamp_events: list[ClampEvent],
                 restart: tuple[int, Trajectory] | None = None) -> None:
        self.clock = clock
        self.data = data
        self.clamp_events = clamp_events
        self.restart = restart

    @cached_property
    def times(self) -> np.ndarray:
        import numpy as np

        return np.array(self.clock.grid)

    def __getitem__(self, name: str) -> np.ndarray:
        import numpy as np

        return np.asarray(self.data[name], dtype=float)

    def at(self, name: str, t: float) -> float:
        """Value of a series at time ``t``, as ``np.interp`` gives it: linear
        interpolation between samples, held flat past either end."""
        if math.isnan(t):
            return t
        grid = self.clock.grid
        values = self.data[name]
        j = bisect_right(grid, t) - 1  # grid[j] <= t < grid[j + 1]
        if j < 0:
            return float(values[0])
        if j == len(grid) - 1 or grid[j] == t:
            return float(values[j])
        slope = (values[j + 1] - values[j]) / (grid[j + 1] - grid[j])
        return float(slope * (t - grid[j]) + values[j])


def pairwise_sum(values: Sequence[float]) -> float:
    """The sum of a list of floats with the bits ``np.sum`` gives it.

    Added left to right, the floats round differently than in numpy's
    pairwise summation, and the metrics summed from one run's lists would
    move in their last bits from those summed by numpy. numpy adds a run of
    8 to 128 values into 8 interleaved accumulators, adds those in pairs and
    then the tail past the last multiple of 8, adds a shorter run in order,
    and splits a longer one at half its length, rounded down to a multiple
    of 8. Its reduction starts from 0.0, so a sum of -0.0s is +0.0.
    """
    return 0.0 + _pairwise(values, 0, len(values))


def _pairwise(values: Sequence[float], lo: int, n: int) -> float:
    if n < 8:
        return reduce(add, values[lo:lo + n], 0.0)
    if n <= 128:
        m = n - n % 8
        r = [reduce(add, values[lo + j + 8:lo + m:8], values[lo + j]) for j in range(8)]
        return reduce(add, values[lo + m:lo + n],
                      ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))
    half = n // 2 - n // 2 % 8
    return _pairwise(values, lo, half) + _pairwise(values, lo + half, n - half)


def _nonfinite(name: str, t: float, value) -> str:
    return f"non-finite value for '{name}' at t={t:.4g}: {value}"


def simulate(
    deriv: DerivFn,
    clock: SimClock,
    initial: Mapping[str, float],
    nonneg: frozenset[str] = frozenset(),
    record: Sequence[str] | None = None,
    restart: tuple[int, Trajectory] | None = None,
    *,
    auxiliaries: Sequence[str],
    run: RunFn | None = None,
) -> Trajectory:
    """Integrate one run of ``deriv`` over the clock grid with forward Euler.

    Parameters
    ----------
    deriv : callable
        ``deriv(state, t) -> (rates, aux)``. ``state`` and ``rates`` are
        sequences in the order of ``initial``; ``aux`` is a sequence of the
        auxiliaries' instantaneous values (flows, effects) in the order of
        ``auxiliaries``, recorded alongside the stocks.
    clock : SimClock
        Integration grid.
    initial : mapping
        Initial stock levels, as floats; its keys name the state entries, in
        order.
    nonneg : frozenset
        Stock names clamped at zero after each step.
    record : sequence of str, optional
        The series to keep (default: every stock and auxiliary).
    restart : (k, earlier), optional
        Start the loop at sample ``k``: the rows before ``k``, the stock
        levels at ``k`` and the clamp events of the steps before ``k`` are
        taken from ``earlier``, one run's trajectory with every series. Only
        the kept series' rows are copied from it, so a restart with a short
        ``record`` copies little. The result is the full run's, bit for bit,
        in every kept series, when ``earlier`` is a run from the same
        initial levels of a derivative that agrees with ``deriv`` at every
        sample before ``k``. A non-finite value at or after ``k`` is
        reported as the full run reports it. The trajectory keeps
        ``restart`` as :attr:`Trajectory.restart` when ``k > 0``.
    auxiliaries : sequence of str
        The names of the auxiliaries, one for each value of ``aux``; any
        other count raises ``ValueError``.
    run : callable, optional
        A run loop compiled from ``deriv`` on the clock's step, in place of
        the reference loop (one ``deriv`` call and one :func:`euler_step`
        per sample), whose samples and clamp events it gives bit for bit.
        ``run(state, grid, first, last, clamp)`` steps from the levels
        ``state`` at sample ``first`` and returns the rows of samples
        ``first`` through ``last`` in one list, calling ``clamp(state, new,
        t) -> new`` (:func:`euler_step`'s clamp) after a step that took a
        stock of ``nonneg`` below zero. :func:`rentdyn.model.scalar_kernel`
        writes one.

    Returns
    -------
    Trajectory
        The kept series sampled at every grid point, including both
        endpoints. Every stock and auxiliary is checked at every sample,
        kept or not, and a non-finite value raises :class:`SimulationError`
        naming the first bad series at the earliest bad time.
    """
    names = list(initial)
    clamped = {i: name for i, name in enumerate(names) if name in nonneg}
    grid = clock.grid
    n = len(grid)
    first, earlier = (0, None) if restart is None else restart
    if not 0 <= first < n:
        raise ValueError(f"restart sample {first} is not on the grid of {n} samples")
    state = list(initial.values())
    events: list[ClampEvent] = []
    if first:
        state = [earlier.data[name][first] for name in names]
        events = [e for e in earlier.clamp_events if e.time < grid[first]]
    state = [float(v) for v in state]  # an integer level is recorded as a float
    if run is not None:
        samples = run(state, grid, first, n - 1, partial(_clamp, nonneg=clamped, events=events))
    else:
        samples = []  # row-major: every stock, then every auxiliary, per time
        for k, t in enumerate(grid[first:], first):
            rates, aux = deriv(state, t)
            samples += state
            samples += aux
            if k < n - 1:
                state = euler_step(state, rates, clock.dt, clamped, time=t, events=events)

    width = len(names) + len(auxiliaries)
    if len(samples) != (n - first) * width:  # or every row would be cut at the wrong width
        raise ValueError(f"deriv returned {len(samples) // (n - first) - len(names)} "
                         f"auxiliaries for {len(auxiliaries)} names")
    names += auxiliaries
    # one pass in C: the sum is finite when every sample is (a sum of finite
    # samples that overflows is scanned, and passes). The rows taken from
    # ``earlier`` passed this check when it was made.
    if not math.isfinite(sum(samples)):
        for i, value in enumerate(samples):  # earliest time first, then series order
            if not math.isfinite(value):
                k, j = divmod(i, width)
                raise SimulationError(_nonfinite(names[j], grid[first + k], value))
    column = {name: j for j, name in enumerate(names)}
    data = {name: samples[column[name]::width] for name in (names if record is None else record)}
    if first:
        data = {name: [*earlier.data[name][:first], *values] for name, values in data.items()}
    return Trajectory(clock, data, events, restart if first else None)


def simulate_batch(
    deriv: BatchDerivFn,
    clock: SimClock,
    initial: Mapping[str, float | np.ndarray],
    nonneg: frozenset[str] = frozenset(),
    record: Sequence[str] | None = None,
) -> list[Trajectory]:
    """:func:`simulate` for B runs stepped together from the first sample,
    one derivative call and one Euler step per grid point for all of them:
    the state is one ``(stocks, B)`` array, and ``initial`` maps each stock
    to a ``(B,)`` array or a float broadcast across the batch.

    Returns one trajectory per column, each with its own clamp events and
    views into one shared block. A batch raises :class:`SimulationError` at
    its first non-finite sample, naming the lowest bad column there; which
    parameter set's error a caller reports is the caller's to decide
    (:func:`rentdyn.model.run_model` reruns the sets alone).
    """
    import numpy as np

    names = list(initial)
    clamped = {i: name for i, name in enumerate(names) if name in nonneg}
    grid = clock.grid
    n = len(grid)
    size = max(np.size(v) for v in initial.values())
    state = np.array([np.broadcast_to(np.asarray(v, dtype=float), (size,))
                      for v in initial.values()])
    events: list[list[ClampEvent]] = [[] for _ in range(size)]
    block = keep = None  # block is time-major: (samples, kept series, B)

    for k, t in enumerate(grid):
        rates, aux = deriv(state, t)
        sample = np.array([*state, *aux.values()])
        if block is None:
            names += aux
            keep = [names.index(name) for name in (names if record is None else record)]
            block = np.empty((n, len(keep), size))
        block[k] = sample[keep]
        bad = ~np.isfinite(sample)
        if bad.any():
            b, j = np.argwhere(bad.T)[0]  # the lowest bad column, its first series
            raise SimulationError(_nonfinite(names[j], t, sample[j, b]))
        if k < n - 1:
            state = _euler_step_batch(state, np.array(rates), clock.dt, clamped, t, events)

    kept = [names[j] for j in keep]
    return [Trajectory(clock, {name: block[:, i, b] for i, name in enumerate(kept)}, events[b])
            for b in range(size)]
