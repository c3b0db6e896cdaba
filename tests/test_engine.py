"""Engine-level tests: clock, effect curves, Euler integration.

Expected values are frozen literals computed independently from the closed-form
definitions (not by calling the code under test).
"""

import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from rentdyn.engine import (
    EPS,
    GompertzCurve,
    LogisticCurve,
    SimClock,
    SimulationError,
    Trajectory,
    euler_step,
    pairwise_sum,
    simulate,
    simulate_batch,
)
from rentdyn.params import bounds_for


# ---------------------------------------------------------------- clock

def test_clock_defaults_and_grid():
    clock = SimClock()
    assert clock.dt == 0.25
    assert clock.horizon == 50.0
    assert clock.burn_in == 24.0
    times = clock.grid
    assert len(times) == 201
    assert times[0] == 0.0
    assert times[-1] == 50.0
    assert np.allclose(np.diff(times), 0.25)


def test_clock_analysis_window():
    clock = SimClock()
    assert (clock.burn_in, clock.horizon) == (24.0, 50.0)
    first = clock.window_start()
    times = clock.grid
    assert times[first] == 24.0 and times[first - 1] < 24.0
    assert times[first:][-1] == 50.0


def test_clock_sample_at_or_after():
    clock = SimClock()
    at = clock.sample_at_or_after
    assert [at(t) for t in (-1.0, 0.0, 0.1, 26.25, 26.75, 26.8)] == [0, 0, 1, 105, 107, 108]
    # past the horizon: the last sample
    assert [at(t) for t in (50.0, 50.1, math.inf)] == [200] * 3


def test_clock_calendar_labels():
    clock = SimClock()
    assert clock.calendar_label(0.0) == "2018-01"
    assert clock.calendar_label(23.75) == "2019-12"
    assert clock.calendar_label(24.0) == "2020-01"
    assert clock.calendar_label(26.75) == "2020-03"
    assert clock.calendar_label(49.75) == "2022-02"


def test_clock_rejects_bad_grid():
    with pytest.raises(ValueError):
        SimClock(dt=0.0)
    with pytest.raises(ValueError):
        SimClock(dt=-0.25)
    with pytest.raises(ValueError):
        SimClock(dt=math.inf)
    with pytest.raises(ValueError):
        SimClock(dt=0.3, horizon=50.0)  # horizon not a multiple of dt
    with pytest.raises(ValueError):
        SimClock(burn_in=60.0)
    with pytest.raises(ValueError):
        SimClock(dt=2.5)  # burn_in 24 is not a whole number of steps
    for dt in (1e11, 1e300):  # 50/dt rounds to 0 steps within 1e-9
        with pytest.raises(ValueError, match="must be 1 to 100000 steps"):
            SimClock(dt=dt)
    for dt in (0.0004, 1e-300, 5e-324):  # 125000 steps, 5e301, inf
        with pytest.raises(ValueError, match="must be 1 to 100000 steps"):
            SimClock(dt=dt)


# ---------------------------------------------------------------- logistic curve

def test_logistic_midpoint_and_saturation():
    curve = LogisticCurve(y_max=3.0, y_min=1.0, inflection=1.5, slope=10.0)
    assert curve(1.5) == pytest.approx(2.0, abs=1e-12)
    assert curve(3.0) == pytest.approx(2.998048780487805, rel=1e-12)
    assert curve(0.0) == 1.0


def test_logistic_mild_slope_value():
    curve = LogisticCurve(y_max=2.0, y_min=1.0, inflection=1.5, slope=5.0)
    assert curve(1.0) == pytest.approx(1.1163636363636362, rel=1e-12)


def test_logistic_limits_and_overflow_safety():
    curve = LogisticCurve(y_max=3.0, y_min=1.0, inflection=1.5, slope=10.0)
    assert curve(1e300) == pytest.approx(3.0, abs=1e-9)
    assert curve(1e-300) == pytest.approx(1.0, abs=1e-9)
    assert math.isfinite(curve(math.inf))


def test_logistic_bounds_and_monotone_random_inputs():
    # acceptance gate: curve outputs stay inside [y_min, y_max] on 1e4 random inputs
    curve = LogisticCurve(y_max=3.0, y_min=1.0, inflection=1.5, slope=10.0)
    rng = np.random.default_rng(42)
    ratios = np.sort(10.0 ** rng.uniform(-6, 6, size=10_000))
    values = np.array([curve(r) for r in ratios])
    assert np.all(values >= 1.0 - 1e-12)
    assert np.all(values <= 3.0 + 1e-12)
    assert np.all(np.diff(values) >= -1e-12)  # nondecreasing in the ratio


def test_logistic_validates_parameters():
    with pytest.raises(ValueError):
        LogisticCurve(y_max=1.0, y_min=2.0, inflection=1.5, slope=5.0)
    with pytest.raises(ValueError):
        LogisticCurve(y_max=2.0, y_min=1.0, inflection=0.0, slope=5.0)
    with pytest.raises(ValueError):
        LogisticCurve(y_max=2.0, y_min=1.0, inflection=1.5, slope=-1.0)


# ---------------------------------------------------------------- gompertz curve

def test_gompertz_reference_points():
    curve = GompertzCurve(y_final=3.0, y_initial=-108.2, steepness=1.4)
    assert curve(1.0) == pytest.approx(1.0726800422253868, rel=1e-12)
    assert curve(2.0) == pytest.approx(2.966595663492479, rel=1e-12)


def test_gompertz_floor_region():
    curve = GompertzCurve(y_final=3.0, y_initial=-108.2, steepness=1.4)
    assert curve(0.0) == 1.0
    assert curve(0.5) == 1.0
    assert curve(0.9) == 1.0
    # the raw curve crosses the floor near x = 0.991
    assert curve(0.99) == 1.0
    assert curve(1.0) > 1.0


def test_gompertz_saturates_at_final_value():
    curve = GompertzCurve(y_final=3.0, y_initial=-108.2, steepness=1.4)
    assert curve(10.0) == pytest.approx(3.0, abs=1e-9)
    assert curve(math.inf) == 3.0


def test_gompertz_bounds_random_inputs():
    curve = GompertzCurve(y_final=3.0, y_initial=-108.2, steepness=1.4)
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.0, 50.0, size=10_000)
    values = np.array([curve(x) for x in xs])
    assert np.all(values >= 1.0)
    assert np.all(values <= 3.0 + 1e-12)


def test_gompertz_validates_parameters():
    with pytest.raises(ValueError):
        GompertzCurve(y_final=0.5, y_initial=-108.2, steepness=1.4, floor=1.0)


# ---------------------------------------------------------------- array forms

def _in_bounds(path):
    lo, hi = bounds_for(path)
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_EDGES = [0.0, -0.0, -1.0, -1e300, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300,
          math.inf, -math.inf, math.nan]


@st.composite
def _curve_and_inputs(draw):
    """A curve with fields in registry bounds, and inputs from the edges of
    every branch: the signs of zero, subnormals, 1e+-300, infinities, NaN, and
    points within a few ulps of z = +-700 (logistic) or arg = 745 (Gompertz),
    where the Gompertz exp also overflows for negative inputs."""
    if draw(st.booleans()):
        names = ("y_max", "y_min", "inflection", "slope")
        fields = {n: draw(_in_bounds(f"crowding_curve.{n}")) for n in names}
        kind = LogisticCurve
    else:
        names = ("y_final", "y_initial", "steepness", "floor")
        fields = {n: draw(_in_bounds(f"stress_curve.{n}")) for n in names}
        kind = GompertzCurve
    try:
        curve = kind(**fields)
    except ValueError:  # the curve's own invariant (y_max >= y_min, ...)
        assume(False)
    edges = []
    for edge in (700.0, -700.0) if kind is LogisticCurve else (745.0, -745.0, -709.8):
        try:
            x = (curve.inflection * math.exp(edge / curve.slope) if kind is LogisticCurve
                 else edge / curve._rate)
        except OverflowError:
            continue
        for _ in range(3):
            edges.append(x)
            x = math.nextafter(x, math.inf)
        edges.append(math.nextafter(edges[-3], -math.inf))
    near = st.sampled_from(edges) if edges else st.nothing()
    xs = draw(st.lists(st.sampled_from(_EDGES) | near | st.floats(), min_size=1, max_size=12))
    return curve, xs


def _outcome(evaluate):
    try:
        with np.errstate(all="ignore"):
            return np.asarray(evaluate(), dtype=float).tobytes()
    except Exception as error:
        return type(error)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_curve_and_inputs())
def test_array_form_is_the_scalar_curve_bit_for_bit(drawn):
    """The batch evaluates each curve through its array form, with the curve's
    fields and constants as (B,) arrays: bit for bit the scalar form on every
    entry, or the error type the scalar form raises."""
    curve, xs = drawn
    stacked = SimpleNamespace(**{k: np.full(len(xs), v) for k, v in vars(curve).items()})
    scalar = _outcome(lambda: [curve(x) for x in xs])
    assert _outcome(lambda: type(curve).array(stacked, np.array(xs))) == scalar


# ---------------------------------------------------------------- euler_step

def test_euler_step_applies_rates():
    out = euler_step([10.0, 5.0], [4.0, -4.0], dt=0.25, nonneg={0: "a", 1: "b"})
    assert out == [11.0, 4.0]


def test_euler_step_clamps_and_reports():
    events = []
    out = euler_step([1.0], [-8.0], dt=0.25, nonneg={0: "a"}, time=3.0, events=events)
    assert out == [0.0]
    assert len(events) == 1
    assert events[0].name == "a"
    assert events[0].time == 3.0


def test_euler_step_leaves_unconstrained_state_negative():
    out = euler_step([0.1], [-8.0], dt=0.25, nonneg={})
    assert out[0] == pytest.approx(-1.9)


# ---------------------------------------------------------------- simulate

def _drain_deriv(at):
    def deriv(state, t):
        rate = state[0] / at
        return [-rate], {"outflow": rate}
    return deriv


def test_simulate_exponential_drain_matches_closed_form():
    # Euler with dt=0.25, AT=2 compounds as (1 - dt/AT)^k; frozen spot checks
    clock = SimClock(dt=0.25, horizon=50.0, burn_in=24.0)
    traj = simulate(_drain_deriv(2.0), clock, {"r": 100.0}, nonneg=frozenset({"r"}))
    expected = 100.0 * (1.0 - 0.125) ** np.arange(201)
    assert np.allclose(traj["r"], expected, rtol=1e-12, atol=0.0)
    assert traj["r"][1] == pytest.approx(87.5, rel=1e-12)
    assert traj["r"][4] == pytest.approx(58.6181640625, rel=1e-12)
    assert traj["r"][8] == pytest.approx(34.360891580581665, rel=1e-12)


def test_simulate_constant_state_stays_constant():
    def deriv(state, t):
        return [0.0], {}
    clock = SimClock(dt=0.25, horizon=10.0, burn_in=0.0)
    traj = simulate(deriv, clock, {"x": 42.0})
    assert np.all(traj["x"] == 42.0)


def test_simulate_step_through_smooth_reaches_63pct_after_one_delay():
    # first-order response to a step reaches ~63% of magnitude one delay after onset
    delay, magnitude, start = 2.0, 0.35, 10.0

    def deriv(state, t):
        step = magnitude if t >= start else 0.0
        return [(step - state[0]) / delay], {}

    clock = SimClock(dt=0.25, horizon=20.0, burn_in=0.0)
    traj = simulate(deriv, clock, {"level": 0.0})
    at_one_delay = traj.at("level", start + delay)
    assert at_one_delay / magnitude == pytest.approx(0.6563910841941833, rel=1e-9)


def test_simulate_records_auxiliaries_at_every_sample():
    clock = SimClock(dt=0.25, horizon=5.0, burn_in=0.0)
    traj = simulate(_drain_deriv(2.0), clock, {"r": 100.0}, nonneg=frozenset({"r"}))
    assert "outflow" in traj.series
    assert len(traj["outflow"]) == len(traj.times)
    assert traj["outflow"][0] == pytest.approx(50.0)


def test_simulate_raises_on_nonfinite_state():
    def deriv(state, t):
        return [state[0] * state[0]], {}
    clock = SimClock(dt=0.25, horizon=50.0, burn_in=0.0)
    with pytest.raises(SimulationError, match=r"'x' at t=2\.5"):
        simulate(deriv, clock, {"x": 10.0})


def test_trajectory_interpolation_and_lookup():
    clock = SimClock(dt=0.25, horizon=10.0, burn_in=0.0)

    def deriv(state, t):
        return [4.0], {}

    traj = simulate(deriv, clock, {"x": 0.0})
    assert traj.at("x", 2.5) == pytest.approx(10.0)
    assert traj.at("x", 2.625) == pytest.approx(10.5)  # linear between samples
    with pytest.raises(KeyError):
        traj.at("nope", 1.0)


def test_simulate_is_deterministic():
    clock = SimClock(dt=0.25, horizon=30.0, burn_in=0.0)
    a = simulate(_drain_deriv(3.0), clock, {"r": 250.0}, nonneg=frozenset({"r"}))
    b = simulate(_drain_deriv(3.0), clock, {"r": 250.0}, nonneg=frozenset({"r"}))
    assert np.array_equal(a["r"], b["r"])
    assert np.array_equal(a["outflow"], b["outflow"])


# ---------------------------------------------------------------- batches

def test_batch_matches_single_runs_column_by_column():
    """Each column of a batch is its single run: series, and clamp events."""
    def deriv(state, t):
        rate = state[0] / 2.0 + 3.0
        return [-rate, rate], {"outflow": rate}

    clock = SimClock(dt=0.25, horizon=10.0, burn_in=0.0)
    levels = [100.0, 5.0, 0.5]
    batch = simulate_batch(deriv, clock, {"r": np.array(levels), "out": 0.0},
                           nonneg=frozenset({"r"}))
    assert len(batch) == len(levels)
    for level, column in zip(levels, batch):
        single = simulate(deriv, clock, {"r": level, "out": 0.0}, nonneg=frozenset({"r"}))
        assert list(column.series) == list(single.series)
        for name, series in single.series.items():
            assert np.array_equal(column[name], series), name
        assert column.clamp_events == single.clamp_events
    assert batch[2].clamp_events  # the limiter-free drain does overshoot zero


def test_simulate_records_only_the_requested_series():
    clock = SimClock(dt=0.25, horizon=5.0, burn_in=0.0)
    batch = simulate_batch(_drain_deriv(2.0), clock, {"r": np.array([100.0, 50.0])},
                           record=("outflow",))
    assert [list(t.series) for t in batch] == [["outflow"], ["outflow"]]
    assert batch[1]["outflow"][0] == 25.0
    single = simulate(_drain_deriv(2.0), clock, {"r": 50.0}, record=("outflow",))
    assert list(single.series) == ["outflow"]
    assert np.array_equal(single["outflow"], batch[1]["outflow"])


def test_batch_raises_at_its_first_non_finite_sample():
    """Column 2 blows up first in time; the batch stops there and names it.
    Which set's error a caller reports is run_model's to decide."""
    def deriv(state, t):
        return [state[0] * state[0]], {}

    clock = SimClock(dt=0.25, horizon=50.0, burn_in=0.0)
    with pytest.raises(SimulationError) as single:
        simulate(deriv, clock, {"x": 20.0})
    with pytest.raises(SimulationError) as batch:
        with np.errstate(over="ignore", invalid="ignore"):
            simulate_batch(deriv, clock, {"x": np.array([0.0, 10.0, 20.0])})
    assert str(batch.value) == str(single.value) == \
        "non-finite value for 'x' at t=2.25: inf"


# ---------------------------------------------------------------- restarts

def _opening_deriv(inflow, opens):
    """A drain that overshoots zero (clamp events), plus an inflow that
    opens at ``opens``: two of them agree at every sample before it."""
    def deriv(state, t):
        rate = state[0] / 2.0 + 3.0
        gain = inflow if t >= opens else 0.0
        return [gain - rate, rate], {"outflow": rate}
    return deriv


def test_restarted_run_is_the_full_run():
    clock = SimClock(dt=0.25, horizon=10.0, burn_in=0.0)
    initial = {"r": 5.0, "out": 0.0}
    nonneg = frozenset({"r"})
    earlier = simulate(_opening_deriv(4.0, 5.0), clock, initial, nonneg)
    full = simulate(_opening_deriv(2.5, 5.0), clock, initial, nonneg)
    restarted = simulate(_opening_deriv(2.5, 5.0), clock, initial, nonneg,
                         restart=(20, earlier))  # t = 5.0
    assert list(restarted.series) == list(full.series)
    for name, series in full.series.items():
        assert restarted[name].tobytes() == series.tobytes(), name
    assert restarted.clamp_events == full.clamp_events
    # clamp events on both sides of the restart, and the runs part after it
    assert {e.time < 5.0 for e in full.clamp_events} == {True, False}
    assert earlier["r"].tobytes() != full["r"].tobytes()
    # the restart is recorded: where, and from which run
    assert restarted.restart == (20, earlier)
    assert earlier.restart is full.restart is None


def test_restart_must_be_on_the_grid_of_one_run():
    clock = SimClock(dt=0.25, horizon=5.0, burn_in=0.0)
    earlier = simulate(_drain_deriv(2.0), clock, {"r": 100.0})
    for k in (-1, 21):
        with pytest.raises(ValueError, match="restart sample"):
            simulate(_drain_deriv(2.0), clock, {"r": 100.0}, restart=(k, earlier))


def _overflowing_deriv(opens):
    """``x`` squares itself from ``opens`` on and overflows soon after."""
    def deriv(state, t):
        rate = state[0] * state[0] if t >= opens else 0.0
        return [rate], {"calm": 1.0}
    return deriv


_RESTART_SERIES = ("r", "out", "outflow")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(k=st.integers(0, 20),
       record=st.lists(st.sampled_from(_RESTART_SERIES), unique=True, max_size=3))
def test_restart_keeping_some_series_is_the_full_run(k, record):
    """A restart copies the rows before ``k`` of the kept series only, and
    gives the full run's series for them, bit for bit, in record's order."""
    clock = SimClock(dt=0.25, horizon=10.0, burn_in=0.0)
    initial = {"r": 5.0, "out": 0.0}
    nonneg = frozenset({"r"})
    earlier = simulate(_opening_deriv(4.0, 5.0), clock, initial, nonneg)
    full = simulate(_opening_deriv(2.5, 5.0), clock, initial, nonneg)
    restarted = simulate(_opening_deriv(2.5, 5.0), clock, initial, nonneg,
                         record=record, restart=(k, earlier))  # k <= 20: t <= 5.0
    assert list(restarted.series) == record
    for name in record:
        assert restarted[name].tobytes() == full[name].tobytes(), name
    assert restarted.clamp_events == full.clamp_events


@pytest.mark.parametrize("k", [0, 10, 20])
def test_restart_keeping_some_series_reports_a_non_finite_value_as_the_full_run(k):
    """``x`` goes non-finite after the restart, kept or not: the restarted
    run names it at its own time, as the full run does."""
    clock = SimClock(dt=0.25, horizon=10.0, burn_in=0.0)
    earlier = simulate(_overflowing_deriv(math.inf), clock, {"x": 10.0})
    with pytest.raises(SimulationError) as full:
        simulate(_overflowing_deriv(5.0), clock, {"x": 10.0})
    for record in (("calm",), ("x",), None):
        with pytest.raises(SimulationError) as restarted:
            simulate(_overflowing_deriv(5.0), clock, {"x": 10.0}, record=record,
                     restart=(k, earlier))
        assert str(restarted.value) == str(full.value)
    assert str(full.value).startswith("non-finite value for 'x' at t=")


# ---------------------------------------------------------------- numpy's bits without numpy

def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@pytest.mark.parametrize("dt", [0.25, 0.5, 0.125, 1 / 64])
def test_grid_has_the_bits_of_arange_times_dt(dt):
    clock = SimClock(dt=dt)
    expected = np.arange(clock.n_steps + 1) * dt
    assert list(map(_bits, clock.grid)) == list(map(_bits, expected.tolist()))


# drawn floats up to 300 long; longer lists from a drawn seed and scale, which
# hypothesis makes far faster than 2,000 drawn floats
_SUMMANDS = st.one_of(
    st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=300),
    st.builds(lambda n, seed, scale: (np.random.default_rng(seed).standard_normal(n)
                                      * scale).tolist(),
              st.integers(1, 2000), st.integers(0, 2**32 - 1), st.floats(1e-300, 1e300)),
    st.integers(1, 2000).map(lambda n: [-0.0] * n),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_SUMMANDS)
def test_pairwise_sum_has_the_bits_of_np_sum(values):
    """numpy starts its reduction from 0.0, so a sum of -0.0s is +0.0."""
    assert _bits(pairwise_sum(values)) == _bits(float(np.sum(np.array(values))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(t=st.one_of(st.floats(-5.0, 15.0), st.integers(0, 40).map(lambda k: k * 0.25)))
def test_at_has_the_bits_of_np_interp(t):
    clock = SimClock(dt=0.25, horizon=10.0, burn_in=0.0)
    traj = simulate(_drain_deriv(2.0), clock, {"r": 100.0}, nonneg=frozenset({"r"}))
    for name in ("r", "outflow"):
        assert _bits(traj.at(name, t)) == _bits(float(np.interp(t, traj.times, traj[name])))


def test_one_run_keeps_python_floats_and_makes_arrays_on_first_access():
    clock = SimClock(dt=0.25, horizon=5.0, burn_in=0.0)
    traj = simulate(_drain_deriv(2.0), clock, {"r": 100}, nonneg=frozenset({"r"}))
    assert list(traj.data) == ["r", "outflow"]
    assert all(type(v) is float for values in traj.data.values() for v in values)
    assert "series" not in vars(traj)
    for name, values in traj.data.items():
        assert traj[name].tobytes() == np.array(values).tobytes()
    assert traj.times.tobytes() == np.array(clock.grid).tobytes()
