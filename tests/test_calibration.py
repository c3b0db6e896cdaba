"""Calibration spec loading, loss, and least-squares recovery of known optima."""

import multiprocessing
import os
import random
import re
import runpy
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rentdyn import calibration, model, scenarios
from rentdyn.calibration import (
    CalibrationParameter,
    CalibrationSpec,
    CalibrationTarget,
    calibrate,
    calibration_loss,
    least_squares,
    load_calibration_spec,
)
from rentdyn.engine import SimClock, SimulationError
from rentdyn.params import InputError, bounds_for, default_params, get_value, with_value, \
    with_values
from rentdyn.scenarios import BUILTIN_SCENARIOS, METRIC_SERIES, Scenario, run_scenario


def _recovery_spec():
    """Two free parameters, targets set to what the defaults achieve.

    The shipped defaults are then the exact optimum, so a perturbed start
    must come back to the same metric values.
    """
    shock = run_scenario(default_params(), BUILTIN_SCENARIOS["run2"]).metrics
    return CalibrationSpec(
        parameters=(
            CalibrationParameter("covid.magnitude", 0.40, 0.80),
            CalibrationParameter("rent_delay_curve.steepness", 1.0, 3.0),
        ),
        targets=(
            CalibrationTarget("run2", "evictions_total", shock.evictions_total),
            CalibrationTarget("run2", "arrears_growth_36mo", shock.arrears_growth_36mo),
        ),
        max_iterations=400,
    )


# ---------------------------------------------------------------- spec file

def test_shipped_spec_loads_and_is_already_optimal():
    spec = load_calibration_spec("params/calibration.yaml")
    assert len(spec.parameters) == 4
    assert len(spec.targets) == 4
    assert spec.max_iterations == 600
    loss = calibration_loss(default_params(), spec)
    assert loss < 1e-6


def _write_spec(tmp_path, text):
    path = tmp_path / "spec.yaml"
    path.write_text(text)
    return path


def test_spec_rejects_unknown_parameter_path(tmp_path):
    path = _write_spec(tmp_path, (
        "parameters:\n  - path: no.such.knob\n"
        "targets:\n  - {scenario: run2, metric: evictions_total, value: 1.0}\n"
    ))
    with pytest.raises(InputError, match="unknown parameter path 'no.such.knob'"):
        load_calibration_spec(path)


def test_spec_rejects_bounds_outside_registry(tmp_path):
    path = _write_spec(tmp_path, (
        "parameters:\n  - {path: covid.magnitude, lower: -0.5, upper: 2.0}\n"
        "targets:\n  - {scenario: run2, metric: evictions_total, value: 1.0}\n"
    ))
    with pytest.raises(InputError, match="documented"):
        load_calibration_spec(path)


def test_spec_rejects_unknown_metric_and_scenario(tmp_path):
    path = _write_spec(tmp_path, (
        "parameters:\n  - path: covid.magnitude\n"
        "targets:\n  - {scenario: run2, metric: vibes_total, value: 1.0}\n"
    ))
    with pytest.raises(InputError, match="unknown metric 'vibes_total'"):
        load_calibration_spec(path)
    path = _write_spec(tmp_path, (
        "parameters:\n  - path: covid.magnitude\n"
        "targets:\n  - {scenario: run99, metric: evictions_total, value: 1.0}\n"
    ))
    with pytest.raises(InputError, match="unknown scenario 'run99'"):
        load_calibration_spec(path)


def test_spec_rejects_empty_sections_and_unknown_keys(tmp_path):
    path = _write_spec(tmp_path, "parameters: []\ntargets: []\n")
    with pytest.raises(InputError, match="lists no parameters"):
        load_calibration_spec(path)
    path = _write_spec(tmp_path, (
        "parameters:\n  - path: covid.magnitude\n"
        "targets:\n  - {scenario: run2, metric: evictions_total, value: 1.0}\n"
        "extra_stuff: true\n"
    ))
    with pytest.raises(InputError, match="unknown: extra_stuff"):
        load_calibration_spec(path)


def test_spec_refuses_more_parameters_than_targets(tmp_path):
    path = _write_spec(tmp_path, (
        "parameters:\n"
        "  - path: covid.magnitude\n  - path: covid.recovery_time\n"
        "  - path: rent_delay_curve.steepness\n  - path: moratorium.filing_reduction\n"
        "  - path: assistance.disbursement_time\n"
        "targets:\n"
        "  - {scenario: run2, metric: evictions_total, value: 7.0e6}\n"
        "  - {scenario: run2, metric: arrears_growth_36mo, value: 2.0e10}\n"
        "  - {scenario: run3, metric: evictions_total, value: 3.4e6}\n"
        "  - {scenario: run4, metric: assistance_disbursed_fraction, value: 0.4}\n"
    ))
    with pytest.raises(InputError, match="5 free parameters but only 4") as err:
        load_calibration_spec(path)
    assert "5" in str(err.value) and "4" in str(err.value)


@pytest.mark.parametrize("path", sorted(model.GATE_TIMES))
def test_spec_refuses_a_value_only_compared_against_grid_times(tmp_path, path):
    """A step of the finite-difference Jacobian moves no gate, so its column
    would be zero and the fit would report convergence without moving it."""
    lower, _ = bounds_for(path)
    spec = _write_spec(tmp_path, (
        f"parameters:\n  - path: covid.magnitude\n  - {{path: {path}, upper: 60.0}}\n"
        "targets:\n"
        "  - {scenario: run2, metric: evictions_total, value: 7.0e6}\n"
        "  - {scenario: run2, metric: arrears_growth_36mo, value: 2.0e10}\n"
    ))
    # the spec loader names its file first
    with pytest.raises(InputError, match=f"^{re.escape(str(spec))}: {path} cannot be fitted"):
        load_calibration_spec(spec)
    with pytest.raises(InputError, match=f"^{path} cannot be fitted"):
        CalibrationSpec(parameters=(CalibrationParameter(path, lower, lower + 1.0),),
                        targets=(CalibrationTarget("run4", "evictions_total", 3e6),))


def test_spec_rejects_duplicate_parameter(tmp_path):
    path = _write_spec(tmp_path, (
        "parameters:\n  - path: covid.magnitude\n  - path: covid.magnitude\n"
        "targets:\n  - {scenario: run2, metric: evictions_total, value: 1.0}\n"
    ))
    with pytest.raises(InputError, match="duplicate"):
        load_calibration_spec(path)


@pytest.mark.parametrize("path, lower, upper, match", [
    ("covid.magnitude", -0.5, 0.8, "exceed the documented bounds"),
    ("covid.magnitude", 0.4, 2.0, "exceed the documented bounds"),
    ("covid.magnitude", 0.6, 0.6, "lower bound must be below upper bound"),
    ("covid.magnitude", 0.7, 0.5, "lower bound must be below upper bound"),
    ("no.such.knob", 0.0, 1.0, "unknown parameter path"),
])
def test_parameter_built_in_code_is_checked(path, lower, upper, match):
    """The fit sets free values without validating each run, so a parameter
    is refused when it is built, not only when a spec file is loaded."""
    with pytest.raises(InputError, match=match):
        CalibrationParameter(path, lower, upper)


_MAGNITUDE = CalibrationParameter("covid.magnitude", 0.4, 0.8)
_EVICTIONS = CalibrationTarget("run2", "evictions_total", 7.0e6)


@pytest.mark.parametrize("build, match", [
    (lambda: CalibrationSpec(parameters=(_MAGNITUDE, _MAGNITUDE), targets=(_EVICTIONS,)),
     "duplicate parameter"),
    (lambda: CalibrationSpec(parameters=(_MAGNITUDE, CalibrationParameter(
        "covid.recovery_time", 6.0, 24.0)), targets=(_EVICTIONS, _EVICTIONS)),
     "duplicate target 'run2.evictions_total'"),
    (lambda: CalibrationTarget("run2", "evictions_total", 7.0e6, weight=-1.0),
     "weight must be positive"),
    (lambda: CalibrationTarget("run2", "evictions_total", 7.0e6, weight=0.0),
     "weight must be positive"),
    (lambda: CalibrationTarget("run2", "evictions_total", 7.0e6, weight=float("nan")),
     "weight must be positive"),
    (lambda: CalibrationTarget("run2", "vibes_total", 7.0e6), "unknown metric"),
    (lambda: CalibrationTarget("run2", "evictions_total", float("nan")), "value must be finite"),
    (lambda: CalibrationTarget("run2", "evictions_total", -float("inf")), "value must be finite"),
    (lambda: CalibrationSpec(parameters=(_MAGNITUDE,), targets=(_EVICTIONS,),
                             max_iterations=0), "max_iterations"),
    (lambda: CalibrationSpec(parameters=(_MAGNITUDE,), targets=(_EVICTIONS,),
                             max_iterations=2.5), "max_iterations"),
], ids=["duplicate-parameter", "duplicate-target", "negative-weight", "zero-weight", "nan-weight",
        "unknown-metric", "nan-value", "inf-value", "no-iterations", "fractional-iterations"])
def test_spec_built_in_code_is_checked(build, match):
    """A spec built in code is refused as its file would be, when it is built,
    not deep inside the fit."""
    with pytest.raises(InputError, match=match):
        build()


# ---------------------------------------------------------------- loss

def test_loss_zero_at_exact_targets_and_weights_scale():
    spec = _recovery_spec()
    assert calibration_loss(default_params(), spec) == pytest.approx(0.0, abs=1e-20)
    heavier = CalibrationSpec(
        parameters=spec.parameters,
        targets=tuple(
            CalibrationTarget(t.scenario, t.metric, t.value * 1.1, weight=4.0)
            for t in spec.targets
        ),
        max_iterations=10,
    )
    lighter = CalibrationSpec(
        parameters=spec.parameters,
        targets=tuple(
            CalibrationTarget(t.scenario, t.metric, t.value * 1.1, weight=1.0)
            for t in spec.targets
        ),
        max_iterations=10,
    )
    assert calibration_loss(default_params(), heavier) == pytest.approx(
        4.0 * calibration_loss(default_params(), lighter), rel=1e-12)


# ---------------------------------------------------------------- solver

def _rosenbrock(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def test_solver_finds_the_rosenbrock_minimum():
    unbounded = (np.full(2, -np.inf), np.full(2, np.inf))
    result = least_squares(lambda points: [_rosenbrock(x) for x in points],
                           np.array([-1.2, 1.0]), bounds=unbounded, max_nfev=200)
    assert result.status > 0
    assert np.max(np.abs(np.array(result.x) - 1.0)) < 1e-8


def test_solver_ends_on_the_bound_the_optimum_lies_beyond():
    """The residuals vanish at (2, 1), outside the box; on the box the best
    point is (1.5, 1), where the gradient points out through x0's bound."""
    a, b = np.array([[1.0, 1.0], [1.0, -1.0], [2.0, 0.0]]), np.array([3.0, 1.0, 4.0])
    lower, upper = np.array([0.0, 0.0]), np.array([1.5, 3.0])
    result = least_squares(lambda points: [a @ x - b for x in points], np.array([0.5, 2.5]),
                           bounds=(lower, upper), max_nfev=100)
    assert result.status > 0
    assert result.x[0] == 1.5
    assert result.x[1] == pytest.approx(1.0, abs=1e-8)
    # the gradient projected on the box: exactly zero through the bound, and
    # zero to the difference Jacobian's accuracy in x1
    g = np.array(result.jac) @ np.array(result.fun)
    assert g[0] == pytest.approx(-3.0)
    x = np.array(result.x)
    projected = x - np.clip(x - g, lower, upper)
    assert projected[0] == 0.0 and abs(projected[1]) < 1e-7


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 3), extra=st.integers(0, 2),
       max_nfev=st.integers(1, 25))
def test_solver_scores_only_points_in_the_box_and_within_its_budget(data, n, extra, max_nfev):
    """Every point scored, trial or Jacobian, lies in the box (each at least
    0.01 wide, far wider than a difference step); trial points never exceed
    max_nfev, and a search cut off there reports status 0 on the path the
    uncut search takes. The first round holds the start and the Jacobian
    points there; each later one a trial point alone, or the Jacobian at the
    trial point just before it once its step is taken, so no point is scored
    that the search does not read."""
    def draw(size, low, high):
        return np.array(data.draw(st.lists(st.floats(low, high), min_size=size,
                                           max_size=size)))

    m = n + extra
    a, b = draw(m * n, -2.0, 2.0).reshape(m, n), draw(m, -3.0, 3.0)
    lower = draw(n, -2.0, 0.0)
    upper = lower + draw(n, 0.01, 2.0)
    x0 = lower + draw(n, 0.0, 1.0) * (upper - lower)

    def searched(budget):
        rounds = []

        def fun(points):
            rounds.append([x.copy() for x in points])
            return [a @ x + 0.5 * np.sin(3.0 * x).sum() - b for x in map(np.array, points)]

        return least_squares(fun, x0.copy(), bounds=(lower, upper), max_nfev=budget), rounds

    result, rounds = searched(max_nfev)
    assert all(np.all(lower <= x) and np.all(x <= upper) for points in rounds for x in points)
    # the round of each trial point
    trials = [i for i, (before, now) in enumerate(zip([[]] + rounds, rounds))
              if not (len(before) == 1 and np.array_equal(
                  now, calibration._difference_points(before[0], upper)))]
    assert result.nfev == len(trials) <= max_nfev
    assert len(rounds[0]) == 1 + n and all(len(rounds[trial]) == 1 for trial in trials[1:])
    # a search cut off after k trial points stops where the search stood
    # then, so a trial was refused if it left that point where it was
    path = [np.array(searched(k)[0].x).tobytes() for k in range(1, result.nfev + 1)]
    refused = [False] + [now == before for before, now in zip(path, path[1:])]
    assert result.njev == refused.count(False)
    # a Jacobian round follows each trial point taken, and no other
    taken = [trial for trial, was_refused in zip(trials[1:], refused[1:]) if not was_refused]
    assert [i - 1 for i in range(1, len(rounds)) if i not in trials] == taken
    assert sum(map(len, rounds)) == result.nfev + n * result.njev
    full, _ = searched(1000)
    if full.nfev > max_nfev:
        assert result.status == 0 and result.nfev == max_nfev
    else:
        assert result.status == full.status > 0
        assert np.array(result.x).tobytes() == np.array(full.x).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 4), extra=st.integers(0, 2))
def test_solver_linear_algebra_agrees_with_lapack(data, n, extra):
    """On a Jacobian of m >= n rows whose columns differ in scale by up to
    1e21, as a wall column does, the Jacobi singular values are LAPACK's to
    roundoff of the largest, and the elimination solves J'J plus a positive
    diagonal, a damped step's system, to roundoff of its terms."""
    m = n + extra
    entries = st.integers(-10**6, 10**6).map(lambda k: k / 10**6)
    scales = np.array(data.draw(st.lists(st.integers(-8, 13), min_size=n, max_size=n)))
    jac = np.array(data.draw(st.lists(entries, min_size=m * n, max_size=m * n))).reshape(m, n)
    jac *= 10.0 ** scales
    expected = np.linalg.svd(jac, compute_uv=False)
    values = calibration._singular_values(jac.T.tolist())
    assert values == sorted(values, reverse=True)
    assert np.max(np.abs(np.array(values) - expected)) <= 1e-13 * expected[0]
    a = jac.T @ jac + np.diag(1e-3 * np.maximum(np.diag(jac.T @ jac), 1.0))
    b = np.array(data.draw(st.lists(entries, min_size=n, max_size=n))) * 10.0 ** scales
    x = np.array(calibration._solve(a.tolist(), b.tolist()))
    assert np.max(np.abs(a @ x - b)) <= 1e-12 * (np.max(np.abs(a) @ np.abs(x)) + np.max(np.abs(b)))


def test_solver_refuses_a_step_to_a_failed_point():
    """A point past x = 1.5 scores a failure vector like calibrate's: the
    search never takes one, and stops converged at the wall."""
    failure = np.full(2, 1e6)
    trials = []

    def fun(x):
        trials.append(float(x[0]))
        return failure if x[0] > 1.5 else np.array([x[0] - 2.0, 0.1 * (x[0] - 2.0)])

    result = least_squares(lambda points: [fun(x) for x in points], np.array([0.0]),
                           bounds=(np.array([-10.0]), np.array([10.0])), max_nfev=100)
    assert any(t > 1.5 for t in trials)
    assert result.status > 0
    assert 1.4 < result.x[0] <= 1.5
    assert np.array(result.fun).tobytes() != failure.tobytes()


# ---------------------------------------------------------------- recovery

@pytest.fixture(scope="module")
def recovery():
    spec = _recovery_spec()
    start = with_value(default_params(), "covid.magnitude", 0.68)
    start = with_value(start, "rent_delay_curve.steepness", 1.6)
    return spec, start, calibrate(start, spec)


def test_recovery_hits_targets_within_one_percent(recovery):
    spec, _, result = recovery
    assert result.converged
    assert result.loss < result.initial_loss
    for target in spec.targets:
        achieved = result.achieved[target.key]
        assert achieved == pytest.approx(target.value, rel=0.01), target.key


def test_recovery_respects_bounds_and_reports_work(recovery):
    spec, _, result = recovery
    for p in spec.parameters:
        assert p.lower <= result.fitted[p.path] <= p.upper
        assert get_value(result.params, p.path) == result.fitted[p.path]
    assert result.evaluations > 0
    assert len(result.singular_values) == len(spec.parameters)
    assert all(v > 0.0 for v in result.singular_values)


def test_recovery_is_deterministic(recovery):
    spec, start, first = recovery
    second = calibrate(start, spec)
    assert second.fitted == first.fitted
    assert second.loss == first.loss
    assert second.evaluations == first.evaluations


def test_shipped_spec_fit_does_not_depend_on_the_start():
    """From each start of a fixed set (seven moved magnitudes, the demo's
    start, the shipped defaults, and 12 seeded draws, each free value
    uniform in the inner 90% of its box) the fit converges to the same
    values and meets every target."""
    spec = load_calibration_spec("params/calibration.yaml")
    rng = random.Random(2024)
    starts = [{"covid.magnitude": m} for m in (0.475, 0.54, 0.45, 0.46, 0.5, 0.525, 0.55)]
    starts += [runpy.run_path("demos/calibration_recovery.py")["PERTURB"], {}]
    starts += [{p.path: p.lower + (p.upper - p.lower) * rng.uniform(0.05, 0.95)
                for p in spec.parameters} for _ in range(12)]
    results = [calibrate(with_values(default_params(), start), spec) for start in starts]
    for start, result in zip(starts, results):
        assert result.converged, start
        assert result.evaluations < 120, start
        for target in spec.targets:
            assert result.achieved[target.key] == pytest.approx(target.value, rel=1e-6), start
    first, *others = results
    for start, other in zip(starts[1:], others):
        for path, value in first.fitted.items():
            assert other.fitted[path] == pytest.approx(value, rel=1e-4), (start, path)


def test_fit_integrates_its_start_once():
    """Each scenario runs once per distinct point it sees: the start is scored
    once, the fitted point's metrics come from its own evaluation, and a
    Jacobian point that moves only a parameter of a policy block a scenario
    switches off reuses that scenario's run at the base point."""
    spec = load_calibration_spec("params/calibration.yaml")
    result = calibrate(with_value(default_params(), "covid.magnitude", 0.5), spec)
    assert result.converged
    assert result.evaluations == 30
    # 30 points x 3 scenarios, less run2 at 12 Jacobian points (filing
    # reduction, disbursement time) and run3 at 6 (disbursement time)
    assert result.scenario_runs == 72


def test_fit_from_the_benchmark_start_is_unchanged():
    spec = load_calibration_spec("params/calibration.yaml")
    result = calibrate(with_value(default_params(), "covid.magnitude", 0.5), spec)
    assert result.fitted == {
        "covid.magnitude": 0.6007270960257441,
        "covid.recovery_time": 74.46011315864186,
        "moratorium.filing_reduction": 0.5000313623630324,
        "assistance.disbursement_time": 34.999999999999986,
    }


def test_fit_does_not_depend_on_the_blas_kernel():
    """The fit's arithmetic is Python's: a process that loads numpy first,
    with OpenBLAS told to take another CPU's kernels, fits the same bits."""
    import rentdyn
    env = dict(os.environ, PYTHONPATH=str(Path(rentdyn.__file__).parents[1]),
               OPENBLAS_CORETYPE="Sandybridge")
    code = ("import sys\n"
            "import numpy\n"
            "sys.path.insert(0, 'tests')\n"
            "from test_calibration import _outcome\n"
            "from rentdyn.calibration import calibrate, load_calibration_spec\n"
            "from rentdyn.params import default_params, with_value\n"
            "spec = load_calibration_spec('params/calibration.yaml')\n"
            "print(repr(_outcome(calibrate(with_value(default_params(), 'covid.magnitude', 0.5),"
            " spec))))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    result = calibrate(with_value(default_params(), "covid.magnitude", 0.5), _SHIPPED)
    assert (result.evaluations, result.scenario_runs) == (30, 72)
    assert proc.stdout.splitlines()[-1] == repr(_outcome(result))


@pytest.mark.parametrize("magnitude, evaluations, runs",
                         [(0.475, 40, 96), (0.525, 30, 72), (0.54, 25, 60)])
def test_fit_from_the_other_benchmark_starts_keeps_its_work(magnitude, evaluations, runs):
    """No trial point is refused from these starts, so every Jacobian run
    made with a trial point is read."""
    spec = load_calibration_spec("params/calibration.yaml")
    result = calibrate(with_value(default_params(), "covid.magnitude", magnitude), spec)
    assert (result.evaluations, result.scenario_runs) == (evaluations, runs)


def _outcome(result):
    return (result.fitted, result.loss, result.initial_loss, result.achieved,
            result.evaluations, result.scenario_runs,
            result.singular_values)


@pytest.mark.parametrize("magnitude", [0.475, 0.54])
def test_parallel_fit_equals_serial_fit(magnitude):
    """Fits share only the traced kernel: two made at once, in two threads
    of one process, each give the fit made alone."""
    spec = load_calibration_spec("params/calibration.yaml")
    start = with_value(default_params(), "covid.magnitude", magnitude)
    serial = calibrate(start, spec)
    with ThreadPoolExecutor(2) as pool:
        parallel = list(pool.map(lambda _: calibrate(start, spec), range(2)))
    assert [_outcome(result) for result in parallel] == [_outcome(serial)] * 2


def _fail_run3_above(monkeypatch, magnitude, failures) -> None:
    """Make the fit's runs of run3 raise above ``magnitude``, recorded in ``failures``."""
    run_model_ = calibration.run_model

    def failing(params, clock, **kwargs):
        run3 = params.moratorium.enabled and not params.assistance.enabled
        if run3 and params.covid.magnitude > magnitude:
            failures.append(params.covid.magnitude)
            raise SimulationError("blew up")
        return run_model_(params, clock, **kwargs)

    monkeypatch.setattr(calibration, "run_model", failing)


def test_run_failing_in_a_worker_scores_like_a_serial_failure(monkeypatch):
    """A run that raises SimulationError scores the failure residual: run3
    fails above magnitude 0.58, so the fit stops short there."""
    spec = load_calibration_spec("params/calibration.yaml")
    start = with_value(default_params(), "covid.magnitude", 0.5)
    failures = []
    _fail_run3_above(monkeypatch, 0.58, failures)
    serial = calibrate(start, spec)
    assert failures  # the fit met failing runs in this process
    assert serial.converged
    assert serial.fitted["covid.magnitude"] <= 0.58


def test_fit_ending_at_a_wall_of_failed_runs_reports_no_singular_values(
        monkeypatch, tmp_path, capsys):
    """The fit stops at the wall run3 meets above magnitude 0.58: the last
    trial point it refused failed there, so no singular value is reported,
    and the command says why."""
    from rentdyn.cli import main
    from rentdyn.params import save_params

    _fail_run3_above(monkeypatch, 0.58, [])
    fits = []
    calibrate_ = calibration.calibrate

    def recording(*args, **kwargs):
        fits.append(calibrate_(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(calibration, "calibrate", recording)
    start = tmp_path / "start.yaml"
    save_params(with_value(default_params(), "covid.magnitude", 0.5), start)
    rc = main(["calibrate", "--spec", "params/calibration.yaml", "--params", str(start),
               "--out", str(tmp_path / "fit")])
    assert rc == 0
    [result] = fits
    assert result.converged
    assert 0.57 < result.fitted["covid.magnitude"] <= 0.58
    # trial points past the wall are refused; each trial point is scored
    # alone, and the Jacobian at it only once its step is taken, so no
    # Jacobian runs at a refused point are made
    assert (result.evaluations, result.scenario_runs) == (127, 315)
    assert result.singular_values == ()
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == ("singular values of the scaled Jacobian: "
                        "none, the fit ends at a wall of failed runs")


def test_fit_never_forks_while_another_thread_runs(monkeypatch):
    """A fit makes every run in the calling process: with or without a
    second thread alive, it never forks and leaves no child process."""
    def forbidden():
        raise AssertionError("the fit forked")

    monkeypatch.setattr(os, "fork", forbidden)
    start = with_value(default_params(), "covid.magnitude", 0.5)
    alone = calibrate(start, _SHIPPED)
    assert multiprocessing.active_children() == []
    stop = threading.Event()
    waiting = threading.Thread(target=stop.wait, daemon=True)
    waiting.start()
    try:
        beside = calibrate(start, _SHIPPED)
    finally:
        stop.set()
        waiting.join(timeout=10)
    assert not waiting.is_alive()
    assert multiprocessing.active_children() == []
    assert _outcome(beside) == _outcome(alone)


def test_fit_in_a_daemonic_process_makes_every_run_itself(monkeypatch):
    """multiprocessing lets no daemonic process start children: a fit there
    makes its runs in that process, with the same result."""
    start = with_value(default_params(), "covid.magnitude", 0.5)
    usual = calibrate(start, _SHIPPED)
    monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    alone = calibrate(start, _SHIPPED)
    assert (alone.evaluations, alone.scenario_runs) == (30, 72)
    assert _outcome(alone) == _outcome(usual)


def _fitted_from(magnitude: float) -> dict[str, float]:
    return calibrate(with_value(default_params(), "covid.magnitude", magnitude), _SHIPPED).fitted


def test_fit_in_a_pool_worker_is_the_fit_here():
    """A multiprocessing.Pool's workers are daemonic."""
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(_fitted_from, (0.5,)).get(timeout=60) == _fitted_from(0.5)


def test_an_error_raised_in_a_worker_reaches_the_caller(monkeypatch):
    """An exception other than a failed run's is not scored: raised where a
    run is made, the tenth, it leaves the fit as it was raised."""
    made = []
    compute_metrics = calibration.compute_metrics

    def failing(trajectory):
        made.append(trajectory)
        if len(made) == 10:
            raise RuntimeError("failed in a run")
        return compute_metrics(trajectory)

    monkeypatch.setattr(calibration, "compute_metrics", failing)
    with pytest.raises(RuntimeError, match="failed in a run"):
        calibrate(with_value(default_params(), "covid.magnitude", 0.5), _SHIPPED)
    assert len(made) == 10
    assert multiprocessing.active_children() == []


def test_fit_makes_one_run_per_point_a_scenario_sees(monkeypatch):
    """run4a overrides assistance.rate_multiplier, which its runs therefore
    never see: a fit freeing it runs run4a once per covid.magnitude."""
    made = {"run4": [], "run4a": []}
    run_model_ = calibration.run_model

    def recording(params, clock, **kwargs):
        # run4a's override sets the rate multiplier to 3, outside the fit's
        # bounds; a prefix keeps every series, a run only what it records
        name = "run4a" if params.assistance.rate_multiplier == 3.0 else "run4"
        if "record" in kwargs:
            made[name].append((params.covid.magnitude, params.assistance.rate_multiplier))
        return run_model_(params, clock, **kwargs)

    monkeypatch.setattr(calibration, "run_model", recording)
    spec = CalibrationSpec(
        parameters=(CalibrationParameter("covid.magnitude", 0.4, 0.8),
                    CalibrationParameter("assistance.rate_multiplier", 0.5, 2.0)),
        targets=(CalibrationTarget("run4a", "evictions_total", 3.0e6),
                 CalibrationTarget("run4", "assistance_disbursed_fraction", 0.45)),
        max_iterations=10,
    )
    result = calibrate(default_params(), spec)
    magnitudes = [magnitude for magnitude, _ in made["run4a"]]
    assert len(magnitudes) == len(set(magnitudes)) > 1
    assert len(set(made["run4"])) == len(made["run4"]) > len(magnitudes)
    assert result.scenario_runs == len(made["run4"]) + len(magnitudes)


def test_calibration_never_imports_scipy():
    import rentdyn
    env = dict(os.environ, PYTHONPATH=str(Path(rentdyn.__file__).parents[1]))
    code = ("import sys, tempfile\n"
            "import rentdyn.calibration\n"
            "from rentdyn.cli import main\n"
            "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print('scipy', scipy())\n"
            "with tempfile.TemporaryDirectory() as out:\n"
            "    assert main(['calibrate', '--spec', sys.argv[1], '--out', out]) == 0\n"
            "print('scipy', scipy())\n")
    proc = subprocess.run([sys.executable, "-c", code, "params/calibration.yaml"], env=env,
                          capture_output=True, text=True, check=True)
    assert [line for line in proc.stdout.splitlines()
            if line.startswith("scipy")] == ["scipy []", "scipy []"]


def test_start_outside_bounds_is_clipped_in():
    spec = CalibrationSpec(
        parameters=(CalibrationParameter("covid.magnitude", 0.45, 0.55),),
        targets=(CalibrationTarget("run2", "evictions_total", 6.5e6),),
        max_iterations=60,
    )
    start = with_value(default_params(), "covid.magnitude", 0.90)
    result = calibrate(start, spec)
    assert 0.45 <= result.fitted["covid.magnitude"] <= 0.55


# ---------------------------------------------------------------- restarts

_SHIPPED = load_calibration_spec("params/calibration.yaml")
_FREE_VALUES = st.tuples(*(st.floats(p.lower, p.upper) for p in _SHIPPED.parameters))


def _moved(values):
    params = default_params()
    for p, value in zip(_SHIPPED.parameters, values):
        params = with_value(params, p.path, value)
    return params


@settings(max_examples=20, deadline=None, derandomize=True)
@given(start=_FREE_VALUES, values=_FREE_VALUES)
def test_restarted_run_is_the_full_run(start, values):
    """A run restarted from the prefix a fit makes, the run at other free
    values up to the sample the fit restarts at, equals the full run in
    every series at every sample and in its clamp events."""
    paths = [p.path for p in _SHIPPED.parameters]
    # the shock at 26.75 months; the filing drop ahead of the moratorium at 26.25
    for clock, samples in ((SimClock(), (107, 105)), (SimClock(dt=0.5), (54, 53))):
        times = clock.grid
        for name in ("run2", "run3", "run4", "run4a"):
            scenario = BUILTIN_SCENARIOS[name]
            earlier = scenario.apply(_moved(start))
            onset = min(model.read_from(earlier, path) for path in paths)
            k = int(np.searchsorted(times, onset))
            assert k == samples[name != "run2"]
            prefix = model.run_model(earlier, SimClock(clock.dt, horizon=float(times[k]),
                                                       burn_in=0.0))
            moved = scenario.apply(_moved(values))
            full = model.run_model(moved, clock)
            restarted = model.run_model(moved, clock, restart=(k, prefix))
            assert list(restarted.data) == list(full.data)
            for series in full.data:
                assert restarted[series].tobytes() == full[series].tobytes(), (name, series)
            assert restarted.clamp_events == full.clamp_events


def _samples_integrated(monkeypatch) -> list[int]:
    """The samples each scalar run integrates from now on, one count per
    call of its compiled run loop: ``last - first + 1``."""
    counts = []
    simulate = model.simulate

    def counted(*args, run, **kwargs):
        def counted_run(state, grid, first, last, clamp):
            counts.append(last - first + 1)
            return run(state, grid, first, last, clamp)

        return simulate(*args, run=counted_run, **kwargs)

    monkeypatch.setattr(model, "simulate", counted)
    return counts


def _full_runs(monkeypatch) -> None:
    """Make every scenario run of a fit from the start of the grid."""
    run_model_ = calibration.run_model

    def full(params, clock, record=None, restart=None):
        return run_model_(params, clock, record=record)

    monkeypatch.setattr(calibration, "run_model", full)


def test_fit_restarts_every_run_after_the_start(monkeypatch):
    counts = _samples_integrated(monkeypatch)
    result = calibrate(with_value(default_params(), "covid.magnitude", 0.5), _SHIPPED)
    assert result.scenario_runs == 72
    calls = sorted(counts)
    # one prefix per scenario, through sample 107 of 201 in run2 and 105 in
    # run3 and run4; then every run, the start's included, restarts there
    assert len(calls) == 3 + 72
    assert calls.count(108) == 1 and calls.count(106) == 2
    assert (calls.count(201 - 107), calls.count(201 - 105)) == (18, 54)
    assert 201 not in calls


def _run_model_calls(monkeypatch) -> list[tuple[SimClock, tuple | None]]:
    """(clock, recorded series) of every scenario integration from now on,
    whichever module calls ``run_model``, in this process only."""
    calls = []
    run_model_ = model.run_model

    def counted(params, clock=SimClock(), record=None, restart=None):
        calls.append((clock, None if record is None else tuple(record)))
        return run_model_(params, clock, record=record, restart=restart)

    monkeypatch.setattr(calibration, "run_model", counted)
    monkeypatch.setattr(scenarios, "run_model", counted)
    return calls


def test_fit_integrates_only_its_prefixes_and_the_solver_rounds_runs(monkeypatch):
    """A fit integrates each scenario's prefix and then only the runs its
    rounds ask for, even when it ends on a failed run: from 1e307 every run
    blows up, and the error raised is the one run2's run kept."""
    calls = _run_model_calls(monkeypatch)
    result = calibrate(with_value(default_params(), "covid.magnitude", 0.5), _SHIPPED)
    assert len(calls) == 3 + result.scenario_runs == 3 + 72
    calls.clear()
    with pytest.raises(SimulationError, match="'households_insecure' at t=28.25: inf"):
        calibrate(with_value(default_params(), "rate_new_insecurity", 1e307), _SHIPPED)
    prefixes = [clock for clock, record in calls if record is None]
    assert len(prefixes) == 3
    assert all(clock.horizon < SimClock().horizon for clock in prefixes)
    assert {record for _, record in calls} == {None, tuple(METRIC_SERIES)}


@pytest.mark.parametrize("free", [CalibrationParameter("rent_delay_curve.steepness", 1.0, 3.0),
                                  CalibrationParameter("assistance.total_funds", 30e9, 60e9)])
def test_fit_freeing_a_value_read_from_the_start_makes_full_runs(monkeypatch, free):
    # the fund's initial level is read from the start where assistance is on
    scenario = "run4" if free.path.startswith("assistance.") else "run2"
    spec = _recovery_spec()
    targets = tuple(CalibrationTarget(scenario, t.metric, t.value) for t in spec.targets)
    spec = CalibrationSpec(parameters=(spec.parameters[0], free), targets=targets,
                           max_iterations=3)
    counts = _samples_integrated(monkeypatch)
    result = calibrate(default_params(), spec)
    assert result.scenario_runs == len(counts) > 1
    assert set(counts) == {201}


def _crowding_spec(lower, upper):
    """crowding_curve.y_max may not fall below its y_min, 1.0: with these
    bounds some points of the fit cannot be built into parameters."""
    return CalibrationSpec(
        parameters=(CalibrationParameter("crowding_curve.y_max", lower, upper),),
        targets=(CalibrationTarget("run2", "crowding_mean", 1.2),),
        max_iterations=60,
    )


def test_points_across_a_curve_invariant_score_the_failure_residual(monkeypatch):
    refused = []
    with_values_ = calibration.with_values

    def recording(params, changes):
        try:
            return with_values_(params, changes)
        except ValueError:
            refused.append(changes["crowding_curve.y_max"])
            raise

    monkeypatch.setattr(calibration, "with_values", recording)
    result = calibrate(default_params(), _crowding_spec(0.5, 3.0))
    assert refused and all(value < 1.0 for value in refused)
    # the target is out of reach: the fit stops at the invariant
    assert result.converged
    assert 1.0 <= result.fitted["crowding_curve.y_max"] < 1.001
    assert result.loss < result.initial_loss


def test_fit_ending_on_parameters_that_cannot_be_built_is_refused():
    with pytest.raises(InputError, match="cannot be built: y_max .* below y_min"):
        calibrate(default_params(), _crowding_spec(0.5, 0.9))


def test_fit_ending_where_a_scenario_cannot_be_built_is_refused():
    """The fitted values build, but not with the scenario's override of
    y_min: the start's runs fail there, and the fit ends at its start."""
    raised = Scenario("raised", covid=True, overrides={"crowding_curve.y_min": 1.5})
    spec = CalibrationSpec(
        parameters=(CalibrationParameter("crowding_curve.y_max", 1.1, 1.4),),
        targets=(CalibrationTarget("raised", "crowding_mean", 1.2),),
        max_iterations=5,
    )
    with pytest.raises(InputError, match="cannot be built: y_max 1.4 below y_min 1.5"):
        calibrate(default_params(), spec, scenarios={"raised": raised})


@pytest.mark.parametrize("path, value, may_fork", [("avg_monthly_rent", 1e305, False),
                                                   ("rate_new_insecurity", 1e307, True)])
def test_start_whose_runs_blow_up_raises_the_run_error(monkeypatch, tmp_path, capsys,
                                                       path, value, may_fork):
    """A rent of 1e305 makes ``rent_due`` infinite at t=0, inside every
    prefix: the fit raises run2's error before its search starts. An inflow of
    1e307 blows up at t=28.25, after the onset: every run fails, and the fit
    ends at its start and raises the same error there. Either way the
    command exits 1 with one line and writes nothing."""
    from rentdyn.cli import main
    from rentdyn.params import save_params

    start = with_value(default_params(), path, value)
    with pytest.raises(SimulationError) as expected:
        run_scenario(start, BUILTIN_SCENARIOS["run2"])
    if not may_fork:
        def forbidden():
            raise AssertionError("the fit forked a worker")

        monkeypatch.setattr(os, "fork", forbidden)
    with pytest.raises(SimulationError) as raised:
        calibrate(start, _SHIPPED)
    assert str(raised.value) == str(expected.value)
    start_file, out = tmp_path / "start.yaml", tmp_path / "fit"
    save_params(start, start_file)
    rc = main(["calibrate", "--spec", "params/calibration.yaml", "--params", str(start_file),
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"simulation failed: {expected.value}\n"
    assert not out.exists()


def test_restarted_fit_on_a_coarser_grid_is_the_fit_from_full_runs(monkeypatch):
    """The restart sample comes from the clock's grid: at dt=0.5, run2
    restarts at sample 54 of 101 (t=27) and run3 and run4 at 53 (t=26.5),
    from prefixes of 55 and 54 samples."""
    clock = SimClock(dt=0.5)
    start = with_value(default_params(), "covid.magnitude", 0.5)
    counts = _samples_integrated(monkeypatch)
    restarted = calibrate(start, _SHIPPED, clock=clock)
    assert set(counts) == {101 - 54, 101 - 53, 54, 55}
    _full_runs(monkeypatch)
    full = calibrate(start, _SHIPPED, clock=clock)
    assert restarted.converged
    assert _outcome(restarted) == _outcome(full)


def test_fit_of_a_value_first_read_after_the_horizon(monkeypatch):
    """With assistance starting after the horizon, run4 never reads the free
    disbursement time: its later runs restart at the last sample."""
    start = with_value(default_params(), "assistance.start_time", 60.0)
    spec = CalibrationSpec(
        parameters=(CalibrationParameter("assistance.disbursement_time", 25.0, 45.0),),
        targets=(CalibrationTarget("run4", "assistance_disbursed_fraction", 0.4),),
        max_iterations=5,
    )
    counts = _samples_integrated(monkeypatch)
    restarted = calibrate(start, spec)
    assert set(counts) == {1, 201}
    _full_runs(monkeypatch)
    assert _outcome(calibrate(start, spec)) == _outcome(restarted)


def test_fit_the_targets_cannot_identify_is_not_converged(tmp_path, capsys):
    """Two targets that read disbursement time and pace only through their
    ratio fix one direction: the fit meets its targets, but its second
    singular value, below the forward difference's resolution, marks a
    direction they leave free."""
    from rentdyn.cli import main

    spec = tmp_path / "spec.yaml"
    spec.write_text(
        "parameters:\n"
        "  - {path: assistance.disbursement_time, lower: 20, upper: 60}\n"
        "  - {path: assistance.rate_multiplier, lower: 0.5, upper: 2}\n"
        "targets:\n"
        "  - {scenario: run4, metric: assistance_disbursed_end, value: 2.0e10}\n"
        "  - {scenario: run4, metric: assistance_disbursed_fraction, value: 0.43}\n")
    result = calibrate(default_params(), load_calibration_spec(spec))
    assert result.loss < 1e-7
    large, small = result.singular_values
    assert small < calibration._DIFF_STEP * large
    assert not result.converged
    assert main(["calibrate", "--spec", str(spec)]) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith("(not converged)")


def test_fit_of_an_event_that_never_happens_reports_never(tmp_path, capsys):
    """run4 never exhausts its fund at any disbursement time near the
    default: the metric stays None, which the residual scores as a month past
    the horizon, the Jacobian is zero, and the command prints ``never``."""
    from rentdyn.cli import main

    spec = tmp_path / "spec.yaml"
    spec.write_text(
        "parameters: [{path: assistance.disbursement_time}]\n"
        "targets: [{scenario: run4, metric: assistance_exhausted_at, value: 45}]\n")
    result = calibrate(default_params(), load_calibration_spec(spec))
    assert result.achieved == {"run4.assistance_exhausted_at": None}
    assert result.loss == result.initial_loss == pytest.approx(((50.0 + 1.0 - 45.0) / 45.0) ** 2)
    assert result.singular_values == (0.0,)
    assert not result.converged
    assert main(["calibrate", "--spec", str(spec)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("(not converged)")
    assert lines[-1] == f"  {'run4.assistance_exhausted_at':<40} never vs 45"
