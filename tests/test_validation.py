"""Theil statistics, reference-mode scoring, sensitivity sweep, extreme checks.

Theil oracles are frozen literals computed by hand from the definitions.
"""

import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rentdyn import model, validation
from rentdyn.engine import ClampEvent, SimulationError
from rentdyn.params import FIELDS, default_params, with_value, with_values
from rentdyn.validation import (
    ReferenceError,
    extreme_conditions,
    load_reference_mode,
    reference_report,
    score_reference_mode,
    sensitivity_sweep,
    _theil,
    theil_decomposition,
)
from rentdyn.scenarios import BUILTIN_SCENARIOS, run_scenario


GOOD_CSV = """calendar_month,value,scenario,series,units,source
2020-01,580000,run1,households_homeless,households,test fixture
2021-01,590000,run1,households_homeless,households,test fixture
2022-01,600000,run1,households_homeless,households,test fixture
"""


@pytest.mark.parametrize("module", ["rentdyn.validation", "rentdyn.cli"])
def test_import_loads_neither_calibration_nor_scipy(module):
    import rentdyn
    env = dict(os.environ, PYTHONPATH=str(Path(rentdyn.__file__).parents[1]))
    code = (f"import sys, {module}\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'rentdyn.calibration' or m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_calibration_import_loads_no_numpy():
    import rentdyn
    env = dict(os.environ, PYTHONPATH=str(Path(rentdyn.__file__).parents[1]))
    code = ("import sys, rentdyn.calibration\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["simulate", "suite", "compare", "validate", "calibrate"])
def test_single_run_commands_never_import_numpy(command, tmp_path):
    """The fit makes single runs too: ``calibrate`` of a one-parameter spec
    whose box leaves out the target's value, as in CI."""
    import rentdyn
    env = dict(os.environ, PYTHONPATH=str(Path(rentdyn.__file__).parents[1]))
    args = []
    if command == "calibrate":
        spec = tmp_path / "bound.yaml"
        spec.write_text("parameters:\n  - {path: covid.magnitude, lower: 0.7, upper: 0.8}\n"
                        "targets:\n  - {scenario: run2, metric: evictions_total, value: 7.023e6}\n")
        args = ["--spec", str(spec)]
    out = tmp_path / "out"
    code = ("import sys\n"
            "from rentdyn.cli import main\n"
            f"status = main({[command, *args, '--out', str(out)]!r})\n"
            "print(status, sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert (out / "manifest.json").exists()


# ---------------------------------------------------------------- Theil U

def test_theil_u_frozen_oracle():
    # RMSE = sqrt(2/4), RMS(sim) = RMS(obs) = sqrt(30/4):
    # U = sqrt(0.5) / (2*sqrt(7.5)) = 0.12909944487358058
    u = _theil([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0])[0]
    assert u == pytest.approx(0.12909944487358058, rel=1e-14)


def test_theil_u_perfect_and_worst_case():
    assert _theil([1.0, 2.0], [1.0, 2.0])[0] == 0.0
    assert _theil([0.0, 0.0], [0.0, 0.0])[0] == 0.0
    # all-zero forecast of a nonzero series is maximally wrong
    assert _theil([0.0, 0.0], [5.0, -3.0])[0] == pytest.approx(1.0)
    # opposite signs everywhere is also maximally wrong
    assert _theil([1.0, 2.0], [-1.0, -2.0])[0] == pytest.approx(1.0)


def test_theil_u_bounded_and_symmetric_on_random_pairs():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        sim = rng.normal(scale=rng.uniform(0.1, 100.0), size=rng.integers(2, 40))
        obs = rng.normal(scale=rng.uniform(0.1, 100.0), size=sim.size)
        u = _theil(sim, obs)[0]
        assert 0.0 <= u <= 1.0 + 1e-12
        assert u == pytest.approx(_theil(obs, sim)[0], rel=1e-12)


def test_theil_u_rejects_mismatched_or_empty():
    with pytest.raises(ValueError):
        _theil([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        _theil([], [])


# ---------------------------------------------------------------- decomposition

def test_decomposition_pure_bias():
    obs = np.array([2.0, 4.0, 6.0, 8.0])
    bias, variance, covariance = theil_decomposition(obs + 5.0, obs)
    assert bias == pytest.approx(1.0, rel=1e-12)
    assert variance == pytest.approx(0.0, abs=1e-12)
    assert covariance == pytest.approx(0.0, abs=1e-12)


def test_decomposition_pure_variance():
    obs = np.array([2.0, 4.0, 6.0, 8.0])
    sim = obs.mean() + 2.0 * (obs - obs.mean())  # same mean, scaled spread, r=1
    bias, variance, covariance = theil_decomposition(sim, obs)
    assert bias == pytest.approx(0.0, abs=1e-12)
    assert variance == pytest.approx(1.0, rel=1e-12)
    assert covariance == pytest.approx(0.0, abs=1e-12)


def test_decomposition_zero_error_case():
    assert theil_decomposition([1.0, 2.0], [1.0, 2.0]) == (0.0, 0.0, 0.0)


def test_decomposition_shares_sum_to_one_on_random_pairs():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        sim = rng.normal(size=rng.integers(2, 30))
        obs = rng.normal(size=sim.size)
        shares = theil_decomposition(sim, obs)
        assert sum(shares) == pytest.approx(1.0, rel=1e-9)
        assert all(s >= -1e-12 for s in shares)


# ---------------------------------------------------------------- numpy's bits without numpy

def _numpy_theil(sim, obs):
    """Theil's U and its shares by numpy's ``mean`` and ``std``, the formulas
    the module computed before it left numpy out."""
    sim, obs = np.asarray(sim, dtype=float), np.asarray(obs, dtype=float)
    mse = float(np.mean((sim - obs) ** 2))
    denom = math.sqrt(float(np.mean(sim**2))) + math.sqrt(float(np.mean(obs**2)))
    u = 0.0 if denom == 0.0 else math.sqrt(mse) / denom
    if mse == 0.0:
        return u, (0.0, 0.0, 0.0)
    mean_s, mean_o = float(np.mean(sim)), float(np.mean(obs))
    sd_s, sd_o = float(np.std(sim)), float(np.std(obs))
    if sd_s > 0.0 and sd_o > 0.0:
        r = float(np.mean((sim - mean_s) * (obs - mean_o))) / (sd_s * sd_o)
    else:
        r = 0.0
    return u, ((mean_s - mean_o) ** 2 / mse, (sd_s - sd_o) ** 2 / mse,
               2.0 * (1.0 - r) * sd_s * sd_o / mse)


def _bits(values):
    return [struct.pack("<d", v) for v in values]


# lengths on both sides of numpy's blocks of 8; a pair may share points, so
# that equal series, constant ones and zero errors turn up
_FINITE = st.floats(-1e100, 1e100)
_PAIRS = st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.lists(_FINITE, min_size=n, max_size=n),
    st.lists(st.one_of(_FINITE, st.sampled_from([0.0, 1.0])), min_size=n, max_size=n)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_PAIRS, st.booleans())
def test_theil_statistics_have_the_bits_of_numpy(pair, same):
    sim, obs = pair
    if same:
        obs = list(sim)
    u, shares = _numpy_theil(sim, obs)
    assert _bits([_theil(sim, obs)[0]]) == _bits([u])
    assert _bits(theil_decomposition(sim, obs)) == _bits(shares)


@pytest.mark.parametrize("sim, obs, reason", [
    ([[1.0, 2.0]], [[1.0, 2.0]], "one-dimensional"),
    (np.ones((3, 1)), np.ones((3, 1)), "one-dimensional"),
    (1.0, 1.0, "one-dimensional"),
    ([1.0, 2.0], [1.0], "lengths differ: 2 vs 1"),
    ([], [], "at least one point"),
    ([1.0, math.nan], [1.0, 2.0], "finite inputs"),
    ([1.0, 2.0], [math.inf, 2.0], "finite inputs"),
])
def test_theil_statistics_refuse_what_they_cannot_score(sim, obs, reason):
    for statistic in (_theil, theil_decomposition):
        with pytest.raises(ValueError, match=reason):
            statistic(sim, obs)


# ---------------------------------------------------------------- reference I/O

def test_load_reference_mode_good_file(tmp_path):
    path = tmp_path / "homeless.csv"
    path.write_text(GOOD_CSV)
    mode = load_reference_mode(path)
    assert mode.name == "homeless"
    assert mode.scenario == "run1"
    assert mode.series == "households_homeless"
    assert mode.times == (24.0, 36.0, 48.0)
    assert mode.values == (580000.0, 590000.0, 600000.0)


def test_load_reference_mode_rejects_varying_constants(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(GOOD_CSV.replace("run1,households_homeless,households,test fixture\n"
                                     "2022", "run2,households_homeless,households,test fixture\n2022", 1))
    with pytest.raises(ReferenceError) as err:
        load_reference_mode(path)
    assert "constant" in str(err.value)


def test_load_reference_mode_rejects_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("calendar_month,value\n2020-01,5\n")
    with pytest.raises(ReferenceError):
        load_reference_mode(path)


def test_load_reference_mode_rejects_bad_value(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(GOOD_CSV.replace("590000", "many"))
    with pytest.raises(ReferenceError):
        load_reference_mode(path)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_report_skips_a_non_finite_value(tmp_path, value):
    (tmp_path / "bad.csv").write_text(GOOD_CSV.replace("590000", value))
    [result] = reference_report(tmp_path)
    assert result.status == "skipped"
    assert "is not a finite number" in result.detail


@pytest.mark.parametrize("text, reason", [
    (GOOD_CSV.replace("2022-01", "2021-01"), "calendar month 2021-01 listed more than once"),
    (GOOD_CSV.replace("2021-01", "2020-1"), "calendar month 2020-01 listed more than once"),
    ("\n".join(GOOD_CSV.splitlines()[:2]) + "\n", "needs at least 2 data rows, has 1"),
    (GOOD_CSV + "2023-01,610000\n", "a row has more or fewer fields than the header"),
    (GOOD_CSV.replace("fixture\n", "fixture,extra\n", 1),
     "a row has more or fewer fields than the header"),
], ids=["repeated-month", "repeated-month-spelled-two-ways", "one-row", "short-row",
        "long-row"])
def test_report_skips_a_mode_that_scores_nothing(tmp_path, text, reason):
    (tmp_path / "bad.csv").write_text(text)
    [result] = reference_report(tmp_path)
    assert result.status == "skipped"
    assert result.detail == f"bad.csv: {reason}"


def test_score_perfect_match_gives_zero_u(tmp_path):
    result = run_scenario(default_params(), BUILTIN_SCENARIOS["run1"])
    t_values = [0.0, 12.0, 24.0]
    labels = ["2018-01", "2019-01", "2020-01"]
    sim = [result.trajectory.at("households_homeless", t) for t in t_values]
    rows = "\n".join(
        f"{lab},{val},run1,households_homeless,households,fixture"
        for lab, val in zip(labels, sim)
    )
    path = tmp_path / "exact.csv"
    path.write_text("calendar_month,value,scenario,series,units,source\n" + rows + "\n")
    mode = load_reference_mode(path)
    scored = score_reference_mode(mode, result.trajectory)
    assert scored.status == "scored"
    assert scored.u == pytest.approx(0.0, abs=1e-12)


def test_score_rejects_unknown_series(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(GOOD_CSV.replace("households_homeless", "no_such_series"))
    mode = load_reference_mode(path)
    result = run_scenario(default_params(), BUILTIN_SCENARIOS["run1"])
    with pytest.raises(ReferenceError):
        score_reference_mode(mode, result.trajectory)


def test_score_rejects_out_of_horizon_month(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(GOOD_CSV.replace("2022-01", "2031-01"))
    mode = load_reference_mode(path)
    result = run_scenario(default_params(), BUILTIN_SCENARIOS["run1"])
    with pytest.raises(ReferenceError):
        score_reference_mode(mode, result.trajectory)


# ---------------------------------------------------------------- report

def test_report_missing_directory_is_skipped_not_fatal(tmp_path):
    results = reference_report(tmp_path / "nowhere")
    assert len(results) == 1
    assert results[0].status == "skipped"
    assert "not found" in results[0].detail


def test_report_empty_directory_is_skipped(tmp_path):
    results = reference_report(tmp_path)
    assert results[0].status == "skipped"
    assert "no reference CSV" in results[0].detail


def test_report_mixes_scored_and_skipped(tmp_path):
    (tmp_path / "good.csv").write_text(GOOD_CSV)
    (tmp_path / "malformed.csv").write_text("calendar_month,value\n2020-01,1\n")
    (tmp_path / "unknown.csv").write_text(
        GOOD_CSV.replace("run1", "run99"))
    results = {r.mode: r for r in reference_report(tmp_path)}
    assert results["good"].status == "scored"
    assert results["malformed"].status == "skipped"
    assert results["unknown"].status == "skipped"
    assert "run99" in results["unknown"].detail


def test_shipped_reference_modes_all_score():
    results = reference_report("reference_modes")
    assert len(results) == 2
    assert all(r.status == "scored" for r in results)
    by_name = {r.mode: r for r in results}
    # the baseline homeless series is a close fit; the arrears series has a
    # deliberate, documented level offset (bias-dominated but U still modest)
    assert by_name["homeless_population"].u < 0.05
    assert by_name["rent_arrears"].u < 0.35
    for r in results:
        assert r.bias_share + r.variance_share + r.covariance_share == pytest.approx(1.0)


# ---------------------------------------------------------------- sweep

@pytest.fixture(scope="module")
def sweep():
    return sensitivity_sweep(default_params(), BUILTIN_SCENARIOS["run2"], fraction=0.15)


def test_sweep_covers_every_parameter_both_directions(sweep):
    base, entries = sweep
    assert len(entries) == 2 * len(FIELDS)
    seen = {(e.parameter, e.direction) for e in entries}
    for f in FIELDS:
        assert (f.path, "up") in seen
        assert (f.path, "down") in seen


def test_sweep_metrics_finite_and_elasticities_defined(sweep):
    base, entries = sweep
    assert all(math.isfinite(v) for v in base.values())
    for e in entries:
        for name, value in e.metrics.items():
            assert math.isfinite(value), (e.parameter, name)
        for name, value in e.elasticities.items():
            assert math.isfinite(value), (e.parameter, name)


def test_sweep_respects_validity_bounds(sweep):
    _, entries = sweep
    clamped = [e for e in entries if e.clamped]
    assert clamped, "expected at least one bounded parameter to clamp"
    for e in clamped:
        assert e.applied_value != pytest.approx(e.requested_value)
    by_key = {(e.parameter, e.direction): e for e in entries}
    capped = by_key[("moratorium.processing_reduction", "up")]
    assert capped.clamped
    assert capped.applied_value == 1.0


def test_sweep_finds_the_known_dominant_levers(sweep):
    _, entries = sweep
    strongest = {}
    for e in entries:
        el = abs(e.elasticities["evictions_total"])
        strongest[e.parameter] = max(strongest.get(e.parameter, 0.0), el)
    ranked = sorted(strongest, key=strongest.get, reverse=True)
    assert "units_occupied_initial" in ranked[:5]
    assert "processing_time" in ranked[:5]


@pytest.mark.parametrize("fraction, name", [(0.15, "run2"), (0.1234, "run2"), (0.15, "run4a")],
                         ids=["0.15", "0.1234", "run4a-0.15"])
def test_sweep_batch_equals_a_loop_of_single_runs(fraction, name):
    """run4a overrides assistance.rate_multiplier, so the sweep skips moving it."""
    params = default_params()
    scenario = BUILTIN_SCENARIOS[name]
    base, entries = sensitivity_sweep(params, scenario, fraction=fraction)
    assert base == {m: getattr(run_scenario(params, scenario).metrics, m) for m in base}
    moved = [e for e in entries if e.applied_value != e.baseline_value]
    assert len(moved) == 130
    for e in moved:
        single = run_scenario(with_value(params, e.parameter, e.applied_value), scenario).metrics
        assert e.metrics == {m: getattr(single, m) for m in base}, e.parameter


def test_sweep_integrates_the_baseline_and_one_batch(monkeypatch):
    runs, batches, derivs = [], [], []
    run_scenario_ = validation.run_scenario
    run_model_ = validation.run_model
    build_derivative = model.build_derivative

    def counted_run(*args, **kwargs):
        runs.append(run_scenario_(*args, **kwargs))
        return runs[-1]

    def counted_batch(*args, **kwargs):
        batches.append(run_model_(*args, **kwargs))
        return batches[-1]

    def counted_build(*args, **kwargs):
        deriv = build_derivative(*args, **kwargs)

        def counted(state, t):
            derivs.append(t)
            return deriv(state, t)
        return counted

    monkeypatch.setattr(validation, "run_scenario", counted_run)
    monkeypatch.setattr(validation, "run_model", counted_batch)
    monkeypatch.setattr(model, "build_derivative", counted_build)
    sensitivity_sweep(default_params(), BUILTIN_SCENARIOS["run2"], fraction=0.15)
    assert runs == []
    # the baseline, then 130 moved perturbations less the 20 of the
    # moratorium and assistance blocks that run2 switches off
    assert [len(b) for b in batches] == [1 + 110]
    assert len(derivs) == 201


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_disabled_block_perturbations_repeat_the_baseline(name):
    """The premise of the sweep's shortcut: a parameter of a policy block the
    scenario switches off moves nothing, so its run equals the baseline."""
    params = default_params()
    scenario = BUILTIN_SCENARIOS[name]
    baseline = run_scenario(params, scenario)
    base, entries = sensitivity_sweep(params, scenario, fraction=0.15)
    off = [block for block in ("covid", "moratorium", "assistance")
           if not getattr(baseline.params, block).enabled]
    skipped = [e for e in entries if e.applied_value != e.baseline_value
               and e.parameter.split(".")[0] in off]
    expected = {"run1": 26, "run2": 20, "run3": 8, "run4": 0, "run4a": 0}[name]
    assert len(skipped) == expected
    for e in skipped:
        alone = run_scenario(with_value(params, e.parameter, e.applied_value), scenario)
        assert alone.metrics == baseline.metrics, (e.parameter, e.direction)
        assert e.metrics == base
        # the moved-entry formula: a downward step gives -0.0, not 0.0
        sign = -1.0 if e.direction == "down" else 1.0
        assert all(v == 0.0 and math.copysign(1.0, v) == sign
                   for v in e.elasticities.values()), (e.parameter, e.direction)


def test_sweep_fully_clamped_step_has_zero_elasticity():
    params = with_value(default_params(), "moratorium.processing_reduction", 1.0)
    _, entries = sensitivity_sweep(params, BUILTIN_SCENARIOS["run2"], fraction=0.15)
    entry = next(e for e in entries
                 if e.parameter == "moratorium.processing_reduction"
                 and e.direction == "up")
    assert entry.clamped
    assert entry.applied_value == entry.baseline_value
    assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in entry.elasticities.values())


def test_sweep_of_a_zero_baseline_value_repeats_the_baseline():
    """A parameter at 0.0 has no relative step: both its entries request and
    apply 0.0, repeat the baseline metrics, and report elasticities of +0.0."""
    params = with_value(default_params(), "fr_direct_homeless", 0.0)
    base, entries = sensitivity_sweep(params, BUILTIN_SCENARIOS["run2"], fraction=0.15)
    zero = [e for e in entries if e.parameter == "fr_direct_homeless"]
    assert [e.direction for e in zero] == ["down", "up"]
    for e in zero:
        assert e.baseline_value == e.requested_value == e.applied_value == 0.0
        assert not e.clamped
        assert e.metrics == base
        assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in e.elasticities.values())


# ---------------------------------------------------------------- extremes

def test_extreme_conditions_all_pass():
    checks = extreme_conditions(default_params())
    assert len(checks) == 6
    for check in checks:
        assert check.passed, f"{check.name}: {check.detail}"


def test_extreme_condition_names_are_stable():
    names = [c.name for c in extreme_conditions(default_params())]
    assert names == [
        "zero_shock_matches_baseline",
        "total_income_loss_bounded",
        "no_rental_stock_stays_empty",
        "hair_trigger_landlords_bounded",
        "airtight_moratorium_blocks_processing",
        "empty_household_pools_rebuild",
    ]


_BATTERY = ["zero_shock_matches_baseline", "total_income_loss_bounded",
            "no_rental_stock_stays_empty", "hair_trigger_landlords_bounded",
            "airtight_moratorium_blocks_processing", "empty_household_pools_rebuild"]


def test_a_clamped_stock_fails_every_battery_check(monkeypatch):
    """simulate clamps every stock at zero, so a stock the outflow limiters
    let go negative shows only as a clamp event: each check reads those."""
    def clamping(params, scenario, clock):
        result = run_scenario(params, scenario, clock=clock)
        result.trajectory.clamp_events.append(ClampEvent(30.0, "units_occupied", -2.0))
        return result

    monkeypatch.setattr(validation, "run_scenario", clamping)
    checks = extreme_conditions(default_params())
    assert [c.name for c in checks] == _BATTERY
    for check in checks:
        assert not check.passed
        assert check.detail.endswith("clamp event(s), first units_occupied at t=30 (-2.000e+00)")


def test_a_run_that_blows_up_fails_its_check_only(monkeypatch):
    """A non-finite run is that experiment's FAIL line, not an abort of the report."""
    def blowing_up(params, scenario, clock):
        if params.landlord_tolerance == 1.0:
            raise SimulationError("non-finite value for 'rent_owed' at t=30: nan")
        return run_scenario(params, scenario, clock=clock)

    monkeypatch.setattr(validation, "run_scenario", blowing_up)
    checks = extreme_conditions(default_params())
    assert [c.name for c in checks] == _BATTERY
    assert [c.name for c in checks if not c.passed] == ["hair_trigger_landlords_bounded"]
    assert checks[3].detail == "non-finite value for 'rent_owed' at t=30: nan"


@settings(max_examples=30, deadline=None)
@given(start=st.floats(0.0, 100.0), duration=st.floats(1e-12, 100.0))
def test_battery_judges_a_moratorium_window_anywhere_in_its_bounds(start, duration):
    """A window that starts or ends past the horizon leaves no sample inside
    it, or none to resume in: the airtight check judges the samples the run
    holds, and the battery still reports its six checks."""
    params = with_values(default_params(),
                         {"moratorium.start_time": start, "moratorium.duration": duration})
    assert [c.name for c in extreme_conditions(params)] == _BATTERY


@settings(max_examples=30, deadline=None)
@given(start=st.floats(0.0, 100.0))
def test_battery_judges_a_shock_anywhere_in_its_bounds(start):
    """A shock that starts less than a month before the horizon, or past
    it, leaves no sample a month into it: the total income loss check then
    judges nothing and names the horizon, and passes wherever the shock
    starts."""
    check = extreme_conditions(with_value(default_params(), "covid.start_time", start))[1]
    assert check.name == "total_income_loss_bounded"
    assert check.passed, check.detail
