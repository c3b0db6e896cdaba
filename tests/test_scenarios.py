"""Scenario application, runners, metrics, comparisons, and the shipped YAML."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rentdyn import model
from rentdyn.engine import SimClock
from rentdyn.model import run_model
from rentdyn.params import FIELDS, POLICY_BLOCKS, default_params, get_value, with_value
from rentdyn.scenarios import (
    BUILTIN_SCENARIOS,
    METRIC_SERIES,
    Scenario,
    compare,
    compute_metrics,
    emit_timeseries,
    load_scenarios,
    run_many,
    run_scenario,
)


@pytest.fixture(scope="module")
def suite():
    """One run of every built-in scenario, shared across this module."""
    return run_many(default_params(), BUILTIN_SCENARIOS)


# ---------------------------------------------------------------- definitions

def test_builtin_ladder_switches():
    assert set(BUILTIN_SCENARIOS) == {"run1", "run2", "run3", "run4", "run4a"}
    assert not BUILTIN_SCENARIOS["run1"].covid
    assert BUILTIN_SCENARIOS["run2"].covid and not BUILTIN_SCENARIOS["run2"].moratorium
    assert BUILTIN_SCENARIOS["run3"].moratorium and not BUILTIN_SCENARIOS["run3"].assistance
    assert BUILTIN_SCENARIOS["run4"].assistance
    assert BUILTIN_SCENARIOS["run4a"].overrides == {"assistance.rate_multiplier": 3.0}


def test_builtins_are_read_only():
    with pytest.raises(TypeError):
        BUILTIN_SCENARIOS["run9"] = BUILTIN_SCENARIOS["run1"]


def test_apply_sets_switches_and_leaves_base_untouched():
    base = default_params()
    applied = BUILTIN_SCENARIOS["run4a"].apply(base)
    assert applied.covid.enabled and applied.moratorium.enabled
    assert applied.assistance.enabled
    assert applied.assistance.rate_multiplier == 3.0
    assert not base.covid.enabled
    assert base == default_params()


def test_apply_overrides_by_dotted_path():
    s = Scenario("custom", covid=True, overrides={"covid.magnitude": 0.42})
    applied = s.apply(default_params())
    assert applied.covid.magnitude == 0.42


def test_apply_sets_a_pair_across_a_curve_invariant():
    """Sorted, y_max 0.9 comes first and is below the shipped y_min 1.0:
    the overrides apply together, never one at a time."""
    s = Scenario("uncrowded", overrides={"crowding_curve.y_max": 0.9,
                                         "crowding_curve.y_min": 0.5})
    applied = s.apply(default_params())
    assert (applied.crowding_curve.y_max, applied.crowding_curve.y_min) == (0.9, 0.5)


def test_apply_rejects_invalid_override():
    s = Scenario("bad", overrides={"eviction_proportion": 5.0})
    with pytest.raises(ValueError):
        s.apply(default_params())


# ---------------------------------------------------------------- running

def test_run_is_deterministic():
    a = run_scenario(default_params(), BUILTIN_SCENARIOS["run2"])
    b = run_scenario(default_params(), BUILTIN_SCENARIOS["run2"])
    assert a.metrics == b.metrics
    for name in a.trajectory.data:
        assert np.array_equal(a.trajectory[name], b.trajectory[name]), name


def test_batch_of_the_five_scenarios_equals_their_single_runs(suite):
    """One numpy batch of mixed policy settings, bit for bit the scalar runs."""
    batch = run_model([result.params for result in suite.values()], record=METRIC_SERIES)
    for name, traj in zip(suite, batch):
        single = suite[name]
        assert list(traj.data) == list(METRIC_SERIES)
        for series in METRIC_SERIES:
            assert np.array_equal(traj[series], single.trajectory[series]), (name, series)
        assert compute_metrics(traj) == single.metrics, name
        assert traj.clamp_events == single.trajectory.clamp_events == []


def test_run_many_returns_name_ordered_results(suite):
    assert list(suite) == sorted(BUILTIN_SCENARIOS)
    for name, result in suite.items():
        assert result.scenario.name == name
        assert result.elapsed_seconds > 0.0


def test_the_ladder_restarts_each_run_where_it_departs(monkeypatch):
    """run2 departs from run1 at the shock, run3 from run2 at the filing
    drop, run4 at the start (its switch opens the fund), and run4a from run4
    at the first payment: 649 samples integrated where five full runs
    integrate 1,005. compare's default pair integrates 201 + 94, not 402. A
    ladder of start dates restarts each moved run too, and every series is
    the full run's."""
    samples = []
    simulate = model.simulate

    def counting(*args, run, **kwargs):
        def counted(state, grid, first, last, clamp):
            samples.append(last - first + 1)
            return run(state, grid, first, last, clamp)
        return simulate(*args, run=counted, **kwargs)

    monkeypatch.setattr(model, "simulate", counting)
    results = run_many(default_params(), BUILTIN_SCENARIOS)
    assert sum(samples) == 649
    traj = {name: result.trajectory for name, result in results.items()}
    assert {name: t.restart for name, t in traj.items()} == {
        "run1": None, "run2": (107, traj["run1"]), "run3": (105, traj["run2"]),
        "run4": None, "run4a": (144, traj["run4"])}
    samples.clear()
    run_many(default_params(), {name: BUILTIN_SCENARIOS[name] for name in ("run1", "run2")})
    assert sum(samples) == 295
    # a start date moved later parts at the earlier onset, and one moved
    # earlier at its own: run3_late from run3 at the filing drop (105),
    # run4_early from run4 at its first payment, month 30 (120)
    ladder = {name: BUILTIN_SCENARIOS[name] for name in ("run3", "run4")}
    ladder["run3_late"] = dataclasses.replace(
        ladder["run3"], name="run3_late", overrides={"moratorium.start_time": 29.0})
    ladder["run4_early"] = dataclasses.replace(
        ladder["run4"], name="run4_early", overrides={"assistance.start_time": 30.0})
    samples.clear()
    results = run_many(default_params(), ladder)
    assert sum(samples) == 201 + 96 + 201 + 81
    traj = {name: result.trajectory for name, result in results.items()}
    assert {name: t.restart for name, t in traj.items()} == {
        "run3": None, "run3_late": (105, traj["run3"]),
        "run4": None, "run4_early": (120, traj["run4"])}
    for name, result in results.items():
        full = run_model(result.params)
        for series in full.data:
            assert traj[name][series].tobytes() == full[series].tobytes(), (name, series)


_OVERRIDE_FIELDS = [f for f in FIELDS if f.path.partition(".")[0] in POLICY_BLOCKS
                    or f.path in ("avg_monthly_rent", "eviction_proportion",
                                  "stress_curve.y_max")]


@st.composite
def _value(draw, f):
    """A value within ``f``'s bounds: its lower bound (-0.0 too when that is
    0), its default, or one between them and a few times the default."""
    default = get_value(default_params(), f.path)
    top = min(f.hi, 4.0 * max(abs(default), 1.0))
    low = [f.lo, -0.0] if f.lo == 0.0 else [f.lo]
    return draw(st.one_of(st.sampled_from([*low, default]), st.floats(f.lo, top)))


@st.composite
def _scenario_sets(draw):
    """2-5 scenarios off the defaults, with random switches and 0-2
    overrides: each sets each of two registry fields, read from the start
    or in a policy block, to one of two values or leaves it. So scenarios
    share overrides or differ in one, by as little as 0.0 and -0.0."""
    fields = draw(st.lists(st.sampled_from(_OVERRIDE_FIELDS), min_size=2, max_size=2,
                           unique_by=lambda f: f.path))
    choices = [[None, *draw(st.lists(_value(f), min_size=2, max_size=2))] for f in fields]
    out = {}
    for i in range(draw(st.integers(2, 5))):
        switches = draw(st.lists(st.booleans(), min_size=3, max_size=3))
        picked = [draw(st.sampled_from(values)) for values in choices]
        overrides = {f.path: v for f, v in zip(fields, picked) if v is not None}
        out[f"s{i}"] = Scenario(f"s{i}", "", *switches, overrides=overrides)
    return out


def _outcomes(scenarios, clock):
    """Each scenario's separate run, in name order, up to the first that fails."""
    try:
        return {name: run_scenario(default_params(), scenarios[name], clock)
                for name in sorted(scenarios)}
    except Exception as error:
        return type(error), str(error)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios=_scenario_sets(), dt=st.sampled_from([0.125, 0.25, 0.5]))
# 0.0 == -0.0, but the two runs' rows differ in sign
@example(scenarios={name: Scenario(name, overrides={"avg_monthly_rent": value})
                    for name, value in (("zero", 0.0), ("negative_zero", -0.0))}, dt=0.25)
def test_run_many_is_each_scenario_run_alone(scenarios, dt):
    """Restarted from the runs they depart from, run_many's runs are the
    full runs bit for bit: series, clamp events and metrics; or run_many
    raises the error of the first scenario whose run fails alone."""
    clock = SimClock(dt=dt)
    alone = _outcomes(scenarios, clock)
    try:
        together = run_many(default_params(), scenarios, clock)
    except Exception as error:
        assert (type(error), str(error)) == alone
        return
    assert list(together) == list(alone)
    for name, result in together.items():
        single = alone[name]
        assert list(result.trajectory.data) == list(single.trajectory.data)
        for series in single.trajectory.data:
            assert (result.trajectory[series].tobytes()
                    == single.trajectory[series].tobytes()), (name, series)
        assert result.trajectory.clamp_events == single.trajectory.clamp_events
        assert repr(result.metrics) == repr(single.metrics), name
        assert result.params == single.params


def test_policy_ladder_orders_evictions(suite):
    ev = {n: r.metrics.evictions_total for n, r in suite.items()}
    assert ev["run2"] > ev["run1"]
    assert ev["run3"] < ev["run2"]
    assert ev["run4"] <= ev["run3"]
    assert ev["run4a"] <= ev["run4"]


def test_policy_ladder_orders_homelessness(suite):
    hm = {n: r.metrics.homeless_end for n, r in suite.items()}
    assert hm["run2"] > hm["run1"]
    assert hm["run1"] < hm["run3"] <= hm["run2"]
    assert hm["run4"] <= hm["run3"]


def test_moratorium_defers_debt_assistance_pays_it(suite):
    arr = {n: r.metrics.arrears_end for n, r in suite.items()}
    assert arr["run3"] >= arr["run2"]  # blocked evictions keep debtors in place
    assert arr["run4"] < arr["run3"]  # paying arrears directly shrinks the stock
    assert arr["run4a"] < arr["run3"]


def test_assistance_accounting(suite):
    m1 = suite["run1"].metrics
    m4 = suite["run4"].metrics
    m4a = suite["run4a"].metrics
    assert m1.assistance_disbursed_end == 0.0
    assert m1.assistance_exhausted_at is None
    assert 0.0 < m4.assistance_disbursed_fraction < 1.0
    assert m4.assistance_exhausted_at is None
    assert m4a.assistance_disbursed_fraction == pytest.approx(1.0, abs=1e-9)
    assert m4a.assistance_exhausted_at is not None
    assert m4a.assistance_exhausted_at < 50.0


def test_crowding_metrics_move_with_the_shock(suite):
    assert suite["run2"].metrics.crowding_mean > suite["run1"].metrics.crowding_mean
    for r in suite.values():
        assert r.metrics.crowding_end > 0.0


class _BindTape(model._Tape):
    """A trace that records, for each outflow limiter, whether it binds."""

    def __init__(self):
        super().__init__()
        self.binds = []

    def limit(self, dt, stock, *flows):
        limited = super().limit(dt, stock, *flows)
        _, total, cap = limited[0]._args  # each limited flow is written on these
        self.binds.append(self.where(total > cap, 1.0, 0.0))
        return limited


def _limiter_binds(monkeypatch, dt):
    """Samples at which an outflow limiter binds (its stock's outflows total
    above stock / dt) in each shipped run at ``dt``, and the number of
    limiters: the kernel is traced with :class:`_BindTape`, and returns
    each limiter's binds as an auxiliary at every sample."""
    definition = model._definition

    def with_binds(p, step):
        deriv = definition(p, step)

        def traced(state, t):
            rates, aux = deriv(state, t)
            return rates, {**aux, **{f"binds{i}": b for i, b in enumerate(p._tape.binds)}}
        return traced

    clock = SimClock(dt=dt)
    with monkeypatch.context() as patch:
        patch.setattr(model, "_Tape", _BindTape)
        patch.setattr(model, "_definition", with_binds)
        model.scalar_kernel.cache_clear()
        try:
            limiters = [n for n in model.scalar_kernel().auxiliaries if n.startswith("binds")]
            binds = {}
            for name, scenario in BUILTIN_SCENARIOS.items():
                traj = run_model(scenario.apply(default_params()), clock)
                binds[name] = sum(sum(traj.data[limiter]) for limiter in limiters)
        finally:
            model.scalar_kernel.cache_clear()  # the shipped definition's, traced again
    return binds, len(limiters)


def test_outflow_limiter_never_binds_in_the_shipped_scenarios(monkeypatch):
    """At the default step no stock's outflows exceed stock / dt at any
    sample, so the limiter shapes none of the shipped results."""
    binds, limiters = _limiter_binds(monkeypatch, 0.25)
    assert limiters > 0
    assert binds == dict.fromkeys(BUILTIN_SCENARIOS, 0.0)
    # the check has teeth: at dt=1 a limiter binds in every run
    assert all(_limiter_binds(monkeypatch, 1.0)[0].values())


# ---------------------------------------------------------------- time series

def test_emit_timeseries_shape_and_calendar(suite):
    header, rows = emit_timeseries(suite["run1"])
    assert header[:2] == ["t_months", "calendar"]
    assert len(rows) == len(SimClock().grid)
    assert rows[0][0] == 0.0 and rows[0][1] == "2018-01"
    two_years_in = next(r for r in rows if r[0] == 24.0)
    assert two_years_in[1] == "2020-01"
    assert rows[-1][1] == "2022-03"
    # the element-by-element table the array pass must reproduce, as Python
    # floats (the CSV writer formats them with repr)
    traj = suite["run1"].trajectory
    assert rows == [[float(t), traj.clock.calendar_label(float(t)),
                     *(float(traj[c][k]) for c in header[2:])]
                    for k, t in enumerate(traj.times)]
    assert all(type(v) is float for row in rows for v in [row[0], *row[2:]])


def test_emit_timeseries_column_selection(suite):
    header, rows = emit_timeseries(suite["run1"], columns=["rent_owed"])
    assert header == ["t_months", "calendar", "rent_owed"]
    assert all(len(r) == 3 for r in rows)


def test_emit_timeseries_rejects_bad_selections(suite):
    with pytest.raises(KeyError):
        emit_timeseries(suite["run1"], columns=["no_such_series"])
    with pytest.raises(ValueError):
        emit_timeseries(suite["run1"], columns=[])
    with pytest.raises(ValueError, match="named more than once: rent_owed"):
        emit_timeseries(suite["run1"], columns=["rent_owed", "households_homeless", "rent_owed"])


# ---------------------------------------------------------------- compare

def test_compare_table(suite):
    table = compare(suite["run1"], suite["run2"])
    assert table["baseline"] == "run1"
    assert table["variant"] == "run2"
    row = table["metrics"]["evictions_total"]
    assert row["abs_change"] == pytest.approx(row["variant"] - row["baseline"])
    assert row["pct_change"] == pytest.approx(
        100.0 * row["abs_change"] / row["baseline"])


def test_compare_zero_baseline_gives_null_percent(suite):
    table = compare(suite["run1"], suite["run4"])
    row = table["metrics"]["assistance_disbursed_end"]
    assert row["baseline"] == 0.0
    assert row["pct_change"] is None
    assert row["abs_change"] > 0.0


# ---------------------------------------------------------------- YAML files

def test_shipped_scenario_file_matches_builtins():
    loaded = load_scenarios("scenarios/runs.yaml")
    assert set(loaded) == set(BUILTIN_SCENARIOS)
    for name, scenario in loaded.items():
        built = BUILTIN_SCENARIOS[name]
        assert scenario.covid == built.covid, name
        assert scenario.moratorium == built.moratorium, name
        assert scenario.assistance == built.assistance, name
        assert scenario.overrides == built.overrides, name


def test_load_scenarios_rejects_unknown_fields(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("custom:\n  covid: true\n  moratorum: true\n"
                   "  assistance_rate_multiplier: 3.0\n")
    with pytest.raises(ValueError) as err:
        load_scenarios(bad)
    assert "assistance_rate_multiplier, moratorum" in str(err.value)


@pytest.mark.parametrize("value", ['"false"', "[0]", "1", ""],
                         ids=["quoted", "list", "integer", "null"])
def test_load_scenarios_rejects_non_boolean_switch(tmp_path, value):
    bad = tmp_path / "bad.yaml"
    bad.write_text(f"custom:\n  covid: true\n  moratorium: {value}\n")
    with pytest.raises(ValueError, match="scenario 'custom' field 'moratorium'"):
        load_scenarios(bad)


def test_load_scenarios_reads_an_empty_description_as_empty_text(tmp_path):
    path = tmp_path / "custom.yaml"
    path.write_text("quiet:\n  description:\n  covid: true\nbare:\n  covid: true\n")
    scenarios = load_scenarios(path)
    assert scenarios["quiet"].description == scenarios["bare"].description == ""


@pytest.mark.parametrize("value", ["[a, b]", "3", "true", "{a: b}"],
                         ids=["list", "number", "boolean", "mapping"])
def test_load_scenarios_rejects_a_description_that_is_not_text(tmp_path, value):
    bad = tmp_path / "bad.yaml"
    bad.write_text(f"custom:\n  description: {value}\n  covid: true\n")
    with pytest.raises(ValueError, match="scenario 'custom' description is not text"):
        load_scenarios(bad)


def test_load_scenarios_rejects_non_mapping(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("- run1\n- run2\n")
    with pytest.raises(ValueError):
        load_scenarios(bad)


def test_loaded_scenarios_run(tmp_path):
    path = tmp_path / "custom.yaml"
    path.write_text(
        "gentler:\n"
        "  description: milder shock\n"
        "  covid: true\n"
        "  overrides:\n"
        "    covid.magnitude: 0.3\n"
    )
    scenarios = load_scenarios(path)
    result = run_scenario(default_params(), scenarios["gentler"])
    shock = run_scenario(default_params(), BUILTIN_SCENARIOS["run2"])
    # A milder income loss accumulates less debt. (Evictions are NOT
    # monotone in shock depth: a deep shock also throttles the courts.)
    assert result.metrics.arrears_end < shock.metrics.arrears_end
    assert result.metrics.homeless_end < shock.metrics.homeless_end
