"""Flow-level oracles and structural invariants of the housing model.

Expected values are frozen literals computed by hand from the closed-form
curve definitions, not by calling the code under test. The oracles read each
effect from the derivative's auxiliaries, at a state and time built to give
the effect its input.
"""

import builtins
import dataclasses
import math
import os
import re
import traceback
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from rentdyn import model
from rentdyn.calibration import CalibrationParameter, CalibrationSpec, CalibrationTarget, calibrate
from rentdyn.engine import EPS, SimClock, SimulationError, simulate
from rentdyn.model import (
    NONNEG_STOCKS,
    STOCKS,
    UNCAPPED_DT,
    build_derivative,
    departure,
    drain_cap_bound,
    initial_state,
    policy_onset,
    read_from,
    run_model,
)
from rentdyn.params import FIELDS, POLICY_BLOCKS, clamp_to_bounds, default_params, \
    get_value, with_value, with_values
from rentdyn.scenarios import BUILTIN_SCENARIOS, run_many, run_scenario


def _deriv_at(params, state, t=0.0, dt=0.25):
    """Rates and auxiliaries by name, at a state in ``STOCKS`` order."""
    rates, aux = build_derivative(params, dt)(state, t)
    names = model.scalar_kernel().auxiliaries
    return dict(zip(STOCKS, rates, strict=True)), dict(zip(names, aux, strict=True))


def _aux(params, t=0.0, **stocks):
    """Auxiliaries at time ``t``, at the initial state with ``stocks`` set."""
    state = initial_state(params)
    for name, value in stocks.items():
        state[STOCKS.index(name)] = value
    return _deriv_at(params, state, t)[1]


def _shocked(params, magnitude):
    """``params`` with the shock on at ``magnitude``."""
    params = with_value(params, "covid.magnitude", magnitude)
    return dataclasses.replace(params, covid=dataclasses.replace(params.covid, enabled=True))


def _shocked_aux(params, covid_effect):
    """Auxiliaries at the shock's start, before any recovery: the net shock
    is then its magnitude."""
    shocked = _shocked(params, covid_effect)
    aux = _aux(shocked, shocked.covid.start_time)
    assert aux["covid_effect"] == covid_effect
    return aux


# ---------------------------------------------------------------- burden

def test_rent_burden_baseline_sits_on_threshold():
    p = default_params()
    assert _aux(p)["burden_ratio"] == pytest.approx(0.30)


def test_rent_burden_rises_with_income_loss():
    p = default_params()
    # 1050 / (3500 * 0.6)
    assert _shocked_aux(p, 0.4)["burden_ratio"] == pytest.approx(0.5)


def test_rent_burden_zero_income_edge():
    p = default_params()
    # an infinite burden, reported at its cap, saturates the payment delay
    aux = _shocked_aux(p, 1.0)
    assert aux["burden_ratio"] == 1e12
    assert aux["rent_delay_effect"] == p.rent_delay_curve.y_final
    zero_rent = with_value(p, "avg_monthly_rent", 0.0)
    assert _shocked_aux(zero_rent, 1.0)["burden_ratio"] == 0.0


def test_rent_delay_neutral_at_or_below_threshold():
    p = default_params()
    assert _aux(p)["rent_delay_effect"] == 1.0  # burden 0.30
    cheap = _aux(with_value(p, "avg_monthly_rent", 350.0))
    assert cheap["burden_ratio"] == pytest.approx(0.10)
    assert cheap["rent_delay_effect"] == 1.0


def test_rent_delay_oracle_at_half_income_burden():
    # Gompertz(3, 1, steepness 2) at excess ratio (0.5-0.3)/0.3:
    # 3 - 2*exp(-e^2 * 2/3) = 2.9854896083210765
    p = default_params()
    assert _shocked_aux(p, 0.4)["rent_delay_effect"] == pytest.approx(
        2.9854896083210765, rel=1e-12)


# ---------------------------------------------------------------- stress

def _stress(params, rent_owed, households_insecure):
    return _aux(params, rent_owed=rent_owed,
                households_insecure=households_insecure)["stress_effect"]


def test_stress_floor_when_arrears_light():
    p = default_params()
    # 0.1 months of rent per household: raw Gompertz is far below 1, floored
    assert _stress(p, 0.1 * 1050.0 * 14e6, 14e6) == 1.0


def test_stress_oracle_at_one_and_two_months_of_rent():
    # Gompertz(3, -8.3, steepness 0.8) at x: 3 - 11.3*exp(-e^0.8 * x)
    p = default_params()
    one_month = 14e6 * p.avg_monthly_rent
    assert _stress(p, one_month, 14e6) == pytest.approx(1.7794985520285154, rel=1e-12)
    assert _stress(p, 2 * one_month, 14e6) == pytest.approx(2.8681748863273904, rel=1e-12)


def test_stress_dilutes_with_doubling_up():
    """A fixed debt spread over more households stresses each one less."""
    p = default_params()
    debt = 2 * 14e6 * p.avg_monthly_rent
    concentrated = _stress(p, debt, 14e6)
    diluted = _stress(p, debt, 20e6)
    assert diluted < concentrated


def test_stress_empty_pool_returns_floor():
    p = default_params()
    assert _stress(p, 1e9, 0.0) == p.stress_curve.floor


# ---------------------------------------------------------------- crowding

def _market(params, households_insecure, tenanted, rent_owed=0.0):
    """Auxiliaries with ``tenanted`` units, all occupied."""
    return _aux(params, households_insecure=households_insecure, units_occupied=tenanted,
                units_pending_eviction=0.0, rent_owed=rent_owed)


def test_crowding_ratio_and_empty_market():
    p = default_params()
    assert p.crowding_reference == 1.0
    assert _market(p, 14e6, 12e6)["crowding_ratio"] == pytest.approx(14.0 / 12.0)
    assert _market(p, 14e6, 0.0)["crowding_ratio"] == 0.0


def _crowding(params, ratio):
    aux = _market(params, ratio * 1e6, 1e6)
    assert aux["crowding_ratio"] == ratio
    return aux["crowding_effect"]


def test_crowding_effect_neutral_below_reference():
    p = default_params()
    assert _crowding(p, 0.8) == 1.0
    assert _crowding(p, 1.0) == 1.0


def test_crowding_effect_oracles():
    # Logistic(2, 1, inflection 1.5, slope 5): midpoint at the inflection,
    # 2 - 1/(1 + (1.8/1.5)^5) = 1.7133290523805156 further up
    p = default_params()
    assert _crowding(p, 1.5) == pytest.approx(1.5, rel=1e-12)
    assert _crowding(p, 1.8) == pytest.approx(1.7133290523805156, rel=1e-12)


def test_overdue_pressure_kicks_in_past_tolerance():
    p = default_params()

    def overdue(arrears_per_unit):  # on one unit, its arrears are the stock
        return _market(p, 14e6, 1.0, rent_owed=arrears_per_unit)["overdue_pressure"]

    assert overdue(1000.0) == 1.0
    assert overdue(p.landlord_tolerance) == 1.0
    assert overdue(2 * p.landlord_tolerance) == pytest.approx(2.0)


# ---------------------------------------------------------------- drivers

def test_covid_effect_step_and_recovery():
    shocked = _shocked(default_params(), 0.6)
    t0 = shocked.covid.start_time

    def covid(p, t, recovery):
        return _aux(p, t, shock_recovery_level=recovery)["covid_effect"]

    assert covid(shocked, t0 - 1.0, 0.0) == 0.0
    assert covid(shocked, t0, 0.0) == pytest.approx(0.6)
    assert covid(shocked, t0 + 5.0, 0.25) == pytest.approx(0.35)
    assert covid(shocked, t0 + 5.0, 0.9) == 0.0  # floored, never negative
    assert covid(default_params(), t0 + 5.0, 0.0) == 0.0  # disabled


def _with_moratorium(params):
    return dataclasses.replace(
        params, moratorium=dataclasses.replace(params.moratorium, enabled=True))


def test_processing_factor_window():
    p = _with_moratorium(default_params())
    m = p.moratorium
    start, dur = m.start_time, m.duration

    def processing(p, t):
        return _aux(p, t)["processing_factor"]

    assert processing(p, start - 0.25) == 1.0
    assert processing(p, start) == pytest.approx(1.0 - m.processing_reduction)
    assert processing(p, start + dur - 0.25) == pytest.approx(1.0 - m.processing_reduction)
    assert processing(p, start + dur) == 1.0
    assert processing(default_params(), start) == 1.0  # disabled


def test_filing_factor_drop_and_rebound():
    p = _with_moratorium(default_params())
    m = p.moratorium

    def filing(p, t, recovery):
        return _aux(p, t, filing_recovery_level=recovery)["filing_factor"]

    assert filing(p, m.start_time - 1.0, 0.0) == 1.0
    # announcement effect arrives half a month early
    assert filing(p, m.start_time - 0.5, 0.0) == pytest.approx(1.0 - m.filing_reduction)
    # post-expiry recovery climbs back toward one
    assert filing(p, m.start_time + m.duration + 10.0, m.filing_reduction) == \
        pytest.approx(1.0)
    assert filing(p, m.start_time, 0.0) >= 0.0
    assert filing(default_params(), m.start_time, 0.0) == 1.0  # disabled


SWITCHES = [f"{block}.enabled" for block in POLICY_BLOCKS]


def test_each_parameter_is_read_from_its_block_onset():
    off = default_params()  # every policy block switched off
    on = BUILTIN_SCENARIOS["run4"].apply(off)  # every one switched on
    assert [policy_onset(off, block) for block in POLICY_BLOCKS] == [math.inf] * 3
    # the shock, the filing drop ahead of the moratorium, the first payment
    assert [policy_onset(on, block) for block in POLICY_BLOCKS] == [26.75, 26.25, 36.0]
    assert read_from(off, "avg_monthly_rent") == read_from(on, "avg_monthly_rent") == 0.0
    for f in FIELDS:
        block = f.path.partition(".")[0]
        if block in POLICY_BLOCKS:
            assert read_from(off, f.path) == math.inf, f.path
            # a start time too: it moves the onset, and runs part at the earlier
            assert read_from(on, f.path) == (0.0 if f.path == "assistance.total_funds"
                                             else policy_onset(on, block)), f.path
    # a switch is read from its block's onset, except that assistance's
    # opens the fund at the start
    assert [read_from(off, path) for path in SWITCHES] == [math.inf, math.inf, 0.0]
    assert [read_from(on, path) for path in SWITCHES] == [26.75, 26.25, 0.0]


@pytest.mark.parametrize("path", [f.path for f in FIELDS
                                  if f.path.partition(".")[0] in POLICY_BLOCKS] + SWITCHES)
def test_no_policy_parameter_moves_a_row_before_its_block_onset(path):
    """Moved in a scenario that switches its block on, a parameter of a
    policy block leaves every row before the block's onset sample bit for bit
    as it was: calibrate's restarts copy those rows from a prefix made at
    the start's values. Only assistance.total_funds moves the fund's own
    level there, which it sets. A switch turned off leaves every row before
    the time it is read from: run_many's restarts copy those rows from a
    run that has the block on."""
    params = BUILTIN_SCENARIOS["run4"].apply(default_params())
    block = path.partition(".")[0]
    times = SimClock().grid
    base = run_model(params)
    values = [False] if path in SWITCHES else \
        [clamp_to_bounds(path, get_value(params, path) * factor) for factor in (0.9, 1.1)]
    for value in values:
        moved = with_value(params, path, value)
        # a start time moves the onset itself: rows before the earlier one;
        # a switch parts the runs where it is read
        onset = min(read_from(params, path), read_from(moved, path)) if path in SWITCHES \
            else min(policy_onset(params, block), policy_onset(moved, block))
        k = int(np.searchsorted(times, onset))
        assert 90 < k < len(times) or path == "assistance.enabled" and k == 0
        other = run_model(moved)
        for name in base.data:
            if path == "assistance.total_funds" and name == "assistance_funds":
                assert np.all(other[name][:k] == value)
            else:
                assert other[name][:k].tobytes() == base[name][:k].tobytes(), (name, value)
        assert any(other[name].tobytes() != base[name].tobytes()
                   for name in base.data), value


# ---------------------------------------------------------------- departures

def test_the_ladder_departs_where_its_switches_are_read():
    """The shock parts run2 from run1, the filing drop parts run3 from
    both, the first payment parts run4a from run4, and the assistance
    switch, which opens the fund, parts run4 and run4a from the rest at the
    start."""
    applied = {name: s.apply(default_params()) for name, s in BUILTIN_SCENARIOS.items()}
    table = {(a, b): departure(applied[a], applied[b])
             for a in sorted(applied) for b in sorted(applied) if a < b}
    assert table == {
        ("run1", "run2"): 26.75, ("run1", "run3"): 26.25, ("run2", "run3"): 26.25,
        ("run4", "run4a"): 36.0,
        **{(a, b): 0.0 for a in ("run1", "run2", "run3") for b in ("run4", "run4a")}}


def test_departure_tells_negative_zero_from_zero():
    """-0.0 == 0.0, but the two print differently in a row: runs of the two
    part where the model reads the value, here the shock's onset."""
    run2 = BUILTIN_SCENARIOS["run2"].apply(default_params())
    assert departure(with_value(run2, "covid.magnitude", 0.0),
                     with_value(run2, "covid.magnitude", -0.0)) == 26.75


@pytest.mark.parametrize("name, path, value, parts", [
    ("run4", "assistance.start_time", 30.0, 30.0),  # the earlier first payment
    ("run3", "moratorium.start_time", 29.0, 26.25),  # the filing drop at 26.75 - 0.5
    ("run2", "covid.start_time", 30.0, 26.75)])
def test_a_moved_start_time_departs_at_the_earlier_onset(name, path, value, parts):
    applied = BUILTIN_SCENARIOS[name].apply(default_params())
    assert departure(applied, with_value(applied, path, value)) == parts


# the policy blocks' fields, read from their onsets, and one read from the start
_OVERRIDDEN = [f.path for f in FIELDS if f.path.partition(".")[0] in POLICY_BLOCKS] \
    + ["avg_monthly_rent"]


@st.composite
def _scenario_set(draw):
    """A shipped scenario's switches on the defaults, plus one or two
    overrides, each at its default or moved within its bounds."""
    p = default_params()
    switches = BUILTIN_SCENARIOS[draw(st.sampled_from(sorted(BUILTIN_SCENARIOS)))]
    factors = st.one_of(st.just(1.0), st.floats(0.5, 1.5))
    overrides = {path: clamp_to_bounds(path, get_value(p, path) * draw(factors))
                 for path in draw(st.lists(st.sampled_from(_OVERRIDDEN), min_size=1,
                                           max_size=2, unique=True))}
    try:
        return dataclasses.replace(switches, overrides=overrides).apply(p)
    except ValueError:  # a curve's own invariant, or validation
        assume(False)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_scenario_set(), _scenario_set())
def test_runs_agree_bit_for_bit_until_they_depart(a, b):
    """departure is symmetric and never for a set against itself, and full
    runs of the two sets agree in every series at every sample before the
    first sample at or after it."""
    assert departure(a, b) == departure(b, a)
    assert departure(a, a) == departure(b, b) == math.inf
    clock = SimClock()
    k = clock.sample_at_or_after(departure(a, b))
    try:
        ta, tb = run_model(a, clock), run_model(b, clock)
    except SimulationError:
        assume(False)
    for name in ta.data:
        assert ta[name][:k].tobytes() == tb[name][:k].tobytes(), (name, k)


def test_every_field_moved_alone_agrees_bit_for_bit_until_it_departs():
    """Off each shipped scenario's applied set, each ``FIELDS`` path moved
    15% either way within its bounds, and each policy switch flipped: the
    moved run equals the unmoved one in every series at every sample before
    the first sample at or after their departure. A scenario's moved sets
    run as one batch, whose columns are their scalar runs bit for bit
    (:func:`test_batch_column_is_its_scalar_run`)."""
    clock = SimClock()
    for scenario in BUILTIN_SCENARIOS.values():
        applied = scenario.apply(default_params())
        changes = [{f"{block}.enabled": not getattr(applied, block).enabled}
                   for block in POLICY_BLOCKS]
        changes += [{f.path: clamp_to_bounds(f.path, get_value(applied, f.path) * factor)}
                    for f in FIELDS for factor in (0.85, 1.15)]
        moved = [with_values(applied, change) for change in changes]
        base = run_model(applied, clock)
        for change, params, run in zip(changes, moved, run_model(moved, clock)):
            k = clock.sample_at_or_after(departure(applied, params))
            for name in base.data:
                assert run[name][:k].tobytes() == base[name][:k].tobytes(), \
                    (scenario.name, change, name, k)


# ---------------------------------------------------------------- run-long oracles
# The equations below move no metric past the acceptance bands when one of
# their operations is mutated (tests/mutants.py): each is pinned at every
# sample of a shipped run instead, or of one with a parameter moved in
# bounds where the shipped runs leave the operation nothing to move.

def _shipped_run(name, changes={}):
    params = with_values(BUILTIN_SCENARIOS[name].apply(default_params()), changes)
    return params, run_model(params).data


def test_mortgage_delay_reads_rent_paid_plus_assistance():
    """Landlords' income is the rent they collect plus the assistance paid
    against arrears, which run4 pays from month 36 on."""
    p, d = _shipped_run("run4")
    assert max(d["assistance_payment"]) > 0.0
    for owed, paid, payment, effect in zip(d["mortgage_owed"], d["rent_paid"],
                                           d["assistance_payment"], d["mortgage_delay_effect"],
                                           strict=True):
        assert effect == p.mortgage_delay_curve(owed / max(paid + payment, EPS))


def test_displaced_households_are_the_evicted_and_foreclosed_per_unit():
    p, d = _shipped_run("run3")
    for evicted, foreclosed, hpu, displaced in zip(
            d["evictions_processed"], d["foreclosures_tenanted"], d["households_per_unit"],
            d["displaced_households"], strict=True):
        # the auxiliary adds the two foreclosure flows first: bits may differ
        assert displaced == pytest.approx((evicted + foreclosed) * hpu, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_uncapped_mortgage_payment_is_owed_over_its_delay(name):
    """Where the one-step drain cap does not bind, landlords pay their
    arrears over the base payment time stretched by the delay effect."""
    p, d = _shipped_run(name)
    dt = SimClock().dt
    uncapped = 0
    for owed, effect, paid in zip(d["mortgage_owed"], d["mortgage_delay_effect"],
                                  d["mortgage_paid"], strict=True):
        payment = owed / (p.at_mortgage_base * effect)
        if payment <= owed / dt:
            assert paid == payment
            uncapped += 1
    assert uncapped > 0


@pytest.mark.parametrize("name, changes", [
    *(pytest.param(name, {}, id=name) for name in sorted(BUILTIN_SCENARIOS)),
    *(pytest.param(name, {"landlord_tolerance": 2000.0}, id=f"{name}-tolerance-2000")
      for name in ("run2", "run3", "run4"))])
def test_filings_are_the_baseline_fraction_times_every_pressure(name, changes):
    """Filings against occupied units scale the baseline fraction by the
    overdue, mortgage delay, conflict and filing factor multipliers; the
    shock lifts the mortgage delay off neutral, and no shipped run drains
    the occupied units fast enough for their cap to bind. Arrears per unit
    stay under the shipped tolerance, so at a tolerance of $2,000 alone
    does the overdue pressure leave 1."""
    p, d = _shipped_run(name, changes)
    assert not changes or max(d["overdue_pressure"]) > 1.0
    for occupied, overdue, delay, conflict, factor, filings in zip(
            d["units_occupied"], d["overdue_pressure"], d["mortgage_delay_effect"],
            d["conflict_effect"], d["filing_factor"], d["eviction_filings"], strict=True):
        assert filings == (p.baseline_filing_fraction * occupied * overdue * delay
                           * conflict * factor)


def test_assistance_pays_the_least_of_pace_funds_and_headroom():
    """From its start, while the fund holds money, assistance pays the pace,
    the fund left over one step, or the arrears a step leaves after rent
    paid and written off, whichever is least. At 100 times the pace the
    headroom binds at some samples."""
    p, d = _shipped_run("run4", {"assistance.rate_multiplier": 100.0})
    era, dt = p.assistance, SimClock().dt
    pace = era.rate_multiplier * era.total_funds / era.disbursement_time
    headroom_binds = 0
    for t, funds, owed, paid, writeoff, payment in zip(
            SimClock().grid, d["assistance_funds"], d["rent_owed"], d["rent_paid"],
            d["arrears_writeoff"], d["assistance_payment"], strict=True):
        headroom = max(0.0, owed / dt - paid - writeoff)
        if t >= era.start_time and funds > 0.0:
            assert payment == min(min(pace, funds / dt), headroom)
            headroom_binds += headroom < min(pace, funds / dt)
        else:
            assert payment == 0.0
    assert headroom_binds > 0


def test_an_empty_fund_pays_positive_zero():
    """A fund of -0.0 is in bounds and holds nothing, so run4 pays +0.0 at
    every sample, and no CSV row prints -0.0."""
    _, d = _shipped_run("run4", {"assistance.total_funds": -0.0})
    assert all(math.copysign(1.0, payment) == 1.0 for payment in d["assistance_payment"])
    assert max(d["assistance_payment"]) == 0.0


def test_crowding_ratio_is_households_per_unit_over_the_reference():
    """At a reference other than the shipped 1.0, where ``x / 1.0 == x * 1.0``."""
    p, d = _shipped_run("run2", {"crowding_reference": 1.2})
    for hpu, ratio in zip(d["households_per_unit"], d["crowding_ratio"], strict=True):
        assert ratio == hpu / p.crowding_reference


def test_filing_recovery_level_steps_toward_its_target():
    """run3's filing recovery level takes Euler steps of a first-order delay
    toward the moratorium's filing drop from the rebound on, and toward 0
    before it."""
    p, d = _shipped_run("run3")
    m = p.moratorium
    clock = SimClock()
    rebound = m.start_time + m.duration + m.filing_rebound_lag
    level = d["filing_recovery_level"]
    assert rebound in clock.grid
    for k, t in enumerate(clock.grid[:-1]):
        target = m.filing_reduction if t >= rebound else 0.0
        assert level[k + 1] == level[k] + clock.dt * ((target - level[k]) / m.filing_recovery_delay)
    assert level[-1] > 0.0


# ---------------------------------------------------------------- limiter

_VACANT_OUTFLOWS = ("tenant_moveins", "foreclosures_vacant", "stock_decline")


def _vacant_outflows(vacant, dt):
    """The vacant units' three outflows, in the order their limiter adds
    them, at the initial state with ``vacant`` units, on a step of ``dt``.
    At the shipped parameters they take 0.689 of the stock a month, so
    their cap binds on a step longer than 1/0.689 = 1.451 months."""
    p = default_params()
    state = initial_state(p)
    state[STOCKS.index("units_vacant")] = vacant
    aux = _deriv_at(p, state, dt=dt)[1]
    return [aux[name] for name in _VACANT_OUTFLOWS]


def test_limit_scales_proportionally():
    """On a step of 2 months the outflows would drain 1.38 times the stock:
    the limiter scales them, in proportion, to the stock over the step."""
    free = _vacant_outflows(500_000.0, UNCAPPED_DT)
    capped = _vacant_outflows(500_000.0, 2.0)
    assert capped == pytest.approx([f * 250_000.0 / sum(free) for f in free], rel=1e-12)


def _compensated_sum(values, start=0):
    """``sum`` as Python 3.12 and later add floats: Neumaier's compensated
    sum (*ZAMM* 54, 1974). Anything else, numpy arrays included, goes to the
    builtin."""
    values = list(values)
    if not all(type(v) is float for v in values):
        return builtins.sum(values, start)
    total, c = float(start), 0.0
    for x in values:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


@pytest.mark.parametrize("path", ["filing_resolution_time", "move_in_time"])
def test_batch_column_is_its_scalar_run_whatever_sum_does(monkeypatch, path):
    """At a resolution time of 0.2 the pending units' three-flow cap binds,
    at a move-in time of 0.2 the vacant units'. Both limiters add a stock's
    outflows left to right, so a run keeps its bits where ``sum``
    compensates its rounding, as it does from Python 3.12 on."""
    monkeypatch.setattr(model, "sum", _compensated_sum, raising=False)
    params = with_value(BUILTIN_SCENARIOS["run2"].apply(default_params()), path, 0.2)
    single, (column,) = run_model(params), run_model([params])
    assert single.clamp_events == column.clamp_events
    for name in single.data:
        assert single[name].tobytes() == column[name].tobytes(), name


def test_limit_adds_its_flows_left_to_right():
    """With 500,000.2 vacant units the outflows add to 344,576.6694243132
    left to right, and to ...31 compensated; the cap of 250,000.1 on a step
    of 2 months binds either way, and the flows scale by the first total."""
    free = _vacant_outflows(500_000.2, UNCAPPED_DT)
    total = ((0.0 + free[0]) + free[1]) + free[2]
    compensated = math.fsum(free)
    assert total != compensated
    scaled = [f * (250_000.1 / total) for f in free]
    assert scaled != [f * (250_000.1 / compensated) for f in free]
    assert _vacant_outflows(500_000.2, 2.0) == scaled


def test_limit_passes_safe_flows_through():
    """Only outflows above the cap are scaled: on a step of 1.45 months the
    flows are the uncapped ones, bit for bit, and on one of 1.46 they are not."""
    free = _vacant_outflows(500_000.0, UNCAPPED_DT)
    assert _vacant_outflows(500_000.0, 0.25) == _vacant_outflows(500_000.0, 1.45) == free
    assert all(c < f for c, f in zip(_vacant_outflows(500_000.0, 1.46), free))


def test_limit_zero_stock_zero_flows():
    """No vacant units: a cap of 0 and no flow. Below zero, where the clamp
    keeps a run from going, a stock's flows are negative too; on a step
    short enough that they total above its cap, the total is not positive,
    and they scale by 0."""
    assert _vacant_outflows(0.0, 2.0) == [0.0, 0.0, 0.0]
    assert _vacant_outflows(-1.0, 2.0)[0] < 0.0
    assert _vacant_outflows(-1.0, 1.0) == [0.0, 0.0, 0.0]


# ---------------------------------------------------------------- the traced kernel

@pytest.mark.parametrize("branch", [
    lambda x: 1.0 if x > 0.0 else 0.0,
    lambda x: x > 0.0 and x,
    lambda x: float(bool(x)),
], ids=["if", "and", "bool"])
def test_a_flow_that_branches_in_python_fails_the_trace(monkeypatch, branch):
    """The trace records one path through the definition: a flow value that
    reaches a Python branch would fix it at trace time, so it raises there."""
    def definition(params, dt):
        def deriv(state, t):
            return [branch(state[0])] * len(STOCKS), {"flow": state[0]}
        return deriv

    with monkeypatch.context() as patch:
        patch.setattr(model, "_definition", definition)
        model.scalar_kernel.cache_clear()
        with pytest.raises(TypeError, match="cannot branch in Python .* ops.where"):
            model.scalar_kernel()
    model.scalar_kernel()  # the shipped definition's, for the tests that follow


def test_the_definition_is_traced_once_per_process(monkeypatch, tmp_path):
    """A fit whose runs make no prefix, the five scenarios of run_many and
    a drain_cap_bound trace the definition once in all, in this process:
    one trace writes both the derivative and the run loop."""
    shock = run_scenario(default_params(), BUILTIN_SCENARIOS["run2"]).metrics
    # read from the start, so the fit's runs make no prefix
    spec = CalibrationSpec(
        parameters=(CalibrationParameter("rent_delay_curve.steepness", 1.0, 3.0),),
        targets=(CalibrationTarget("run2", "evictions_total", shock.evictions_total),))
    traces = tmp_path / "traces"

    class Tape(model._Tape):
        def __init__(self):
            super().__init__()
            with traces.open("a") as log:
                log.write(f"{os.getpid()}\n")

    monkeypatch.setattr(model, "_Tape", Tape)
    model.scalar_kernel.cache_clear()
    start = with_value(default_params(), "rent_delay_curve.steepness", 2.5)
    assert calibrate(start, spec).converged
    run_many(default_params(), BUILTIN_SCENARIOS)
    assert drain_cap_bound(default_params(), 0.25) is None
    assert traces.read_text().split() == [str(os.getpid())]


def _loop_cases():
    """Every shipped scenario's parameters, the extreme battery's hair-trigger
    landlords on run2, and run2 with a negative inflow no limiter can stop,
    so the clamp acts at nearly every step."""
    base = default_params()
    cases = {name: scenario.apply(base) for name, scenario in BUILTIN_SCENARIOS.items()}
    run2 = BUILTIN_SCENARIOS["run2"]
    cases["hair_trigger_landlords_bounded"] = run2.apply(
        with_value(base, "landlord_tolerance", 1.0))
    cases["negative_inflow"] = with_value(cases["run2"], "rate_new_homelessness", -1e6)
    return cases


def _reference_run(params, clock, restart=None):
    """``params``'s run on the reference loop: the scalar kernel's own
    ``deriv``, one :func:`rentdyn.engine.euler_step` per sample."""
    kernel = model.scalar_kernel()
    deriv, _ = kernel.make(params, clock.dt)
    return simulate(deriv, clock, dict(zip(STOCKS, initial_state(params))), NONNEG_STOCKS,
                    restart=restart, auxiliaries=kernel.auxiliaries)


@pytest.mark.parametrize("dt", [0.25, 0.5, 0.125])
def test_the_compiled_run_loop_is_the_reference_loop(dt):
    """The kernel's run loop gives the trajectory of the engine's reference
    loop over the kernel's ``deriv``, bit for bit, clamp events included:
    run in full, and restarted from run1 at the first sample at or after
    the time it departs from run1 (the last sample for run1 itself)."""
    clock = SimClock(dt=dt)
    cases = _loop_cases()
    run1 = _reference_run(cases["run1"], clock)
    clamped = 0
    for name, params in cases.items():
        k = clock.sample_at_or_after(departure(cases["run1"], params))
        for restart in (None, (k, run1)):
            loop = run_model(params, clock, restart=restart)
            reference = _reference_run(params, clock, restart)
            assert list(loop.data) == list(reference.data)
            for series, values in reference.data.items():
                assert np.asarray(loop.data[series]).tobytes() == \
                    np.asarray(values).tobytes(), (name, restart and k, series)
            assert repr(loop.clamp_events) == repr(reference.clamp_events), name
            clamped += len(loop.clamp_events)
    assert clamped > 0


def test_a_traceback_through_the_kernel_shows_its_line():
    # no time to pay rent in: rent_paid divides the arrears by 0
    p = dataclasses.replace(default_params(), at_rent_base=0.0)
    with pytest.raises(ZeroDivisionError) as info:
        build_derivative(p, 0.25)(initial_state(p), 0.0)
    (frame,) = [f for f in traceback.extract_tb(info.tb) if f.filename == model._KERNEL_FILE]
    assert frame.name == "deriv" and frame.line.startswith("v") and "(" in frame.line
    assert frame.line in model.scalar_kernel().source.splitlines()[frame.lineno - 1]


def test_the_kernel_writes_each_curve_inline():
    """The kernel calls no value it binds, a curve object least of all: each
    curve's definition is written into deriv and into run, with one exp for
    every curve and one log for each of the two logistic ones."""
    source = model.scalar_kernel().source
    assert not re.search(r"\bv\d+\(", source)
    assert (source.count(" = exp("), source.count(" = log(")) == (2 * 4, 2 * 2)


# ---------------------------------------------------------------- state

def test_initial_state_matches_stock_list():
    state = dict(zip(STOCKS, initial_state(default_params()), strict=True))
    assert state["assistance_funds"] == 0.0  # fund closed unless enabled
    assert state["assistance_disbursed"] == 0.0
    assert state["rent_owed"] == default_params().rent_owed_initial


def test_initial_state_opens_fund_when_enabled():
    p = default_params()
    era = dataclasses.replace(p.assistance, enabled=True)
    p = dataclasses.replace(p, assistance=era)
    assert initial_state(p)[STOCKS.index("assistance_funds")] == p.assistance.total_funds


def test_nonneg_stocks_exclude_signal_levels():
    assert "shock_recovery_level" not in NONNEG_STOCKS
    assert "filing_recovery_level" not in NONNEG_STOCKS
    assert "rent_owed" in NONNEG_STOCKS


# ---------------------------------------------------------------- ledgers

def test_unit_ledger_closes():
    """Units only leave the system through stock decline."""
    p = default_params()
    state = initial_state(p)
    state[STOCKS.index("rent_owed")] *= 2.5  # push the system off equilibrium
    state[STOCKS.index("households_insecure")] *= 1.3
    rates, aux = _deriv_at(p, state)
    total = (rates["units_occupied"] + rates["units_pending_eviction"]
             + rates["units_vacant"] + rates["units_foreclosed"])
    assert total == pytest.approx(-aux["stock_decline"], rel=1e-12)


def test_household_ledger_closes():
    """Insecure + homeless changes only through the named external flows."""
    p = default_params()
    state = initial_state(p)
    state[STOCKS.index("households_homeless")] *= 3.0
    rates, aux = _deriv_at(p, state)
    total = rates["households_insecure"] + rates["households_homeless"]
    expected = (aux["new_insecure"] + aux["new_homeless"]
                - aux["insecure_stabilizing"] - aux["homeless_stabilizing"])
    assert total == pytest.approx(expected, rel=1e-12)


def test_rent_ledger_closes():
    p = default_params()
    state = initial_state(p)
    rates, aux = _deriv_at(p, state)
    expected = (aux["rent_due"] - aux["rent_paid"]
                - aux["assistance_payment"] - aux["arrears_writeoff"])
    assert rates["rent_owed"] == pytest.approx(expected, rel=1e-12)


def test_assistance_ledger_conserves_funds():
    p = default_params()
    era = dataclasses.replace(p.assistance, enabled=True, start_time=0.0)
    p = dataclasses.replace(p, assistance=era)
    state = initial_state(p)
    rates, aux = _deriv_at(p, state)
    assert aux["assistance_payment"] > 0.0
    assert rates["assistance_funds"] == -rates["assistance_disbursed"]


def test_derivative_is_step_size_independent_away_from_caps():
    """dt only matters to the outflow limiter; safe flows must not depend on it."""
    p = default_params()
    state = initial_state(p)
    coarse, _ = _deriv_at(p, state, dt=0.25)
    fine, _ = _deriv_at(p, state, dt=0.03125)
    for name in STOCKS:
        assert coarse[name] == pytest.approx(fine[name], rel=1e-12), name


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
@pytest.mark.parametrize("resolution_time, bound", [(0.7, 0.5524643837697021),
                                                     (0.1, 0.09632519379340107)])
def test_drain_cap_bound_is_the_largest_step_on_which_no_cap_binds(name, resolution_time,
                                                                  bound):
    """The pending-case stock drains fastest at t=0: evictions, resolutions
    and foreclosures take 0.38 + 1/0.7 + 0.0015 a month of it at the shipped
    parameters, and 0.38 + 1/0.1 + 0.0015 with cases resolved in 0.1 months.
    At the bound no cap binds, a step one part in 10**12 longer binds one,
    and the run at that step limits a flow at its first sample."""
    p = BUILTIN_SCENARIOS[name].apply(
        with_value(default_params(), "filing_resolution_time", resolution_time))
    assert drain_cap_bound(p, 1e-3) is None
    assert drain_cap_bound(p, bound) is None
    assert drain_cap_bound(p, 2.0) == drain_cap_bound(p, bound * (1.0 + 1e-12)) == bound
    state = initial_state(p)
    _, capped = _deriv_at(p, state, dt=bound * (1.0 + 1e-12))
    _, free = _deriv_at(p, state, dt=bound)
    assert capped["evictions_processed"] < free["evictions_processed"]


# ---------------------------------------------------------------- trajectories

def test_baseline_run_is_near_stationary():
    traj = run_model(default_params())
    for name in ("units_occupied", "units_vacant", "households_insecure",
                 "households_homeless", "rent_owed", "mortgage_owed"):
        series = traj[name]
        drift = np.max(np.abs(series - series[0])) / abs(series[0])
        assert drift < 0.02, f"{name} drifted {drift:.3%}"


def test_effect_multipliers_stay_in_their_ranges():
    p = default_params()
    p = dataclasses.replace(p, covid=dataclasses.replace(p.covid, enabled=True))
    s = run_model(p)
    assert np.all(s["rent_delay_effect"] >= 1.0 - 1e-12)
    assert np.all(s["rent_delay_effect"] <= 3.0 + 1e-12)
    assert np.all(s["stress_effect"] >= 1.0 - 1e-12)
    assert np.all(s["stress_effect"] <= 3.0 + 1e-12)
    assert np.all(s["crowding_effect"] >= 1.0 - 1e-12)
    assert np.all(s["crowding_effect"] <= 2.0 + 1e-12)
    assert np.all(s["mortgage_delay_effect"] >= 1.0 - 1e-12)
    assert np.all(s["mortgage_delay_effect"] <= 3.0 + 1e-12)
    assert np.all(s["covid_effect"] >= 0.0)
    assert np.all(s["covid_effect"] <= p.covid.magnitude + 1e-12)


def test_stocks_never_go_negative_under_heavy_shock():
    p = default_params()
    p = dataclasses.replace(
        p,
        covid=dataclasses.replace(p.covid, enabled=True, magnitude=0.95),
        moratorium=dataclasses.replace(p.moratorium, enabled=True),
    )
    traj = run_model(p)
    for name in NONNEG_STOCKS:
        assert np.min(traj[name]) >= -1e-9, name


def test_tiny_market_stays_finite():
    p = default_params()
    for path in ("units_occupied_initial", "units_pending_initial",
                 "units_vacant_initial", "units_foreclosed_initial"):
        p = with_value(p, path, 1.0)
    p = with_value(p, "households_insecure_initial", 1.0)
    traj = run_model(p, SimClock())
    for name in STOCKS:
        assert np.all(np.isfinite(traj[name])), name


# ---------------------------------------------------------------- backends

def _extreme_inputs():
    """The extreme-condition battery's corners: empty markets, total loss,
    and an assistance pace that overflows to inf."""
    p = default_params()
    empty = p
    for path in ("units_occupied_initial", "units_pending_initial", "units_vacant_initial",
                 "units_foreclosed_initial", "rent_owed_initial", "mortgage_owed_initial"):
        empty = with_value(empty, path, 0.0)
    total = with_value(with_value(p, "covid.magnitude", 1.0), "covid.recovery_time", 1e9)
    nobody = with_value(with_value(p, "households_insecure_initial", 0.0),
                        "households_homeless_initial", 0.0)
    flood = with_value(with_value(p, "assistance.total_funds", 1e307),
                       "assistance.rate_multiplier", 1e10)
    run2, run3, run4 = (BUILTIN_SCENARIOS[name] for name in ("run2", "run3", "run4"))
    return [run2.apply(with_value(p, "covid.magnitude", 0.0)), run2.apply(total),
            run2.apply(empty), run2.apply(with_value(p, "landlord_tolerance", 1.0)),
            run3.apply(with_value(p, "moratorium.processing_reduction", 1.0)),
            run2.apply(nobody), run4.apply(flood)]


def test_numpy_backend_matches_scalar_on_extreme_inputs():
    """Zero denominators and saturated curves take the same branch in a batch,
    and a batch overflows to inf as silently as a scalar run."""
    inputs = _extreme_inputs()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = run_model(inputs)
    for params, column in zip(inputs, batch):
        single = run_model(params)
        assert list(column.data) == list(single.data)
        for name in single.data:
            assert np.array_equal(column[name], single[name]), name
        assert column.clamp_events == single.clamp_events


def test_batch_with_a_failing_column_raises_that_columns_own_error():
    p = default_params()
    exploding = with_value(p, "avg_monthly_rent", 1e305)
    with pytest.raises(SimulationError, match=r"'rent_due' at t=0:") as single:
        run_model(exploding)
    with pytest.raises(SimulationError) as batch:
        run_model([p, exploding, p])
    assert str(batch.value) == str(single.value)
    # a later set that fails earlier in time does not outrank the first
    # failing set: the batch raises what one-by-one runs would
    crowding = with_value(p, "rate_new_insecurity", 1e307)
    with pytest.raises(SimulationError, match=r"'households_insecure' at t=33\.75:") as single:
        run_model(crowding)
    with pytest.raises(SimulationError) as batch:
        run_model([p, crowding, exploding])
    assert str(batch.value) == str(single.value)


@pytest.mark.parametrize("count", [0, 2])
def test_batch_refuses_a_restart(count):
    """A restart is one run's: a batch, even an empty one, refuses it rather
    than run in full where it was asked to restart."""
    run1, run2, run3 = (BUILTIN_SCENARIOS[name].apply(default_params())
                        for name in ("run1", "run2", "run3"))
    with pytest.raises(ValueError, match="a batch cannot restart"):
        run_model([run2, run3][:count], restart=(107, run_model(run1)))


@st.composite
def _moved_params(draw):
    """A shipped scenario applied to defaults with 1-3 fields moved in bounds;
    an unbounded field goes near its default or to 1e200 ... 1e307, where some
    runs fail."""
    p = default_params()
    for f in draw(st.lists(st.sampled_from(FIELDS), min_size=1, max_size=3,
                           unique_by=lambda f: f.path)):
        if f.hi < math.inf:
            value = st.floats(f.lo, f.hi)
        else:
            near = st.floats(f.lo, 4.0 * max(abs(get_value(p, f.path)), 1.0))
            value = st.one_of(near, st.floats(200.0, 307.0).map(lambda e: 10.0 ** e))
        try:
            p = with_value(p, f.path, draw(value))
        except ValueError:  # a curve's own invariant (y_final >= floor, ...)
            assume(False)
    return draw(st.sampled_from(sorted(BUILTIN_SCENARIOS))), p


def _outcome(params):
    try:
        return run_model(params)
    except Exception as error:
        return type(error), str(error)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_moved_params(), min_size=1, max_size=6))
def test_batch_column_is_its_scalar_run(drawn):
    """Each column of a batch is its own scalar run, series and clamp events,
    or the batch raises the error of the first set that fails alone."""
    sets = [BUILTIN_SCENARIOS[name].apply(p) for name, p in drawn]
    singles = [_outcome(p) for p in sets]
    batch = _outcome(sets)
    failed = [s for s in singles if isinstance(s, tuple)]
    if failed:
        assert batch == failed[0]
        return
    assert isinstance(batch, list) and len(batch) == len(sets)
    for column, single in zip(batch, singles):
        assert list(column.data) == list(single.data)
        for name in single.data:
            assert np.array_equal(column[name], single[name]), name
        assert column.clamp_events == single.clamp_events
