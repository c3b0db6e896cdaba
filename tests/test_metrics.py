"""Oracles for the headline metrics.

Each field of ``MetricSet`` is recomputed from a run's series by the
definition in ``compute_metrics``' docstring, with numpy's reductions on the
grid's times and none of ``compute_metrics``' code, and must equal the
reported value bit for bit:

* a flow total is the left-Riemann sum of its rate over the analysis
  window, ``[burn_in, horizon)``: each sample's rate times ``dt``;
* a reading at the horizon is the last sample;
* an arrears growth is the change from the stock at ``burn_in``, or at
  ``horizon - 36``, interpolated on the grid, to its last sample;
* a peak is the maximum over the window, ``[burn_in, horizon]``;
* the fund is exhausted at the first sample at or below 1e-4 of its size.

The five scenarios run at the default step, at 0.5 and at 0.125, where the
window's edges and its length fall elsewhere: at 0.125 the window holds 208
rate samples, more than numpy sums in one block of 128. Each runs through
``run_many``, as ``suite`` runs it, and as a column of one numpy batch, as
``sweep`` runs it.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from rentdyn.engine import SimClock
from rentdyn.model import run_model
from rentdyn.params import default_params
from rentdyn.scenarios import BUILTIN_SCENARIOS, METRIC_SERIES, MetricSet, compute_metrics, \
    run_many

def _window(traj) -> tuple[int, int]:
    """The first sample at or after ``burn_in``, and the horizon's."""
    times = traj.times
    return int(np.searchsorted(times, traj.clock.burn_in)), len(times) - 1


def _flow_total(name):
    def oracle(traj, params):
        first, last = _window(traj)
        return float(np.sum(traj[name][first:last]) * traj.clock.dt)
    return oracle


def _last(name):
    return lambda traj, params: float(traj[name][-1])


def _peak(name):
    return lambda traj, params: float(np.max(traj[name][_window(traj)[0]:]))


def _arrears_change_since(t):
    def oracle(traj, params):
        arrears = traj["rent_owed"]
        return float(arrears[-1] - np.interp(t(traj.clock), traj.times, arrears))
    return oracle


def _arrears_peak_growth(traj, params):
    arrears = traj["rent_owed"]
    at_burn_in = np.interp(traj.clock.burn_in, traj.times, arrears)
    return float(np.max(arrears[_window(traj)[0]:]) - at_burn_in)


def _crowding_mean(traj, params):
    return float(np.mean(traj["crowding_ratio"][_window(traj)[0]:]))


def _disbursed_fraction(traj, params):
    total = params.assistance.total_funds
    return float(traj["assistance_disbursed"][-1] / total) if total > 0.0 else 0.0


def _exhausted_at(traj, params):
    # a fund switched off holds nothing from the start, and is not exhausted
    fund = params.assistance
    if not (fund.enabled and fund.total_funds > 0.0):
        return None
    hits = np.flatnonzero(traj["assistance_funds"] <= 1e-4 * fund.total_funds)
    return float(traj.times[hits[0]]) if hits.size else None


ORACLES = {
    "evictions_total": _flow_total("evictions_processed"),
    "filings_total": _flow_total("eviction_filings"),
    "arrears_end": _last("rent_owed"),
    "arrears_growth_window": _arrears_change_since(lambda clock: clock.burn_in),
    "arrears_growth_36mo": _arrears_change_since(lambda clock: clock.horizon - 36.0),
    "arrears_peak_growth": _arrears_peak_growth,
    "crowding_mean": _crowding_mean,
    "crowding_end": _last("crowding_ratio"),
    "homeless_end": _last("households_homeless"),
    "homeless_peak": _peak("households_homeless"),
    "insecure_end": _last("households_insecure"),
    "assistance_disbursed_end": _last("assistance_disbursed"),
    "assistance_disbursed_fraction": _disbursed_fraction,
    "assistance_exhausted_at": _exhausted_at,
}


@pytest.fixture(scope="module", params=(0.25, 0.5, 0.125))
def runs(request) -> list:
    """(scenario, applied parameters, trajectory, metrics) of the five
    scenarios on a clock of the step given: each ``run_many`` result, then
    each column of one batch."""
    clock = SimClock(dt=request.param)
    results = run_many(default_params(), BUILTIN_SCENARIOS, clock)
    runs = [(name, r.params, r.trajectory, r.metrics) for name, r in results.items()]
    batch = run_model([r.params for r in results.values()], clock, record=METRIC_SERIES)
    runs += [(f"{name} (batch)", p, column, compute_metrics(column, p))
             for (name, p, _, _), column in zip(runs, batch)]
    return runs


def test_every_metric_has_an_oracle():
    assert list(ORACLES) == [f.name for f in dataclasses.fields(MetricSet)]


@pytest.mark.parametrize("field", ORACLES)
def test_metric_is_its_definition(field, runs):
    for name, params, traj, metrics in runs:
        # repr tells every float apart by its bits, -0.0 from 0.0 too
        assert repr(ORACLES[field](traj, params)) == repr(getattr(metrics, field)), name
