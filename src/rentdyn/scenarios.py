"""Scenario definitions, runners, metrics, and comparisons.

A scenario toggles the policy blocks (income shock, eviction moratorium,
rental assistance) on a shared parameter set and may override individual
parameters by dotted path. The five standard runs:

* ``run1``  pre-shock baseline, all policies off
* ``run2``  income shock, no intervention
* ``run3``  shock + eviction moratorium
* ``run4``  shock + moratorium + rental assistance
* ``run4a`` as run4 with disbursement three times faster
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path
from types import MappingProxyType, SimpleNamespace
from typing import Mapping

from rentdyn.engine import SimClock, Trajectory, pairwise_sum
from rentdyn.model import departure, read_from, run_model
from rentdyn.params import FIELDS, POLICY_BLOCKS, InputError, ModelParams, brief, \
    load_yaml, read_mapping, read_number, validate_params, with_values

__all__ = [
    "Scenario",
    "BUILTIN_SCENARIOS",
    "load_scenarios",
    "MetricSet",
    "METRIC_BLOCKS",
    "METRIC_SERIES",
    "compute_metrics",
    "RunResult",
    "run_scenario",
    "run_many",
    "compare",
    "emit_timeseries",
]


@dataclass(frozen=True)
class Scenario:
    """A named policy configuration over a base parameter set."""

    name: str
    description: str = ""
    covid: bool = False
    moratorium: bool = False
    assistance: bool = False
    overrides: Mapping[str, float] = field(default_factory=dict)

    def apply(self, params: ModelParams) -> ModelParams:
        """Base parameters with this scenario's switches and overrides set."""
        switches = {f"{block}.enabled": getattr(self, block) for block in POLICY_BLOCKS}
        out = with_values(params, {**switches, **self.overrides})
        validate_params(out)
        return out

    def reads_from(self, applied: ModelParams, path: str) -> float:
        """Earliest time this scenario's runs read a value set at ``path``
        before :meth:`apply`, given the applied parameters: never (``inf``)
        for a value the scenario overrides, which ``apply`` puts back, else
        :func:`rentdyn.model.read_from`."""
        return math.inf if path in self.overrides else read_from(applied, path)


BUILTIN_SCENARIOS: Mapping[str, Scenario] = MappingProxyType({
    "run1": Scenario("run1", "pre-shock baseline, all policies off"),
    "run2": Scenario("run2", "income shock, no intervention", covid=True),
    "run3": Scenario("run3", "shock plus eviction moratorium",
                     covid=True, moratorium=True),
    "run4": Scenario("run4", "shock, moratorium, and rental assistance",
                     covid=True, moratorium=True, assistance=True),
    "run4a": Scenario("run4a", "run4 with disbursement three times faster",
                      covid=True, moratorium=True, assistance=True,
                      overrides={"assistance.rate_multiplier": 3.0}),
})


def load_scenarios(path: str | Path) -> dict[str, Scenario]:
    """Load scenario definitions from a YAML file.

    Each top-level key names a scenario, a mapping of at most a
    ``description``, the policy switches ``covid``, ``moratorium`` and
    ``assistance`` (YAML booleans), and an ``overrides`` mapping of dotted
    parameter paths to values. A description left empty is ``""``. Unknown
    keys, a description that is not text, non-boolean switches, override
    paths that are not registry fields, non-numeric values, a file naming no
    scenario, and a name other than 1 to 64 letters, digits, ``_``, ``-`` and
    ``.``, not starting with ``.``, are input errors naming the file.
    """
    paths = {f.path for f in FIELDS}
    out: dict[str, Scenario] = {}
    with load_yaml(path) as raw:
        raw = read_mapping(raw, "top level")
        if not raw:
            raise InputError("names no scenario")
        for name, spec in raw.items():
            # output file names begin with it
            if not (isinstance(name, str) and re.fullmatch(r"[\w-][\w.-]{0,63}", name, re.ASCII)):
                raise InputError(f"scenario name {brief(name)} is not 1 to 64 letters, "
                                 "digits, '_', '-' or '.', not starting with '.'")
            where = f"scenario '{name}'"
            spec = read_mapping(spec or {}, where,
                                keys=("description", "overrides", *POLICY_BLOCKS))
            overrides = read_mapping(spec.get("overrides") or {}, f"{where} overrides", keys=paths)
            for key in POLICY_BLOCKS:
                if not isinstance(spec.get(key, False), bool):
                    raise InputError(f"{where} field '{key}' is not a boolean "
                                     f"(true or false): {brief(spec[key])}")
            # YAML reads a description left empty as None
            description = "" if spec.get("description") is None else spec["description"]
            if not isinstance(description, str):
                raise InputError(f"{where} description is not text: {brief(description)}")
            out[name] = Scenario(
                name=name,
                description=description,
                **{block: spec.get(block, False) for block in POLICY_BLOCKS},
                overrides={k: read_number(v, f"{where} override '{k}'")
                           for k, v in overrides.items()},
            )
    return out


@dataclass(frozen=True)
class MetricSet:
    """Headline outcomes of one run over the analysis window."""

    evictions_total: float
    filings_total: float
    arrears_end: float
    arrears_growth_window: float
    arrears_growth_36mo: float
    arrears_peak_growth: float
    crowding_mean: float
    crowding_end: float
    homeless_end: float
    homeless_peak: float
    insecure_end: float
    assistance_disbursed_end: float
    assistance_disbursed_fraction: float
    assistance_exhausted_at: float | None


# the policy block each metric measures alone: in a scenario that switches
# the block off, no parameter moves the metric
METRIC_BLOCKS: Mapping[str, str] = MappingProxyType({
    "assistance_disbursed_end": "assistance",
    "assistance_disbursed_fraction": "assistance",
    "assistance_exhausted_at": "assistance",
})


# the series compute_metrics reads: all that the sweep's batch records
METRIC_SERIES: tuple[str, ...] = (
    "rent_owed",
    "assistance_disbursed",
    "assistance_funds",
    "evictions_processed",
    "eviction_filings",
    "crowding_ratio",
    "households_homeless",
    "households_insecure",
)


# the reductions of compute_metrics, by how a trajectory holds its series:
# one run's lists of Python floats are summed with numpy's bits, and a batch
# column, a numpy array, keeps numpy's own reductions, faster on it
_LIST_OPS = SimpleNamespace(sum=pairwise_sum, max=max)
_ARRAY_OPS = SimpleNamespace(sum=lambda values: values.sum(), max=lambda values: values.max())


def compute_metrics(traj: Trajectory) -> MetricSet:
    """Reduce a trajectory to the reported headline metrics.

    Flow totals are left-Riemann integrals over the analysis window (each
    sample's rate applies over the step it opens, so the sample at the
    horizon carries no weight); stock readings are taken at the horizon; the
    36-month arrears growth measures the stock change over the 36 months
    ending at the horizon. The assistance fund's size is its level at the
    start of the run: the appropriation, or 0 with assistance off.
    """
    clock = traj.clock
    first = clock.window_start()
    end = clock.horizon
    data = traj.data
    arrears = data["rent_owed"]
    ops = _LIST_OPS if isinstance(arrears, list) else _ARRAY_OPS

    arrears_end = float(arrears[-1])
    arrears_at_window = traj.at("rent_owed", clock.burn_in)
    arrears_at_36 = traj.at("rent_owed", max(0.0, end - 36.0))

    total = float(data["assistance_funds"][0])
    disbursed = float(data["assistance_disbursed"][-1])
    exhausted_at = None
    if total > 0.0:
        level = 1e-4 * total
        hit = next((k for k, funds in enumerate(data["assistance_funds"]) if funds <= level),
                   None)
        if hit is not None:
            exhausted_at = clock.grid[hit]

    crowding = data["crowding_ratio"][first:]
    return MetricSet(
        evictions_total=float(ops.sum(data["evictions_processed"][first:-1]) * clock.dt),
        filings_total=float(ops.sum(data["eviction_filings"][first:-1]) * clock.dt),
        arrears_end=arrears_end,
        arrears_growth_window=arrears_end - arrears_at_window,
        arrears_growth_36mo=arrears_end - arrears_at_36,
        # subtracting one number keeps the order, so this is the peak of the growth
        arrears_peak_growth=float(ops.max(arrears[first:]) - arrears_at_window),
        crowding_mean=float(ops.sum(crowding) / len(crowding)),
        crowding_end=float(data["crowding_ratio"][-1]),
        homeless_end=float(data["households_homeless"][-1]),
        homeless_peak=float(ops.max(data["households_homeless"][first:])),
        insecure_end=float(data["households_insecure"][-1]),
        assistance_disbursed_end=disbursed,
        assistance_disbursed_fraction=disbursed / total if total > 0.0 else 0.0,
        assistance_exhausted_at=exhausted_at,
    )


@dataclass
class RunResult:
    """One simulated scenario: applied parameters, trajectory, and metrics.

    ``elapsed_seconds`` times the integration of the samples this run made
    itself: a run that restarts from an earlier one (:func:`run_many`)
    copies the rows before its restart sample, untimed.
    """

    scenario: Scenario
    params: ModelParams
    trajectory: Trajectory
    metrics: MetricSet
    elapsed_seconds: float


def run_scenario(
    params: ModelParams,
    scenario: Scenario,
    clock: SimClock = SimClock(),
) -> RunResult:
    """Apply a scenario to the base parameters and simulate it."""
    return run_many(params, {scenario.name: scenario}, clock)[scenario.name]


def run_many(
    params: ModelParams,
    scenarios: Mapping[str, Scenario],
    clock: SimClock = SimClock(),
) -> dict[str, RunResult]:
    """Run several scenarios off one base parameter set, in name order.

    Runs of two scenarios agree bit for bit until their applied parameters
    depart (:func:`rentdyn.model.departure`). Each run restarts from the
    earlier run it departs from last (the later by name on a tie), at the
    first sample at or after the departure
    (:meth:`SimClock.sample_at_or_after`), and copies the rows before it
    (:func:`rentdyn.engine.simulate`); a departure at the start makes a full
    run. On the shipped ladder run2 restarts from run1 at sample 107 (the
    shock), run3 from run2 at 105 (the filing drop), and run4a from run4 at
    144 (the first payment); run4's assistance switch opens the fund at the
    start, so it runs in full. Each result is the full run's, bit for bit.
    """
    results: dict[str, RunResult] = {}
    for name in sorted(scenarios):
        scenario = scenarios[name]
        applied = scenario.apply(params)
        latest, restart = 0, None
        for earlier in results.values():
            k = clock.sample_at_or_after(departure(earlier.params, applied))
            if k and k >= latest:
                latest, restart = k, (k, earlier.trajectory)
        t0 = time.perf_counter()
        traj = run_model(applied, clock, restart=restart)
        elapsed = time.perf_counter() - t0
        results[name] = RunResult(scenario, applied, traj, compute_metrics(traj), elapsed)
    return results


def compare(baseline: RunResult, variant: RunResult) -> dict:
    """Per-metric comparison table: values, absolute and percent change."""
    rows = {}
    for key, base_value in asdict(baseline.metrics).items():
        var_value = getattr(variant.metrics, key)
        # an event that never happened (None) has no change
        delta = None if base_value is None or var_value is None else var_value - base_value
        rows[key] = {"baseline": base_value, "variant": var_value, "abs_change": delta,
                     "pct_change": delta / base_value * 100.0
                     if delta is not None and base_value else None}
    return {
        "baseline": baseline.scenario.name,
        "variant": variant.scenario.name,
        "metrics": rows,
    }


def emit_timeseries(
    result: RunResult,
    columns: list[str] | None = None,
) -> tuple[list[str], list[list]]:
    """Tabulate a run for CSV/JSON output.

    Returns ``(header, rows)``; the first two columns are the month index and
    the calendar month containing each sample. ``columns=None`` selects every
    recorded series; an explicit empty selection, or one naming a series
    twice, is an error.
    """
    traj = result.trajectory
    data = traj.data
    if columns is None:
        columns = list(data)
    if not columns:
        raise ValueError(
            "empty series selection; available columns: " + ", ".join(data)
        )
    repeated = sorted({c for c in columns if columns.count(c) > 1})
    if repeated:
        raise ValueError(f"series named more than once: {', '.join(repeated)}")
    missing = [c for c in columns if c not in data]
    if missing:
        raise KeyError(
            f"unknown series {', '.join(missing)}; available: " + ", ".join(data)
        )
    header = ["t_months", "calendar"] + list(columns)
    label = traj.clock.calendar_label
    rows = [[t, label(t), *row]
            for t, row in zip(traj.clock.grid, zip(*(data[c] for c in columns)))]
    return header, rows
