"""Validation tools: fit statistics, reference modes, sweeps, extreme checks.

Four independent facilities:

* Theil inequality statistics for scoring a simulated series against an
  observed one, with the bias/variance/covariance decomposition that tells
  you *why* a fit is poor, not just how poor it is.
* Reference-mode ingestion: small CSV files of observed data points, each
  self-describing (which scenario, which model series, units, source), scored
  with the Theil statistics. A missing or empty directory degrades to
  skipped results rather than errors so validation can run without data.
* One-at-a-time sensitivity sweeps over every registered numeric parameter,
  reporting normalized elasticities of the headline metrics.
* An extreme-conditions battery that pushes inputs to implausible corners
  (no shock, total income loss, no housing stock, hair-trigger landlords,
  airtight moratorium) and checks the model degrades sensibly.

Nothing here imports numpy; the sweep's batch loads it in ``run_model``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from rentdyn.engine import START_MONTH, START_YEAR, ClampEvent, SimClock, SimulationError, \
    Trajectory, pairwise_sum
from rentdyn.model import run_model
from rentdyn.params import FIELDS, InputError, ModelParams, clamp_to_bounds, default_params, \
    get_value, naming, read_number, with_values
from rentdyn.scenarios import BUILTIN_SCENARIOS, METRIC_SERIES, MetricSet, Scenario, \
    compute_metrics, run_scenario

__all__ = [
    "theil_decomposition",
    "ReferenceMode",
    "ReferenceResult",
    "load_reference_mode",
    "score_reference_mode",
    "reference_report",
    "SweepEntry",
    "sensitivity_sweep",
    "ExtremeCheck",
    "extreme_conditions",
]


# ---------------------------------------------------------------------------
# Theil inequality statistics


def _as_pair(simulated, observed) -> tuple[list[float], list[float]]:
    try:
        if getattr(simulated, "ndim", 1) != 1 or getattr(observed, "ndim", 1) != 1:
            raise TypeError
        sim, obs = [float(v) for v in simulated], [float(v) for v in observed]
    except TypeError:  # an array of another shape, a scalar, or a series of series
        raise ValueError("Theil statistics need one-dimensional series") from None
    if len(sim) != len(obs):
        raise ValueError(f"series lengths differ: {len(sim)} vs {len(obs)}")
    if not sim:
        raise ValueError("Theil statistics need at least one point")
    if not all(map(math.isfinite, sim + obs)):
        raise ValueError("Theil statistics need finite inputs")
    return sim, obs


def _mean(values: list[float]) -> float:
    return pairwise_sum(values) / len(values)


def _theil(simulated, observed) -> tuple[float, float, float, float]:
    """Theil's U with its bias, variance and covariance shares, in one pass
    over Python floats, with the bits of numpy's ``mean`` and ``std``."""
    sim, obs = _as_pair(simulated, observed)
    mse = _mean([(s - o) * (s - o) for s, o in zip(sim, obs)])
    denom = math.sqrt(_mean([s * s for s in sim])) + math.sqrt(_mean([o * o for o in obs]))
    u = math.sqrt(mse) / denom if denom != 0.0 else 0.0
    if mse == 0.0:
        return (u, 0.0, 0.0, 0.0)
    mean_s, mean_o = _mean(sim), _mean(obs)
    dev_s, dev_o = [s - mean_s for s in sim], [o - mean_o for o in obs]
    sd_s = math.sqrt(_mean([d * d for d in dev_s]))
    sd_o = math.sqrt(_mean([d * d for d in dev_o]))
    r = (_mean([a * b for a, b in zip(dev_s, dev_o)]) / (sd_s * sd_o)
         if sd_s > 0.0 and sd_o > 0.0 else 0.0)
    return (u, (mean_s - mean_o) ** 2 / mse, (sd_s - sd_o) ** 2 / mse,
            2.0 * (1.0 - r) * sd_s * sd_o / mse)


def theil_decomposition(simulated, observed) -> tuple[float, float, float]:
    """Split mean squared error into bias, variance, and covariance shares.

    Returns (bias_share, variance_share, covariance_share), which sum to 1
    for any non-degenerate pair. Bias is systematic offset, variance is
    mismatched volatility, covariance is imperfect phase: a good model run
    concentrates its error in the covariance share.  Uses population
    standard deviations. A zero-error pair returns (0, 0, 0).
    """
    return _theil(simulated, observed)[1:]


# ---------------------------------------------------------------------------
# Reference modes


_REFERENCE_COLUMNS = ("calendar_month", "value", "scenario", "series", "units", "source")


@dataclass(frozen=True)
class ReferenceMode:
    """Observed data points for one model series, read from a CSV file."""

    name: str
    scenario: str
    series: str
    # model time at the start of each month
    times: tuple[float, ...]
    values: tuple[float, ...]


@dataclass(frozen=True)
class ReferenceResult:
    """Outcome of scoring one reference mode (or of failing to load one)."""

    mode: str
    status: str  # "scored" or "skipped"
    detail: str = ""
    scenario: str = ""
    series: str = ""
    n_points: int = 0
    u: float | None = None
    bias_share: float | None = None
    variance_share: float | None = None
    covariance_share: float | None = None


def _month_time(label: str) -> float:
    """Model time at the start of a 'YYYY-MM' calendar month."""
    try:
        year_s, month_s = label.strip().split("-")
        year, month = int(year_s), int(month_s)
        if not 1 <= month <= 12:
            raise ValueError
    except ValueError:
        raise InputError(f"bad calendar month {label!r} (expected YYYY-MM)") from None
    return (year - START_YEAR) * 12.0 + (month - START_MONTH)


def load_reference_mode(path: str | Path) -> ReferenceMode:
    """Read one reference-mode CSV.

    Expected columns: calendar_month, value, scenario, series, units, source.
    The scenario/series/units/source fields must be identical on every row;
    they make the file self-describing (no code-side lookup table). A mode
    needs at least two rows, each of its own month: Theil's statistics of
    one point, or of a month counted twice, measure nothing or weigh it twice.
    A leading byte-order mark, as spreadsheet programs write, is skipped; a file
    that cannot be read as UTF-8 CSV is an :class:`InputError` naming the file,
    as is every fault.
    """
    path = Path(path)
    with naming(path.name):
        try:
            with open(path, newline="", encoding="utf-8-sig") as fh:
                reader = csv.DictReader(fh)
                header, rows = reader.fieldnames, list(reader)
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise InputError(f"cannot be read: {getattr(exc, 'strerror', None) or exc}") from exc
        if header is None:
            raise InputError("empty file")
        missing = [c for c in _REFERENCE_COLUMNS if c not in header]
        if missing:
            raise InputError(f"missing columns {missing}")
        if len(rows) < 2:
            raise InputError(f"needs at least 2 data rows, has {len(rows)}")
        # DictReader keys a field past the header by None, and fills one missing with None
        if any(None in row or None in row.values() for row in rows):
            raise InputError("a row has more or fewer fields than the header")
        months = [row["calendar_month"].strip() for row in rows]
        first: dict[float, str] = {}
        for month in months:
            t = _month_time(month)
            if t in first:
                raise InputError(f"calendar month {first[t]} listed more than once")
            first[t] = month
        constant: dict[str, str] = {}
        for col in ("scenario", "series", "units", "source"):
            values = {row[col].strip() for row in rows}
            if len(values) != 1:
                raise InputError(f"column {col!r} must be constant, got {sorted(values)}")
            constant[col] = values.pop()
        return ReferenceMode(
            name=path.stem,
            scenario=constant["scenario"],
            series=constant["series"],
            times=tuple(first),
            values=tuple(read_number(row["value"], f"value for {row['calendar_month']}")
                         for row in rows),
        )


def score_reference_mode(mode: ReferenceMode, trajectory: Trajectory) -> ReferenceResult:
    """Theil-score one reference mode against a simulated trajectory; a series
    it does not record, or a month past its horizon, is an :class:`InputError`."""
    if mode.series not in trajectory.data:
        raise InputError(f"unknown model series {mode.series!r}")
    clock = trajectory.clock
    for t in mode.times:
        if not 0.0 <= t <= clock.horizon:
            raise InputError(
                f"calendar month {clock.calendar_label(t)} falls outside the simulated horizon "
                f"[{clock.calendar_label(0.0)}, {clock.calendar_label(clock.horizon)}]")
    u, bias, variance, covariance = _theil(
        [trajectory.at(mode.series, t) for t in mode.times], mode.values)
    return ReferenceResult(
        mode=mode.name,
        status="scored",
        scenario=mode.scenario,
        series=mode.series,
        n_points=len(mode.values),
        u=u,
        bias_share=bias,
        variance_share=variance,
        covariance_share=covariance,
    )


def reference_report(
    directory: str | Path,
    params: ModelParams = default_params(),
    clock: SimClock = SimClock(),
    scenarios: Mapping[str, Scenario] = BUILTIN_SCENARIOS,
) -> list[ReferenceResult]:
    """Score every reference-mode CSV in ``directory``.

    Modes that cannot be used (missing directory, no CSVs, malformed file,
    unknown scenario, series or month) come back with status "skipped" and
    a reason that names the file, so a degraded data directory weakens the
    report instead of crashing it. A scenario that ``params`` cannot be
    applied to is no fault of a mode: its error leaves the report.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return [ReferenceResult(mode=str(directory), status="skipped",
                                detail="reference directory not found")]
    paths = sorted(directory.glob("*.csv"))
    if not paths:
        return [ReferenceResult(mode=str(directory), status="skipped",
                                detail="no reference CSV files found")]
    cache: dict[str, Trajectory] = {}
    results = []
    for path in paths:
        try:
            mode = load_reference_mode(path)
            with naming(path.name):
                if mode.scenario not in scenarios:
                    raise InputError(f"unknown scenario {mode.scenario!r}")
        except InputError as err:  # a mode's name is its file's stem
            results.append(ReferenceResult(mode=path.stem, status="skipped", detail=str(err)))
            continue
        if mode.scenario not in cache:
            cache[mode.scenario] = run_scenario(params, scenarios[mode.scenario],
                                                clock=clock).trajectory
        try:
            with naming(path.name):
                results.append(score_reference_mode(mode, cache[mode.scenario]))
        except InputError as err:
            results.append(ReferenceResult(mode=path.stem, status="skipped", detail=str(err)))
    return results


# ---------------------------------------------------------------------------
# Sensitivity sweep


_SWEEP_METRICS = (
    "evictions_total",
    "filings_total",
    "arrears_end",
    "homeless_end",
    "insecure_end",
    "crowding_mean",
)


@dataclass(frozen=True)
class SweepEntry:
    """One perturbed run: a single parameter moved by one relative step."""

    parameter: str
    direction: str  # "down" or "up"
    baseline_value: float
    requested_value: float
    applied_value: float
    clamped: bool
    metrics: dict[str, float]
    elasticities: dict[str, float]


def _metric_values(metrics: MetricSet) -> dict[str, float]:
    return {name: float(getattr(metrics, name)) for name in _SWEEP_METRICS}


def sensitivity_sweep(params: ModelParams, scenario: Scenario, clock: SimClock = SimClock(), *,
                      fraction: float) -> tuple[dict[str, float], list[SweepEntry]]:
    """Perturb every registered numeric parameter one at a time by ±fraction.

    Each perturbation moves a single constant around the shipped baseline
    (no re-derivation of the stationary fields, so the response includes any
    induced disequilibrium: that is the point of the exercise). Requested
    values that violate a parameter's documented bounds are clamped and
    flagged. Returns the baseline metric values and one entry per
    perturbation. The scenario is applied once; the baseline and every
    perturbation that moves its parameter, made to the baseline's applied
    parameters, are integrated as one batch, the baseline first, which gives
    the numbers separate runs would, bit for bit. A perturbation the
    scenario overrides, or of a policy block the scenario switches off, is
    not run: it reports the baseline metrics, which is what its run gives.

    Elasticities are normalized: (relative metric change) / (relative
    parameter change), using the applied value. A parameter whose baseline
    value is zero has no relative step: both its entries request 0, repeat
    the baseline metrics and report elasticities of 0. A moved value that
    breaks a curve's invariant raises one ``ValueError`` naming the step.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    baseline = scenario.apply(params)

    steps = []  # (path, direction, base, requested, applied, clamped, run) per entry
    sets = [baseline]
    for path in (f.path for f in FIELDS):
        base = float(get_value(params, path))
        for direction, sign in (("down", -1.0), ("up", +1.0)):
            requested = base * (1.0 + sign * fraction)
            applied = clamp_to_bounds(path, requested)
            # the scenario's override puts the value back, and the model never
            # reads a parameter of a policy block the scenario switches off:
            # either way the run would repeat the baseline
            run = applied != base and scenario.reads_from(baseline, path) < math.inf
            steps.append((path, direction, base, requested, applied,
                          applied != requested, run))
            if run:
                try:
                    sets.append(with_values(baseline, {path: applied}))
                except ValueError as err:  # a curve's invariant
                    raise ValueError(f"{path} moved {direction} to {applied!r}: {err}") from err
    runs = map(compute_metrics, run_model(sets, clock, record=METRIC_SERIES))
    base_metrics = _metric_values(next(runs))

    entries: list[SweepEntry] = []
    for path, direction, base, requested, applied, clamped, run in steps:
        values = _metric_values(next(runs)) if run else dict(base_metrics)
        # a moved value has a non-zero base; a skipped run still goes through the
        # formula, which gives -0.0 for a downward step where 0.0 would lose the sign
        rel_dp = (applied - base) / base if applied != base else 0.0
        elasticities = {name: ((values[name] - m0) / m0) / rel_dp if rel_dp and m0 else 0.0
                        for name, m0 in base_metrics.items()}
        entries.append(SweepEntry(
            parameter=path, direction=direction, baseline_value=base,
            requested_value=requested, applied_value=applied, clamped=clamped,
            metrics=values, elasticities=elasticities,
        ))
    return base_metrics, entries


# ---------------------------------------------------------------------------
# Extreme conditions


@dataclass(frozen=True)
class ExtremeCheck:
    """One extreme-input experiment and whether the model behaved."""

    name: str
    passed: bool
    detail: str


def extreme_conditions(
    params: ModelParams = default_params(),
    clock: SimClock = SimClock(),
) -> list[ExtremeCheck]:
    """Run the extreme-input battery and report pass/fail per experiment.

    ``simulate`` refuses a non-finite value and clamps every stock at zero,
    so an experiment also fails when one of its runs raises
    :class:`SimulationError` or clamps a stock: the outflow limiters alone
    must keep the stocks non-negative.
    """
    run1, run2, run3 = (BUILTIN_SCENARIOS[name] for name in ("run1", "run2", "run3"))
    clamps: list[ClampEvent] = []  # those of the experiment being run

    def run(changes: Mapping[str, float], scenario: Scenario) -> Trajectory:
        trajectory = run_scenario(with_values(params, changes), scenario,
                                  clock=clock).trajectory
        clamps.extend(trajectory.clamp_events)
        return trajectory

    def zero_shock() -> tuple[bool, str]:
        """A shock of zero magnitude must reproduce the baseline exactly."""
        base = run({}, run1)
        shocked = run({"covid.magnitude": 0.0}, run2)
        worst = 0.0
        for name, series in base.data.items():
            scale = max(max(map(abs, series)), 1.0)
            moved = max(abs(a - b) for a, b in zip(shocked.data[name], series))
            worst = max(worst, moved / scale)
        return worst <= 1e-12, f"max relative deviation {worst:.2e}"

    def total_income_loss() -> tuple[bool, str]:
        """Total income loss: collections fall to the delay-ceiling floor."""
        traj = run({"covid.magnitude": 1.0, "covid.recovery_time": 1e9}, run2)
        t_probe = params.covid.start_time + 1.0
        if t_probe > traj.clock.horizon:  # at() would read the last sample in its place
            return True, f"probe t={t_probe:g} past the horizon t={traj.clock.horizon:g}"
        expected = traj.at("rent_owed", t_probe) / (
            params.at_rent_base * params.rent_delay_curve.y_final)
        got = traj.at("rent_paid", t_probe)
        rel = abs(got - expected) / max(abs(expected), 1.0)
        return rel <= 1e-9, f"collections at delay ceiling (rel err {rel:.2e})"

    def no_rental_stock() -> tuple[bool, str]:
        """No rental stock at all: unit flows must stay identically zero."""
        traj = run(dict.fromkeys(("units_occupied_initial", "units_pending_initial",
                                  "units_vacant_initial", "units_foreclosed_initial",
                                  "rent_owed_initial", "mortgage_owed_initial"), 0.0), run2)
        peak = max(max(map(abs, traj.data[name]))
                   for name in ("units_occupied", "units_pending_eviction", "units_vacant",
                                "units_foreclosed", "evictions_processed", "eviction_filings"))
        return peak <= 1e-9, f"peak unit-side magnitudes {peak:.2e}"

    def hair_trigger() -> tuple[bool, str]:
        """Hair-trigger landlords: filing pressure explodes, and the limiters
        alone must keep the stocks non-negative."""
        run({"landlord_tolerance": 1.0}, run2)
        return True, "no stock clamped under runaway filings"

    def airtight_moratorium() -> tuple[bool, str]:
        """An airtight moratorium processes zero evictions inside its window
        and resumes processing after it lapses."""
        traj = run({"moratorium.processing_reduction": 1.0}, run3)
        m = params.moratorium
        end = m.start_time + m.duration
        samples = list(zip(traj.clock.grid, traj.data["evictions_processed"]))
        peak_inside = max((abs(ev) for t, ev in samples if m.start_time <= t < end), default=0.0)
        resumed = max((ev for t, ev in samples if t >= end), default=None)
        if resumed is None:  # nothing resumes inside the horizon, so only the window is judged
            return peak_inside == 0.0, (f"peak in-window rate {peak_inside:.2e}, window end "
                                        f"t={end:g} past the horizon")
        return (peak_inside == 0.0 and resumed > 0.0,
                f"peak in-window rate {peak_inside:.2e}, post-window peak {resumed:.3g}")

    def empty_household_pools() -> tuple[bool, str]:
        """Nobody insecure or homeless at the outset: inflows rebuild the
        pools from zero."""
        run({"households_insecure_initial": 0.0, "households_homeless_initial": 0.0}, run2)
        return True, "household pools rebuilt from zero with no stock clamped"

    checks = []
    for name, experiment in (("zero_shock_matches_baseline", zero_shock),
                             ("total_income_loss_bounded", total_income_loss),
                             ("no_rental_stock_stays_empty", no_rental_stock),
                             ("hair_trigger_landlords_bounded", hair_trigger),
                             ("airtight_moratorium_blocks_processing", airtight_moratorium),
                             ("empty_household_pools_rebuild", empty_household_pools)):
        clamps.clear()
        try:
            passed, detail = experiment()
        except SimulationError as err:
            passed, detail = False, str(err)
        if clamps:
            first = clamps[0]
            passed, detail = False, (f"{len(clamps)} clamp event(s), first {first.name} "
                                     f"at t={first.time:g} ({first.value:.3e})")
        checks.append(ExtremeCheck(name=name, passed=passed, detail=detail))
    return checks
