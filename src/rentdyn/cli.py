"""Command-line interface.

Six subcommands cover the library's workflows:

* ``simulate``  run one scenario, print its metrics, optionally write files
* ``suite``     run every scenario and print the summary table
* ``compare``   metric-by-metric difference between two scenarios
* ``sweep``     one-at-a-time sensitivity sweep with elasticities
* ``validate``  reference-mode fit statistics plus the extreme-input battery
* ``calibrate`` fit spec'd parameters and write an updated parameter file

Input problems (a malformed command line, unknown scenario, malformed file,
empty path, bad clock, a step on which an outflow cap binds at t=0, an
``--out`` a file is in the way of or with a name too long, a malformed
``SOURCE_DATE_EPOCH``) exit with status 1 and one ``error:`` line before any
output file is created; ``--help`` and ``--version`` exit 0. A write
refused later exits the same way, naming the file, and writes no manifest;
each write is atomic, so no artifact is ever left half written.

Only ``calibrate`` loads ``rentdyn.calibration``, a bounded Levenberg-Marquardt
fit of its own (More, 1978) that imports no scipy, and only ``sweep`` and
``validate`` load ``rentdyn.validation``. numpy enters a process only through
a batch (``model.run_model`` of a list, which ``sweep`` makes): single runs,
the fit's among them, keep their samples as Python floats.

Run as its own process, ``main`` freezes the ~15,000 objects its imports
built (``gc.freeze``), so the collections at exit no longer walk them.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path
from typing import Callable, Iterable, NoReturn

from rentdyn import __version__
from rentdyn.engine import MAX_STEPS, SimClock, SimulationError
from rentdyn.model import drain_cap_bound
from rentdyn.output import csv_lines, manifest_timestamp, write_csv, write_json, \
    write_manifest
from rentdyn.params import ModelParams, ParamError, ParamFileError, default_params, \
    get_value, load_params, save_params
from rentdyn.scenarios import BUILTIN_SCENARIOS, RunResult, Scenario, compare, \
    emit_timeseries, load_scenarios, run_many, run_scenario

__all__ = ["main"]


class CliError(Exception):
    """A user-input problem that should exit with status 1."""


class _Parser(argparse.ArgumentParser):
    """A malformed command line is an input problem like any other."""

    def error(self, message: str) -> NoReturn:
        raise CliError(message)


def _add_common(parser: argparse.ArgumentParser, with_format: bool = False) -> None:
    parser.add_argument("--params", metavar="FILE",
                        help="parameter file (default: built-in calibration)")
    parser.add_argument("--scenarios", metavar="FILE",
                        help="scenario file (default: built-in scenario set)")
    parser.add_argument("--dt", type=float, default=SimClock.dt, metavar="MONTHS",
                        help=f"integration step in months (default {SimClock.dt:g}); the "
                             f"{SimClock.horizon:g}-month horizon must be 1 to {MAX_STEPS} "
                             f"whole steps, the {SimClock.burn_in:g}-month burn-in whole "
                             "steps, and no outflow cap may bind at t=0 (one step draining "
                             "a stock below zero)")
    parser.add_argument("--seed", type=int, default=None, metavar="N",
                        help="run seed, recorded in the manifest (the model is "
                             "deterministic; the seed only labels outputs)")
    parser.add_argument("--out", metavar="DIR",
                        help="directory for output artifacts (created if needed)")
    if with_format:
        parser.add_argument("--format", choices=("csv", "json"), default="csv",
                            help="time-series artifact format (default csv)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rentdyn",
        description="Rental-market dynamics: shocks, evictions, and policy runs.",
    )
    parser.add_argument("--version", action="version", version=f"rentdyn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario")
    p.add_argument("--scenario", default="run1", metavar="NAME",
                   help="scenario name (default run1)")
    p.add_argument("--series", metavar="A,B,C",
                   help="comma-separated series selection for the time-series file")
    _add_common(p, with_format=True)

    p = sub.add_parser("suite", help="run every scenario and summarize")
    _add_common(p, with_format=True)

    p = sub.add_parser("compare", help="compare two scenarios metric by metric")
    p.add_argument("--baseline", default="run1", metavar="NAME")
    p.add_argument("--variant", default="run2", metavar="NAME")
    _add_common(p)

    p = sub.add_parser("sweep", help="one-at-a-time parameter sensitivity sweep")
    p.add_argument("--scenario", default="run2", metavar="NAME",
                   help="scenario the sweep perturbs (default run2)")
    p.add_argument("--fraction", type=float, default=0.15, metavar="F",
                   help="relative perturbation per direction (default 0.15)")
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="rows to print, ranked by elasticity magnitude (default 10)")
    _add_common(p)

    p = sub.add_parser("validate", help="reference-mode fits and extreme-input checks")
    p.add_argument("--references", metavar="DIR",
                   help="directory of reference CSVs (default ./reference_modes, "
                        "skipped when missing)")
    _add_common(p)

    p = sub.add_parser("calibrate", help="fit parameters against scenario targets")
    p.add_argument("--spec", required=True, metavar="FILE",
                   help="YAML calibration spec (parameters, targets, options)")
    _add_common(p)
    return parser


def _load_inputs(args) -> tuple[ModelParams, dict[str, Scenario], SimClock, str | None]:
    """Resolve parameters, scenario set, and clock; fail before any output."""
    # an empty path would otherwise read as not given, or as the working directory
    for option in ("params", "scenarios", "out", "references", "spec"):
        if getattr(args, option, None) == "":
            raise CliError(f"--{option} names no path: it is empty")
    params_file = None
    if args.params:
        try:
            params = load_params(args.params)
        except (OSError, ParamError, ParamFileError) as err:
            raise CliError(f"cannot load parameters: {err}") from err
        params_file = str(args.params)
    else:
        params = default_params()
    if args.scenarios:
        try:
            scenarios = load_scenarios(args.scenarios)
        except (OSError, ValueError) as err:
            raise CliError(f"cannot load scenarios: {err}") from err
    else:
        scenarios = dict(BUILTIN_SCENARIOS)
    try:
        clock = SimClock(dt=args.dt)
    except ValueError as err:
        raise CliError(f"bad clock: {err}") from err
    for name, scenario in scenarios.items():
        try:
            bound = drain_cap_bound(scenario.apply(params), clock.dt)
        except ValueError as err:  # out of bounds, or a curve's own invariant
            raise CliError(f"scenario {name!r}: {err.args[0]}") from err
        if bound is not None:
            # shown rounded down, so the step it names still passes
            raise CliError(f"scenario {name!r}: --dt {clock.dt:g} lets an outflow cap bind at "
                           "t=0 (one Euler step would drain a stock below zero); the largest "
                           f"step on which none binds is {bound * 0.9995:.4g}")
    if args.out:
        out = Path(args.out)
        try:
            # the nearest path on the way to --out that exists must be a directory
            ancestor = next(path for path in (out, *out.parents) if path.exists())
            name_max = os.pathconf(ancestor, "PC_NAME_MAX")
            manifest_timestamp()
        except OSError as err:  # a name too long to look up, a directory it may not search
            raise CliError(f"--out {out}: {err.strerror}") from err
        except ValueError as err:  # of SOURCE_DATE_EPOCH
            raise CliError(str(err)) from err
        if not ancestor.is_dir():
            raise CliError(f"--out {out}: a file is in the way of that directory")
        # the directories still to make, checked without making them
        if any(len(os.fsencode(part)) > name_max for part in out.parts[len(ancestor.parts):]):
            raise CliError(f"--out {out}: a name is longer than its file system's {name_max} bytes")
    return params, scenarios, clock, params_file


def _pick_scenario(scenarios: dict[str, Scenario], name: str) -> Scenario:
    if name not in scenarios:
        known = ", ".join(sorted(scenarios))
        raise CliError(f"unknown scenario {name!r}; available: {known}")
    return scenarios[name]


def _metric_lines(result: RunResult) -> list[str]:
    m = result.metrics
    exhausted = "never" if m.assistance_exhausted_at is None \
        else f"t={m.assistance_exhausted_at:g}"
    return [
        f"evictions (window total)      {m.evictions_total:,.0f}",
        f"filings (window total)        {m.filings_total:,.0f}",
        f"arrears at end                ${m.arrears_end/1e9:,.2f}B",
        f"arrears growth (36 months)    ${m.arrears_growth_36mo/1e9:,.2f}B",
        f"crowding (window mean)        {m.crowding_mean:.3f} households/unit",
        f"homeless at end               {m.homeless_end:,.0f}",
        f"insecure at end               {m.insecure_end:,.0f}",
        f"assistance disbursed          ${m.assistance_disbursed_end/1e9:,.2f}B "
        f"({m.assistance_disbursed_fraction*100:.1f}% of funds, exhausted: {exhausted})",
    ]


def _write_outputs(args, command: str, params: ModelParams, clock: SimClock,
                   params_file: str | None, scenario_names: Iterable[str],
                   write_artifacts: Callable[[Path], list[Path]]) -> None:
    """With ``--out``, write the artifacts, then the manifest that digests them."""
    if not args.out:
        return
    out = Path(args.out)
    try:
        artifacts = write_artifacts(out)
        write_manifest(out, command, params, clock, artifacts, scenario_names,
                       params_file, args.seed)
    except OSError as err:  # with no manifest, the directory reads as interrupted
        raise CliError(f"cannot write {err.filename2 or err.filename or out}: "
                       f"{err.strerror}") from err
    print(f"wrote {len(artifacts)} artifact(s) + manifest to {out}")


def _write_run_artifacts(result: RunResult, out: Path, fmt: str, columns: list[str] | None,
                         rendered: dict) -> list[Path]:
    """Write a run's time series and metrics. ``rendered`` holds the CSV
    lines of the tables written before, by trajectory: a run restarted from
    one of them copies the lines of the rows it copied, the same floats."""
    header, rows = emit_timeseries(result, columns)
    name = result.scenario.name
    artifacts = []
    if fmt == "csv":
        k, earlier = result.trajectory.restart or (0, None)
        lines = rendered.get(earlier, [])[:k]
        lines += csv_lines(rows[len(lines):])
        rendered[result.trajectory] = lines
        artifacts.append(write_csv(out / f"{name}_timeseries.csv", header, lines))
    else:
        artifacts.append(write_json(out / f"{name}_timeseries.json",
                                    {"header": header, "rows": rows}))
    artifacts.append(write_json(out / f"{name}_metrics.json", asdict(result.metrics)))
    return artifacts


def _cmd_simulate(args) -> int:
    params, scenarios, clock, params_file = _load_inputs(args)
    scenario = _pick_scenario(scenarios, args.scenario)
    columns = None
    if args.series is not None:
        columns = [c.strip() for c in args.series.split(",") if c.strip()]
    result = run_scenario(params, scenario, clock=clock)
    if columns is not None:
        try:
            emit_timeseries(result, columns)
        except (KeyError, ValueError) as err:  # str() of a KeyError quotes it
            raise CliError(err.args[0]) from err
    print(f"{scenario.name}: {scenario.description}")
    for line in _metric_lines(result):
        print("  " + line)
    _write_outputs(args, f"simulate --scenario {scenario.name}", params, clock,
                   params_file, [scenario.name],
                   lambda out: _write_run_artifacts(result, out, args.format, columns, {}))
    return 0


def _cmd_suite(args) -> int:
    params, scenarios, clock, params_file = _load_inputs(args)
    results = run_many(params, scenarios, clock=clock)
    name_w = max(len("scenario"), *map(len, results))
    print(f"{'scenario':<{name_w}}  {'evictions':>12}  {'arrears_end':>12}  "
          f"{'homeless':>10}  {'crowding':>8}  {'disbursed':>10}")
    for name, result in results.items():
        m = result.metrics
        print(f"{name:<{name_w}}  {m.evictions_total:>12,.0f}  "
              f"${m.arrears_end/1e9:>10.2f}B  {m.homeless_end:>10,.0f}  "
              f"{m.crowding_mean:>8.3f}  {m.assistance_disbursed_fraction*100:>9.1f}%")
    rendered = {}
    _write_outputs(args, "suite", params, clock, params_file, list(results),
                   lambda out: [path for result in results.values() for path in
                                _write_run_artifacts(result, out, args.format, None,
                                                     rendered)])
    return 0


def _cmd_compare(args) -> int:
    params, scenarios, clock, params_file = _load_inputs(args)
    pair = {name: _pick_scenario(scenarios, name) for name in (args.baseline, args.variant)}
    results = run_many(params, pair, clock=clock)
    table = compare(results[args.baseline], results[args.variant])
    print(f"{args.variant} vs {args.baseline}")
    key_w = max(len(k) for k in table["metrics"])
    for key, row in table["metrics"].items():
        base, var = ("never" if row[side] is None else f"{row[side]:,.4g}"
                     for side in ("baseline", "variant"))
        pct = "" if row["pct_change"] is None else f"  ({row['pct_change']:+.1f}%)"
        print(f"  {key:<{key_w}}  {base:>14} -> {var:>14}{pct}")
    _write_outputs(args, f"compare --baseline {args.baseline} --variant {args.variant}",
                   params, clock, params_file, list(pair),
                   lambda out: [write_json(
                       out / f"compare_{args.baseline}_vs_{args.variant}.json", table)])
    return 0


def _cmd_sweep(args) -> int:
    from rentdyn.validation import SweepEntry, sensitivity_sweep

    params, scenarios, clock, params_file = _load_inputs(args)
    scenario = _pick_scenario(scenarios, args.scenario)
    if not 0.0 < args.fraction < 1.0:
        raise CliError("--fraction must be between 0 and 1")
    if args.top < 0:
        raise CliError(f"--top must not be negative, got {args.top}")
    try:
        base_metrics, entries = sensitivity_sweep(params, scenario, clock=clock,
                                                  fraction=args.fraction)
    except ValueError as err:  # a moved value breaks a curve's invariant
        raise CliError(f"sweep failed: {err}") from err
    ranked = sorted(entries, key=lambda e: -max(abs(v) for v in e.elasticities.values()))
    print(f"sweep of {len(entries)} entries (±{args.fraction*100:.0f}% on every parameter, "
          f"scenario {scenario.name}); top {min(args.top, len(ranked))} by elasticity:")
    for entry in ranked[: args.top]:
        name, value = max(entry.elasticities.items(), key=lambda kv: abs(kv[1]))
        flag = " (clamped)" if entry.clamped else ""
        print(f"  {entry.parameter:<40} {entry.direction:<4} "
              f"{name} {value:+.3f}{flag}")
    # an entry's scalar fields, then its metrics and elasticities, each in base_metrics' order
    header = [f.name for f in fields(SweepEntry)[:-2]]
    header += [f"{kind}_{m}" for kind in ("metric", "elasticity") for m in base_metrics]
    rows = [[*astuple(e)[:-2], *e.metrics.values(), *e.elasticities.values()] for e in entries]
    _write_outputs(args, f"sweep --scenario {scenario.name} --fraction {args.fraction}",
                   params, clock, params_file, [scenario.name],
                   lambda out: [write_csv(out / "sweep.csv", header, csv_lines(rows)),
                                write_json(out / "sweep_baseline.json", base_metrics)])
    return 0


def _cmd_validate(args) -> int:
    from rentdyn.validation import extreme_conditions, reference_report

    params, scenarios, clock, params_file = _load_inputs(args)
    if args.references is not None and not Path(args.references).is_dir():
        raise CliError(f"--references {args.references}: not a directory")
    results = reference_report(args.references or "reference_modes", params, clock,
                               scenarios)
    print("reference modes:")
    for r in results:
        if r.status == "scored":
            print(f"  [SCORED ] {r.mode}: U={r.u:.4f} "
                  f"(bias {r.bias_share:.2f}, variance {r.variance_share:.2f}, "
                  f"covariance {r.covariance_share:.2f}; n={r.n_points}, "
                  f"{r.scenario}/{r.series})")
        else:
            print(f"  [SKIPPED] {r.mode}: {r.detail}")
    checks = extreme_conditions(params, clock)
    print("extreme conditions:")
    failed = 0
    for c in checks:
        mark = "PASS" if c.passed else "FAIL"
        failed += 0 if c.passed else 1
        print(f"  [{mark}] {c.name}: {c.detail}")
    payload = {
        "references": [vars(r) for r in results],
        "extreme_conditions": [vars(c) for c in checks],
    }
    _write_outputs(args, "validate", params, clock, params_file,
                   {r.scenario for r in results if r.scenario},
                   lambda out: [write_json(out / "validation.json", payload)])
    return 1 if failed else 0


def _cmd_calibrate(args) -> int:
    from rentdyn.calibration import CalibrationError, calibrate, load_calibration_spec

    params, scenarios, clock, params_file = _load_inputs(args)
    try:
        spec = load_calibration_spec(args.spec, scenarios)
    except (OSError, CalibrationError) as err:
        raise CliError(f"cannot load calibration spec: {err}") from err
    try:
        result = calibrate(params, spec, clock=clock, scenarios=scenarios)
    except CalibrationError as err:
        raise CliError(f"calibration failed: {err}") from err
    for free in spec.parameters:  # the fit starts from each value clipped into its box
        start = get_value(params, free.path)
        if not free.lower <= start <= free.upper:
            side, bound = ("lower", free.lower) if start < free.lower else ("upper", free.upper)
            print(f"start {free.path} {start:.6g} moved to its {side} bound {bound:.6g}")
    print(f"loss {result.initial_loss:.6g} -> {result.loss:.6g} "
          f"after {result.evaluations} evaluations, {result.scenario_runs} scenario runs "
          f"({'converged' if result.converged else 'not converged'})")
    print("singular values of the scaled Jacobian: "
          + (" ".join(f"{v:.3g}" for v in result.singular_values)
             or "none, the fit ends at a wall of failed runs"))
    print("fitted parameters:")
    for path, value in result.fitted.items():
        print(f"  {path:<40} {value:.6g}")
    for free in spec.parameters:
        for bound, side in ((free.lower, "lower"), (free.upper, "upper")):
            if result.fitted[free.path] == bound:
                print(f"fitted {free.path} ends on its {side} bound {bound:.6g}")
    print("achieved targets:")
    for target in spec.targets:
        got = result.achieved[target.key]
        if got is None:  # an event that never happened
            print(f"  {target.key:<40} never vs {target.value:.6g}")
            continue
        off = abs(got - target.value) / abs(target.value) * 100 if target.value else 0.0
        print(f"  {target.key:<40} {got:.6g} vs {target.value:.6g} ({off:.2f}% off)")
    _write_outputs(args, f"calibrate --spec {args.spec}", params, clock, params_file,
                   {target.scenario for target in spec.targets},
                   lambda out: [save_params(result.params, out / "params.yaml",
                                            name="calibrated", calibrated=result.fitted)])
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "suite": _cmd_suite,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
    "calibrate": _cmd_calibrate,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:  # the process's own command, not a caller in process
        gc.freeze()
    try:
        args = _build_parser().parse_args(argv)
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return status
    except BrokenPipeError:
        # as the SIGPIPE note of the Python docs does: the flush at exit then
        # writes what is left to the null device, not to the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed", file=sys.stderr)
        return 1
    except CliError as err:
        # messages from the loaders may span lines (YAML marks, bound lists)
        print(f"error: {' '.join(str(err).split())}", file=sys.stderr)
        return 1
    except SimulationError as err:
        print(f"simulation failed: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
