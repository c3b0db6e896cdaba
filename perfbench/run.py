#!/usr/bin/env python3
"""rentdyn benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 perfbench/run.py --workload cli_suite --seed 0 --seconds 24 --trace 0

Run it from the root of a rentdyn source tree: the package is imported from
that tree's ``src`` directory and nowhere else. One client process drives one
workload in a closed loop, one operation at a time, and checks the output of
every operation. It starts no threads and at most one child interpreter at a
time.

The seed fixes the workload's inputs and ``--seconds`` fixes how many
operations run (``--seconds`` divided by the workload's nominal operation
time, measured on a 2-core x86-64 VM). ``--trace 0`` prints the end-to-end
metrics. ``--trace 1`` runs half as many operations untraced, then the same
operations again with every traced function wrapped (see ``tracer.py``), and
prints the per-layer metrics; its spans are saved to
``perfbench/.work/trace-<workload>.npz``. ``--workload all`` runs every
workload in turn. Each workload run ends with one JSON result line.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer, child_calls, install, layer_stats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
REFERENCES = Path(__file__).with_name("references.json")

SETUP_REPS = 3
SOURCE_DATE_EPOCH = "1577836800"


class HarnessError(RuntimeError):
    """The benchmark cannot run here (no program, broken inputs)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    # children import from cached bytecode, as an installed package does
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def references(workload: str) -> dict:
    return json.loads(REFERENCES.read_text())[workload]


def import_rentdyn() -> None:
    """Import the package from this tree's ``src`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rentdyn
    if Path(rentdyn.__file__).resolve() != SRC / "rentdyn" / "__init__.py":
        raise HarnessError(f"rentdyn imported from {rentdyn.__file__}, not {SRC}")


def sweep_digest(base: dict, entries: list) -> str:
    """SHA-256 of a sweep table; JSON renders floats with ``repr``, exactly."""
    rows = [base] + [[e.parameter, e.direction, e.baseline_value, e.requested_value,
                      e.applied_value, e.clamped, e.metrics, e.elasticities]
                     for e in entries]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------- workloads


class Workload:
    """One workload: set-up code, then operations that are timed, then checked.

    ``setup_code`` is what a fresh interpreter runs before the workload is
    ready. ``op`` runs one timed operation and returns (scenario integrations,
    outcome, child rusage or None); ``check`` turns the outcome into a list of
    problems, untimed.
    """

    name: str
    nominal_op_s: float
    setup_code: str

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self) -> None:
        pass

    def reset(self) -> None:
        pass

    def layer_counts(self) -> dict[str, float]:
        return {}


class CliSuite(Workload):
    """A fresh ``rentdyn suite --out`` per operation: import, YAML, CSV/JSON writing."""

    name = "cli_suite"
    nominal_op_s = 0.8
    setup_code = "import rentdyn.cli"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.refs = references(self.name)
        self.out = WORK / "suite"
        self.spans_file = WORK / "cli-spans.npz"
        self.stderr_file = WORK / "cli-stderr.txt"

    def argv(self) -> list[str]:
        # the seed only labels the manifest; the run artifacts must not change
        return ["suite", "--params", "params/default.yaml",
                "--scenarios", "scenarios/runs.yaml",
                "--out", str(self.out.relative_to(ROOT)), "--format", "csv",
                "--seed", str(self.seed)]

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.spans_file.unlink(missing_ok=True)

    def op(self, traced: bool):
        if traced:
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                   str(self.spans_file), *self.argv()]
        else:
            cmd = [sys.executable, "-m", "rentdyn.cli", *self.argv()]
        with open(self.stderr_file, "wb") as err:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return len(self.refs["scenarios"]), proc.returncode, usage

    def check(self, returncode: int) -> list[str]:
        if returncode != 0:
            tail = self.stderr_file.read_text(errors="replace").strip().splitlines()[-1:]
            return [f"exit status {returncode}: {' '.join(tail)}"]
        problems = []
        expected = self.refs["artifacts"]
        present = sorted(p.name for p in self.out.iterdir())
        if present != sorted([*expected, "manifest.json"]):
            problems.append(f"unexpected file set {present}")
        digests = {}
        for name, digest in expected.items():
            path = self.out / name
            digests[name] = sha256(path) if path.exists() else None
            if digests[name] != digest:
                problems.append(f"{name}: digest {digests[name]} differs from the reference")
        manifest = self.out / "manifest.json"
        if manifest.exists():
            payload = json.loads(manifest.read_text())
            if payload.get("artifacts") != digests:
                problems.append("manifest digests do not match the files")
            if payload.get("seed") != self.seed:
                problems.append(f"manifest seed {payload.get('seed')} is not {self.seed}")
        return problems

    def layer_counts(self) -> dict[str, float]:
        files = list(self.out.iterdir()) if self.out.exists() else []
        rows = sum(len(p.read_text().splitlines()) - 1
                   for p in files if p.name.endswith("_timeseries.csv"))
        return {"output.bytes_written": sum(p.stat().st_size for p in files),
                "output.files_written": len(files),
                "scenarios.emit_rows": rows}


class SweepRun2(Workload):
    """``sensitivity_sweep`` of run2 in the client: model and engine, no I/O."""

    name = "sweep_run2"
    nominal_op_s = 0.7
    setup_code = ("import rentdyn.validation\n"
                  "from rentdyn.params import default_params\n"
                  "from rentdyn.scenarios import load_scenarios\n"
                  "params = default_params()\n"
                  "scenario = load_scenarios('scenarios/runs.yaml')['run2']")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.fraction = 0.15 if seed == 0 else random.Random(seed).uniform(0.10, 0.20)
        self.refs = references(self.name)
        self.first_digest = None

    def prepare(self) -> None:
        import_rentdyn()
        from rentdyn import params, scenarios, validation
        self.validation = validation
        self.params = params.default_params()
        self.scenario = scenarios.load_scenarios(ROOT / "scenarios" / "runs.yaml")["run2"]

    def op(self, traced: bool):
        base, entries = self.validation.sensitivity_sweep(
            self.params, self.scenario, fraction=self.fraction)
        runs = 1 + sum(e.applied_value != e.baseline_value for e in entries)
        return runs, (base, entries), None

    def check(self, outcome) -> list[str]:
        base, entries = outcome
        problems = []
        if base != self.refs["baseline_metrics"]:
            problems.append(f"baseline metrics {base} differ from run2's reference")
        if len(entries) != self.refs["entries"]:
            problems.append(f"{len(entries)} entries, expected {self.refs['entries']}")
        bad = [e.parameter for e in entries
               if not all(map(math.isfinite, [e.applied_value, *e.metrics.values(),
                                              *e.elasticities.values()]))]
        if bad:
            problems.append(f"non-finite entries for {bad[:3]}")
        digest = sweep_digest(base, entries)
        if self.seed == 0 and digest != self.refs["seed0_digest"]:
            problems.append("seed-0 table digest differs from the reference")
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("table differs from this run's first sweep")
        return problems


# Starts in [0.45, 0.55] whose evaluation counts at the reference commit lie
# within 2% of the 393 of the 0.5 start. The count is chaotic in the start
# (299 to 563 over a 0.005 grid of the range, 322 to 409 within 1e-4 of 0.5),
# so a free draw would make calibration time mostly a function of the seed.
CALIBRATION_STARTS = (0.475, 0.5, 0.525, 0.54)


class CalibrateRecovery(Workload):
    """Nelder-Mead ``calibrate`` back to the spec's targets from a moved start."""

    name = "calibrate_recovery"
    nominal_op_s = 7.0
    setup_code = ("import rentdyn.calibration\n"
                  "from rentdyn.params import default_params\n"
                  "params = default_params()\n"
                  "spec = rentdyn.calibration.load_calibration_spec("
                  "'params/calibration.yaml')")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.start_magnitude = (0.5 if seed == 0
                                else random.Random(seed).choice(CALIBRATION_STARTS))
        self.results = []

    def prepare(self) -> None:
        import_rentdyn()
        from rentdyn import calibration, params
        self.calibration = calibration
        self.spec = calibration.load_calibration_spec(ROOT / "params" / "calibration.yaml")
        self.start = params.with_value(params.default_params(), "covid.magnitude",
                                       self.start_magnitude)
        self.scenarios_per_eval = len({t.scenario for t in self.spec.targets})

    def op(self, traced: bool):
        result = self.calibration.calibrate(self.start, self.spec)
        self.results.append(result)
        # plus the initial-loss evaluation and the final achieved-metrics pass
        runs = (result.evaluations + 2) * self.scenarios_per_eval
        return runs, result, None

    def check(self, result) -> list[str]:
        problems = []
        if not result.converged:
            problems.append("did not converge")
        if not result.loss < result.initial_loss:
            problems.append(f"loss {result.loss} not below initial {result.initial_loss}")
        for target in self.spec.targets:
            got = result.achieved[target.key]
            if not abs(got - target.value) <= 0.01 * abs(target.value):
                problems.append(f"{target.key} = {got}, target {target.value}")
        return problems


WORKLOADS = {w.name: w for w in (CliSuite, SweepRun2, CalibrateRecovery)}


# ---------------------------------------------------------------- measuring


def importtime_split(stderr: str) -> tuple[float, float]:
    """(rentdyn, scipy) import seconds from ``-X importtime`` output.

    rentdyn: cumulative time of the top-level ``rentdyn*`` imports, which
    includes everything they pull in. scipy: self time of every scipy module.
    """
    rentdyn_us = scipy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        module = name.strip()
        if name.startswith(" rentdyn"):
            rentdyn_us += int(cumulative_us)
        if module == "scipy" or module.startswith("scipy."):
            scipy_us += int(self_us)
    return rentdyn_us / 1e6, scipy_us / 1e6


def measure_setup(code: str, importtime: bool) -> tuple[list[float], list[tuple]]:
    """Seconds from spawning a fresh interpreter until it has run ``code``.

    An untimed start comes first, so the timed ones find compiled bytecode.
    """
    expected = f"ready {SRC / 'rentdyn' / '__init__.py'}"
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c",
           f"{code}\nimport rentdyn\nprint('ready', rentdyn.__file__, flush=True)"]
    err_path = WORK / "setup-stderr.txt"
    times, imports = [], []
    for rep in range(SETUP_REPS + 1):
        with open(err_path, "w") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                                    stdout=subprocess.PIPE, stderr=err)
            line = proc.stdout.readline().strip()
            elapsed = perf_counter() - t0
            proc.communicate()
        stderr = err_path.read_text()
        if proc.returncode != 0 or line != expected:
            tail = " ".join(stderr.strip().splitlines()[-1:])
            raise HarnessError(f"set-up failed (status {proc.returncode}): {tail}")
        if rep:
            times.append(elapsed)
            if importtime:
                imports.append(importtime_split(stderr))
    return times, imports


def run_ops(workload: Workload, n: int, tracer: Tracer | None = None) -> list[dict]:
    """Closed loop: each operation starts after the previous one is checked."""
    records = []
    for i in range(n):
        workload.reset()
        span = None
        t0 = perf_counter()
        try:
            if tracer is None:
                runs, outcome, usage = workload.op(traced=False)
            else:
                tracer.op_id = i
                with tracer.span("bench.op") as span:
                    runs, outcome, usage = workload.op(traced=True)
            latency = perf_counter() - t0
            problems = workload.check(outcome)
        except Exception as err:  # an operation that raises is a failed operation
            latency, runs, usage = perf_counter() - t0, 0, None
            problems = [f"raised {type(err).__name__}: {err}"]
        if span is not None and isinstance(workload, CliSuite) \
                and workload.spans_file.exists():
            tracer.adopt(workload.spans_file, parent=span)
        records.append({"latency_s": latency, "runs": runs, "problems": problems,
                        "rss_kb": usage.ru_maxrss if usage is not None else None,
                        "counts": workload.layer_counts() if tracer is not None else {}})
    return records


def tail_percentile(latencies: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile (nearest rank) with at least 10 samples above it."""
    n = len(latencies)
    if n < 20:
        return None
    ranked = sorted(latencies)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ranked[rank - 1]
    return None


def run_info(seed: int, load: tuple) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    versions = {}
    for dist in ("numpy", "scipy", "PyYAML"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {"git_sha": sha, "platform": platform.platform(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), **versions,
            "loadavg_at_start": list(load), "seed": seed}


def end_to_end(workload: Workload, records: list[dict], setups: list[float]) -> dict:
    latencies = [r["latency_s"] for r in records]
    wall = sum(latencies)
    if isinstance(workload, CliSuite):
        rss_kb = max(r["rss_kb"] or 0 for r in records)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        ("setup_s", "s"): statistics.median(setups),
        ("wall_s", "s"): wall,
        ("op_ms_p50", "ms"): statistics.median(latencies) * 1e3,
        ("runs_per_s", "1/s"): sum(r["runs"] for r in records) / wall,
        ("peak_rss_mb", "MB"): rss_kb / 1024,
    }


def per_layer(workload: Workload, spans: dict, plain: list[dict], traced: list[dict],
              imports: list[tuple]) -> dict:
    """Every layer metric of a traced run, as totals over its traced operations.

    ``_s`` names are inclusive times, ``_self_s`` names exclude child spans.
    """
    stats = layer_stats(spans)

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    results = getattr(workload, "results", [])[-len(traced):]
    metrics = {
        "cli.import_s": statistics.median(i[0] for i in imports),
        "cli.import_scipy_s": statistics.median(i[1] for i in imports),
        "cli.main_self_s": get("cli.main", "self_s"),
        "params.load_params_s": get("params.load_params", "incl_s"),
        "params.with_value_s": get("params.with_value", "incl_s"),
        "params.with_value_calls": get("params.with_value", "calls"),
        "params.validate_params_s": get("params.validate_params", "incl_s"),
        "params.validate_params_calls": get("params.validate_params", "calls"),
        "scenarios.apply_s": get("scenarios.apply", "incl_s"),
        "scenarios.apply_calls": get("scenarios.apply", "calls"),
        "scenarios.run_scenario_s": get("scenarios.run_scenario", "incl_s"),
        "scenarios.run_scenario_calls": get("scenarios.run_scenario", "calls"),
        "scenarios.compute_metrics_s": get("scenarios.compute_metrics", "incl_s"),
        "scenarios.emit_timeseries_s": get("scenarios.emit_timeseries", "incl_s"),
        "scenarios.emit_rows": 0,
        "model.run_model_s": get("model.run_model", "incl_s"),
        "model.deriv_s": get("model.deriv", "incl_s"),
        "model.deriv_calls": get("model.deriv", "calls"),
        "engine.simulate_self_s": get("engine.simulate", "self_s"),
        "engine.euler_step_s": get("engine.euler_step", "incl_s"),
        "engine.euler_step_calls": get("engine.euler_step", "calls"),
        "validation.sweep_self_s": get("validation.sweep", "self_s"),
        "validation.sweep_runs": child_calls(spans, "scenarios.run_scenario",
                                             "validation.sweep"),
        "calibration.evaluations": sum(r.evaluations for r in results),
        "calibration.loss_s": get("calibration.loss", "incl_s"),
        "calibration.solver_self_s": get("calibration.calibrate", "self_s"),
        "calibration.final_loss": results[-1].loss if results else 0.0,
        "output.write_csv_s": get("output.write_csv", "incl_s"),
        "output.write_json_s": get("output.write_json", "incl_s"),
        "output.manifest_s": get("output.manifest", "incl_s"),
        "output.bytes_written": 0,
        "output.files_written": 0,
        "trace.overhead_s": (sum(r["latency_s"] for r in traced)
                             - sum(r["latency_s"] for r in plain)),
        "trace.uncovered_s": get("bench.op", "self_s"),
    }
    for record in traced:
        for name, count in record["counts"].items():
            metrics[name] += count
    return metrics


def measure(workload: Workload, seconds: float, trace: bool, bench: dict) -> dict:
    """Run one workload, print its report and return its result object."""
    load = os.getloadavg()
    WORK.mkdir(parents=True, exist_ok=True)
    n_ops = max(1, round(seconds / workload.nominal_op_s))
    info = run_info(workload.seed, load)
    setups, imports = measure_setup(workload.setup_code, importtime=trace)
    workload.prepare()
    print(f"workload {workload.name}  seed {workload.seed}  "
          f"{'traced' if trace else 'untraced'}, closed loop, 1 client")
    print("run-info " + json.dumps(info, sort_keys=True))

    if not trace:
        records = run_ops(workload, n_ops)
        measured = end_to_end(workload, records, setups)
        metrics = {name: value for (name, _), value in measured.items()}
        declared = bench["end_to_end"]
        tail = tail_percentile([r["latency_s"] for r in records])
        report = [f"{name:<20}{value:.6g} {unit}" for (name, unit), value in measured.items()]
        report += [f"{'op_ms_tail':<20}" + (f"p{tail[0]} {tail[1] * 1e3:.1f} ms" if tail else
                                           f"omitted: {len(records)} operations < 20"),
                   f"(op_ms_* over {len(records)} operations; "
                   f"setup_s median of {len(setups)} fresh interpreters)"]
    else:
        k = max(1, n_ops // 2)
        plain = run_ops(workload, k)
        tracer = Tracer()
        uninstall = install(tracer)
        try:
            traced = run_ops(workload, k, tracer)
        finally:
            uninstall()
        spans = tracer.arrays()
        tracer.save(WORK / f"trace-{workload.name}.npz")
        records = plain + traced
        metrics = per_layer(workload, spans, plain, traced, imports)
        declared = bench["per_layer"]
        report = [f"{'span':<28}{'calls':>10}{'incl s':>11}{'self s':>11}"]
        report += [f"{name:<28}{s['calls']:>10}{s['incl_s']:>11.4f}{s['self_s']:>11.4f}"
                   for name, s in sorted(layer_stats(spans).items())]
        report += [f"{name:<30}{value:.6g}" for name, value in metrics.items()]
        report.append("layers " + json.dumps(metrics, sort_keys=True))

    units = {m["name"]: m["unit"] for m in declared}
    failed = sum(1 for r in records if r["problems"])
    print("\n".join(report))
    print(f"{'fail_ratio':<20}{failed}/{len(records)} = {failed / len(records):.4g}")
    for i, r in enumerate(records):
        for problem in r["problems"]:
            print(f"operation {i} failed: {problem}")
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = measure(WORKLOADS[name](args.seed), args.seconds, bool(args.trace),
                             bench)
            print(json.dumps(result), flush=True)
    except (HarnessError, OSError, KeyError) as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK / "suite", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
