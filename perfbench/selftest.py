#!/usr/bin/env python3
"""Fast self-test of the benchmark, one operation per workload.

    python3 perfbench/selftest.py

Checks that every end-to-end metric is printed, and every declared one
emitted, for every workload,
that a tampered suite artifact counts as a failed operation, and that a
traced run emits every per-layer metric (declared or printed only) with
exactly 201 derivative calls per integration on ``sweep_run2``.
Exits 0 when every check passes.
"""

import json
import subprocess
import sys

import run

# every per-layer metric the traced run reports, declared in BENCHMARK.json or not
LAYER_METRICS = {
    "cli.import_s", "cli.import_scipy_s", "cli.main_self_s",
    "params.load_params_s", "params.with_value_s", "params.with_value_calls",
    "params.validate_params_s", "params.validate_params_calls",
    "scenarios.apply_s", "scenarios.apply_calls", "scenarios.run_scenario_s",
    "scenarios.run_scenario_calls", "scenarios.compute_metrics_s",
    "scenarios.emit_timeseries_s", "scenarios.emit_rows",
    "model.run_model_s", "model.deriv_s", "model.deriv_calls",
    "engine.simulate_self_s", "engine.euler_step_s", "engine.euler_step_calls",
    "validation.sweep_self_s", "validation.sweep_runs",
    "calibration.evaluations", "calibration.loss_s", "calibration.solver_self_s",
    "calibration.final_loss",
    "output.write_csv_s", "output.write_json_s", "output.manifest_s",
    "output.bytes_written", "output.files_written",
    "trace.overhead_s", "trace.uncovered_s",
}
END_TO_END = {"setup_s", "wall_s", "op_ms_p50", "op_ms_tail", "runs_per_s", "peak_rss_mb",
              "fail_ratio"}
TINY = "0.1"  # seconds: one operation per workload


def bench_blocks(trace: str) -> list[list[str]]:
    """Output of ``--workload all``, one list of lines per workload."""
    proc = subprocess.run([sys.executable, str(run.ROOT / "perfbench" / "run.py"),
                           "--workload", "all", "--seed", "1", "--seconds", TINY,
                           "--trace", trace],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"run.py --trace {trace} exited {proc.returncode}: {proc.stderr}")
    blocks, current = [], []
    for line in proc.stdout.splitlines():
        current.append(line)
        if line.startswith("{"):
            blocks.append(current)
            current = []
    return blocks


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)

    declared = {m["name"] for m in bench["end_to_end"]}
    blocks = bench_blocks("0")
    expect(len(blocks) == len(run.WORKLOADS), "untraced: one result per workload")
    for name, block in zip(run.WORKLOADS, blocks):
        result = json.loads(block[-1])
        expect(set(result["metrics"]) == declared, f"{name}: every end-to-end metric emitted")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
               f"{name}: untampered operation passes its check")
        printed = {line.split()[0] for line in block if line.strip()}
        expect(END_TO_END <= printed, f"{name}: all 7 end-to-end metrics printed")

    workload = run.CliSuite(seed=0)
    honest_op = workload.op

    def tampered_op(traced):
        outcome = honest_op(traced)
        path = workload.out / "run2_timeseries.csv"
        data = bytearray(path.read_bytes())
        data[-2] ^= 1
        path.write_bytes(bytes(data))
        return outcome

    workload.op = tampered_op
    result = run.measure(workload, float(TINY), False, bench)
    expect(not result["correct"] and result["failed"] == result["attempted"] == 1,
           "a tampered artifact counts as a failed operation")

    declared = {m["name"] for m in bench["per_layer"]}
    blocks = bench_blocks("1")
    expect(len(blocks) == len(run.WORKLOADS), "traced: one result per workload")
    for name, block in zip(run.WORKLOADS, blocks):
        result = json.loads(block[-1])
        layers = json.loads(next(line for line in block if line.startswith("layers "))[7:])
        expect(set(layers) == LAYER_METRICS, f"{name}: every per-layer metric reported")
        expect(set(result["metrics"]) == declared, f"{name}: every declared layer metric emitted")
        expect(result["correct"], f"{name}: traced operations pass their checks")
        expect(layers["model.deriv_calls"] == 201 * layers["scenarios.run_scenario_calls"] > 0,
               f"{name}: 201 derivative calls per integration")
        if name == "sweep_run2":
            expect(layers["validation.sweep_runs"] == layers["scenarios.run_scenario_calls"],
                   f"{name}: every integration runs inside the sweep")
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
