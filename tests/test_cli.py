"""Command-line interface: artifacts, manifests, determinism, failure modes."""

import argparse
import contextlib
import copy
import functools
import gc
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from rentdyn.calibration import CalibrationError, load_calibration_spec
from rentdyn.cli import CliError, _build_parser, _load_inputs, main
from rentdyn.output import csv_lines, file_sha256, write_csv
from rentdyn.params import default_params, save_params, with_values


# ---------------------------------------------------------------- basics

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "rentdyn" in capsys.readouterr().out


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rentdyn.cli", "simulate", "--scenario", "run1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "evictions (window total)" in proc.stdout


def test_main_in_process_leaves_the_collector_as_it_was(capsys):
    before = gc.get_freeze_count()
    assert main(["simulate", "--scenario", "run1"]) == 0
    assert gc.get_freeze_count() == before


def test_main_as_the_process_command_freezes_the_import_heap():
    """``main()`` with no arguments reads ``sys.argv``, as the console script
    and ``python -m rentdyn.cli`` call it; it freezes what the imports built."""
    code = ("import gc, sys\n"
            "from rentdyn.cli import main\n"
            "sys.argv = ['rentdyn', 'simulate', '--scenario', 'run1']\n"
            "status = main()\n"
            "print(status, gc.get_freeze_count(), file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "evictions (window total)" in proc.stdout
    status, frozen = map(int, proc.stderr.split())
    assert status == 0 and frozen > 0


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, written", [
    (["simulate"], {"run1_timeseries.csv", "run1_metrics.json"}),
    (["calibrate", "--spec", "params/calibration.yaml"], {"params.yaml"}),
], ids=["simulate", "calibrate"])
def test_closed_stdout_fails_with_one_line(tmp_path, monkeypatch, argv, written, buffered):
    """Output to a pipe nobody reads: a buffered stdout fails at the last
    flush, after every file and the manifest are written, and an unbuffered
    one at the first line, before any file is."""
    if buffered:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    else:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    out = tmp_path / "out"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "rentdyn.cli", *argv, "--out", str(out)],
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == "error: standard output was closed\n"
    if buffered:
        assert {p.name for p in out.iterdir()} == written | {"manifest.json"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["artifacts"]) == written
    else:
        assert not out.exists()


def test_import_leaves_the_validation_module_to_its_commands():
    """simulate, suite and compare never use rentdyn.validation; sweep and
    validate import it themselves."""
    code = "import sys, rentdyn.cli; print('rentdyn.validation' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "False"


# 41 options in all: each is read by the command that registers it
_COMMON_OPTIONS = {"--params", "--scenarios", "--dt", "--seed", "--out"}
_OWN_OPTIONS = {
    "simulate": {"--scenario", "--series", "--format"},
    "suite": {"--format"},
    "compare": {"--baseline", "--variant"},
    "sweep": {"--scenario", "--fraction", "--top"},
    "validate": {"--references"},
    "calibrate": {"--spec"},
}


@pytest.mark.parametrize("command", _OWN_OPTIONS)
def test_each_command_registers_only_the_options_it_reads(command):
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(_OWN_OPTIONS)
    options = {o for a in sub.choices[command]._actions for o in a.option_strings}
    assert options - {"-h", "--help"} == _COMMON_OPTIONS | _OWN_OPTIONS[command]


def test_simulate_prints_summary_without_out_dir(capsys, tmp_path):
    rc = main(["simulate", "--scenario", "run2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "income shock" in out
    assert "arrears at end" in out


# ---------------------------------------------------------------- artifacts

def test_simulate_writes_artifacts_and_manifest(tmp_path):
    out = tmp_path / "artifacts"
    rc = main(["simulate", "--scenario", "run1", "--out", str(out)])
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"run1_timeseries.csv", "run1_metrics.json", "manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "rentdyn"
    assert manifest["scenarios"] == ["run1"]
    assert manifest["clock"]["dt"] == 0.25
    for name, digest in manifest["artifacts"].items():
        assert file_sha256(out / name) == digest


def test_suite_writes_every_scenario(tmp_path):
    out = tmp_path / "suite"
    rc = main(["suite", "--out", str(out)])
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    for scenario in ("run1", "run2", "run3", "run4", "run4a"):
        assert f"{scenario}_timeseries.csv" in names
        assert f"{scenario}_metrics.json" in names
    assert "manifest.json" in names


def test_suite_table_lines_up(capsys):
    """The name column is at least as wide as its header, "scenario", which
    is longer than every shipped name: each row is as long as the header."""
    assert main(["suite"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 5
    assert [len(row) for row in rows] == [len(header)] * 5


@pytest.mark.parametrize("dt", ["0.25", "0.5", "0.125"])
@pytest.mark.parametrize("scenarios", [
    "scenarios/runs.yaml",
    # two runs that differ only in the sign of a zero
    "zero: {overrides: {avg_monthly_rent: 0.0}}\n"
    "zero_negative: {overrides: {avg_monthly_rent: -0.0}}\n",
], ids=["ladder", "signed-zero"])
def test_suite_writes_what_simulate_writes_for_each_scenario(tmp_path, dt, scenarios):
    """suite restarts each run from an earlier one and copies the CSV lines
    of the rows it copied; simulate runs each scenario in full."""
    if not scenarios.endswith(".yaml"):
        (tmp_path / "runs.yaml").write_text(scenarios)
        scenarios = str(tmp_path / "runs.yaml")
    common = ["--scenarios", scenarios, "--dt", dt]
    assert main(["suite", *common, "--out", str(tmp_path / "suite")]) == 0
    for name in yaml.safe_load(Path(scenarios).read_text()):
        assert main(["simulate", "--scenario", name, *common,
                     "--out", str(tmp_path / name)]) == 0
        for artifact in (f"{name}_timeseries.csv", f"{name}_metrics.json"):
            assert (tmp_path / name / artifact).read_bytes() == \
                (tmp_path / "suite" / artifact).read_bytes(), artifact


def test_json_format_and_series_selection(tmp_path):
    out = tmp_path / "json_run"
    rc = main(["simulate", "--scenario", "run1", "--format", "json",
               "--series", "rent_owed,households_homeless", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "run1_timeseries.json").read_text())
    assert doc["header"] == ["t_months", "calendar", "rent_owed", "households_homeless"]
    assert len(doc["rows"]) == 201


_CELLS = st.one_of(
    st.floats(), st.integers(), st.booleans(),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-5, 1e-4, 1.7976931348623157e308,
                     -1.7976931348623157e308]),
    st.text(st.characters(codec="utf-8", exclude_characters=",\r\n"), max_size=8))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(_CELLS, min_size=1, max_size=6), max_size=6))
def test_csv_cells_are_written_as_repr_for_floats_and_str_otherwise(tmp_path_factory, rows):
    path = write_csv(tmp_path_factory.mktemp("csv") / "t.csv", ["a", "b"], csv_lines(rows))
    old_rule = [",".join(repr(c) if isinstance(c, float) else str(c) for c in row)
                for row in rows]
    assert path.read_bytes() == "\n".join(["a,b", *old_rule, ""]).encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(value=st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e16, 1e-5, 1e-4])))
def test_a_numpy_float_cell_is_written_as_its_python_float(tmp_path_factory, value):
    path = write_csv(tmp_path_factory.mktemp("csv") / "t.csv", ["x"],
                     csv_lines([[np.float64(value)]]))
    assert path.read_text() == f"x\n{float(value)!r}\n"


def test_compare_artifact(tmp_path):
    out = tmp_path / "cmp"
    rc = main(["compare", "--baseline", "run2", "--variant", "run3",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "compare_run2_vs_run3.json").read_text())
    assert doc["baseline"] == "run2"
    assert doc["metrics"]["evictions_total"]["abs_change"] < 0


def test_sweep_artifacts(tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--fraction", "0.15", "--top", "5", "--out", str(out)])
    assert rc == 0
    # 130 entries, two per parameter; run2 switches off the moratorium and
    # assistance blocks, whose 20 entries repeat the baseline without a run
    assert capsys.readouterr().out.splitlines()[0] == (
        "sweep of 130 entries (±15% on every parameter, scenario run2); "
        "top 5 by elasticity:")
    lines = (out / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:6] == ["parameter", "direction", "baseline_value",
                          "requested_value", "applied_value", "clamped"]
    assert any(c.startswith("elasticity_") for c in header)
    baseline = json.loads((out / "sweep_baseline.json").read_text())
    assert "evictions_total" in baseline


@pytest.mark.parametrize("baseline, variant, row", [
    ("run4", "run4a", "assistance_exhausted_at                 never ->          47.75"),
    ("run1", "run2", "assistance_exhausted_at                 never ->          never"),
], ids=["fund-runs-dry", "no-fund"])
def test_compare_rows_of_an_event_that_never_happened(tmp_path, capsys, baseline, variant, row):
    """run4's fund lasts the horizon and run4a's runs dry at 47.75; with
    assistance off neither run has a fund. A row with a None has no change."""
    out = tmp_path / "cmp"
    assert main(["compare", "--baseline", baseline, "--variant", variant,
                 "--out", str(out)]) == 0
    assert f"  {row}\n" in capsys.readouterr().out
    doc = json.loads((out / f"compare_{baseline}_vs_{variant}.json").read_text())
    exhausted = doc["metrics"]["assistance_exhausted_at"]
    assert exhausted["abs_change"] is None and exhausted["pct_change"] is None


def test_compare_of_a_scenario_with_itself_lists_it_once(tmp_path):
    out = tmp_path / "cmp"
    assert main(["compare", "--baseline", "run2", "--variant", "run2", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["scenarios"] == ["run2"]


@pytest.mark.parametrize("dt", ["0.125", "0.25", "0.5", "1", "2"])
def test_a_step_on_which_an_outflow_cap_binds_at_the_start_is_refused(tmp_path, capsys, dt):
    """Every shipped scenario passes at 0.5 and binds above about 0.5525, where
    one Euler step would drain the pending-case stock (its outflows total
    about 1.81 a month): the error names the first scenario and a step that
    passes."""
    out = tmp_path / "out"
    rc = main(["suite", "--dt", dt, "--out", str(out)])
    err = capsys.readouterr().err
    if float(dt) <= 0.5:
        assert (rc, err) == (0, "")
        return
    assert rc == 1
    assert err == (f"error: scenario 'run1': --dt {dt} lets an outflow cap bind at t=0 (one "
                   "Euler step would drain a stock below zero); the largest step on which "
                   "none binds is 0.5522\n")
    assert not out.exists()


def test_validate_writes_report_and_passes(tmp_path):
    out = tmp_path / "val"
    rc = main(["validate", "--references", "reference_modes", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "validation.json").read_text())
    assert {r["status"] for r in doc["references"]} == {"scored"}
    assert all(c["passed"] for c in doc["extreme_conditions"])


def test_validate_missing_references_is_not_fatal(tmp_path, monkeypatch, capsys):
    """The default directory is skipped when it is missing; a directory given
    with ``--references`` must exist (a case of the malformed inputs)."""
    monkeypatch.chdir(tmp_path)
    rc = main(["validate"])
    assert rc == 0
    assert "[SKIPPED] reference_modes: reference directory not found" in capsys.readouterr().out


def test_validate_skips_a_reference_file_it_cannot_read(tmp_path, capsys):
    """A byte that is not UTF-8, a directory named like a CSV and a field past
    csv's size limit each skip their own mode, and the other mode still scores."""
    good = Path("reference_modes", "homeless_population.csv").read_text()
    (tmp_path / "good.csv").write_text(good)
    (tmp_path / "binary.csv").write_bytes(good.encode().replace(b"2019-01", b"2019-\xff1"))
    (tmp_path / "folder.csv").mkdir()
    (tmp_path / "huge.csv").write_text(good.replace("stylized", "x" * 200_000, 1))
    out = tmp_path / "report"
    rc = main(["validate", "--references", str(tmp_path), "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    for name in ("binary", "folder", "huge"):
        assert f"[SKIPPED] {name}: {name}.csv: cannot be read: " in printed
    doc = json.loads((out / "validation.json").read_text())
    assert {r["mode"]: r["status"] for r in doc["references"]} == {
        "binary": "skipped", "folder": "skipped", "good": "scored", "huge": "skipped"}


@pytest.mark.parametrize("path, value", [("moratorium.duration", 30.0),
                                         ("moratorium.start_time", 60.0)])
def test_validate_judges_a_moratorium_window_past_the_horizon(tmp_path, capsys, path, value):
    """A window that ends, or starts, past the horizon leaves no sample to
    resume in: the battery still prints its six lines and an exit status."""
    params_file = tmp_path / "params.yaml"
    save_params(with_values(default_params(), {path: value}), params_file)
    assert main(["validate", "--params", str(params_file)]) in (0, 1)
    battery = capsys.readouterr().out.split("extreme conditions:\n")[1].splitlines()
    assert len(battery) == 6
    assert "airtight_moratorium_blocks_processing" in battery[4]
    assert battery[4].endswith("past the horizon")


def test_validate_passes_a_shock_that_starts_past_the_horizon(tmp_path, capsys):
    """A shock at t=60 leaves no sample a month into it, so the total income
    loss check judges nothing, says why, and validate exits 0."""
    params_file = tmp_path / "params.yaml"
    save_params(with_values(default_params(), {"covid.start_time": 60.0}), params_file)
    assert main(["validate", "--params", str(params_file)]) == 0
    battery = capsys.readouterr().out.split("extreme conditions:\n")[1].splitlines()
    assert battery[1] == ("  [PASS] total_income_loss_bounded: probe t=61 past the horizon "
                          "t=50")


def test_calibrate_writes_retagged_params(tmp_path, capsys):
    spec = tmp_path / "spec.yaml"
    spec.write_text(
        "parameters:\n"
        "  - {path: covid.magnitude, lower: 0.5, upper: 0.7}\n"
        "targets:\n"
        "  - {scenario: run2, metric: evictions_total, value: 7.0e6}\n"
        "options: {max_iterations: 40}\n"
    )
    out = tmp_path / "fit"
    rc = main(["calibrate", "--spec", str(spec), "--out", str(out), "--seed", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    # one free parameter read by the one target scenario: a run per evaluation
    assert re.search(r"after (\d+) evaluations, \1 scenario runs \(converged\)$", lines[0])
    assert lines[1].startswith("singular values")
    from rentdyn.params import load_params
    fitted = load_params(out / "params.yaml")
    assert 0.5 <= fitted.covid.magnitude <= 0.7
    written = yaml.safe_load((out / "params.yaml").read_text())
    assert written["params"]["covid.magnitude"]["provenance"] == "calibrated"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == {"params.yaml": file_sha256(out / "params.yaml")}
    assert manifest["seed"] == 5
    capsys.readouterr()
    assert main(["calibrate", "--spec", str(spec), "--out-params", str(tmp_path / "f.yaml")]) == 1
    assert capsys.readouterr().err == (
        f"error: unrecognized arguments: --out-params {tmp_path / 'f.yaml'}\n")


@pytest.mark.parametrize("upper, rc", [(3.0, 0), (0.9, 1)])
def test_calibrate_bounds_across_a_curve_invariant(tmp_path, capsys, upper, rc):
    """crowding_curve.y_max below its y_min of 1.0 cannot be built: such
    points score as failed runs, and a fit that ends on one is one error line
    and no files."""
    spec = tmp_path / "spec.yaml"
    spec.write_text(
        "parameters:\n"
        f"  - {{path: crowding_curve.y_max, lower: 0.5, upper: {upper}}}\n"
        "targets:\n"
        "  - {scenario: run2, metric: crowding_mean, value: 1.2}\n"
        "options: {max_iterations: 60}\n"
    )
    out = tmp_path / "fit"
    assert main(["calibrate", "--spec", str(spec), "--out", str(out)]) == rc
    err = capsys.readouterr().err
    if rc == 0:
        assert err == ""
        assert (out / "params.yaml").exists()
    else:
        assert err.startswith("error: calibration failed: the fit ends on parameters "
                              "that cannot be built: y_max")
        assert err.count("\n") == 1
        assert not out.exists()


def test_calibrate_refuses_a_free_start_time(tmp_path, capsys):
    """The model only compares covid.start_time against the grid times: a fit
    could not move it, so the spec is refused before any run."""
    spec = tmp_path / "spec.yaml"
    spec.write_text(
        "parameters:\n"
        "  - {path: covid.magnitude, lower: 0.4, upper: 0.8}\n"
        "  - {path: covid.start_time, lower: 20.0, upper: 30.0}\n"
        "targets:\n"
        "  - {scenario: run2, metric: evictions_total, value: 7.37e6}\n"
        "  - {scenario: run2, metric: arrears_growth_36mo, value: 2.024e10}\n"
    )
    out = tmp_path / "fit"
    assert main(["calibrate", "--spec", str(spec), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load calibration spec: covid.start_time cannot be fitted")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("box, moved", [("0.7, upper: 0.8", "lower bound 0.7"),
                                        ("0.3, upper: 0.5", "upper bound 0.5")])
def test_calibrate_says_which_start_it_moved_into_the_box(tmp_path, capsys, box, moved):
    """The default covid.magnitude 0.6 lies outside the spec's box: the fit
    starts from the nearer bound, and the command says so before its loss."""
    spec = tmp_path / "spec.yaml"
    spec.write_text(
        "parameters:\n"
        f"  - {{path: covid.magnitude, lower: {box}}}\n"
        "targets:\n"
        "  - {scenario: run2, metric: evictions_total, value: 7.0e6}\n"
    )
    assert main(["calibrate", "--spec", str(spec), "--out", str(tmp_path / "fit")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"start covid.magnitude 0.6 moved to its {moved}"
    assert lines[1].startswith("loss ")


@pytest.mark.parametrize("box, ends", [("0.7, upper: 0.8", "lower bound 0.7"),
                                       ("0.4, upper: 0.55", "upper bound 0.55"),
                                       ("0.5, upper: 0.7", None)])
def test_calibrate_says_which_fitted_value_ends_on_its_box(tmp_path, capsys, box, ends):
    """Run2's evictions call for a covid.magnitude of about 0.6: a box that
    leaves it out holds the fit on the nearer bound, and the command says
    so; a fit inside its box says nothing of the bounds."""
    spec = tmp_path / "spec.yaml"
    spec.write_text(
        "parameters:\n"
        f"  - {{path: covid.magnitude, lower: {box}}}\n"
        "targets:\n"
        "  - {scenario: run2, metric: evictions_total, value: 7.023e6}\n"
    )
    assert main(["calibrate", "--spec", str(spec), "--out", str(tmp_path / "fit")]) == 0
    ended = [line for line in capsys.readouterr().out.splitlines()
             if " ends on its " in line]
    assert ended == ([f"fitted covid.magnitude ends on its {ends}"] if ends else [])


# ---------------------------------------------------------------- inputs

def test_params_and_dt_flags(tmp_path):
    params_file = tmp_path / "params.yaml"
    save_params(default_params(), params_file, name="from-test")
    out = tmp_path / "run"
    rc = main(["simulate", "--scenario", "run1", "--params", str(params_file),
               "--dt", "0.5", "--seed", "7", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["clock"]["dt"] == 0.5
    assert manifest["seed"] == 7
    assert manifest["params_file"].endswith("params.yaml")


def test_scenarios_file_flag(tmp_path):
    scen = tmp_path / "scen.yaml"
    scen.write_text("mild:\n  covid: true\n  overrides: {covid.magnitude: 0.2}\n")
    rc = main(["simulate", "--scenario", "mild", "--scenarios", str(scen)])
    assert rc == 0


# ---------------------------------------------------------------- determinism

def test_reruns_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["suite", "--out", str(out1)]) == 0
    assert main(["suite", "--out", str(out2)]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    assert files1 == sorted(p.name for p in out2.iterdir())
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.parametrize("argv, name, digest", [
    (["sweep"], "sweep.csv",
     "31daacc241515a96d8c02a26569114c112d3da5265aedee831e2973f4d88ca76"),
    (["sweep"], "sweep_baseline.json",
     "cc63e6b460380a1878d314034eb257686d289841f8d7a1d4add5c1712ac82288"),
    (["validate", "--references", "reference_modes"], "validation.json",
     "ab3e3839bbb3bbef4d23a78ffc7d25158aae93f8130bbe54ce698039c251b68f"),
    (["compare"], "compare_run1_vs_run2.json",
     "4b0543a0162818a1c87a80275ce0bc0e6e6341de4bc5eaea4ba891554114eb58"),
    (["calibrate", "--spec", "params/calibration.yaml"], "params.yaml",
     "d3e78add1511cebfd79e1fc42978b11c5d6ca22ef0327248e6c73ee7f6e0795a"),
    (["calibrate", "--spec", "params/calibration.yaml", "--params", "{start}"], "params.yaml",
     "c3dcda45c49290400e00ae33f393701482d6c1b2de97bf1c142b22dbd1989922"),
], ids=["sweep-csv", "sweep-baseline", "validation", "compare", "calibrate-from-defaults",
        "calibrate-from-0.5"])
def test_analysis_outputs_keep_their_bytes(tmp_path, monkeypatch, argv, name, digest):
    """The files of the fit, the sweep, the reference report and compare,
    pinned by SHA-256 as ``perfbench/references.json`` pins the suite's. A
    ``{start}`` is a parameter file of the defaults with ``covid.magnitude``
    0.5, the start from which the fit takes 30 evaluations."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    start = tmp_path / "start.yaml"
    save_params(with_values(default_params(), {"covid.magnitude": 0.5}), start)
    out = tmp_path / "out"
    argv = [arg.replace("{start}", str(start)) for arg in argv]
    assert main(argv + ["--out", str(out)]) == 0
    assert file_sha256(out / name) == digest


# ---------------------------------------------------------------- failures

def test_unknown_scenario_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "nothing"
    rc = main(["simulate", "--scenario", "run99", "--out", str(out)])
    assert rc == 1
    assert "unknown scenario" in capsys.readouterr().err
    assert not out.exists()  # no partial artifacts


def test_a_write_refused_midway_fails_with_one_line_and_no_manifest(tmp_path, capsys):
    """A directory where run3's table goes lets run1's and run2's artifacts
    be written; the directory is then an interrupted one, with no manifest."""
    out = tmp_path / "out"
    (out / "run3_timeseries.csv").mkdir(parents=True)
    assert main(["suite", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out / 'run3_timeseries.csv'}: Is a directory\n"
    assert not (out / "manifest.json").exists()


def test_bad_params_file_fails_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("params: {}\n")
    rc = main(["simulate", "--scenario", "run1", "--params", str(bad)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bad_series_selection_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "nothing"
    rc = main(["simulate", "--scenario", "run1",
               "--series", "no_such_series", "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    # the message itself, not the repr str() gives a KeyError
    assert capsys.readouterr().err.startswith("error: unknown series no_such_series")


def test_bad_sweep_fraction_fails_cleanly(capsys):
    rc = main(["sweep", "--fraction", "1.5"])
    assert rc == 1
    assert "--fraction" in capsys.readouterr().err


# a number no float holds
_HUGE = "9" * 400
_PARAMS = Path("params/default.yaml").read_text()
_SPEC = "parameters: [{path: covid.magnitude%s}]\ntargets: [{scenario: %s, " \
        "metric: evictions_total, value: %s%s}]\n"
# a mapping nested 3,000 deep: its repr recurses past Python's limit
_DEEP = "{a: " * 3000 + "1" + "}" * 3000
# seven anchored lists of nine, each the one before it nine times: 9**7 leaves
_ALIAS_CHAIN = "chain:\n" + "".join(
    f"  - &a{i} [{', '.join([f'*a{i - 1}' if i else '1'] * 9)}]\n" for i in range(7))


@pytest.mark.parametrize("argv, name, text", [
    (["suite", "--scenarios"], "scen.yaml", "x: [\n"),
    (["calibrate", "--spec"], "spec.yaml", "x: [\n"),
    (["suite", "--params"], "params.yaml", "params: 3\n"),
    (["suite", "--scenarios"], "scen.yaml", "x:\n  overrides: {covid.magnitud: 0.2}\n"),
    (["suite", "--scenarios"], "scen.yaml", "x:\n  overrides: {covid.magnitude: 9.0}\n"),
    (["suite", "--dt", "inf"], None, None),
    (["suite", "--scenarios"], "scen.yaml", "x:\n  overrides: {covid: 0.5}\n"),
    (["suite", "--scenarios"], "scen.yaml", "x:\n  covid: \"false\"\n"),
    (["suite", "--scenarios"], "scen.yaml", "x:\n  overrides: {covid.magnitude: [0.2]}\n"),
    (["calibrate", "--spec"], "spec.yaml", "parameters: 3\ntargets: 3\n"),
    (["calibrate", "--spec"], "spec.yaml",
     "parameters: [{path: covid.magnitude}]\ntargets: [run2]\n"),
    (["calibrate", "--spec"], "spec.yaml",
     "parameters: [{path: covid.magnitude}, {path: covid.recovery_time},"
     " {path: rent_delay_curve.steepness}, {path: moratorium.filing_reduction},"
     " {path: assistance.disbursement_time}]\n"
     "targets:\n"
     "  - {scenario: run2, metric: evictions_total, value: 7.0e6}\n"
     "  - {scenario: run2, metric: arrears_growth_36mo, value: 2.0e10}\n"
     "  - {scenario: run3, metric: evictions_total, value: 3.4e6}\n"
     "  - {scenario: run4, metric: assistance_disbursed_fraction, value: 0.4}\n"),
    (["suite", "--dt", "2.5"], None, None),
    (["suite", "--scenarios"], "scen.yaml", "x:\n  overrides: {crowding_curve.y_max: 0.5}\n"),
    (["suite", "--params"], "params.yaml",
     _PARAMS.replace("value: 1050.0", f"value: {_HUGE}", 1)),
    (["suite", "--scenarios"], "scen.yaml", f"x:\n  overrides: {{covid.magnitude: {_HUGE}}}\n"),
    (["suite", "--scenarios"], "scen.yaml", "x:\n  overrides: {covid.magnitude: true}\n"),
    (["calibrate", "--spec"], "spec.yaml", _SPEC % ("", "run2", _HUGE, "")),
    (["calibrate", "--spec"], "spec.yaml", _SPEC % ("", "run2", "7.0e6", f", weight: {_HUGE}")),
    (["calibrate", "--spec"], "spec.yaml", _SPEC % (f", lower: {_HUGE}", "run2", "7.0e6", "")),
    (["calibrate", "--spec"], "spec.yaml", _SPEC % ("", "run2", ".nan", "")),
    (["calibrate", "--spec"], "spec.yaml",
     _SPEC % ("", "run2", "7.0e6", "") + "options: {max_iterations: abc}\n"),
    (["calibrate", "--spec"], "spec.yaml",
     _SPEC % ("", "run2", "7.0e6", "") + "options: {max_iterations: .inf}\n"),
    (["suite", "--scenarios"], "scen.yaml", "1:\n  covid: true\n"),
    (["suite", "--params"], "params.yaml", _PARAMS.replace(
        "params:\n", "params:\n  1: {value: 1.0, units: x, provenance: assumption}\n", 1)),
    (["calibrate", "--spec"], "spec.yaml", _SPEC % ("", "[run2]", "7.0e6", "")),
    (["suite", "--params"], "params.yaml",
     _PARAMS.replace("value: 1050.0", "value: 1050.0\n    vaule: 1050.0", 1)),
    (["suite", "--scenarios"], "scen.yaml", "x:\n  overrides: [covid.magnitude]\n"),
    (["calibrate", "--spec"], "spec.yaml", "parameters: [{path: covid.magnitude}]\n"
     "targets: [{scenario: run2, metric: evictions_total, vaule: 7.0e6}]\n"),
    (["sweep", "--top", "-3"], None, None),
    (["SOURCE_DATE_EPOCH=abc", "simulate"], None, None),
    (["SOURCE_DATE_EPOCH=", "simulate"], None, None),
    (["SOURCE_DATE_EPOCH=99999999999999999", "simulate"], None, None),
    (["simulate", "--out", "{}"], "taken", "kept\n"),
    (["simulate", "--out", "{}/sub"], "taken", "kept\n"),
    (["suite", "--scenarios"], "scen.yaml", "{}\n"),
    (["sweep", "--scenarios"], "scen.yaml", "{}\n"),
    (["validate", "--scenarios"], "scen.yaml", "{}\n"),
    (["suite", "--scenarios"], "scen.yaml", "../escaped:\n  covid: true\n"),
    (["suite", "--scenarios"], "scen.yaml", "sub/dir:\n  covid: true\n"),
    (["suite", "--params", ""], None, None),
    (["suite", "--scenarios", ""], None, None),
    (["suite", "--out", ""], None, None),
    (["suite", "--out", "a" * 300], None, None),
    (["suite", "--out", f"missing/{'a' * 300}/x"], None, None),
    (["validate", "--references", ""], None, None),
    (["suite", "--dt", "1e11"], None, None),
    (["sweep", "--dt", "1e300"], None, None),
    (["validate", "--dt", "1e300"], None, None),
    (["calibrate", "--dt", "1e300", "--spec"], "spec.yaml", _SPEC % ("", "run2", "7.0e6", "")),
    (["suite", "--dt", "1e-300"], None, None),
    (["simulate", "--scenario", "x", "--scenarios"], "scen.yaml", "x:\n  description: [a]\n"),
    (["simulate", "--params"], "params.yaml", _PARAMS.replace(
        "  avg_monthly_rent:\n",
        "  avg_monthly_rent: {value: 11050.0, provenance: assumption}\n  avg_monthly_rent:\n", 1)),
    (["suite", "--scenarios"], "scen.yaml", "run1:\n  covid: false\nrun1:\n  covid: true\n"),
    (["calibrate", "--spec"], "spec.yaml", _SPEC % ("", "run2", "7.0e6", ", value: 8.0e6")),
    (["sweep", "--fraction", "0.6"], None, None),
    (["simulate", "--series", "rent_owed,rent_owed"], None, None),
    (["simulate", "--params"], "params.yaml",
     _PARAMS.replace("value: 1050.0", "value: " + _DEEP, 1)),
    (["simulate", "--params"], "params.yaml",
     _ALIAS_CHAIN + _PARAMS.replace("value: 1050.0", "value: *a6", 1)),
    (["simulate", "--params"], "params.yaml",
     _PARAMS.replace("value: 1050.0", "value: " + "9" * 5000, 1)),
    (["calibrate", "--spec"], "spec.yaml",
     "parameters: [{path: covid.magnitude}, {path: covid.recovery_time}]\n"
     "targets:\n"
     "  - {scenario: run2, metric: evictions_total, value: 7.0e6}\n"
     "  - {scenario: run2, metric: evictions_total, value: 7.0e6}\n"),
    (["validate", "--references", "nope"], None, None),
    (["simulate", "--params"], "params.yaml",
     _PARAMS.replace("provenance: cited-source", "provenance: " + _DEEP, 1)),
    (["simulate", "--params"], "params.yaml",
     _ALIAS_CHAIN + _PARAMS.replace("provenance: cited-source", "provenance: *a6", 1)),
    (["suite", "--scenarios"], "scen.yaml", f"x:\n  covid: {_DEEP}\n"),
    (["suite", "--scenarios"], "scen.yaml", f"x:\n  description: {_DEEP}\n"),
    (["calibrate", "--spec"], "spec.yaml", _SPEC % ("", "run2", _DEEP, "")),
    (["calibrate", "--spec"], "spec.yaml",
     _SPEC.replace("evictions_total", _DEEP) % ("", "run2", "7.0e6", "")),
    (["calibrate", "--spec"], "spec.yaml",
     _SPEC.replace("covid.magnitude%s", _DEEP) % ("run2", "7.0e6", "")),
    (["calibrate", "--spec"], "spec.yaml", _SPEC % ("", "run1", "7.0e6", "")),
    (["calibrate", "--spec"], "spec.yaml",
     _SPEC.replace("evictions_total", "assistance_exhausted_at") % ("", "run2", "40", "")),
    (["suite", "--dt", "0.125", "--params"], "params.yaml",
     _PARAMS.replace("filing_resolution_time:\n    value: 0.7",
                     "filing_resolution_time:\n    value: 0.1", 1)),
    (["suite", "--dt", "abc"], None, None),
    (["suite", "--format", "xml"], None, None),
    (["sweep", "--top", "x"], None, None),
    (["calibrate"], None, None),
    (["simulate", "--bogus"], None, None),
], ids=["scenarios-yaml", "spec-yaml", "params-not-mapping", "unknown-override",
        "override-out-of-bounds", "dt-inf", "override-names-group", "quoted-false-switch",
        "non-scalar-override", "spec-parameters-not-list", "spec-target-not-mapping",
        "spec-more-parameters-than-targets", "burn-in-off-grid", "override-breaks-curve",
        "params-value-overflows", "override-overflows", "boolean-override",
        "spec-value-overflows", "spec-weight-overflows", "spec-lower-overflows",
        "spec-value-nan", "max-iterations-not-a-number", "max-iterations-inf",
        "integer-scenario-name", "integer-params-key", "list-target-scenario",
        "params-entry-unknown-key", "overrides-not-mapping", "spec-target-missing-and-unknown",
        "sweep-top-negative", "epoch-not-a-number", "epoch-empty", "epoch-past-any-date",
        "out-is-a-file", "out-under-a-file", "suite-no-scenario", "sweep-no-scenario",
        "validate-no-scenario", "scenario-name-leaves-out", "scenario-name-has-directory",
        "params-empty", "scenarios-empty", "out-empty", "out-name-too-long",
        "out-name-too-long-below-missing", "references-empty",
        "suite-dt-no-step", "sweep-dt-no-step", "validate-dt-no-step", "calibrate-dt-no-step",
        "suite-dt-too-many-steps", "description-not-text", "params-duplicate-entry",
        "scenarios-duplicate-name", "spec-duplicate-key", "sweep-fraction-breaks-a-curve",
        "series-named-twice", "params-value-nested-deep", "params-value-alias-chain",
        "params-integer-too-long", "spec-repeated-target", "references-missing",
        "params-provenance-nested-deep", "params-provenance-alias-chain",
        "switch-nested-deep", "description-nested-deep", "spec-value-nested-deep",
        "spec-metric-nested-deep", "spec-path-nested-deep", "spec-parameter-never-read",
        "spec-target-block-off", "params-caps-bind-at-0.125", "dt-not-a-number",
        "format-unknown", "top-not-a-number", "calibrate-no-spec", "unknown-flag"])
def test_malformed_input_fails_with_one_line(tmp_path, monkeypatch, capsys, argv, name, text):
    """A leading ``NAME=value`` sets an environment variable, as in a shell.
    A case's file is written to ``name``; its path takes the place of ``{}``
    in the arguments, or follows them when none holds ``{}``. The case runs
    in ``tmp_path``; nothing is written anywhere under it, and the case's
    file is left as it was."""
    monkeypatch.chdir(tmp_path)
    while "=" in argv[0]:
        monkeypatch.setenv(*argv[0].split("=", 1))
        argv = argv[1:]
    if name is not None:
        path = tmp_path / name
        path.write_text(text)
        argv = [arg.replace("{}", str(path)) for arg in argv] \
            if any("{}" in arg for arg in argv) else argv + [str(path)]
    out = tmp_path / "nothing"
    # a case's own --out comes later, and wins
    rc = main(argv[:1] + ["--out", str(out)] + argv[1:])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert len(err) < 2_000
    assert [p.relative_to(tmp_path) for p in tmp_path.rglob("*")] == \
        ([] if name is None else [Path(name)])
    if name is not None:
        assert path.read_text() == text


# ---------------------------------------------------------------- fuzzed inputs

_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10**400, 10**400), st.floats(),
                     st.text(st.characters(codec="utf-8"), max_size=12))
_DRAWN = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3),
                   st.dictionaries(_SCALARS, _SCALARS, max_size=3))


def _slots(node, where=()):
    """(path, is_key) of every value in a parsed document and of every key."""
    yield where, False
    if isinstance(node, dict):
        for key, value in node.items():
            yield where + (key,), True
            yield from _slots(value, where + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _slots(value, where + (index,))


def _replaced(doc, where, is_key, new):
    if not where:
        return new
    doc = copy.deepcopy(doc)
    *parents, last = where
    container = doc
    for step in parents:
        container = container[step]
    if is_key:
        items = [(new if key == last else key, value) for key, value in container.items()]
        container.clear()
        container.update(items)
    else:
        container[last] = new
    return doc


@functools.cache
def _shipped(path: str):
    return yaml.safe_load(Path(path).read_text())


@st.composite
def _edits(draw, path: str):
    """(where, is_key, new): one key or value of a shipped file and what replaces it."""
    where, is_key = draw(st.sampled_from(list(_slots(_shipped(path)))))
    return where, is_key, draw(_SCALARS if is_key else _DRAWN)


def _edited(tmp_path_factory, path: str, edit) -> Path:
    out = tmp_path_factory.mktemp("fuzz") / Path(path).name
    out.write_text(yaml.safe_dump(_replaced(_shipped(path), *edit), sort_keys=False))
    return out


_FUZZ = settings(max_examples=50, derandomize=True, deadline=None)


@_FUZZ
@given(edit=_edits("params/default.yaml"))
def test_fuzzed_params_file_loads_or_fails_with_one_line(tmp_path_factory, edit):
    path = _edited(tmp_path_factory, "params/default.yaml", edit)
    try:
        _load_inputs(_build_parser().parse_args(["suite", "--params", str(path)]))
    except CliError:
        pass


@_FUZZ
@given(edit=_edits("scenarios/runs.yaml"))
def test_fuzzed_scenario_file_loads_or_fails_with_one_line(tmp_path_factory, edit):
    path = _edited(tmp_path_factory, "scenarios/runs.yaml", edit)
    try:
        _load_inputs(_build_parser().parse_args(["suite", "--scenarios", str(path)]))
    except CliError:
        pass


_NAMES = st.one_of(st.text(st.characters(codec="utf-8"), max_size=70),
                   st.from_regex(r"[A-Za-z0-9_.-]{1,70}", fullmatch=True),
                   st.sampled_from(["run2", "..", ".", ".hidden", "../escaped", "sub/dir",
                                    "a" * 64, "a" * 65, "-", "1", "x y", ""]))


@_FUZZ
@given(name=_NAMES)
def test_a_scenario_name_names_its_files_or_fails_with_one_line(tmp_path_factory, name):
    """A scenario name loads, and ``suite --out`` writes only that
    scenario's two artifacts and the manifest, into ``--out``; or it fails
    with one line, and nothing is written."""
    root = tmp_path_factory.mktemp("name")
    path = root / "scen.yaml"
    path.write_text(yaml.safe_dump({name: {"covid": True}}))
    assert yaml.safe_load(path.read_text()) == {name: {"covid": True}}
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["suite", "--scenarios", str(path), "--out", str(root / "out")])
    written = sorted(str(p.relative_to(root)) for p in root.rglob("*"))
    if rc == 0:
        assert written == sorted(["scen.yaml", "out", "out/manifest.json",
                                  f"out/{name}_metrics.json", f"out/{name}_timeseries.csv"])
    else:
        assert rc == 1
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
        assert written == ["scen.yaml"]


@_FUZZ
@given(edit=_edits("params/calibration.yaml"))
def test_fuzzed_calibration_spec_loads_or_fails_with_one_line(tmp_path_factory, edit):
    path = _edited(tmp_path_factory, "params/calibration.yaml", edit)
    try:
        load_calibration_spec(path)
    except CalibrationError:  # what the calibrate command reports in one line
        pass
