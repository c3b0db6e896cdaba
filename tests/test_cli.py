"""Command-line interface: artifacts, manifests, determinism, failure modes."""

import argparse
import json
import re
import subprocess
import sys

import pytest

from rentdyn.cli import _build_parser, main
from rentdyn.output import file_sha256
from rentdyn.params import default_params, save_params


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


def test_json_format_and_series_selection(tmp_path):
    out = tmp_path / "json_run"
    rc = main(["simulate", "--scenario", "run1", "--format", "json",
               "--series", "rent_owed,households_homeless", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "run1_timeseries.json").read_text())
    assert doc["header"] == ["t_months", "calendar", "rent_owed", "households_homeless"]
    assert len(doc["rows"]) == 201


def test_compare_artifact(tmp_path):
    out = tmp_path / "cmp"
    rc = main(["compare", "--baseline", "run2", "--variant", "run3",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "compare_run2_vs_run3.json").read_text())
    assert doc["baseline"] == "run2"
    assert doc["metrics"]["evictions_total"]["abs_change"] < 0


def test_sweep_artifacts(tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--fraction", "0.15", "--top", "5", "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:6] == ["parameter", "direction", "baseline_value",
                          "requested_value", "applied_value", "clamped"]
    assert any(c.startswith("elasticity_") for c in header)
    baseline = json.loads((out / "sweep_baseline.json").read_text())
    assert "evictions_total" in baseline


def test_validate_writes_report_and_passes(tmp_path):
    out = tmp_path / "val"
    rc = main(["validate", "--references", "reference_modes", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "validation.json").read_text())
    assert {r["status"] for r in doc["references"]} == {"scored"}
    assert all(c["passed"] for c in doc["extreme_conditions"])


def test_validate_missing_references_is_not_fatal(tmp_path, capsys):
    rc = main(["validate", "--references", str(tmp_path / "nope")])
    assert rc == 0
    assert "skipped" in capsys.readouterr().out.lower()


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
    fitted, meta = load_params(out / "params.yaml")
    assert 0.5 <= fitted.covid.magnitude <= 0.7
    assert meta["provenance"]["covid.magnitude"] == "calibrated"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == {"params.yaml": file_sha256(out / "params.yaml")}
    assert manifest["seed"] == 5
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--spec", str(spec), "--out-params", str(tmp_path / "f.yaml")])
    assert exc.value.code == 2


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


# ---------------------------------------------------------------- failures

def test_unknown_scenario_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "nothing"
    rc = main(["simulate", "--scenario", "run99", "--out", str(out)])
    assert rc == 1
    assert "unknown scenario" in capsys.readouterr().err
    assert not out.exists()  # no partial artifacts


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


def test_bad_sweep_fraction_fails_cleanly(capsys):
    rc = main(["sweep", "--fraction", "1.5"])
    assert rc == 1
    assert "--fraction" in capsys.readouterr().err


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
], ids=["scenarios-yaml", "spec-yaml", "params-not-mapping", "unknown-override",
        "override-out-of-bounds", "dt-inf", "override-names-group", "quoted-false-switch",
        "non-scalar-override", "spec-parameters-not-list", "spec-target-not-mapping",
        "spec-more-parameters-than-targets", "burn-in-off-grid"])
def test_malformed_input_fails_with_one_line(tmp_path, capsys, argv, name, text):
    if name is not None:
        (tmp_path / name).write_text(text)
        argv = argv + [str(tmp_path / name)]
    out = tmp_path / "nothing"
    rc = main(argv + ["--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert not out.exists()
