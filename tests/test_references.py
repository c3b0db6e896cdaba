"""The numbers the benchmark pins: ``perfbench/references.json``, read as is.

The suite's artifact SHA-256s, run2's baseline metrics and the digest of the
seed-0 sensitivity sweep of run2 (fraction 0.15), rendered as
``perfbench/run.py`` renders it. A faster path that moves any of these
numbers fails here, in the tier-1 tests.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rentdyn.cli import main
from rentdyn.output import file_sha256
from rentdyn.params import default_params
from rentdyn.scenarios import load_scenarios
from rentdyn.validation import sensitivity_sweep

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = json.loads((ROOT / "perfbench" / "references.json").read_text())


def test_suite_artifacts_match_the_reference_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = tmp_path / "suite"
    assert main(["suite", "--params", "params/default.yaml",
                 "--scenarios", "scenarios/runs.yaml",
                 "--out", str(out), "--format", "csv"]) == 0
    expected = REFERENCES["cli_suite"]["artifacts"]
    assert sorted(p.name for p in out.iterdir()) == sorted([*expected, "manifest.json"])
    assert {name: file_sha256(out / name) for name in expected} == expected


def test_suite_run_as_its_own_process_writes_the_reference_digests(tmp_path):
    """The process entry the benchmark times, which freezes the import heap."""
    out = tmp_path / "suite"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "rentdyn.cli", "suite",
                    "--params", "params/default.yaml", "--scenarios", "scenarios/runs.yaml",
                    "--out", str(out), "--format", "csv"],
                   cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    expected = REFERENCES["cli_suite"]["artifacts"]
    assert sorted(p.name for p in out.iterdir()) == sorted([*expected, "manifest.json"])
    assert {name: file_sha256(out / name) for name in expected} == expected


@pytest.fixture(scope="module")
def sweep():
    run2 = load_scenarios(ROOT / "scenarios" / "runs.yaml")["run2"]
    return sensitivity_sweep(default_params(), run2, fraction=0.15)


def test_run2_baseline_metrics_match_the_reference(sweep):
    base, _ = sweep
    assert base == REFERENCES["sweep_run2"]["baseline_metrics"]


def test_seed0_sweep_digest_matches_the_reference(sweep):
    base, entries = sweep
    assert len(entries) == REFERENCES["sweep_run2"]["entries"]
    rows = [base] + [[e.parameter, e.direction, e.baseline_value, e.requested_value,
                      e.applied_value, e.clamped, e.metrics, e.elasticities]
                     for e in entries]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == REFERENCES["sweep_run2"]["seed0_digest"]
