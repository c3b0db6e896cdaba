#!/usr/bin/env python3
"""Record the references the benchmark checks outputs against.

    python3 perfbench/record_references.py

Run from the root of the source tree at the commit whose outputs are the
reference. Writes ``perfbench/references.json``: the SHA-256 of every run
artifact of ``rentdyn suite --out`` (the manifest aside, it carries the
seed), the seed-0 sensitivity-sweep table digest, and run2's baseline sweep
metrics.
"""

import json
import shutil
import subprocess
import sys

from run import REFERENCES, ROOT, SRC, WORK, child_env, sha256, sweep_digest


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    out = WORK / "suite"
    shutil.rmtree(out, ignore_errors=True)
    subprocess.run([sys.executable, "-m", "rentdyn.cli", "suite",
                    "--params", "params/default.yaml", "--scenarios", "scenarios/runs.yaml",
                    "--out", str(out.relative_to(ROOT)), "--format", "csv"],
                   cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL)
    manifest = json.loads((out / "manifest.json").read_text())
    artifacts = {p.name: sha256(p) for p in sorted(out.iterdir()) if p.name != "manifest.json"}
    if artifacts != manifest["artifacts"]:
        raise SystemExit("suite manifest does not match the files it lists")

    sys.path.insert(0, str(SRC))
    from rentdyn.params import default_params
    from rentdyn.scenarios import load_scenarios
    from rentdyn.validation import sensitivity_sweep
    run2 = load_scenarios(ROOT / "scenarios" / "runs.yaml")["run2"]
    base, entries = sensitivity_sweep(default_params(), run2, fraction=0.15)

    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                         capture_output=True).stdout.strip() or None
    payload = {
        "commit": sha,
        "cli_suite": {"scenarios": manifest["scenarios"], "artifacts": artifacts},
        "sweep_run2": {"baseline_metrics": base, "entries": len(entries),
                       "seed0_digest": sweep_digest(base, entries)},
    }
    REFERENCES.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
