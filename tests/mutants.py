"""Mutation check of the model's one flow definition, ``build_derivative``.

Each mutant of ``MUTANTS`` changes one operation of the derivative and once
passed the acceptance bands and the ledger identities, moving a metric by
0.04% to 25%. The script applies each, alone, to a temporary copy of
``src/``, runs the contract tests against that copy, and exits 1 if any
mutant survives them, or if the unmutated copy fails them.

Each mutant of ``EQUIVALENT`` changes one operation too, but moves no
series at the shipped inputs, for the reason it gives; no test can kill it.
The script applies each, alone, runs the five built-in scenarios in full
against the copy, and exits 1, naming the mutant, if any series is not bit
for bit the unmutated copy's: the branch it touches has woken up, and the
mutant needs a test, or a new reason. Run it from anywhere:

    python tests/mutants.py

pytest does not collect it: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODEL = Path("src", "rentdyn", "model.py")
# the acceptance bands, and the flow oracles and identities of test_model,
# whose run-long oracles pin the equations below
TESTS = ["tests/test_acceptance.py", "tests/test_model.py"]

# (what the mutant does, the source it replaces, its replacement)
MUTANTS = [
    ("landlord income nets the assistance payment out",
     "landlord_income = rent_paid + payment", "landlord_income = rent_paid - payment"),
    ("displacement subtracts tenanted foreclosures",
     "displaced = (evictions + fore_occ + fore_pend) * hpu",
     "displaced = (evictions - fore_occ + fore_pend) * hpu"),
    ("displacement subtracts foreclosures of pending units",
     "displaced = (evictions + fore_occ + fore_pend) * hpu",
     "displaced = (evictions + fore_occ - fore_pend) * hpu"),
    ("mortgage payment multiplies by its payment time",
     "mortgage_owed / (p.at_mortgage_base * mortgage_delay)",
     "mortgage_owed * (p.at_mortgage_base * mortgage_delay)"),
    ("mortgage payment time divides by the delay effect",
     "mortgage_owed / (p.at_mortgage_base * mortgage_delay)",
     "mortgage_owed / (p.at_mortgage_base / mortgage_delay)"),
    ("filing recovery moves away from its target",
     "- filing_recovery) / m.filing_recovery_delay",
     "+ filing_recovery) / m.filing_recovery_delay"),
    ("filing recovery opens a step after the rebound",
     "(t >= rebound_time)", "(t > rebound_time)"),
]

_HEADROOM = "the payment stays under 5% of the headroom: the pace and the funds left bind first"
_EPS_GUARD = "no run meets the guarded quantity at exactly EPS"
# (what the mutant does, the source it replaces, its replacement, why it
# moves no series at the shipped inputs)
EQUIVALENT = [
    ("assistance headroom adds the rent paid",
     "rent_owed / dt - rent_paid - writeoff", "rent_owed / dt + rent_paid - writeoff", _HEADROOM),
    ("assistance headroom adds the arrears written off",
     "rent_owed / dt - rent_paid - writeoff", "rent_owed / dt - rent_paid + writeoff", _HEADROOM),
    ("crowding ratio multiplies by its reference",
     "hpu / p.crowding_reference", "hpu * p.crowding_reference",
     "the shipped crowding_reference is 1.0, and x / 1.0 == x * 1.0"),
    ("the no-income guard leaves out EPS itself",
     "income <= EPS", "income < EPS", _EPS_GUARD),
    ("the no-arrears-pool guard leaves out EPS itself",
     "pool_rent <= EPS", "pool_rent < EPS", _EPS_GUARD),
    ("the no-tenants guard leaves out EPS itself",
     "tenanted <= EPS", "tenanted < EPS", _EPS_GUARD),
    ("court throttle opens a step after the moratorium's onset",
     "(t >= moratorium_onset) & (t >= m.start_time)",
     "(t > moratorium_onset) & (t >= m.start_time)",
     "at the onset, half a month ahead of start_time, the start_time gate is shut"),
    ("filing rebound opens a step after the moratorium's onset",
     "(t >= moratorium_onset) & (t >= rebound_time)",
     "(t > moratorium_onset) & (t >= rebound_time)",
     "rebound_time, past the window's end, is after the onset, so its gate decides"),
    ("assistance pays from an empty fund",
     "(funds > 0.0)", "(funds >= 0.0)",
     "with no funds left, funds / dt caps the payment at 0 either way"),
]

# a digest of every series of the five built-in scenarios, each run in full
_DIGEST = """
import hashlib
from rentdyn.model import run_model
from rentdyn.params import default_params
from rentdyn.scenarios import BUILTIN_SCENARIOS
runs = [run_model(s.apply(default_params())).data for s in BUILTIN_SCENARIOS.values()]
print(hashlib.sha256(repr(runs).encode()).hexdigest())
"""


def _env(src: Path) -> dict[str, str]:
    """The environment of a process that imports the package under ``src``."""
    # no bytecode: two mutants of one size written within a second would
    # share a cached module
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    where = subprocess.run([sys.executable, "-c", "import rentdyn; print(rentdyn.__file__)"],
                           env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    if not Path(where.stdout.strip()).is_relative_to(src):
        raise SystemExit(f"rentdyn imports from {where.stdout.strip()}, not from {src}")
    return env


def _passes(src: Path) -> bool:
    """Whether the contract tests pass against the package under ``src``,
    stopping at the first failure."""
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                          *TESTS], env=_env(src), cwd=ROOT, stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL)
    return run.returncode == 0


def _digest(src: Path) -> str:
    """:data:`_DIGEST` of the package under ``src``; a run that fails digests
    as its error."""
    run = subprocess.run([sys.executable, "-c", _DIGEST], env=_env(src), cwd=ROOT,
                         capture_output=True, text=True)
    return run.stdout.strip() if run.returncode == 0 else run.stderr


def main() -> int:
    source = (ROOT / MODEL).read_text()
    for label, old, *_ in MUTANTS + EQUIVALENT:
        if source.count(old) != 1:
            print(f"mutant '{label}': {old!r} occurs {source.count(old)} times in {MODEL}")
            return 1
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "src")
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if not _passes(src):
            print(f"the unmutated copy fails {' '.join(TESTS)}")
            return 1
        unmutated = _digest(src)
        moved = []
        for label, old, new, reason in EQUIVALENT:
            Path(tmp, MODEL).write_text(source.replace(old, new))
            if _digest(src) == unmutated:
                print(f"unmoved  {label}: {reason}", flush=True)
            else:
                print(f"MOVED    {label}: a series differs from the unmutated copy's", flush=True)
                moved.append(label)
        survivors = []
        for label, old, new in MUTANTS:
            t0 = time.perf_counter()
            Path(tmp, MODEL).write_text(source.replace(old, new))
            survived = _passes(src)
            print(f"{'SURVIVED' if survived else 'killed  '} {label} "
                  f"({time.perf_counter() - t0:.1f} s)", flush=True)
            if survived:
                survivors.append(label)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed; "
          f"{len(EQUIVALENT) - len(moved)} of {len(EQUIVALENT)} equivalent mutants move no series")
    return 1 if survivors or moved else 0


if __name__ == "__main__":
    sys.exit(main())
