"""Mutation check of the model's one flow definition, ``build_derivative``.

Each mutant below changes one operation of the derivative and once passed
the acceptance bands and the ledger identities, moving a metric by 0.04% to
25%. The script applies each, alone, to a temporary copy of ``src/``, runs
the contract tests against that copy, and exits 1 if any mutant survives
them, or if the unmutated copy fails them. Run it from anywhere:

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


def _passes(src: Path) -> bool:
    """Whether the contract tests pass against the package under ``src``,
    stopping at the first failure."""
    # no bytecode: two mutants of one size written within a second would
    # share a cached module
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    where = subprocess.run([sys.executable, "-c", "import rentdyn; print(rentdyn.__file__)"],
                           env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    if not Path(where.stdout.strip()).is_relative_to(src):
        raise SystemExit(f"rentdyn imports from {where.stdout.strip()}, not from {src}")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                          *TESTS], env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL)
    return run.returncode == 0


def main() -> int:
    source = (ROOT / MODEL).read_text()
    for label, old, _ in MUTANTS:
        if source.count(old) != 1:
            print(f"mutant '{label}': {old!r} occurs {source.count(old)} times in {MODEL}")
            return 1
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "src")
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if not _passes(src):
            print(f"the unmutated copy fails {' '.join(TESTS)}")
            return 1
        survivors = []
        for label, old, new in MUTANTS:
            t0 = time.perf_counter()
            Path(tmp, MODEL).write_text(source.replace(old, new))
            survived = _passes(src)
            print(f"{'SURVIVED' if survived else 'killed  '} {label} "
                  f"({time.perf_counter() - t0:.1f} s)", flush=True)
            if survived:
                survivors.append(label)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
