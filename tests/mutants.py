"""Mutation check of the model's one flow definition, ``build_derivative``,
and of the reduction of a run to its metrics, ``compute_metrics``.

Each mutant of ``MUTANTS`` changes one operation of the derivative, or of
``compute_metrics``, and once passed the acceptance bands and the ledger
identities: it moves a metric by up to 25% (the derivative's) or by as
much as 16 times (the metrics'), or it moves nothing at the shipped inputs
but moves a series at a parameter moved in bounds, which a run-long oracle
of test_model pins. The script applies each, alone, to a temporary copy of
``src/``, runs the contract tests and the metric oracles against that copy,
and exits 1 if any mutant survives them, or if the unmutated copy fails
them.

Each mutant of ``EQUIVALENT`` changes one operation too, but moves no
series (the derivative's) or no metric (``compute_metrics``'s) at the
shipped inputs, for the reason it gives; no test can kill it. The script
applies each, alone, runs the five built-in scenarios in full against the
copy, and exits 1, naming the mutant, if any series or metric is not bit
for bit the unmutated copy's: the branch it touches has woken up, and the
mutant needs a test, or a new reason. Run it from anywhere:

    python tests/mutants.py

With ``--scan`` it makes every single mutant of the bodies of
``SCAN_TARGETS`` instead, ``deriv``'s and ``compute_metrics``'s, 127 at
present: one operation's ``+``/``-`` or ``*``/``/`` swapped, or one
comparison moved across its boundary (``>=`` to ``>``, ``>`` to ``>=``,
``<`` to ``<=``, ``<=`` to ``<``). It runs the contract tests on each that
is in ``MUTANTS``, and the five scenarios on each other one, then the
contract tests if it moves a metric, two mutants at a time (about 3
minutes on two cores). It exits 1, naming the mutant, if one is in
``MUTANTS`` or moves a metric and survives the tests, or moves no series
and no metric and is not in ``EQUIVALENT``:

    python tests/mutants.py --scan

pytest does not collect it: its name does not start with ``test_``.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from queue import Queue

ROOT = Path(__file__).resolve().parent.parent
MODEL = Path("src", "rentdyn", "model.py")
SCENARIOS = Path("src", "rentdyn", "scenarios.py")
# the metric oracles, which kill a metric mutant in about a second; the
# acceptance bands; and the flow oracles and identities of test_model, whose
# run-long oracles pin the equations of the derivative below
TESTS = ["tests/test_metrics.py", "tests/test_acceptance.py", "tests/test_model.py"]

# by the file it mutates: (what the mutant does, the source it replaces, its
# replacement)
MUTANTS = {MODEL: [
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
     "(t >= rebound_start,", "(t > rebound_start,"),
    ("court throttle opens a step after its start",
     "(t >= throttle_start)", "(t > throttle_start)"),
    ("filings divide by the mortgage delay",
     "* overdue * mortgage_delay", "* overdue / mortgage_delay"),
    # each of these moves nothing at the shipped inputs, and dies in an
    # oracle of test_model at a parameter moved in bounds
    ("assistance headroom adds the rent paid",
     "rent_owed / dt - rent_paid - writeoff", "rent_owed / dt + rent_paid - writeoff"),
    ("assistance headroom adds the arrears written off",
     "rent_owed / dt - rent_paid - writeoff", "rent_owed / dt - rent_paid + writeoff"),
    ("assistance pays from an empty fund", "(funds > 0.0)", "(funds >= 0.0)"),
    ("crowding ratio multiplies by its reference",
     "hpu / p.crowding_reference", "hpu * p.crowding_reference"),
    ("filings divide by the overdue pressure", "occupied * overdue", "occupied / overdue"),
], SCENARIOS: [
    # before the oracles of test_metrics, only the digests of test_references
    # caught these
    ("filings total divides by the step",
     'data["eviction_filings"][first:-1]) * clock.dt',
     'data["eviction_filings"][first:-1]) / clock.dt'),
    ("filings total stops a step short",
     'data["eviction_filings"][first:-1]', 'data["eviction_filings"][first:-2]'),
    ("arrears growth over the window adds the arrears at burn-in",
     "arrears_growth_window=arrears_end - arrears_at_window",
     "arrears_growth_window=arrears_end + arrears_at_window"),
    ("arrears peak growth adds the arrears at burn-in",
     "ops.max(arrears[first:]) - arrears_at_window",
     "ops.max(arrears[first:]) + arrears_at_window"),
    ("crowding at the horizon reads a step early",
     'crowding_end=float(data["crowding_ratio"][-1])',
     'crowding_end=float(data["crowding_ratio"][-2])'),
    ("crowding at the horizon reads the start",
     'crowding_end=float(data["crowding_ratio"][-1])',
     'crowding_end=float(data["crowding_ratio"][0])'),
    ("homelessness at the horizon reads a step early",
     'homeless_end=float(data["households_homeless"][-1])',
     'homeless_end=float(data["households_homeless"][-2])'),
    ("insecurity at the horizon reads a step early",
     'insecure_end=float(data["households_insecure"][-1])',
     'insecure_end=float(data["households_insecure"][-2])'),
    ("insecurity at the horizon reads the start",
     'insecure_end=float(data["households_insecure"][-1])',
     'insecure_end=float(data["households_insecure"][0])'),
    # the parameters hold a fund of 46.5e9 in every shipped run, but a run
    # with assistance off starts its fund at 0
    ("exhaustion is looked for in an empty appropriation",
     "if total > 0.0:", "if total >= 0.0:"),
    ("the disbursed fraction divides by an empty appropriation",
     "if total > 0.0 else 0.0", "if total >= 0.0 else 0.0"),
]}

_EPS_GUARD = "no run meets the guarded quantity at exactly EPS"
_EMPTIED = ("run4a's fund drops from 6.6e8 to exactly 0 in one step, and run4's stays "
            "above 2.7e10: no fund holds an amount between 0 and 6.6e8")
# by the file it mutates: (what the mutant does, the source it replaces, its
# replacement, why it moves no series, or no metric, at the shipped inputs)
EQUIVALENT = {MODEL: [
    ("the no-income guard leaves out EPS itself",
     "income <= EPS", "income < EPS", _EPS_GUARD),
    ("the no-arrears-pool guard leaves out EPS itself",
     "pool_rent <= EPS", "pool_rent < EPS", _EPS_GUARD),
    ("the no-tenants guard leaves out EPS itself",
     "tenanted <= EPS", "tenanted < EPS", _EPS_GUARD),
    ("crowding leaves neutral at its reference itself",
     "c_ratio <= 1.0", "c_ratio < 1.0",
     "the crowding ratio stays above 1.16 in every run, never at the reference"),
], SCENARIOS: [
    ("the exhaustion level divides by the appropriation",
     "level = 1e-4 * total", "level = 1e-4 / total", _EMPTIED),
    ("exhaustion leaves out the level itself", "funds <= level", "funds < level", _EMPTIED),
]}

# the functions --scan mutates, by file
SCAN_TARGETS = [(MODEL, "deriv"), (SCENARIOS, "compute_metrics")]

# a digest of every series of the five built-in scenarios, each run in
# full, and one of their metrics
_DIGEST = """
import hashlib
from dataclasses import asdict
from rentdyn.model import run_model
from rentdyn.params import default_params
from rentdyn.scenarios import BUILTIN_SCENARIOS, compute_metrics
sets = [s.apply(default_params()) for s in BUILTIN_SCENARIOS.values()]
runs = [run_model(p) for p in sets]
metrics = [asdict(compute_metrics(run)) for run in runs]
for value in ([run.data for run in runs], metrics):
    print(hashlib.sha256(repr(value).encode()).hexdigest())
"""

# each operator a scanned mutant swaps, with what it puts in its place
_SWAPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
          ast.GtE: (">=", ">"), ast.Gt: (">", ">="), ast.Lt: ("<", "<="), ast.LtE: ("<=", "<")}
# mutants the scan checks at once, each in its own copy of src/
_SCAN_COPIES = 2


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


def _digest(src: Path) -> tuple[str, str]:
    """:data:`_DIGEST` of the package under ``src``: the series' digest and
    the metrics'. A run that fails gives its error for both."""
    run = subprocess.run([sys.executable, "-c", _DIGEST], env=_env(src), cwd=ROOT,
                         capture_output=True, text=True)
    if run.returncode != 0:
        return run.stderr, run.stderr
    series, metrics = run.stdout.split()
    return series, metrics


def _single_mutants(path: Path, source: str, function: str) -> list[tuple[str, str]]:
    """Every mutant of ``function``'s body in ``source``, the text of
    ``path``, that swaps one operator of :data:`_SWAPS`, in source order:
    (where and what, the mutated source)."""
    code = source.encode()  # ast's columns count bytes
    starts = [0]
    for line in code.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    target = next(node for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.FunctionDef) and node.name == function)
    mutants = []
    for node in ast.walk(target):
        if isinstance(node, ast.BinOp):
            operations = [(node.left, node.op, node.right)]
        elif isinstance(node, ast.Compare):
            operations = zip([node.left, *node.comparators], node.ops, node.comparators)
        else:
            continue
        for left, op, right in operations:
            if type(op) not in _SWAPS:
                continue
            old, new = _SWAPS[type(op)]
            # between its operands the operator stands alone, apart from
            # parentheses and line breaks
            lo = starts[left.end_lineno - 1] + left.end_col_offset
            gap = code[lo:starts[right.lineno - 1] + right.col_offset]
            if gap.replace(old.encode(), b"", 1).strip(b"()\\ \n"):
                raise SystemExit(f"{path}: no lone {old!r} in {gap!r}")
            at = lo + gap.index(old.encode())
            line = code.count(b"\n", 0, at) + 1
            label = (f"{path.name}:{line}:{at - starts[line - 1] + 1}, {old} -> {new}: "
                     f"{code.splitlines()[line - 1].decode().strip()}")
            mutants.append((at, label, (code[:at] + new.encode() + code[at + len(old):]).decode()))
    return [(label, mutated) for _, label, mutated in sorted(mutants)]


def _scan(sources: dict[Path, str], unmutated: tuple[str, str], copies: Queue) -> int:
    """Check every mutant of :func:`_single_mutants` of the functions of
    :data:`SCAN_TARGETS`, one per copy of src/ in ``copies`` at a time; 1 if
    any ends in a failing outcome."""
    equivalent, listed = ({(path, sources[path].replace(old, new))
                           for path, mutants in table.items() for _, old, new, *_ in mutants}
                          for table in (EQUIVALENT, MUTANTS))
    mutants = [(path, label, mutated) for path, function in SCAN_TARGETS
               for label, mutated in _single_mutants(path, sources[path], function)]
    if not equivalent <= {(path, mutated) for path, _, mutated in mutants}:
        print("an EQUIVALENT mutant is not a single operator swap of the scan")
        return 1

    def outcome(mutant: tuple[Path, str, str]) -> str:
        path, _, mutated = mutant
        src = copies.get()
        try:
            (src.parent / path).write_text(mutated)
            if (path, mutated) in listed:  # it may move nothing at the shipped inputs
                return "SURVIVED" if _passes(src) else "killed"
            # a mutant of compute_metrics moves no series: its metrics decide
            digest = _digest(src)
            if digest == unmutated:
                return "equivalent" if (path, mutated) in equivalent else "UNLISTED"
            if (path, mutated) in equivalent:
                return "MOVED"
            if digest[1] == unmutated[1]:
                return "series only"
            return "SURVIVED" if _passes(src) else "killed"
        finally:
            (src.parent / path).write_text(sources[path])
            copies.put(src)

    tally: Counter[str] = Counter()
    with ThreadPoolExecutor(copies.qsize()) as pool:
        for (_, label, _), result in zip(mutants, pool.map(outcome, mutants)):
            print(f"{result:<11} {label}", flush=True)
            tally[result] += 1
    print(f"{len(mutants)} mutants: "
          + ", ".join(f"{count} {result}" for result, count in sorted(tally.items())))
    # a metric moved and no contract test saw it; nothing digested moved and
    # no reason is listed; a listed equivalent mutant moved a series or metric
    return 1 if {"SURVIVED", "UNLISTED", "MOVED"} & tally.keys() else 0


def main(argv: list[str]) -> int:
    if argv not in ([], ["--scan"]):
        print("usage: python tests/mutants.py [--scan]")
        return 2
    sources = {path: (ROOT / path).read_text() for path in MUTANTS}
    listed = [(path, label, old) for table in (MUTANTS, EQUIVALENT)
              for path, mutants in table.items() for label, old, *_ in mutants]
    for path, label, old in listed:
        if sources[path].count(old) != 1:
            print(f"mutant '{label}': {old!r} occurs {sources[path].count(old)} times in {path}")
            return 1
    with tempfile.TemporaryDirectory() as tmp:
        copies: Queue = Queue()
        for k in range(_SCAN_COPIES if argv else 1):
            src = Path(tmp, str(k), "src")
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            copies.put(src)
        if not _passes(src):
            print(f"the unmutated copy fails {' '.join(TESTS)}")
            return 1
        unmutated = _digest(src)
        if argv:
            return _scan(sources, unmutated, copies)
        moved = []
        for path, mutants in EQUIVALENT.items():
            for label, old, new, reason in mutants:
                (src.parent / path).write_text(sources[path].replace(old, new))
                if _digest(src) == unmutated:
                    print(f"unmoved  {label}: {reason}", flush=True)
                else:
                    print(f"MOVED    {label}: a series or metric differs from the unmutated "
                          "copy's", flush=True)
                    moved.append(label)
            (src.parent / path).write_text(sources[path])
        survivors = []
        for path, mutants in MUTANTS.items():
            for label, old, new in mutants:
                t0 = time.perf_counter()
                (src.parent / path).write_text(sources[path].replace(old, new))
                survived = _passes(src)
                print(f"{'SURVIVED' if survived else 'killed  '} {label} "
                      f"({time.perf_counter() - t0:.1f} s)", flush=True)
                if survived:
                    survivors.append(label)
            (src.parent / path).write_text(sources[path])
    total = sum(map(len, MUTANTS.values()))
    unmoved = sum(map(len, EQUIVALENT.values())) - len(moved)
    print(f"{total - len(survivors)} of {total} mutants killed; "
          f"{unmoved} of {unmoved + len(moved)} equivalent mutants move nothing digested")
    return 1 if survivors or moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
