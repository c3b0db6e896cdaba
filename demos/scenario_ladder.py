"""Walk the built-in scenario ladder and print the headline story.

Each scenario adds one mechanism on top of the last: a stationary
baseline, an income shock, a filing moratorium during the shock, and
finally emergency rental assistance. The printout shows how each layer
moves the summary metrics, then checks the orderings that make the
ladder coherent.
"""

from rentdyn.params import default_params
from rentdyn.scenarios import BUILTIN_SCENARIOS, run_many


def fmt_millions(x):
    return f"{x / 1e6:7.3f}M"


def fmt_billions(x):
    return f"${x / 1e9:6.2f}B"


def main():
    params = default_params()
    print("Running the five built-in scenarios...")
    by_name = run_many(params, BUILTIN_SCENARIOS)
    # a run that shares its history with an earlier one integrates only
    # from where it departs, and times only that
    for name, r in by_name.items():
        restart = r.trajectory.restart
        where = "in full" if restart is None else f"from sample {restart[0]}"
        print(f"  {name}: {r.elapsed_seconds * 1e3:.1f} ms, integrated {where}")

    print()
    print(f"{'scenario':8s} {'evictions':>10s} {'arrears':>9s} "
          f"{'homeless':>9s} {'crowding':>9s}  description")
    for name in ("run1", "run2", "run3", "run4", "run4a"):
        m = by_name[name].metrics
        print(f"{name:8s} {fmt_millions(m.evictions_total):>10s} "
              f"{fmt_billions(m.arrears_end):>9s} "
              f"{m.homeless_end / 1e3:8.0f}K "
              f"{m.crowding_mean:9.3f}  "
              f"{by_name[name].scenario.description}")

    ev = {n: by_name[n].metrics.evictions_total for n in by_name}
    hm = {n: by_name[n].metrics.homeless_end for n in by_name}

    print()
    print("Story in three numbers:")
    excess = ev["run2"] - ev["run1"]
    print(f"  the shock alone adds {fmt_millions(excess).strip()} evictions "
          f"over the analysis window ({excess / ev['run1'] * 100:.0f}% above baseline)")
    reduction = 1.0 - ev["run3"] / ev["run2"]
    print(f"  the moratorium removes {reduction * 100:.0f}% of shock-era evictions")
    disb = by_name["run4"].metrics.assistance_disbursed_fraction
    print(f"  assistance pays out {disb * 100:.0f}% of the fund by the horizon "
          f"and trims evictions and homelessness a little further")

    print()
    checks = [
        ("shock raises evictions over baseline", ev["run2"] > ev["run1"]),
        ("moratorium cuts shock-era evictions", ev["run3"] < ev["run2"]),
        ("assistance does not make things worse", ev["run4"] <= ev["run3"]),
        ("faster assistance helps at the margin", ev["run4a"] <= ev["run4"]),
        ("homelessness ordering matches", hm["run1"] < hm["run3"] <= hm["run2"]),
    ]
    ok = True
    for label, passed in checks:
        print(f"  [{'PASS' if passed else 'FAIL'}] {label}")
        ok = ok and passed
    print()
    print("Scenario ladder is coherent." if ok else "Scenario ladder check FAILED.")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
