"""Perturb every registered parameter by +/-15% and rank what matters.

Prints a text tornado of eviction-total elasticities for the shock
scenario, then flags any parameter whose up and down elasticities
disagree wildly (a sign of strong nonlinearity worth a closer look).
"""

import math

from rentdyn.params import default_params
from rentdyn.scenarios import BUILTIN_SCENARIOS
from rentdyn.validation import sensitivity_sweep

TOP_N = 12
BAR_SCALE = 30  # characters per unit elasticity


def bar(e):
    n = min(abs(e), 1.5) / 1.5
    width = int(round(n * BAR_SCALE))
    return ("#" * width).ljust(BAR_SCALE)


def main():
    params = default_params()
    print("Sweeping every parameter +/-15% under the shock scenario...")
    base, entries = sensitivity_sweep(params, BUILTIN_SCENARIOS["run2"], fraction=0.15)
    print(f"  {len(entries)} perturbed runs, baseline evictions "
          f"{base['evictions_total'] / 1e6:.3f}M")

    strongest = {}
    for e in entries:
        el = e.elasticities["evictions_total"]
        prev = strongest.get(e.parameter)
        if prev is None or abs(el) > abs(prev):
            strongest[e.parameter] = el
    ranked = sorted(strongest.items(), key=lambda kv: -abs(kv[1]))

    print()
    print(f"Top {TOP_N} parameters by eviction elasticity "
          f"(magnitude of the stronger direction):")
    for name, el in ranked[:TOP_N]:
        sign = "+" if el >= 0 else "-"
        print(f"  {name:38s} {sign} {bar(el)} {el:+7.3f}")

    clamped = [e for e in entries if e.clamped]
    print()
    print(f"{len(clamped)} perturbation(s) hit a validity bound and were clamped:")
    for e in clamped:
        print(f"  {e.parameter} {e.direction}: requested "
              f"{e.requested_value:.4g}, applied {e.applied_value:.4g}")

    print()
    print("Parameters with strongly asymmetric response "
          "(|up - down| elasticity gap > 0.5):")
    by_param = {}
    for e in entries:
        by_param.setdefault(e.parameter, {})[e.direction] = \
            e.elasticities["evictions_total"]
    any_asym = False
    for name, d in by_param.items():
        if "up" in d and "down" in d and abs(d["up"] - d["down"]) > 0.5:
            any_asym = True
            print(f"  {name}: up {d['up']:+.3f}, down {d['down']:+.3f}")
    if not any_asym:
        print("  none; the response surface is locally smooth at this scale")

    finite = all(
        math.isfinite(v) for e in entries for v in e.metrics.values()
    )
    complete = len(entries) == 2 * len(strongest)
    print()
    if finite and complete:
        print(f"[PASS] sweep complete: 2 directions x {len(strongest)} parameters")
        return 0
    print("[FAIL] sweep incomplete or produced non-finite metrics")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
