"""Knock the fitted parameters off their values and let the search recover.

Loads the shipped calibration spec, perturbs the free parameters toward
the edges of their bounds, and runs the bounded Levenberg-Marquardt fit. A
healthy setup recovers every target to well under a percent,
deterministically, in 78 model evaluations: 18 trial points and the
finite-difference Jacobians' points around them.
"""

from rentdyn.calibration import calibrate, load_calibration_spec
from rentdyn.params import default_params, get_value, with_values
from rentdyn.scenarios import BUILTIN_SCENARIOS

SPEC_FILE = "params/calibration.yaml"

# Deliberate mis-sets, roughly 20 to 40% off the shipped values.
PERTURB = {
    "covid.magnitude": 0.45,
    "covid.recovery_time": 45.0,
    "moratorium.filing_reduction": 0.70,
    "assistance.disbursement_time": 28.0,
}


def main():
    spec = load_calibration_spec(SPEC_FILE, BUILTIN_SCENARIOS)
    start = with_values(default_params(), PERTURB)

    print("Running the bounded least-squares fit (fully deterministic)...")
    result = calibrate(start, spec, scenarios=BUILTIN_SCENARIOS)
    print(f"Perturbed {len(PERTURB)} parameters; starting loss {result.initial_loss:.3e}")
    print(f"  {result.evaluations} model evaluations (trial points and their "
          f"finite-difference Jacobian points, {result.scenario_runs} scenario runs), "
          f"loss {result.initial_loss:.3e} -> {result.loss:.3e}")

    print()
    print(f"{'parameter':36s} {'start':>10s} {'fitted':>10s} {'shipped':>10s}")
    shipped = default_params()
    for path in PERTURB:
        print(f"{path:36s} {PERTURB[path]:10.4g} "
              f"{result.fitted[path]:10.4g} "
              f"{get_value(shipped, path):10.4g}")

    print()
    print("Targets vs. achieved:")
    worst = 0.0
    for target in spec.targets:
        got = result.achieved[target.key]
        rel = abs(got - target.value) / abs(target.value)
        worst = max(worst, rel)
        print(f"  {target.key:38s} target {target.value:.4g}, "
              f"achieved {got:.4g} ({rel * 100:.3f}% off)")

    print()
    if worst < 0.01 and result.converged:
        print(f"[PASS] all targets recovered within 1% (worst {worst * 100:.3f}%)")
        return 0
    print(f"[FAIL] recovery incomplete (worst miss {worst * 100:.2f}%, "
          f"converged={result.converged})")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
