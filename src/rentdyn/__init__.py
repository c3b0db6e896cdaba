"""System-dynamics model of the U.S. low-income rental housing market.

Stocks of rent and mortgage arrears, occupied/pending-eviction/vacant/
foreclosed rental units, and housing-insecure and homeless households evolve
under coupled feedback: income shocks delay rent, arrears drive eviction
filings, court processing turns filings into displacement, displacement feeds
crowding and homelessness, and crowding and stress feed back into filings.
Policy levers (an eviction moratorium and emergency rental assistance) can be
switched on per scenario.
"""

from rentdyn.engine import (
    GompertzCurve,
    LogisticCurve,
    SimClock,
    SimulationError,
    Trajectory,
    euler_step,
    simulate,
)
from rentdyn.params import (
    ModelParams,
    default_params,
    load_params,
    save_params,
    validate_params,
    with_value,
)
from rentdyn.equilibrium import equilibrate
from rentdyn.model import run_model
from rentdyn.scenarios import (
    BUILTIN_SCENARIOS,
    MetricSet,
    RunResult,
    Scenario,
    compare,
    load_scenarios,
    run_many,
    run_scenario,
)
from rentdyn.validation import (
    extreme_conditions,
    reference_report,
    sensitivity_sweep,
    theil_decomposition,
    theils_u,
)
from rentdyn.calibration import calibrate, load_calibration_spec

__version__ = "0.1.0"

__all__ = [
    "GompertzCurve",
    "LogisticCurve",
    "SimClock",
    "SimulationError",
    "Trajectory",
    "euler_step",
    "simulate",
    "ModelParams",
    "default_params",
    "load_params",
    "save_params",
    "validate_params",
    "with_value",
    "equilibrate",
    "run_model",
    "BUILTIN_SCENARIOS",
    "MetricSet",
    "RunResult",
    "Scenario",
    "compare",
    "load_scenarios",
    "run_many",
    "run_scenario",
    "extreme_conditions",
    "reference_report",
    "sensitivity_sweep",
    "theil_decomposition",
    "theils_u",
    "calibrate",
    "load_calibration_spec",
    "__version__",
]
