"""Pre-shock stationary initialization.

Given anchor stocks, prices, and behavioral rates, solve for the flow
constants and initial dollar stocks that make the no-policy baseline
stationary: occupied/pending/foreclosed units and both household pools sit
exactly at their initial values, and arrears settle where accrual balances
payment plus write-off. Vacant units alone drift, at the slow stock-decline
rate (a conserved-minus-decline system cannot be flat everywhere). No flow is
restated here: each derived constant is solved from the net rate of its own
stock in the model's derivative at t=0, so the two cannot drift apart.

The derived fields are written back into the parameter set so a saved file
carries explicit values; nothing is re-solved behind a loaded file's back.
"""

from __future__ import annotations

from rentdyn.engine import EPS
from rentdyn.model import STOCKS, UNCAPPED_DT, build_derivative, initial_state, scalar_kernel
from rentdyn.params import InputError, ModelParams, with_values

__all__ = ["equilibrate", "DERIVED_FIELDS"]

# fields equilibrate() overwrites; the shipped defaults are its own output
DERIVED_FIELDS: tuple[str, ...] = (
    "rent_owed_initial",
    "mortgage_owed_initial",
    "units_foreclosed_initial",
    "baseline_filing_fraction",
    "move_in_time",
    "rate_new_homelessness",
    "rate_new_insecurity",
    "landlord_income_per_unit",
)

_TOLERANCE = 1e-14
_MAX_ITERATIONS = 200
_RENT, _MORTGAGE, _OCCUPIED, _PENDING, _VACANT, _FORECLOSED, _INSECURE, _HOMELESS = map(
    STOCKS.index, ("rent_owed", "mortgage_owed", "units_occupied", "units_pending_eviction",
                   "units_vacant", "units_foreclosed", "households_insecure",
                   "households_homeless"))


def _balance(stock: float, inflow: float, outflow: float) -> float:
    """Level at which a stock's first-order outflow would match its inflow."""
    return stock * inflow / outflow if inflow > 0.0 else 0.0


def _at(deriv, state: list[float]) -> tuple[list[float], dict[str, float]]:
    """Rates, and auxiliaries by name, at ``state`` and t=0."""
    rates, aux = deriv(state, 0.0)
    return rates, dict(zip(scalar_kernel().auxiliaries, aux))


def equilibrate(params: ModelParams) -> ModelParams:
    """Return ``params`` with the derived balancing fields recomputed; anchors
    that admit no stationary baseline raise an :class:`InputError`."""
    if params.units_occupied_initial + params.units_pending_initial <= EPS:
        raise InputError("no tenanted units: cannot anchor a rental market baseline")
    # policies off; linear constants and stocks at probe values whose flows are read back
    base = with_values(params, {"covid.enabled": False, "moratorium.enabled": False,
                                "assistance.enabled": False, "baseline_filing_fraction": 1.0,
                                "move_in_time": 1.0, "rate_new_homelessness": 0.0,
                                "rate_new_insecurity": 0.0})
    state = initial_state(base)
    state[_RENT] = state[_MORTGAGE] = state[_FORECLOSED] = 1.0

    # dollar stocks drain nonlinearly in their own level: iterate to the fixed point
    deriv = build_derivative(base, UNCAPPED_DT)
    for _ in range(_MAX_ITERATIONS):
        _, aux = _at(deriv, state)
        balanced = {
            _RENT: _balance(state[_RENT], aux["rent_due"],
                            aux["rent_paid"] + aux["arrears_writeoff"]),
            _MORTGAGE: _balance(state[_MORTGAGE], aux["mortgage_due"], aux["mortgage_paid"]),
        }
        settled = all(abs(v - state[i]) <= _TOLERANCE * abs(v) for i, v in balanced.items())
        for i, v in balanced.items():
            state[i] = v
        if settled:
            break
    else:
        raise InputError(f"arrears did not settle within {_MAX_ITERATIONS} iterations")

    # foreclosure pipeline sized so sales balance intake (sales are linear in the stock)
    rates, aux = _at(deriv, state)
    intake = aux["foreclosures_tenanted"] + aux["foreclosures_vacant"]
    foreclosed = _balance(state[_FORECLOSED], intake, aux["foreclosure_sales"])

    # filing rate that keeps the pending pool level; inflows that hold both household pools
    if aux["eviction_filings"] <= EPS:
        raise InputError("filing pressure base is zero: cannot balance the court pipeline")
    filing_fraction = 1.0 - rates[_PENDING] / aux["eviction_filings"]
    new_homeless = -rates[_HOMELESS]
    if new_homeless < 0.0:
        raise InputError(
            "displacement alone exceeds homeless outflows: reduce homeless_entry_fraction "
            "or raise exit/stabilization rates")
    new_insecure = -rates[_INSECURE]
    if new_insecure < 0.0:
        raise InputError(
            "homeless returns exceed insecure-pool outflows: no stationary inflow exists")

    # vacancy refill pace that keeps occupancy level under those filings
    base = with_values(base, {"baseline_filing_fraction": filing_fraction})
    rates, aux = _at(build_derivative(base, UNCAPPED_DT), state)
    supply = aux["tenant_moveins"]
    moveins = supply - rates[_OCCUPIED]
    if moveins <= EPS:
        raise InputError(
            "occupied-unit outflows do not exceed case resolutions: "
            "no positive move-in rate can hold occupancy level")
    if supply <= EPS:
        raise InputError("no vacant units or insecure households to supply move-ins")

    mortgaged = state[_OCCUPIED] + state[_PENDING] + state[_VACANT]
    return with_values(params, dict(zip(DERIVED_FIELDS, (
        state[_RENT], state[_MORTGAGE], foreclosed, filing_fraction,
        supply / moveins, new_homeless, new_insecure, aux["rent_paid"] / max(mortgaged, EPS),
    ))))
