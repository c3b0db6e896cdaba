"""Stock-and-flow structure of the low-income rental market.

Stocks
------
Dollars: ``rent_owed`` (tenant arrears), ``mortgage_owed`` (landlord arrears),
``assistance_funds`` / ``assistance_disbursed`` (rental-assistance ledger).
Units: ``units_occupied`` -> ``units_pending_eviction`` -> back (case resolved)
or out through eviction; vacancies refill through ``units_vacant``; foreclosed
units park in ``units_foreclosed`` until resold. Households: ``households_insecure``
(housed but cost-burdened, including doubled-up families) and
``households_homeless``. Two first-order smoothing levels (``shock_recovery_level``,
``filing_recovery_level``) integrate alongside the stocks.

Feedback
--------
Income loss raises the rent burden, which delays rent payment and grows
arrears; arrears raise landlord filing pressure and tenant stress; filings
feed the court pipeline whose processed evictions displace households into
crowding and homelessness; crowding both relieves the per-household burden
(shared rent) and raises conflict-driven filings; missed rent starves
landlords, delaying mortgages and raising foreclosures, which displace
tenants through a second channel.

Every outflow is first-order (stock / adjustment-time) and each stock's
outflows are scaled down proportionally if they would drain it below zero in
one step, so integration can clamp only as a last resort.
"""

from __future__ import annotations

import math
from typing import Mapping

from rentdyn.engine import EPS, SimClock, Trajectory, simulate
from rentdyn.params import ModelParams

__all__ = [
    "STOCKS",
    "NONNEG_STOCKS",
    "initial_state",
    "build_derivative",
    "run_model",
]

STOCKS: tuple[str, ...] = (
    "rent_owed",
    "mortgage_owed",
    "units_occupied",
    "units_pending_eviction",
    "units_vacant",
    "units_foreclosed",
    "households_insecure",
    "households_homeless",
    "assistance_funds",
    "assistance_disbursed",
    "shock_recovery_level",
    "filing_recovery_level",
)

# smoothing levels are signal states, not conserved quantities
NONNEG_STOCKS: frozenset[str] = frozenset(STOCKS[:-2])


def initial_state(params: ModelParams) -> dict[str, float]:
    """Starting stock levels for a simulation."""
    return {
        "rent_owed": params.rent_owed_initial,
        "mortgage_owed": params.mortgage_owed_initial,
        "units_occupied": params.units_occupied_initial,
        "units_pending_eviction": params.units_pending_initial,
        "units_vacant": params.units_vacant_initial,
        "units_foreclosed": params.units_foreclosed_initial,
        "households_insecure": params.households_insecure_initial,
        "households_homeless": params.households_homeless_initial,
        "assistance_funds": params.assistance.total_funds if params.assistance.enabled else 0.0,
        "assistance_disbursed": 0.0,
        "shock_recovery_level": 0.0,
        "filing_recovery_level": 0.0,
    }


def _limit(dt: float, stock: float, *flows: float) -> tuple[float, ...]:
    """Scale a stock's outflows so one Euler step cannot drive it negative."""
    total = sum(flows)
    cap = stock / dt
    if total > cap:
        scale = cap / total if total > 0.0 else 0.0
        return tuple(f * scale for f in flows)
    return flows


def rent_burden(params: ModelParams, covid_effect: float) -> float:
    """Monthly rent over shock-adjusted income (inf when income is zero)."""
    income = params.avg_household_income * (1.0 - covid_effect)
    rent = params.avg_monthly_rent
    if income <= EPS:
        return math.inf if rent > 0.0 else 0.0
    return rent / income


def rent_delay_effect(params: ModelParams, burden: float) -> float:
    """Payment-delay multiplier: neutral at or below the burden threshold."""
    excess = max(0.0, burden - params.rent_burden_threshold)
    return params.rent_delay_curve(excess / params.rent_burden_threshold)


def stress_effect(params: ModelParams, rent_owed: float,
                  households_insecure: float) -> float:
    """Economic-stress multiplier from arrears per household, in months of rent.

    Spreading a fixed debt over more households (doubling up) dilutes the
    per-household load, so the input falls as the insecure pool grows.
    """
    denom = households_insecure * params.avg_monthly_rent
    if denom <= EPS:
        return params.stress_curve.floor
    return params.stress_curve(rent_owed / denom)


def crowding_ratio(households_insecure: float, tenanted_units: float,
                   reference: float) -> float:
    """Households per unit relative to the uncrowded reference (0 if no units)."""
    if tenanted_units <= EPS:
        return 0.0
    return (households_insecure / tenanted_units) / reference


def crowding_effect(params: ModelParams, ratio: float) -> float:
    """Conflict multiplier; crowding at or below the reference has no effect."""
    if ratio <= 1.0:
        return 1.0
    return params.crowding_curve(ratio)


def overdue_pressure(params: ModelParams, arrears_per_unit: float) -> float:
    """Landlord filing pressure once per-unit arrears exceed tolerance."""
    return max(1.0, arrears_per_unit / params.landlord_tolerance)


def covid_effect_at(params: ModelParams, t: float, recovery_level: float) -> float:
    """Net shock: a step at onset minus its own first-order recovery."""
    if not params.covid.enabled:
        return 0.0
    step = params.covid.magnitude if t >= params.covid.start_time else 0.0
    return max(0.0, step - recovery_level)


def processing_factor_at(params: ModelParams, t: float) -> float:
    """Court throughput multiplier under the moratorium (1 outside it)."""
    m = params.moratorium
    if not m.enabled:
        return 1.0
    in_window = 1.0 if (t >= m.start_time and t < m.start_time + m.duration) else 0.0
    return 1.0 - m.processing_reduction * in_window


def filing_factor_at(params: ModelParams, t: float, recovery_level: float) -> float:
    """Filing multiplier: drops ahead of the moratorium, recovers slowly after."""
    m = params.moratorium
    if not m.enabled:
        return 1.0
    drop = m.filing_reduction if t >= m.start_time - 0.5 else 0.0
    return max(0.0, 1.0 - drop + recovery_level)


def build_derivative(params: ModelParams, dt: float):
    """Derivative function for :func:`rentdyn.engine.simulate`.

    ``dt`` is needed by the outflow limiter (one-step drain caps are stated
    as stock/dt); the flow formulas themselves are step-size independent.
    """
    p = params
    cv = p.covid
    m = p.moratorium
    era = p.assistance

    rebound_time = m.start_time + m.duration + m.filing_rebound_lag

    def deriv(state: Mapping[str, float], t: float) -> tuple[dict[str, float], dict[str, float]]:
        rent_owed = state["rent_owed"]
        mortgage_owed = state["mortgage_owed"]
        occupied = state["units_occupied"]
        pending = state["units_pending_eviction"]
        vacant = state["units_vacant"]
        foreclosed = state["units_foreclosed"]
        insecure = state["households_insecure"]
        homeless = state["households_homeless"]
        funds = state["assistance_funds"]
        recovery = state["shock_recovery_level"]
        filing_recovery = state["filing_recovery_level"]

        # exogenous drivers
        covid = covid_effect_at(p, t, recovery)
        proc_factor = processing_factor_at(p, t)
        fil_factor = filing_factor_at(p, t, filing_recovery)

        # rent accrual and payment
        tenanted = occupied + pending
        rent_due = p.avg_monthly_rent * tenanted
        hpu = insecure / max(tenanted, EPS)
        burden = rent_burden(p, covid)
        delay = rent_delay_effect(p, burden)
        at_rent = p.at_rent_base * delay
        rent_paid = rent_owed / at_rent

        # behavioral multipliers
        stress = stress_effect(p, rent_owed, insecure)
        c_ratio = crowding_ratio(insecure, tenanted, p.crowding_reference)
        crowding = crowding_effect(p, c_ratio)
        conflict = crowding * stress
        arrears_per_unit = rent_owed / max(tenanted, EPS)
        overdue = overdue_pressure(p, arrears_per_unit)

        # court pipeline and turnover (before the dollar flows that need them).
        # A moratorium stays every filed case, so it throttles resolutions as
        # well as executions; the pandemic capacity loss hits executions only.
        evictions = (p.eviction_proportion / p.processing_time) * (1.0 - covid) \
            * proc_factor * pending
        resolutions = proc_factor * pending / p.filing_resolution_time
        moveouts = p.baseline_turnover_fraction * occupied * stress

        # tenants who leave take their unpaid balance out of collectible arrears
        writeoff = arrears_per_unit * (evictions + moveouts)

        rent_paid, writeoff = _limit(dt, rent_owed, rent_paid, writeoff)

        # rental assistance pays arrears directly, within remaining headroom
        payment = 0.0
        if era.enabled and t >= era.start_time and funds > 0.0:
            pace = era.rate_multiplier * era.total_funds / era.disbursement_time
            headroom = max(0.0, rent_owed / dt - rent_paid - writeoff)
            payment = min(pace, funds / dt, headroom)

        # landlord income and mortgage pipeline
        mortgaged = occupied + pending + vacant
        landlord_income = rent_paid + payment
        mortgage_due = p.avg_monthly_mortgage * mortgaged
        m_ratio = mortgage_owed / max(landlord_income, EPS)
        mortgage_delay = p.mortgage_delay_curve(m_ratio)
        (mortgage_paid,) = _limit(
            dt, mortgage_owed, mortgage_owed / (p.at_mortgage_base * mortgage_delay)
        )

        # foreclosure channel
        fore_occ = p.foreclosure_fraction_occupied * occupied * mortgage_delay
        fore_pend = p.foreclosure_fraction_occupied * pending * mortgage_delay
        fore_vac = p.foreclosure_fraction_vacant * vacant
        sales = foreclosed / p.foreclosure_sale_time
        decline = p.stock_decline_fraction * vacant

        # filings against occupied units
        filings = p.baseline_filing_fraction * occupied * overdue * mortgage_delay \
            * conflict * fil_factor

        moveins = min(vacant, insecure) / p.move_in_time

        moveouts, fore_occ, filings = _limit(dt, occupied, moveouts, fore_occ, filings)
        evictions, resolutions, fore_pend = _limit(dt, pending, evictions, resolutions, fore_pend)
        moveins, fore_vac, decline = _limit(dt, vacant, moveins, fore_vac, decline)
        (sales,) = _limit(dt, foreclosed, sales)

        # household displacement and homelessness
        displaced = (evictions + fore_occ + fore_pend) * hpu
        homeless_entries = p.homeless_entry_fraction * displaced + p.fr_direct_homeless * insecure
        doubling_up = p.doubling_up_fraction * displaced
        new_insecure = p.rate_new_insecurity * (1.0 + covid)
        new_homeless = p.rate_new_homelessness * (1.0 + covid)
        insecure_stabilizing = p.fr_stabilize_insecure * insecure * (1.0 - covid)
        homeless_stabilizing = p.fr_stabilize_homeless * homeless * (1.0 - covid)
        homeless_exits = p.fr_exit_homeless * homeless
        homeless_doubling = p.fr_double_up_homeless * homeless

        homeless_entries, insecure_stabilizing = _limit(
            dt, insecure, homeless_entries, insecure_stabilizing
        )
        homeless_exits, homeless_doubling, homeless_stabilizing = _limit(
            dt, homeless, homeless_exits, homeless_doubling, homeless_stabilizing
        )

        rates = {
            "rent_owed": rent_due - rent_paid - payment - writeoff,
            "mortgage_owed": mortgage_due - mortgage_paid,
            "units_occupied": moveins + resolutions - moveouts - fore_occ - filings,
            "units_pending_eviction": filings - evictions - resolutions - fore_pend,
            "units_vacant": evictions + moveouts + sales - moveins - fore_vac - decline,
            "units_foreclosed": fore_occ + fore_pend + fore_vac - sales,
            "households_insecure": new_insecure + homeless_exits + homeless_doubling
                - homeless_entries - insecure_stabilizing,
            "households_homeless": new_homeless + homeless_entries
                - homeless_exits - homeless_doubling - homeless_stabilizing,
            "assistance_funds": -payment,
            "assistance_disbursed": payment,
            "shock_recovery_level": ((cv.magnitude if cv.enabled and t >= cv.start_time
                                      else 0.0) - recovery) / cv.recovery_time,
            "filing_recovery_level": ((m.filing_reduction if m.enabled and t >= rebound_time
                                       else 0.0) - filing_recovery) / m.filing_recovery_delay,
        }

        aux = {
            "covid_effect": covid,
            "processing_factor": proc_factor,
            "filing_factor": fil_factor,
            "burden_ratio": min(burden, 1e12),
            "rent_delay_effect": delay,
            "stress_effect": stress,
            "crowding_ratio": c_ratio,
            "crowding_effect": crowding,
            "conflict_effect": conflict,
            "overdue_pressure": overdue,
            "mortgage_delay_effect": mortgage_delay,
            "households_per_unit": hpu,
            "rent_due": rent_due,
            "rent_paid": rent_paid,
            "arrears_writeoff": writeoff,
            "assistance_payment": payment,
            "mortgage_due": mortgage_due,
            "mortgage_paid": mortgage_paid,
            "eviction_filings": filings,
            "case_resolutions": resolutions,
            "evictions_processed": evictions,
            "tenant_moveouts": moveouts,
            "tenant_moveins": moveins,
            "foreclosures_tenanted": fore_occ + fore_pend,
            "foreclosures_vacant": fore_vac,
            "foreclosure_sales": sales,
            "stock_decline": decline,
            "displaced_households": displaced,
            "homeless_entries": homeless_entries,
            "households_doubling_up": doubling_up,
            "new_insecure": new_insecure,
            "new_homeless": new_homeless,
            "insecure_stabilizing": insecure_stabilizing,
            "homeless_stabilizing": homeless_stabilizing,
            "homeless_exits": homeless_exits,
            "homeless_doubling": homeless_doubling,
        }
        return rates, aux

    return deriv


def run_model(params: ModelParams, clock: SimClock | None = None) -> Trajectory:
    """Simulate the model on the given grid (default grid if none)."""
    if clock is None:
        clock = SimClock()
    deriv = build_derivative(params, clock.dt)
    return simulate(deriv, clock, initial_state(params), NONNEG_STOCKS)
