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

Backends
--------
The flows are written once, against a small ops namespace in the style of
the Array API (``where``, ``maximum``, ``minimum``, ``limit``), and call each
effect curve on its input. The namespace follows the type of the parameters:
a :class:`ModelParams` takes the scalar backend (Python floats and ``math``),
which single runs, calibration and the extreme battery use; a batch from
:func:`rentdyn.params.stack_params` takes the numpy backend, where every
value is a ``(B,)`` array, one entry per parameter set, which the
sensitivity sweep uses. The state is a sequence in :data:`STOCKS` order
either way: a list of floats, or one ``(stocks, B)`` array. numpy is
imported by the first batch: the scalar backend never imports it, so a
process that makes only single runs never loads it.

The numpy backend reproduces the scalar one bit for bit. It uses only
operations that numpy rounds exactly as Python does (``+ - * /``,
comparisons, ``where``, ``maximum``, ``minimum``), and never ``np.exp`` or
``np.log``: their SIMD kernels differ from ``math.exp``/``math.log`` in the
last bit on some inputs. Both limiters add a stock's outflows left to right,
as ``sum`` adds arrays: :func:`_limit` loops, since ``sum`` compensates
floats from Python 3.12 on. Each effect curve keeps its scalar form
(``__call__``) and its array form (``array``, which a batch's curve calls)
side by side in :mod:`rentdyn.engine`, tested against each other: the array
form takes every branch of the scalar one as a mask, and maps ``math.exp``
and ``math.log`` over the entries, so the transcendentals stay the scalar
ones. The backends part only on NaN, which numpy's ``maximum``/``minimum``
propagate and Python's ``max``/``min`` may drop; :func:`run_model` reruns
the sets of a batch that goes non-finite on the scalar backend.
"""

from __future__ import annotations

import math
import sys
from dataclasses import fields, is_dataclass
from types import SimpleNamespace
from typing import Iterator, Sequence

from rentdyn.engine import EPS, SimClock, SimulationError, Trajectory, simulate, simulate_batch
from rentdyn.params import POLICY_BLOCKS, ModelParams, stack_params

__all__ = [
    "STOCKS",
    "NONNEG_STOCKS",
    "SCALAR",
    "initial_state",
    "policy_onset",
    "GATE_TIMES",
    "read_from",
    "departure",
    "build_derivative",
    "UNCAPPED_DT",
    "drain_cap_bound",
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


def _where(cond, a, b):
    return a if cond else b


# builtin max(a, b) and min(a, b), exactly (the first argument on ties and
# NaN), at a third of the call cost of the builtins' generic argument parsing
def _maximum(a, b):
    return b if b > a else a


def _minimum(a, b):
    return b if b < a else a


def _limit(dt: float, stock: float, *flows: float) -> tuple[float, ...]:
    """Scale a stock's outflows so one Euler step cannot drive it negative."""
    total = 0.0
    for flow in flows:
        total += flow
    cap = stock / dt
    if total > cap:
        scale = cap / total if total > 0.0 else 0.0
        return tuple(f * scale for f in flows)
    return flows


SCALAR = SimpleNamespace(where=_where, maximum=_maximum, minimum=_minimum, limit=_limit)


def _numpy_ops() -> SimpleNamespace:
    """The numpy backend, made for each batch: numpy is imported here, so a
    scalar run never loads it."""
    import numpy as np

    def limit(dt: float, stock, *flows):
        """:func:`_limit` without branches, and exact: where the cap does not
        bind, ``cap / total`` rounds to at least 1, and ``f * 1.0 == f``."""
        scale = np.minimum(1.0, (stock / dt) / np.maximum(sum(flows), 5e-324))
        return tuple(f * scale for f in flows)

    return SimpleNamespace(where=np.where, maximum=np.maximum, minimum=np.minimum, limit=limit)


def _ops(params) -> SimpleNamespace:
    return SCALAR if isinstance(params, ModelParams) else _numpy_ops()


def initial_state(params) -> list:
    """Starting stock levels for a simulation, in :data:`STOCKS` order.

    For a batch, the levels that no parameter sets stay floats; the engine
    broadcasts them across the batch.
    """
    era = params.assistance
    return [
        params.rent_owed_initial,
        params.mortgage_owed_initial,
        params.units_occupied_initial,
        params.units_pending_initial,
        params.units_vacant_initial,
        params.units_foreclosed_initial,
        params.households_insecure_initial,
        params.households_homeless_initial,
        _ops(params).where(era.enabled, era.total_funds, 0.0),
        0.0,
        0.0,
        0.0,
    ]


def policy_onset(params, block: str):
    """Onset of a policy block: the earliest time at which the model reads any
    of its parameters, and infinite when ``params`` switches the block off.

    Each time gate of the block compares ``t`` with one opening time, never
    earlier than the onset, so a block switched off never opens one. The
    moratorium's first gate is the filing drop, half a month ahead of its
    processing window.
    """
    b = getattr(params, block)
    first = b.start_time - 0.5 if block == "moratorium" else b.start_time
    return _ops(params).where(b.enabled, first, math.inf)


# the parameters the model only compares against grid times: a change smaller
# than the step moves no gate, so no finite difference sees them
GATE_TIMES: frozenset[str] = frozenset({
    "covid.start_time",
    "moratorium.start_time",
    "moratorium.duration",
    "moratorium.filing_rebound_lag",
    "assistance.start_time",
})


def read_from(params: ModelParams, path: str) -> float:
    """Earliest time at which the model reads the parameter at ``path``.

    A parameter of a policy block is read from the block's onset on, so
    never in a block ``params`` switches off; only ``assistance.total_funds``,
    the fund's initial level, is read from the start while its block is on.
    A block's ``start_time`` and ``enabled`` switch read like the rest of
    the block, so runs that differ in one part at the earlier of their two
    onsets; but ``assistance.enabled`` is read from the start, where it
    opens the fund (:func:`initial_state`). Every parameter outside the
    policy blocks is read from the start. Runs whose parameters differ only
    in what is first read at or after a time give the same numbers before it.
    """
    block = path.partition(".")[0]
    if block not in POLICY_BLOCKS or path == "assistance.enabled":
        return 0.0
    onset = policy_onset(params, block)
    return 0.0 if path == "assistance.total_funds" and onset < math.inf else onset


def departure(a: ModelParams, b: ModelParams) -> float:
    """When runs of the parameter sets ``a`` and ``b`` part, as they agree bit
    for bit before it: the earliest time either reads (:func:`read_from`) a
    field, ``enabled`` switches included, on which they differ (``-0.0`` and
    ``0.0`` print differently in a row), and ``inf`` when none does."""
    return min((min(read_from(a, path), read_from(b, path)) for path in _differing(a, b)),
               default=math.inf)


def _differing(x, y, prefix: str = "") -> Iterator[str]:
    # with_values rebuilds only the dataclasses on the path of its changes, so
    # two sets share most of their tree, and a shared part is skipped
    for f in fields(x):
        u, v = getattr(x, f.name), getattr(y, f.name)
        if u is v:
            continue
        path = prefix + f.name
        if is_dataclass(u):
            yield from _differing(u, v, path + ".")
        elif u != v or math.copysign(1.0, u) != math.copysign(1.0, v):
            yield path


def build_derivative(params, dt: float):
    """Derivative function for :mod:`rentdyn.engine`'s integrators.

    ``params`` is one :class:`ModelParams` (scalar backend) or a batch from
    :func:`rentdyn.params.stack_params` (numpy backend). The derivative takes
    the state as a sequence in :data:`STOCKS` order and returns the rates in
    the same order plus a mapping of auxiliaries. ``dt`` is needed by the
    outflow limiter (one-step drain caps are stated as stock/dt); the flow
    formulas themselves are step-size independent.
    """
    p = params
    ops = _ops(p)
    where, maximum, minimum, limit = ops.where, ops.maximum, ops.minimum, ops.limit
    cv = p.covid
    m = p.moratorium
    era = p.assistance

    # per-run constants, hoisted out of the flows with their operation order kept
    covid_onset, moratorium_onset, assistance_onset = (
        policy_onset(p, block) for block in POLICY_BLOCKS)
    window_end = m.start_time + m.duration
    throttle_start = maximum(moratorium_onset, m.start_time)
    rebound_start = maximum(moratorium_onset, window_end + m.filing_rebound_lag)
    throttled = 1.0 - m.processing_reduction
    # rent over no income is an infinite burden, and no rent none at all
    no_income_burden = where(p.avg_monthly_rent > 0.0, math.inf, 0.0)
    eviction_hazard = p.eviction_proportion / p.processing_time
    pace = era.rate_multiplier * era.total_funds / era.disbursement_time

    def deriv(state: Sequence, t: float) -> tuple[list, dict]:
        (rent_owed, mortgage_owed, occupied, pending, vacant, foreclosed, insecure,
         homeless, funds, _, recovery, filing_recovery) = state

        # exogenous drivers. The shock is a step at its onset net of its own
        # first-order recovery. The court's throughput drops inside the
        # moratorium's window; filings drop from its onset, half a month
        # ahead of the window, and recover slowly after it. With a block off
        # no gate opens, and its recovery level stays at 0.
        shock = where(t >= covid_onset, cv.magnitude, 0.0)
        covid = maximum(0.0, shock - recovery)
        proc_factor = where((t >= throttle_start) & (t < window_end), throttled, 1.0)
        fil_factor = maximum(
            0.0, 1.0 - where(t >= moratorium_onset, m.filing_reduction, 0.0) + filing_recovery)

        # rent accrual and payment: the burden is monthly rent over
        # shock-adjusted income, and delays payment above its threshold
        tenanted = occupied + pending
        rent_due = p.avg_monthly_rent * tenanted
        hpu = insecure / maximum(tenanted, EPS)
        income = p.avg_household_income * (1.0 - covid)
        burden = where(income <= EPS, no_income_burden,
                       p.avg_monthly_rent / maximum(income, EPS))
        delay = p.rent_delay_curve(
            maximum(0.0, burden - p.rent_burden_threshold) / p.rent_burden_threshold)
        at_rent = p.at_rent_base * delay
        rent_paid = rent_owed / at_rent

        # behavioral multipliers. Stress reads arrears per insecure household
        # in months of rent: doubling up spreads a fixed debt over more
        # households, so stress falls as the insecure pool grows. Crowding is
        # households per unit over the uncrowded reference (0 with no units),
        # and raises conflict only above the reference. Landlords press
        # filings once arrears per unit pass their tolerance.
        pool_rent = insecure * p.avg_monthly_rent
        stress = where(pool_rent <= EPS, p.stress_curve.floor,
                       p.stress_curve(rent_owed / maximum(pool_rent, EPS)))
        c_ratio = where(tenanted <= EPS, 0.0, hpu / p.crowding_reference)
        crowding = where(c_ratio <= 1.0, 1.0, p.crowding_curve(c_ratio))
        conflict = crowding * stress
        arrears_per_unit = rent_owed / maximum(tenanted, EPS)
        overdue = maximum(1.0, arrears_per_unit / p.landlord_tolerance)

        # court pipeline and turnover (before the dollar flows that need them).
        # A moratorium stays every filed case, so it throttles resolutions as
        # well as executions; the pandemic capacity loss hits executions only.
        evictions = eviction_hazard * (1.0 - covid) * proc_factor * pending
        resolutions = proc_factor * pending / p.filing_resolution_time
        moveouts = p.baseline_turnover_fraction * occupied * stress

        # tenants who leave take their unpaid balance out of collectible arrears
        writeoff = arrears_per_unit * (evictions + moveouts)

        rent_paid, writeoff = limit(dt, rent_owed, rent_paid, writeoff)

        # rental assistance pays arrears directly, within remaining headroom
        headroom = maximum(0.0, rent_owed / dt - rent_paid - writeoff)
        payment = where((t >= assistance_onset) & (funds > 0.0),
                        minimum(minimum(pace, funds / dt), headroom), 0.0)

        # landlord income and mortgage pipeline
        mortgaged = occupied + pending + vacant
        landlord_income = rent_paid + payment
        mortgage_due = p.avg_monthly_mortgage * mortgaged
        m_ratio = mortgage_owed / maximum(landlord_income, EPS)
        mortgage_delay = p.mortgage_delay_curve(m_ratio)
        (mortgage_paid,) = limit(
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

        moveins = minimum(vacant, insecure) / p.move_in_time

        moveouts, fore_occ, filings = limit(dt, occupied, moveouts, fore_occ, filings)
        evictions, resolutions, fore_pend = limit(dt, pending, evictions, resolutions, fore_pend)
        moveins, fore_vac, decline = limit(dt, vacant, moveins, fore_vac, decline)
        (sales,) = limit(dt, foreclosed, sales)

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

        homeless_entries, insecure_stabilizing = limit(
            dt, insecure, homeless_entries, insecure_stabilizing
        )
        homeless_exits, homeless_doubling, homeless_stabilizing = limit(
            dt, homeless, homeless_exits, homeless_doubling, homeless_stabilizing
        )

        rates = [
            rent_due - rent_paid - payment - writeoff,
            mortgage_due - mortgage_paid,
            moveins + resolutions - moveouts - fore_occ - filings,
            filings - evictions - resolutions - fore_pend,
            evictions + moveouts + sales - moveins - fore_vac - decline,
            fore_occ + fore_pend + fore_vac - sales,
            new_insecure + homeless_exits + homeless_doubling
            - homeless_entries - insecure_stabilizing,
            new_homeless + homeless_entries
            - homeless_exits - homeless_doubling - homeless_stabilizing,
            -payment,
            payment,
            (shock - recovery) / cv.recovery_time,
            (where(t >= rebound_start, m.filing_reduction, 0.0)
             - filing_recovery) / m.filing_recovery_delay,
        ]

        aux = {
            "covid_effect": covid,
            "processing_factor": proc_factor,
            "filing_factor": fil_factor,
            "burden_ratio": minimum(burden, 1e12),
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


# stock/dt overflows for any positive stock, so no one-step drain cap can bind
UNCAPPED_DT = sys.float_info.min


def drain_cap_bound(params: ModelParams, dt: float) -> float | None:
    """None when no one-step drain cap of the outflow limiter binds at t=0
    on a step of ``dt``, else the largest step on which none does.

    A cap binds where one forward-Euler step would drain a stock below zero
    (Sterman, *Business Dynamics*, 2000, ch. 8): the limiter then stands in
    for the model's flows, and the run answers for the step, not the model.
    The check compares the rates at ``dt`` with those at an uncapped step,
    two derivative calls; the bound is found by bisecting the step's
    exponent, since a cap that binds at one step binds at every longer one.
    """
    state = initial_state(params)
    uncapped = build_derivative(params, UNCAPPED_DT)(state, 0.0)[0]

    def binds(step: float) -> bool:
        return build_derivative(params, step)(state, 0.0)[0] != uncapped

    if not binds(dt):
        return None
    lo, hi = -1074.0, math.log2(dt)  # 2**-1074 is the least positive float
    for _ in range(64):
        mid = (lo + hi) / 2.0
        lo, hi = (lo, mid) if binds(2.0 ** mid) else (mid, hi)
    return 2.0 ** lo


def run_model(
    params: ModelParams | Sequence[ModelParams],
    clock: SimClock = SimClock(),
    record: Sequence[str] | None = None,
    restart: tuple[int, Trajectory] | None = None,
) -> Trajectory | list[Trajectory]:
    """Simulate the model on the given grid.

    The one place that picks a backend. One :class:`ModelParams` runs on
    the scalar backend (:func:`rentdyn.engine.simulate`) and returns one
    trajectory. A sequence of B parameter sets runs as one batch on the
    numpy backend (:func:`rentdyn.engine.simulate_batch`) and returns B
    trajectories (none for an empty sequence). Either way a trajectory
    holds the ``record`` series (every stock and auxiliary if None). If a
    batch goes non-finite, its sets are rerun alone on the scalar backend,
    in order, and the first that fails raises its own error, as one-by-one
    runs would; if none fails alone, the batch's own
    :class:`rentdyn.engine.SimulationError` is raised.

    ``restart=(k, earlier)`` starts one run at sample ``k`` (a batch
    refuses it with ``ValueError``), taking what comes before from
    ``earlier`` (see :func:`rentdyn.engine.simulate`): a trajectory with
    every series of parameters that differ from ``params`` only in what the
    model first reads (:func:`read_from`) at or after sample ``k``. It
    needs only the samples through ``k``: a run on a clock of the same step
    whose horizon is sample ``k``'s time will do.
    """
    if isinstance(params, ModelParams):
        return simulate(build_derivative(params, clock.dt), clock,
                        dict(zip(STOCKS, initial_state(params))), NONNEG_STOCKS, record, restart)
    if restart is not None:
        raise ValueError("a batch cannot restart: run its parameter sets one by one")
    if not params:
        return []
    try:
        import numpy as np

        # numpy warns where the scalar backend's Python floats overflow to inf
        # silently, in the constants the derivative hoists as in its steps
        with np.errstate(all="ignore"):
            batch = stack_params(params)
            return simulate_batch(build_derivative(batch, clock.dt), clock,
                                  dict(zip(STOCKS, initial_state(batch))), NONNEG_STOCKS, record)
    except SimulationError:
        for one in params:
            run_model(one, clock)
        raise  # the backends parted on NaN: keep the batch's own report
