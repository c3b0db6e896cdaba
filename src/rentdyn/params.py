"""Model parameters: typed containers, file I/O, and the field registry.

Every tunable constant lives in one registry (``FIELDS``) that drives YAML
load/save, validation bounds, provenance tags, and sensitivity-sweep
enumeration. The parameter file must contain exactly the registry's entries;
missing or unknown keys are load errors, so no value can default silently.
Every edit of a parameter set goes through :func:`with_values`, which sets
any number of dotted paths at once.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Collection, Iterable, Mapping, Sequence

import yaml

from rentdyn.engine import GompertzCurve, LogisticCurve

__all__ = [
    "CovidShock",
    "Moratorium",
    "RentalAssistance",
    "ModelParams",
    "ParamField",
    "FIELDS",
    "POLICY_BLOCKS",
    "ParamError",
    "ParamFileError",
    "default_params",
    "get_value",
    "with_value",
    "with_values",
    "sweepable_parameters",
    "stack_params",
    "bounds_for",
    "clamp_to_bounds",
    "validate_params",
    "load_yaml",
    "read_number",
    "read_mapping",
    "load_params",
    "save_params",
]


class ParamError(ValueError):
    """A parameter value violates its documented bounds."""


class ParamFileError(ValueError):
    """A parameter file is structurally invalid (missing/unknown/bad entries)."""


@dataclass(frozen=True)
class CovidShock:
    """Pandemic income shock: a step at ``start_time`` minus its own first-order
    smooth, so the net effect jumps to ``magnitude`` and decays with time
    constant ``recovery_time``."""

    enabled: bool = False
    magnitude: float = 0.60
    start_time: float = 26.75
    recovery_time: float = 75.0


@dataclass(frozen=True)
class Moratorium:
    """Eviction moratorium: court processing is cut by ``processing_reduction``
    for ``duration`` months, and filings drop ahead of the window (tenants and
    landlords anticipate) then rebound gradually after it lapses."""

    enabled: bool = False
    processing_reduction: float = 0.9
    start_time: float = 26.75
    duration: float = 18.0
    filing_reduction: float = 0.50
    filing_rebound_lag: float = 3.0
    filing_recovery_delay: float = 36.0


@dataclass(frozen=True)
class RentalAssistance:
    """Emergency rental assistance: a fixed appropriation disbursed at a
    program-limited pace directly against outstanding rent arrears."""

    enabled: bool = False
    total_funds: float = 46.5e9
    start_time: float = 36.0
    disbursement_time: float = 35.0
    rate_multiplier: float = 1.0


@dataclass(frozen=True)
class ModelParams:
    """All model constants, initial stock levels, and policy settings."""

    # initial stocks
    units_occupied_initial: float = 11_443_000.0
    units_pending_initial: float = 557_000.0
    units_vacant_initial: float = 500_000.0
    units_foreclosed_initial: float = 234_000.94750064102
    households_insecure_initial: float = 14_000_000.0
    households_homeless_initial: float = 568_000.0
    rent_owed_initial: float = 12_267_921_222.344692
    mortgage_owed_initial: float = 5_000_021_932.885209

    # rent and income
    avg_monthly_rent: float = 1050.0
    avg_household_income: float = 3500.0
    rent_burden_threshold: float = 0.30
    at_rent_base: float = 1.0
    rent_delay_curve: GompertzCurve = field(
        default_factory=lambda: GompertzCurve(y_final=3.0, y_initial=1.0, steepness=2.0)
    )
    stress_curve: GompertzCurve = field(
        default_factory=lambda: GompertzCurve(y_final=3.0, y_initial=-8.3, steepness=0.8)
    )

    # mortgage side
    avg_monthly_mortgage: float = 400.0
    at_mortgage_base: float = 1.0
    landlord_income_per_unit: float = 981.4336977875754
    mortgage_delay_curve: LogisticCurve = field(
        default_factory=lambda: LogisticCurve(y_max=3.0, y_min=1.0, inflection=1.5, slope=10.0)
    )

    # crowding
    crowding_curve: LogisticCurve = field(
        default_factory=lambda: LogisticCurve(y_max=2.0, y_min=1.0, inflection=1.5, slope=5.0)
    )
    crowding_reference: float = 1.0

    # eviction pipeline
    landlord_tolerance: float = 3500.0
    baseline_filing_fraction: float = 0.05834516479246364
    filing_resolution_time: float = 0.7
    eviction_proportion: float = 0.38
    processing_time: float = 1.0

    # unit turnover and foreclosure
    baseline_turnover_fraction: float = 0.008
    move_in_time: float = 1.458463549118109
    foreclosure_fraction_occupied: float = 0.0015
    foreclosure_fraction_vacant: float = 0.003
    foreclosure_sale_time: float = 12.0
    stock_decline_fraction: float = 0.0005

    # household dynamics
    rate_new_insecurity: float = 555_749.2489934134
    rate_new_homelessness: float = 38_330.751006586615
    fr_stabilize_insecure: float = 0.04
    fr_stabilize_homeless: float = 0.06
    fr_exit_homeless: float = 0.06
    fr_double_up_homeless: float = 0.04
    homeless_entry_fraction: float = 0.17
    doubling_up_fraction: float = 0.60
    fr_direct_homeless: float = 0.0005

    # policy blocks
    covid: CovidShock = field(default_factory=CovidShock)
    moratorium: Moratorium = field(default_factory=Moratorium)
    assistance: RentalAssistance = field(default_factory=RentalAssistance)


@dataclass(frozen=True)
class ParamField:
    """Registry row: dotted path, units, provenance tag, bounds, and a note."""

    path: str
    units: str
    provenance: str
    note: str = ""
    lo: float = 0.0
    hi: float | None = None


PROVENANCE_TAGS = ("literature", "cited-source", "assumption", "calibrated")

_POS = 1e-12  # lower bound for strictly positive quantities

FIELDS: tuple[ParamField, ...] = (
    ParamField("units_occupied_initial", "units", "calibrated",
               "occupied low-cost rental units at the start of the run"),
    ParamField("units_pending_initial", "units", "calibrated",
               "units with an eviction case pending at the start of the run"),
    ParamField("units_vacant_initial", "units", "calibrated",
               "vacant rentable low-cost units (~4% vacancy)"),
    ParamField("units_foreclosed_initial", "units", "calibrated",
               "units in the foreclosure pipeline; set for a stationary pipeline"),
    ParamField("households_insecure_initial", "households", "calibrated",
               "low-income renter households paying over the burden threshold"),
    ParamField("households_homeless_initial", "households", "cited-source",
               "point-in-time national homeless count, Jan 2019"),
    ParamField("rent_owed_initial", "dollars", "calibrated",
               "outstanding rent receivable; one average month at baseline"),
    ParamField("mortgage_owed_initial", "dollars", "calibrated",
               "outstanding landlord mortgage payable at baseline"),
    ParamField("avg_monthly_rent", "dollars/unit/month", "cited-source",
               "average contract rent for low-cost units"),
    ParamField("avg_household_income", "dollars/household/month", "calibrated",
               "average income of the modeled population; puts baseline burden at 30%"),
    ParamField("rent_burden_threshold", "dimensionless", "literature",
               "rent-to-income share above which payment delays begin", lo=_POS, hi=1.0),
    ParamField("at_rent_base", "months", "literature",
               "baseline rent collection delay", lo=_POS),
    ParamField("rent_delay_curve.y_final", "dimensionless", "assumption",
               "ceiling of the burden-driven payment-delay multiplier", lo=1.0),
    ParamField("rent_delay_curve.y_initial", "dimensionless", "assumption",
               "payment-delay multiplier at threshold burden", hi=None, lo=-1e6),
    ParamField("rent_delay_curve.steepness", "dimensionless", "assumption",
               "how fast delay grows as burden exceeds the threshold", lo=-10.0, hi=10.0),
    ParamField("rent_delay_curve.floor", "dimensionless", "assumption",
               "neutral multiplier below threshold", lo=_POS),
    ParamField("stress_curve.y_final", "dimensionless", "literature",
               "ceiling of the arrears-driven stress multiplier", lo=1.0),
    ParamField("stress_curve.y_initial", "dimensionless", "literature",
               "raw stress intercept; strongly negative so stress stays neutral "
               "until arrears near one month of rent", lo=-1e6),
    ParamField("stress_curve.steepness", "dimensionless", "literature",
               "stress curve growth rate", lo=-10.0, hi=10.0),
    ParamField("stress_curve.floor", "dimensionless", "literature",
               "neutral multiplier at low arrears", lo=_POS),
    ParamField("avg_monthly_mortgage", "dollars/unit/month", "assumption",
               "average landlord debt service per low-cost unit"),
    ParamField("at_mortgage_base", "months", "assumption",
               "baseline mortgage payment delay", lo=_POS),
    ParamField("landlord_income_per_unit", "dollars/unit/month", "calibrated",
               "reference rental income per unit at equilibrium"),
    ParamField("mortgage_delay_curve.y_max", "dimensionless", "literature",
               "ceiling of the mortgage-delay multiplier", lo=_POS),
    ParamField("mortgage_delay_curve.y_min", "dimensionless", "literature",
               "floor of the mortgage-delay multiplier", lo=_POS),
    ParamField("mortgage_delay_curve.inflection", "months", "literature",
               "months of mortgage owed at which delay reaches mid-range", lo=_POS),
    ParamField("mortgage_delay_curve.slope", "dimensionless", "literature",
               "sharpness of the mortgage-delay transition", lo=_POS),
    ParamField("crowding_curve.y_max", "dimensionless", "literature",
               "ceiling of the crowding conflict multiplier", lo=_POS),
    ParamField("crowding_curve.y_min", "dimensionless", "literature",
               "floor of the crowding conflict multiplier", lo=_POS),
    ParamField("crowding_curve.inflection", "dimensionless", "literature",
               "households-per-unit ratio at which conflict reaches mid-range", lo=_POS),
    ParamField("crowding_curve.slope", "dimensionless", "literature",
               "sharpness of the crowding transition", lo=_POS),
    ParamField("crowding_reference", "households/unit", "literature",
               "occupancy ratio regarded as uncrowded", lo=_POS),
    ParamField("landlord_tolerance", "dollars/unit", "calibrated",
               "per-unit arrears landlords absorb before filing pressure grows", lo=_POS),
    ParamField("baseline_filing_fraction", "1/month", "calibrated",
               "monthly filing hazard on occupied units with all multipliers neutral"),
    ParamField("filing_resolution_time", "months", "assumption",
               "average time for a pending case to resolve back to tenancy", lo=_POS),
    ParamField("eviction_proportion", "dimensionless", "literature",
               "share of pending cases ending in eviction under normal courts", hi=1.0),
    ParamField("processing_time", "months", "literature",
               "average court processing time per pending case", lo=_POS),
    ParamField("baseline_turnover_fraction", "1/month", "calibrated",
               "normal monthly move-out hazard for occupied units"),
    ParamField("move_in_time", "months", "calibrated",
               "average time to fill a vacant unit", lo=_POS),
    ParamField("foreclosure_fraction_occupied", "1/month", "assumption",
               "monthly foreclosure hazard on occupied/pending units at neutral delay"),
    ParamField("foreclosure_fraction_vacant", "1/month", "assumption",
               "monthly foreclosure hazard on vacant units"),
    ParamField("foreclosure_sale_time", "months", "cited-source",
               "average time to clear a foreclosed unit back to the market", lo=_POS),
    ParamField("stock_decline_fraction", "1/month", "assumption",
               "monthly loss of vacant low-cost units to demolition/conversion"),
    ParamField("rate_new_insecurity", "households/month", "calibrated",
               "households newly becoming housing insecure"),
    ParamField("rate_new_homelessness", "households/month", "calibrated",
               "households entering homelessness from outside the insecure pool"),
    ParamField("fr_stabilize_insecure", "1/month", "calibrated",
               "monthly share of insecure households regaining stable housing"),
    ParamField("fr_stabilize_homeless", "1/month", "calibrated",
               "monthly share of homeless households regaining stable housing"),
    ParamField("fr_exit_homeless", "1/month", "calibrated",
               "monthly share of homeless households moving back into insecure tenancy"),
    ParamField("fr_double_up_homeless", "1/month", "calibrated",
               "monthly share of homeless households doubling up with others"),
    ParamField("homeless_entry_fraction", "dimensionless", "calibrated",
               "share of displaced households that become homeless", hi=1.0),
    ParamField("doubling_up_fraction", "dimensionless", "calibrated",
               "share of displaced households that double up (reported, stays in "
               "the insecure pool)", hi=1.0),
    ParamField("fr_direct_homeless", "1/month", "assumption",
               "informal displacement straight into homelessness"),
    ParamField("covid.magnitude", "dimensionless", "calibrated",
               "peak fractional income loss for the modeled population", hi=1.0),
    ParamField("covid.start_time", "months", "cited-source",
               "shock onset (late March 2020)"),
    ParamField("covid.recovery_time", "months", "calibrated",
               "time constant of hardship recovery for low-income renters", lo=_POS),
    ParamField("moratorium.processing_reduction", "dimensionless", "literature",
               "fraction of court eviction processing suspended", hi=1.0),
    ParamField("moratorium.start_time", "months", "cited-source",
               "moratorium onset (late March 2020)"),
    ParamField("moratorium.duration", "months", "literature",
               "months the processing suspension stays in force", lo=_POS),
    ParamField("moratorium.filing_reduction", "dimensionless", "calibrated",
               "peak fractional drop in filings around the moratorium", hi=1.0),
    ParamField("moratorium.filing_rebound_lag", "months", "literature",
               "lag after expiry before filings start recovering"),
    ParamField("moratorium.filing_recovery_delay", "months", "literature",
               "time constant of the filing recovery", lo=_POS),
    ParamField("assistance.total_funds", "dollars", "cited-source",
               "total emergency rental assistance appropriation"),
    ParamField("assistance.start_time", "months", "assumption",
               "disbursement start (January 2021)"),
    ParamField("assistance.disbursement_time", "months", "calibrated",
               "time to disburse the full appropriation at the program-limited pace",
               lo=_POS),
    ParamField("assistance.rate_multiplier", "dimensionless", "assumption",
               "scenario lever scaling the disbursement pace", lo=_POS),
)

_FIELD_BY_PATH = {f.path: f for f in FIELDS}
# the groups of FIELDS that a scenario switches on and off
POLICY_BLOCKS = ("covid", "moratorium", "assistance")


def default_params() -> ModelParams:
    """The shipped calibration (identical to params/default.yaml)."""
    return ModelParams()


def get_value(params: ModelParams, path: str) -> float:
    obj: Any = params
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def with_values(params: ModelParams, changes: Mapping[str, Any]) -> ModelParams:
    """Return a copy of ``params`` with every dotted path of ``changes`` set.

    The edit is atomic: each dataclass on the way is rebuilt once, with all
    of its changes, so a curve's invariants are checked on the final values
    only and the order of ``changes`` never matters. A value at a registry
    path is stored as a ``float`` (a numpy scalar slows runs); any other
    value, such as a block's ``enabled`` switch, as given. An unknown path
    raises :class:`KeyError`.
    """
    return _replaced(params, [(path.split("."), path,
                               float(value) if path in _FIELD_BY_PATH else value)
                              for path, value in changes.items()])


def with_value(params: ModelParams, path: str, value: float) -> ModelParams:
    """:func:`with_values` with the one change ``path``: ``value``."""
    return with_values(params, {path: value})


def _replaced(obj: Any, changes: list[tuple[list[str], str, Any]]) -> Any:
    # module level: a recursive nested closure is a reference cycle that only
    # the cyclic collector frees, left behind by every call
    fields: dict[str, Any] = {}
    inner: dict[str, list] = {}
    for names, path, value in changes:
        if not hasattr(obj, names[0]):
            raise KeyError(f"unknown parameter path: {path}")
        if len(names) > 1:
            inner.setdefault(names[0], []).append((names[1:], path, value))
        else:
            fields[names[0]] = value
    for name, group in inner.items():
        if name in fields:
            raise KeyError(f"parameter path {group[0][1]} overlaps another one set")
        try:
            fields[name] = _replaced(getattr(obj, name), group)
        except ValueError as exc:  # a curve's invariant: name the curve
            raise ValueError(f"{exc} (in {name})") from exc
    return replace(obj, **fields)


def sweepable_parameters() -> list[str]:
    """Dotted paths of every numeric parameter, initial stocks included."""
    return [f.path for f in FIELDS]


def stack_params(columns: Sequence[ModelParams]) -> SimpleNamespace:
    """B parameter sets as one batch, laid out like :class:`ModelParams`.

    Every registry field becomes a ``(B,)`` float array at its dotted path,
    and each policy block's ``enabled`` switch a boolean array. Each effect
    curve also carries its class as ``kind`` and its derived constants
    (``_span``, ...) as ``(B,)`` arrays, so ``kind.array(node, x)``
    evaluates every column's curve at once.
    """
    import numpy as np

    batch = SimpleNamespace()
    paths = [f.path for f in FIELDS] + [f"{block}.enabled" for block in POLICY_BLOCKS]
    for path in paths:
        *groups, leaf = path.split(".")
        node = batch
        for group in groups:
            if not hasattr(node, group):
                setattr(node, group, SimpleNamespace())
            node = getattr(node, group)
        dtype = bool if leaf == "enabled" else float
        setattr(node, leaf, np.array(list(map(attrgetter(path), columns)), dtype=dtype))
    for name, node in vars(batch).items():
        curve = getattr(columns[0], name)
        if isinstance(curve, (GompertzCurve, LogisticCurve)):
            node.kind = type(curve)
            for const in (key for key in vars(curve) if key.startswith("_")):
                setattr(node, const, np.array(list(map(attrgetter(f"{name}.{const}"),
                                                       columns))))
    return batch


def bounds_for(path: str) -> tuple[float, float | None]:
    f = _FIELD_BY_PATH.get(path)
    if f is None:
        raise KeyError(f"unknown parameter path: {path}")
    return (f.lo, f.hi)


def clamp_to_bounds(path: str, value: float) -> float:
    """``value`` limited to the documented bounds of ``path``."""
    lo, hi = bounds_for(path)
    if value < lo:
        return lo
    if hi is not None and value > hi:
        return hi
    return value


def validate_params(params: ModelParams) -> None:
    """Check every registered field against its bounds; report all violations."""
    problems = []
    for f in FIELDS:
        value = get_value(params, f.path)
        if not math.isfinite(value):
            problems.append(f"{f.path}: non-finite value {value}")
            continue
        if value < f.lo:
            problems.append(f"{f.path}: {value} below lower bound {f.lo}")
        if f.hi is not None and value > f.hi:
            problems.append(f"{f.path}: {value} above upper bound {f.hi}")
    if problems:
        raise ParamError("invalid parameters:\n  " + "\n  ".join(problems))


# ---------------------------------------------------------------- file I/O

# libyaml's parser, where PyYAML was built with it, reads params/default.yaml
# about 8x faster; both loaders share SafeConstructor and the resolver, so
# they build the same objects
class _SafeLoader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    """The safe loader, refusing a mapping key that is not a string (every key
    of the input files names something, and code that reports unknown keys
    sorts and joins them) and a key written twice in one mapping, which YAML
    would read as its last value. A key brought in by a ``<<`` merge may
    still be overridden."""

    # "<<" merges, and "=" reads as the text "="
    _KEY_TAGS = ("tag:yaml.org,2002:str", "tag:yaml.org,2002:merge", "tag:yaml.org,2002:value")

    def __init__(self, stream):
        super().__init__(stream)
        self._flattened = set()

    def flatten_mapping(self, node):
        # a mapping merged into another is flattened in place, perhaps before
        # its own turn: only the first call sees just the keys written in it
        if node not in self._flattened:
            self._flattened.add(node)
            written = {}
            for key, _ in node.value:
                if not isinstance(key, yaml.ScalarNode):
                    continue  # the constructor refuses it as unhashable
                if key.tag not in self._KEY_TAGS:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"mapping key {key.value} is not a string", key.start_mark)
                first = written.setdefault(key.value, key)
                if first is not key:
                    raise yaml.constructor.ConstructorError(
                        f"mapping key {key.value!r} first written", first.start_mark,
                        "and written again", key.start_mark)
        super().flatten_mapping(node)


def load_yaml(path: str | Path, error: type[Exception]) -> Any:
    """Parse a YAML file with the safe loader; bad syntax, or a scalar that
    cannot be built (an integer of more digits than Python converts),
    raises ``error``."""
    try:
        # a file object, not its bytes: the error marks then name the file
        with open(path, "rb") as stream:
            return yaml.load(stream, Loader=_SafeLoader)
    except (yaml.YAMLError, ValueError) as exc:
        raise error(f"{path}: not valid YAML: {exc}") from exc


# the text of an input value in an error: a few levels and items of it,
# since a value nested thousands deep, or an alias chain of millions of
# leaves, has a repr that recurses too deep or runs to megabytes
_BRIEF = reprlib.Repr()
_BRIEF.maxlevel = 2


def brief(value: Any) -> str:
    """A bounded ``repr`` of an input value, for an error message."""
    return _BRIEF.repr(value)


def read_number(value: Any, error: type[Exception], where: str) -> float:
    """``value`` of an input file as a finite float; else ``error`` names ``where``,
    the value's type and a bounded text of the value.

    A YAML boolean is refused, though Python counts it an integer, and so is
    an integer too large for a float.
    """
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if math.isfinite(number):
                return number
    raise error(f"{where} is not a finite number: {type(value).__name__} {brief(value)}")


def read_mapping(value: Any, error: type[Exception], where: str,
                 keys: Collection[str] | None = None, required: Iterable[str] = ()) -> dict:
    """``value`` of an input file as a mapping; else ``error`` names ``where``.

    Every key of ``required`` must be present and, unless ``keys`` is
    ``None``, no key outside ``keys``. One error names every missing key and
    every unknown one.
    """
    if not isinstance(value, dict):
        raise error(f"{where} must be a mapping, not {type(value).__name__}")
    missing = [key for key in required if key not in value]
    unknown = [] if keys is None else sorted(str(key) for key in value if key not in keys)
    if missing or unknown:
        problems = [f"{label}: {', '.join(names)}"
                    for label, names in (("missing", missing), ("unknown", unknown)) if names]
        raise error(f"{where}: " + "; ".join(problems))
    return value


def load_params(path: str | Path) -> tuple[ModelParams, dict]:
    """Load a parameter file.

    The file must contain a ``params`` mapping with exactly one entry per
    registry field. Each entry is a mapping with a ``value`` and a
    ``provenance`` tag, and may carry ``units`` and a ``note``; any other
    key is an error. All values are set in one :func:`with_values` edit, so
    a curve's invariants are checked on the file's values alone. Returns
    the validated :class:`ModelParams` and the raw metadata mapping (name,
    provenance tags, notes) for manifests and re-export.
    """
    path = Path(path)
    raw = read_mapping(load_yaml(path, ParamFileError), ParamFileError, str(path),
                       required=("params",))
    entries = read_mapping(raw["params"], ParamFileError, f"{path}: 'params'",
                           keys=_FIELD_BY_PATH, required=_FIELD_BY_PATH)

    values = {}
    for f in FIELDS:
        where = f"{path}: entry '{f.path}'"
        entry = read_mapping(entries[f.path], ParamFileError, where,
                             keys=("value", "units", "provenance", "note"),
                             required=("value", "provenance"))
        if entry["provenance"] not in PROVENANCE_TAGS:
            raise ParamFileError(f"{where} has provenance {brief(entry['provenance'])}, "
                                 f"expected one of {PROVENANCE_TAGS}")
        values[f.path] = read_number(entry["value"], ParamFileError, f"{where} value")
    try:
        params = with_values(default_params(), values)
    except ValueError as exc:  # a curve's invariant, on the file's final values
        raise ParamFileError(f"{path}: {exc}") from exc

    validate_params(params)
    meta = {k: v for k, v in raw.items() if k != "params"}
    meta["provenance"] = {f.path: entries[f.path]["provenance"] for f in FIELDS}
    meta["notes"] = {
        f.path: entries[f.path].get("note", "") for f in FIELDS if entries[f.path].get("note")
    }
    return params, meta


def save_params(
    params: ModelParams,
    path: str | Path,
    name: str = "custom",
    provenance_overrides: dict[str, str] | None = None,
) -> Path:
    """Write a parameter file in registry order, atomically; return its path.

    ``provenance_overrides`` re-tags entries (the calibrator marks the fields
    it moved as ``calibrated``).
    """
    from rentdyn.output import atomic_write_text  # output imports this module

    overrides = provenance_overrides or {}
    for tag in overrides.values():
        if tag not in PROVENANCE_TAGS:
            raise ValueError(f"unknown provenance tag {tag!r}")
    entries = {}
    for f in FIELDS:
        entry = {
            "value": float(get_value(params, f.path)),
            "units": f.units,
            "provenance": overrides.get(f.path, f.provenance),
        }
        if f.note:
            entry["note"] = f.note
        entries[f.path] = entry
    doc = {"name": name, "params": entries}
    return atomic_write_text(path, yaml.safe_dump(doc, sort_keys=False, width=100))
