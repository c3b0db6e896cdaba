"""Model parameters: typed containers, file I/O, and the field registry.

Every tunable constant is declared once, as a dataclass field that carries
its registry row (units, provenance tag, note, bounds). The registry
``FIELDS``, read off :class:`ModelParams` in declaration order, drives YAML
load/save, validation bounds, provenance tags, and sensitivity-sweep
enumeration. The parameter file must contain exactly the registry's entries;
missing or unknown keys are load errors, so no value can default silently.
Every edit of a parameter set goes through :func:`with_values`, which sets
any number of dotted paths at once.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Collection, Iterable, Iterator, Mapping, Sequence

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
    "stack_params",
    "bounds_for",
    "clamp",
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
class ParamField:
    """Registry row: dotted path, units, provenance tag, a note, and bounds."""

    path: str
    units: str
    provenance: str
    note: str
    lo: float
    hi: float


PROVENANCE_TAGS = ("literature", "cited-source", "assumption", "calibrated")

_POS = 1e-12  # lower bound for strictly positive quantities


def _param(default: float, units: str, provenance: str, note: str,
           lo: float = 0.0, hi: float = math.inf) -> Any:
    """A dataclass field of ``default`` carrying the rest of its registry row."""
    return field(default=default, metadata={"row": (units, provenance, note, lo, hi)})


def _curve(kind: type, **params: Any) -> Any:
    """A dataclass field holding the effect curve ``kind`` made of ``params``,
    each of its parameters declared by :func:`_param`."""
    return field(default=kind(**{name: p.default for name, p in params.items()}),
                 metadata={"rows": {name: p.metadata["row"] for name, p in params.items()}})


@dataclass(frozen=True)
class CovidShock:
    """Pandemic income shock: a step at ``start_time`` minus its own first-order
    smooth, so the net effect jumps to ``magnitude`` and decays with time
    constant ``recovery_time``."""

    enabled: bool = False
    magnitude: float = _param(0.60, "dimensionless", "calibrated",
                              "peak fractional income loss for the modeled population", hi=1.0)
    start_time: float = _param(26.75, "months", "cited-source", "shock onset (late March 2020)")
    recovery_time: float = _param(
        75.0, "months", "calibrated", "time constant of hardship recovery for low-income renters",
        lo=_POS)


@dataclass(frozen=True)
class Moratorium:
    """Eviction moratorium: court processing is cut by ``processing_reduction``
    for ``duration`` months, and filings drop ahead of the window (tenants and
    landlords anticipate) then rebound gradually after it lapses."""

    enabled: bool = False
    processing_reduction: float = _param(0.9, "dimensionless", "literature",
                                         "fraction of court eviction processing suspended", hi=1.0)
    start_time: float = _param(
        26.75, "months", "cited-source", "moratorium onset (late March 2020)")
    duration: float = _param(
        18.0, "months", "literature", "months the processing suspension stays in force", lo=_POS)
    filing_reduction: float = _param(
        0.50, "dimensionless", "calibrated",
        "peak fractional drop in filings around the moratorium", hi=1.0)
    filing_rebound_lag: float = _param(
        3.0, "months", "literature", "lag after expiry before filings start recovering")
    filing_recovery_delay: float = _param(
        36.0, "months", "literature", "time constant of the filing recovery", lo=_POS)


@dataclass(frozen=True)
class RentalAssistance:
    """Emergency rental assistance: a fixed appropriation disbursed at a
    program-limited pace directly against outstanding rent arrears."""

    enabled: bool = False
    total_funds: float = _param(
        46.5e9, "dollars", "cited-source", "total emergency rental assistance appropriation")
    start_time: float = _param(36.0, "months", "assumption", "disbursement start (January 2021)")
    disbursement_time: float = _param(
        35.0, "months", "calibrated",
        "time to disburse the full appropriation at the program-limited pace", lo=_POS)
    rate_multiplier: float = _param(1.0, "dimensionless", "assumption",
                                    "scenario lever scaling the disbursement pace", lo=_POS)


@dataclass(frozen=True)
class ModelParams:
    """All model constants, initial stock levels, and policy settings."""

    # initial stocks
    units_occupied_initial: float = _param(
        11_443_000.0, "units", "calibrated",
        "occupied low-cost rental units at the start of the run")
    units_pending_initial: float = _param(
        557_000.0, "units", "calibrated",
        "units with an eviction case pending at the start of the run")
    units_vacant_initial: float = _param(
        500_000.0, "units", "calibrated", "vacant rentable low-cost units (~4% vacancy)")
    units_foreclosed_initial: float = _param(
        234_000.94750064102, "units", "calibrated",
        "units in the foreclosure pipeline; set for a stationary pipeline")
    households_insecure_initial: float = _param(
        14_000_000.0, "households", "calibrated",
        "low-income renter households paying over the burden threshold")
    households_homeless_initial: float = _param(
        568_000.0, "households", "cited-source", "point-in-time national homeless count, Jan 2019")
    rent_owed_initial: float = _param(12_267_921_222.344692, "dollars", "calibrated",
                                      "outstanding rent receivable; one average month at baseline")
    mortgage_owed_initial: float = _param(5_000_021_932.885209, "dollars", "calibrated",
                                          "outstanding landlord mortgage payable at baseline")

    # rent and income
    avg_monthly_rent: float = _param(
        1050.0, "dollars/unit/month", "cited-source", "average contract rent for low-cost units")
    avg_household_income: float = _param(
        3500.0, "dollars/household/month", "calibrated",
        "average income of the modeled population; puts baseline burden at 30%")
    rent_burden_threshold: float = _param(
        0.30, "dimensionless", "literature",
        "rent-to-income share above which payment delays begin", lo=_POS, hi=1.0)
    at_rent_base: float = _param(
        1.0, "months", "literature", "baseline rent collection delay", lo=_POS)
    rent_delay_curve: GompertzCurve = _curve(
        GompertzCurve,
        y_final=_param(3.0, "dimensionless", "assumption",
                       "ceiling of the burden-driven payment-delay multiplier", lo=1.0),
        y_initial=_param(1.0, "dimensionless", "assumption",
                         "payment-delay multiplier at threshold burden", lo=-1e6),
        steepness=_param(
            2.0, "dimensionless", "assumption",
            "how fast delay grows as burden exceeds the threshold", lo=-10.0, hi=10.0),
        floor=_param(
            1.0, "dimensionless", "assumption", "neutral multiplier below threshold", lo=_POS))
    stress_curve: GompertzCurve = _curve(
        GompertzCurve,
        y_final=_param(3.0, "dimensionless", "literature",
                       "ceiling of the arrears-driven stress multiplier", lo=1.0),
        y_initial=_param(-8.3, "dimensionless", "literature",
                         "raw stress intercept; strongly negative so stress stays neutral until "
                         "arrears near one month of rent", lo=-1e6),
        steepness=_param(
            0.8, "dimensionless", "literature", "stress curve growth rate", lo=-10.0, hi=10.0),
        floor=_param(
            1.0, "dimensionless", "literature", "neutral multiplier at low arrears", lo=_POS))

    # mortgage side
    avg_monthly_mortgage: float = _param(400.0, "dollars/unit/month", "assumption",
                                         "average landlord debt service per low-cost unit")
    at_mortgage_base: float = _param(
        1.0, "months", "assumption", "baseline mortgage payment delay", lo=_POS)
    landlord_income_per_unit: float = _param(981.4336977875754, "dollars/unit/month", "calibrated",
                                             "reference rental income per unit at equilibrium")
    mortgage_delay_curve: LogisticCurve = _curve(
        LogisticCurve,
        y_max=_param(3.0, "dimensionless", "literature",
                     "ceiling of the mortgage-delay multiplier", lo=_POS),
        y_min=_param(
            1.0, "dimensionless", "literature", "floor of the mortgage-delay multiplier", lo=_POS),
        inflection=_param(1.5, "months", "literature",
                          "months of mortgage owed at which delay reaches mid-range", lo=_POS),
        slope=_param(10.0, "dimensionless", "literature",
                     "sharpness of the mortgage-delay transition", lo=_POS))

    # crowding
    crowding_curve: LogisticCurve = _curve(
        LogisticCurve,
        y_max=_param(2.0, "dimensionless", "literature",
                     "ceiling of the crowding conflict multiplier", lo=_POS),
        y_min=_param(1.0, "dimensionless", "literature",
                     "floor of the crowding conflict multiplier", lo=_POS),
        inflection=_param(
            1.5, "dimensionless", "literature",
            "households-per-unit ratio at which conflict reaches mid-range", lo=_POS),
        slope=_param(
            5.0, "dimensionless", "literature", "sharpness of the crowding transition", lo=_POS))
    crowding_reference: float = _param(
        1.0, "households/unit", "literature", "occupancy ratio regarded as uncrowded", lo=_POS)

    # eviction pipeline
    landlord_tolerance: float = _param(
        3500.0, "dollars/unit", "calibrated",
        "per-unit arrears landlords absorb before filing pressure grows", lo=_POS)
    baseline_filing_fraction: float = _param(
        0.05834516479246364, "1/month", "calibrated",
        "monthly filing hazard on occupied units with all multipliers neutral")
    filing_resolution_time: float = _param(
        0.7, "months", "assumption", "average time for a pending case to resolve back to tenancy",
        lo=_POS)
    eviction_proportion: float = _param(
        0.38, "dimensionless", "literature",
        "share of pending cases ending in eviction under normal courts", hi=1.0)
    processing_time: float = _param(
        1.0, "months", "literature", "average court processing time per pending case", lo=_POS)

    # unit turnover and foreclosure
    baseline_turnover_fraction: float = _param(
        0.008, "1/month", "calibrated", "normal monthly move-out hazard for occupied units")
    move_in_time: float = _param(
        1.458463549118109, "months", "calibrated", "average time to fill a vacant unit", lo=_POS)
    foreclosure_fraction_occupied: float = _param(
        0.0015, "1/month", "assumption",
        "monthly foreclosure hazard on occupied/pending units at neutral delay")
    foreclosure_fraction_vacant: float = _param(
        0.003, "1/month", "assumption", "monthly foreclosure hazard on vacant units")
    foreclosure_sale_time: float = _param(
        12.0, "months", "cited-source",
        "average time to clear a foreclosed unit back to the market", lo=_POS)
    stock_decline_fraction: float = _param(
        0.0005, "1/month", "assumption",
        "monthly loss of vacant low-cost units to demolition/conversion")

    # household dynamics
    rate_new_insecurity: float = _param(555_749.2489934134, "households/month", "calibrated",
                                        "households newly becoming housing insecure")
    rate_new_homelessness: float = _param(
        38_330.751006586615, "households/month", "calibrated",
        "households entering homelessness from outside the insecure pool")
    fr_stabilize_insecure: float = _param(
        0.04, "1/month", "calibrated",
        "monthly share of insecure households regaining stable housing")
    fr_stabilize_homeless: float = _param(
        0.06, "1/month", "calibrated",
        "monthly share of homeless households regaining stable housing")
    fr_exit_homeless: float = _param(
        0.06, "1/month", "calibrated",
        "monthly share of homeless households moving back into insecure tenancy")
    fr_double_up_homeless: float = _param(
        0.04, "1/month", "calibrated",
        "monthly share of homeless households doubling up with others")
    homeless_entry_fraction: float = _param(
        0.17, "dimensionless", "calibrated", "share of displaced households that become homeless",
        hi=1.0)
    doubling_up_fraction: float = _param(0.60, "dimensionless", "calibrated",
                                         "share of displaced households that double up "
                                         "(reported, stays in the insecure pool)", hi=1.0)
    fr_direct_homeless: float = _param(
        0.0005, "1/month", "assumption", "informal displacement straight into homelessness")

    # policy blocks
    covid: CovidShock = field(default_factory=CovidShock)
    moratorium: Moratorium = field(default_factory=Moratorium)
    assistance: RentalAssistance = field(default_factory=RentalAssistance)


def _registry(obj: Any, prefix: str = "") -> Iterator[ParamField]:
    """The registry row of every parameter declared on ``obj``, in order."""
    for f in fields(obj):
        path, value = prefix + f.name, getattr(obj, f.name)
        if "row" in f.metadata:
            yield ParamField(path, *f.metadata["row"])
        elif "rows" in f.metadata:  # an effect curve, its rows in its own field order
            for leaf in fields(value):
                yield ParamField(f"{path}.{leaf.name}", *f.metadata["rows"][leaf.name])
        elif is_dataclass(value):  # a policy block
            yield from _registry(value, path + ".")


FIELDS: tuple[ParamField, ...] = tuple(_registry(ModelParams()))

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
    values: dict[str, Any] = {}
    inner: dict[str, list] = {}
    for names, path, value in changes:
        if not hasattr(obj, names[0]):
            raise KeyError(f"unknown parameter path: {path}")
        if len(names) > 1:
            inner.setdefault(names[0], []).append((names[1:], path, value))
        else:
            values[names[0]] = value
    for name, group in inner.items():
        if name in values:
            raise KeyError(f"parameter path {group[0][1]} overlaps another one set")
        try:
            values[name] = _replaced(getattr(obj, name), group)
        except ValueError as exc:  # a curve's invariant: name the curve
            raise ValueError(f"{exc} (in {name})") from exc
    return replace(obj, **values)


class _CurveBatch(SimpleNamespace):
    """B effect curves of one ``kind``, called like one curve."""

    def __call__(self, x: Any) -> Any:
        return self.kind.array(self, x)


def stack_params(columns: Sequence[Any]) -> Any:
    """B parameter sets as one batch, laid out like :class:`ModelParams`.

    Each dataclass becomes a namespace of its attributes, and each float or
    bool in it a ``(B,)`` array of that dtype: every registry field, each
    policy block's ``enabled`` switch, and each effect curve's derived
    constants (``_span``, ...). A curve's namespace also carries its class
    as ``kind``, and is called like a curve, every column's at once:
    ``node(x)`` is ``kind.array(node, x)``. Each attribute is stacked by a
    call on its B values.
    """
    import numpy as np

    first = columns[0]
    if not is_dataclass(first):
        return np.array(columns, dtype=bool if isinstance(first, bool) else float)
    stacked = {name: stack_params([getattr(column, name) for column in columns])
               for name in vars(first)}
    if isinstance(first, (GompertzCurve, LogisticCurve)):
        return _CurveBatch(kind=type(first), **stacked)
    return SimpleNamespace(**stacked)


def bounds_for(path: str) -> tuple[float, float]:
    """The documented bounds of ``path``; an unbounded side is infinite."""
    f = _FIELD_BY_PATH.get(path)
    if f is None:
        raise KeyError(f"unknown parameter path: {path}")
    return (f.lo, f.hi)


def clamp(value: float, lo: float, hi: float) -> float:
    """``value`` moved into ``[lo, hi]``; a NaN, or a -0.0 on a bound of 0.0, is kept."""
    return min(max(value, lo), hi)


def clamp_to_bounds(path: str, value: float) -> float:
    """``value`` limited to the documented bounds of ``path``."""
    return clamp(value, *bounds_for(path))


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
        if value > f.hi:
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


def load_params(path: str | Path) -> ModelParams:
    """Load a parameter file, and return its validated :class:`ModelParams`.

    The file must contain a ``params`` mapping with exactly one entry per
    registry field. Each entry is a mapping with a ``value`` and a
    ``provenance`` tag, one of :data:`PROVENANCE_TAGS`, and may carry
    ``units`` and a ``note``; any other key is an error. All values are set
    in one :func:`with_values` edit, so a curve's invariants are checked on
    the file's values alone.
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
    return params


def save_params(
    params: ModelParams,
    path: str | Path,
    name: str = "custom",
    calibrated: Collection[str] = (),
) -> Path:
    """Write a parameter file in registry order, atomically; return its path.

    The entries at the paths in ``calibrated`` (the fields a fit moved) are
    tagged ``calibrated``; every other entry keeps its registry tag.
    """
    from rentdyn.output import atomic_write_text  # output imports this module

    entries = {}
    for f in FIELDS:
        entry = {
            "value": float(get_value(params, f.path)),
            "units": f.units,
            "provenance": "calibrated" if f.path in calibrated else f.provenance,
        }
        if f.note:
            entry["note"] = f.note
        entries[f.path] = entry
    doc = {"name": name, "params": entries}
    return atomic_write_text(path, yaml.safe_dump(doc, sort_keys=False, width=100))
