"""Parameter registry, dotted-path access, file I/O, and validation."""

import dataclasses
import gc
import math
import struct
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rentdyn.engine import GompertzCurve, LogisticCurve
from rentdyn.equilibrium import DERIVED_FIELDS, equilibrate
from rentdyn.model import STOCKS, build_derivative, initial_state
from rentdyn.params import (
    FIELDS,
    POLICY_BLOCKS,
    PROVENANCE_TAGS,
    InputError,
    ModelParams,
    bounds_for,
    clamp,
    clamp_to_bounds,
    default_params,
    get_value,
    load_params,
    load_yaml,
    read_number,
    save_params,
    stack_params,
    validate_params,
    with_value,
    with_values,
)
from rentdyn.scenarios import BUILTIN_SCENARIOS, Scenario, run_scenario


# ---------------------------------------------------------------- registry

def test_registry_covers_every_numeric_leaf():
    """Every float field of the parameter tree has exactly one registry row."""
    paths = set()

    def walk(obj, prefix):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if dataclasses.is_dataclass(value):
                walk(value, prefix + f.name + ".")
            elif isinstance(value, float):
                paths.add(prefix + f.name)

    walk(default_params(), "")
    registered = set(f.path for f in FIELDS)
    assert registered == paths


def test_registry_paths_unique_and_resolvable():
    params = default_params()
    paths = [f.path for f in FIELDS]
    assert len(paths) == len(set(paths))
    for f in FIELDS:
        value = get_value(params, f.path)
        assert isinstance(value, float)


def test_registry_tags_and_bounds_sane():
    params = default_params()
    for f in FIELDS:
        assert f.provenance in PROVENANCE_TAGS, f.path
        assert f.units, f.path
        value = get_value(params, f.path)
        assert f.lo <= value <= f.hi, f.path


@st.composite
def _columns(draw):
    """1-5 parameter sets, each with random switches and 0-3 registry fields
    moved inside their bounds (an unbounded field up to 4x its default)."""
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        changes = {f"{block}.enabled": draw(st.booleans()) for block in POLICY_BLOCKS}
        for f in draw(st.lists(st.sampled_from(FIELDS), max_size=3, unique_by=lambda f: f.path)):
            hi = f.hi if f.hi < math.inf \
                else 4.0 * max(abs(get_value(default_params(), f.path)), 1.0)
            changes[f.path] = draw(st.floats(f.lo, hi))
        try:
            columns.append(with_values(default_params(), changes))
        except ValueError:  # a curve's own invariant (y_final >= floor, ...)
            assume(False)
    return columns


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_columns())
def test_stack_params_holds_each_column_at_its_own_path(columns):
    """Every registry field, switch and curve constant is a (B,) array of
    its own dtype whose column b is column b's value, and each curve's
    namespace carries its class."""
    batch = stack_params(columns)
    curves = [f.name for f in dataclasses.fields(ModelParams)
              if isinstance(getattr(columns[0], f.name), (GompertzCurve, LogisticCurve))]
    paths = [f.path for f in FIELDS] + [f"{block}.enabled" for block in POLICY_BLOCKS]
    paths += [f"{curve}.{name}" for curve in curves for name in vars(getattr(columns[0], curve))]
    assert any(name.startswith("_") for name in vars(default_params().crowding_curve))
    for path in paths:
        stacked = get_value(batch, path)
        assert stacked.shape == (len(columns),), path
        assert stacked.dtype == (bool if path.endswith(".enabled") else float), path
        assert stacked.tolist() == [get_value(column, path) for column in columns], path
    for curve in curves:
        assert get_value(batch, curve).kind is type(getattr(columns[0], curve))


def test_bounds_lookup_and_clamp():
    lo, hi = bounds_for("moratorium.processing_reduction")
    assert lo == 0.0 and hi == 1.0
    assert clamp_to_bounds("moratorium.processing_reduction", 1.2) == 1.0
    assert clamp_to_bounds("moratorium.processing_reduction", -0.3) == 0.0
    assert clamp_to_bounds("moratorium.processing_reduction", 0.5) == 0.5
    with pytest.raises(KeyError):
        bounds_for("no.such.parameter")


@settings(max_examples=500, deadline=None)
@given(value=st.one_of(st.floats(), st.sampled_from([-0.0, 0.0])),
       bounds=st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)).map(sorted))
def test_clamp_gives_the_bits_of_an_if_chain(value, bounds):
    """The one clamp, of the registry's bounds and of the fit's box: a NaN,
    and a -0.0 on a bound of 0.0, come back as they went in."""
    lo, hi = bounds
    expected = lo if value < lo else hi if value > hi else value
    assert struct.pack("d", clamp(value, lo, hi)) == struct.pack("d", expected)


# ---------------------------------------------------------------- access

def test_with_value_is_pure():
    base = default_params()
    bumped = with_value(base, "covid.magnitude", 0.9)
    assert bumped.covid.magnitude == 0.9
    assert base.covid.magnitude != 0.9
    assert base == default_params()


def test_with_value_nested_and_flat():
    base = default_params()
    p1 = with_value(base, "avg_monthly_rent", 1234.0)
    assert p1.avg_monthly_rent == 1234.0
    p2 = with_value(base, "stress_curve.steepness", 0.5)
    assert p2.stress_curve.steepness == 0.5
    assert base.stress_curve.steepness != 0.5


def test_with_value_stores_a_float_at_registry_paths():
    """A numpy scalar or an integer is stored as the float it holds, so runs
    take the float path; a policy block's switch stays a bool."""
    base = default_params()
    moved = with_value(with_value(base, "covid.magnitude", np.float64(0.5)),
                       "avg_monthly_rent", 1050)
    assert type(moved.covid.magnitude) is float
    assert type(moved.avg_monthly_rent) is float
    assert type(with_value(base, "covid.enabled", True).covid.enabled) is bool
    run = run_scenario(moved, BUILTIN_SCENARIOS["run2"])
    float_run = run_scenario(with_value(base, "covid.magnitude", 0.5),
                             BUILTIN_SCENARIOS["run2"])
    assert run.metrics == float_run.metrics
    assert all(np.array_equal(run.trajectory[name], float_run.trajectory[name])
               for name in float_run.trajectory.data)


def test_with_value_unknown_path_raises():
    with pytest.raises(KeyError, match="unknown parameter path: typo_field"):
        with_value(default_params(), "typo_field", 1.0)
    with pytest.raises(KeyError, match="unknown parameter path: covid.typo"):
        with_value(default_params(), "covid.typo", 1.0)


def test_with_value_leaves_nothing_for_the_cyclic_collector():
    params = default_params()
    gc.collect()
    gc.disable()
    try:
        for _ in range(1000):
            params = with_value(params, "covid.magnitude", 0.5)
            params = with_value(params, "avg_monthly_rent", 1000.0)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_with_values_checks_a_curve_on_its_final_values_only():
    """y_max 0.9 is below the shipped y_min 1.0, so an edit of one field at a
    time refuses the pair; one edit of both, in either order, accepts it."""
    base = default_params()
    with pytest.raises(ValueError, match=r"y_max 0.9 below y_min 1.0 \(in crowding_curve\)"):
        with_value(base, "crowding_curve.y_max", 0.9)
    for changes in ({"crowding_curve.y_max": 0.9, "crowding_curve.y_min": 0.5},
                    {"crowding_curve.y_min": 0.5, "crowding_curve.y_max": 0.9}):
        moved = with_values(base, changes)
        assert (moved.crowding_curve.y_max, moved.crowding_curve.y_min) == (0.9, 0.5)
        assert moved.crowding_curve(0.0) == 0.5
    assert base == default_params()


def test_with_values_keeps_the_rules_of_one_change():
    base = default_params()
    moved = with_values(base, {"covid.magnitude": np.float64(0.5), "avg_monthly_rent": 1050,
                               "covid.enabled": True})
    assert type(moved.covid.magnitude) is float
    assert type(moved.avg_monthly_rent) is float
    assert moved.covid.enabled is True
    assert moved == with_value(with_value(with_value(base, "covid.magnitude", 0.5),
                                          "avg_monthly_rent", 1050.0), "covid.enabled", True)
    assert with_values(base, {}) == base
    with pytest.raises(KeyError, match="unknown parameter path: covid.typo"):
        with_values(base, {"covid.magnitude": 0.5, "covid.typo": 1.0})
    with pytest.raises(KeyError, match="covid.magnitude overlaps"):
        with_values(base, {"covid": base.covid, "covid.magnitude": 0.5})


def test_params_are_frozen():
    params = default_params()
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.avg_monthly_rent = 0.0


# ---------------------------------------------------------------- validation

def test_validate_accepts_defaults():
    validate_params(default_params())


def test_validate_reports_every_violation():
    bad = with_value(default_params(), "avg_monthly_rent", -5.0)
    bad = with_value(bad, "eviction_proportion", 2.0)
    with pytest.raises(InputError, match="above upper bound") as err:
        validate_params(bad)
    message = str(err.value)
    assert "avg_monthly_rent" in message
    assert "eviction_proportion" in message


def test_validate_rejects_non_finite():
    bad = with_value(default_params(), "processing_time", float("nan"))
    with pytest.raises(InputError, match="processing_time: non-finite value nan"):
        validate_params(bad)


# ---------------------------------------------------------------- file I/O

def test_save_load_round_trip_exact(tmp_path):
    path = tmp_path / "sub" / "params.yaml"
    original = with_value(default_params(), "covid.magnitude", 0.4321)
    save_params(original, path, name="round-trip")
    assert load_params(path) == original
    doc = yaml.safe_load(path.read_text())
    assert doc["name"] == "round-trip"
    assert list(doc["params"]) == [f.path for f in FIELDS]


def test_a_curve_below_its_shipped_y_min_round_trips(tmp_path):
    """The file lists y_max before y_min, and y_max 0.9 is below the shipped
    y_min 1.0: the entries are applied together, never one at a time."""
    original = with_values(default_params(), {"mortgage_delay_curve.y_max": 0.9,
                                              "mortgage_delay_curve.y_min": 0.5})
    assert load_params(save_params(original, tmp_path / "params.yaml")) == original


def test_load_names_the_curve_whose_invariant_breaks(tmp_path):
    path = tmp_path / "broken.yaml"
    save_params(default_params(), path)
    doc = yaml.safe_load(path.read_text())
    doc["params"]["mortgage_delay_curve.y_max"]["value"] = 0.5
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(InputError,
                       match=r"y_max 0.5 below y_min 1.0 \(in mortgage_delay_curve\)"):
        load_params(path)


# the (upper, lower) field pair of each effect curve's invariant
_CURVE_PAIRS = [("rent_delay_curve.y_final", "rent_delay_curve.floor"),
                ("stress_curve.y_final", "stress_curve.floor"),
                ("mortgage_delay_curve.y_max", "mortgage_delay_curve.y_min"),
                ("crowding_curve.y_max", "crowding_curve.y_min")]


@pytest.mark.parametrize("upper, lower", _CURVE_PAIRS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_valid_curve_pair_round_trips_and_applies(tmp_path_factory, upper, lower, data):
    low = data.draw(st.floats(bounds_for(lower)[0], 1e3), label="lower")
    high = data.draw(st.floats(max(low, bounds_for(upper)[0]), 1e3), label="upper")
    pair = {upper: high, lower: low}
    moved = with_values(default_params(), pair)
    path = save_params(moved, tmp_path_factory.mktemp("pair") / "params.yaml")
    assert load_params(path) == moved
    assert Scenario("pair", overrides=pair).apply(default_params()) == moved


def test_shipped_default_file_matches_code_defaults():
    assert load_params("params/default.yaml") == default_params()


def test_shipped_default_file_is_what_save_params_writes(tmp_path):
    """Units, provenance tags and notes too, not only the values, are the
    ones declared on the parameters' fields."""
    written = save_params(default_params(), tmp_path / "default.yaml", name="default")
    assert written.read_bytes() == Path("params/default.yaml").read_bytes()


def test_provenance_override_round_trips(tmp_path):
    path = tmp_path / "fitted.yaml"
    save_params(default_params(), path, calibrated={"covid.magnitude"})
    assert load_params(path) == default_params()
    assert yaml.safe_load(path.read_text())["params"]["covid.magnitude"]["provenance"] \
        == "calibrated"


def test_load_rejects_missing_and_unknown_fields(tmp_path):
    path = tmp_path / "broken.yaml"
    save_params(default_params(), path)
    doc = yaml.safe_load(path.read_text())
    del doc["params"]["avg_monthly_rent"]
    doc["params"]["mystery_knob"] = {"value": 1.0, "units": "x", "provenance": "assumption"}
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(InputError, match="missing: .*; unknown: ") as err:
        load_params(path)
    assert "avg_monthly_rent" in str(err.value)
    assert "mystery_knob" in str(err.value)


def test_load_rejects_bad_value_and_bad_tag(tmp_path):
    path = tmp_path / "broken.yaml"
    save_params(default_params(), path)
    doc = yaml.safe_load(path.read_text())
    doc["params"]["avg_monthly_rent"]["value"] = "plenty"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(InputError, match="'avg_monthly_rent' value is not a finite number"):
        load_params(path)

    save_params(default_params(), path)
    doc = yaml.safe_load(path.read_text())
    doc["params"]["avg_monthly_rent"]["provenance"] = "vibes"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(InputError, match="'avg_monthly_rent' has provenance 'vibes'"):
        load_params(path)


def test_load_rejects_out_of_bounds_value(tmp_path):
    path = tmp_path / "broken.yaml"
    save_params(default_params(), path)
    doc = yaml.safe_load(path.read_text())
    doc["params"]["eviction_proportion"]["value"] = 3.0
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(InputError, match="eviction_proportion: 3.0 above upper bound"):
        load_params(path)


def test_load_rejects_non_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("params: [unclosed")
    with pytest.raises(InputError, match="not valid YAML"):
        load_params(path)
    path.write_text("just a string\n")
    with pytest.raises(InputError, match="top level must be a mapping, not str"):
        load_params(path)
    path.write_bytes(b"name: caf\xe9\n")  # Latin-1, not UTF-8
    with pytest.raises(InputError, match="not valid YAML"):
        load_params(path)


@pytest.mark.parametrize("text, marks", [
    (b"params: [unclosed", ["at line 1, column 9", "at line 2, column 1"]),
    (b"name: caf\xe9\n", ["at position 9"]),
    (b"params: {}\nparams: {}\n", ["at line 1, column 1", "at line 2, column 1"]),
], ids=["syntax", "not-utf-8", "duplicate-key"])
def test_yaml_error_marks_name_the_file(tmp_path, text, marks):
    """The line names the file once, first, and each mark gives its place."""
    path = tmp_path / "broken.yaml"
    path.write_bytes(text)
    with pytest.raises(InputError, match="not valid YAML") as err:
        load_params(path)
    message = str(err.value)
    assert message.startswith(f"{path}: ") and message.count(str(path)) == 1
    assert all(mark in message for mark in marks)


@pytest.mark.parametrize("value, shown", [
    ({"a": {"a": {"a": 1}}}, "dict {'a': {'a': {...}}}"),
    ("x" * 100, "str 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    (None, "NoneType None"),
], ids=["nested-mapping", "long-text", "none"])
def test_read_number_names_the_type_and_bounds_the_text(value, shown):
    with pytest.raises(ValueError) as err:
        read_number(value, "here")
    assert str(err.value) == f"here is not a finite number: {shown}"


@pytest.mark.parametrize("path", ["params/default.yaml", "scenarios/runs.yaml",
                                  "params/calibration.yaml"])
def test_load_yaml_matches_the_pure_python_loader(path):
    with open(path, encoding="utf-8") as fh:
        expected = yaml.load(fh, Loader=yaml.SafeLoader)
    with load_yaml(path) as doc:
        assert doc == expected


# ---------------------------------------------------------------- equilibrium

def test_defaults_are_an_equilibrium_fixed_point():
    """The shipped derived values reproduce themselves exactly."""
    base = default_params()
    balanced = equilibrate(base)
    for path in DERIVED_FIELDS:
        before = get_value(base, path)
        after = get_value(balanced, path)
        assert after == pytest.approx(before, rel=1e-12), path


def test_equilibrate_recomputes_after_perturbation():
    """Changing a non-derived input moves the derived fields consistently."""
    base = with_value(default_params(), "avg_monthly_rent", 1200.0)
    balanced = equilibrate(base)
    assert balanced.rent_owed_initial != pytest.approx(
        base.rent_owed_initial, rel=1e-6)
    again = equilibrate(balanced)
    for path in DERIVED_FIELDS:
        assert get_value(again, path) == pytest.approx(
            get_value(balanced, path), rel=1e-9), path


@pytest.mark.parametrize("overrides", [{}, {"units_vacant_initial": 15e6}],
                         ids=["defaults", "vacancy-exceeds-insecure"])
def test_equilibrated_baseline_is_stationary(overrides):
    """Every stock but vacancy (which declines by design) starts at rest."""
    params = dataclasses.replace(default_params(), **overrides)
    balanced = equilibrate(params)
    state = initial_state(balanced)
    rates, _ = build_derivative(balanced, dt=0.25)(state, 0.0)
    for name, rate, level in zip(STOCKS, rates, state, strict=True):
        if name != "units_vacant":
            assert abs(rate) <= 1e-12 * abs(level), name


@pytest.mark.parametrize("overrides, match", [
    ({"units_occupied_initial": 0.0, "units_pending_initial": 0.0}, "no tenanted units"),
    ({"units_occupied_initial": 0.0}, "filing pressure base is zero"),
    ({"units_vacant_initial": 0.0}, "no vacant units or insecure households"),
    ({"households_insecure_initial": 4e5}, "homeless returns exceed insecure-pool outflows"),
    ({"households_insecure_initial": 0.0}, "homeless returns exceed insecure-pool outflows"),
    ({"fr_direct_homeless": 0.01}, "displacement alone exceeds homeless outflows"),
], ids=["no-tenanted", "no-occupied", "no-vacant", "few-insecure", "no-insecure",
        "direct-homeless-too-high"])
def test_equilibrate_refuses_anchors_without_a_baseline(overrides, match):
    params = dataclasses.replace(default_params(), **overrides)
    with pytest.raises(InputError, match=match):
        equilibrate(params)
