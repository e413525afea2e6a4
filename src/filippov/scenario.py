"""Scenario files: JSON descriptions of systems plus diagnostic budgets.

Schema documented in docs/scenario_schema.md; shipped scenarios live in the
package's ``scenarios/`` directory.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from .diagnostics import DiagnosticsConfig
from .errors import ConfigurationError, EvaluationError, ExpressionError
from .expr import RESERVED_NAMES, PlanarField, ScalarField, is_name
from .integrate import IntegratorOptions
from .system import DOMAIN_KINDS, Domain, FilippovSystem, RegionSpec, SwitchingCurve, check_extent

SCHEMA = "filippov.scenario/1"


@dataclass
class Scenario:
    name: str
    config: DiagnosticsConfig
    integrator: IntegratorOptions
    _system: FilippovSystem

    def build_system(self) -> FilippovSystem:
        """The checked system the loader built."""
        return self._system


def _require(data, key, path, kind=None):
    """data[key], checked to be a ``kind``; int and float convert the value."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: expected an object")
    if key not in data:
        raise ConfigurationError(f"{path}: missing required field {key!r}")
    value = data[key]
    if kind in (int, float):
        return _number(value, f"{path}.{key}", kind)
    if kind is not None and not isinstance(value, kind):
        raise ConfigurationError(f"{path}.{key}: expected {kind.__name__}")
    return value


def _number(value, path, kind=float):
    """``value`` as a ``kind``, or a ConfigurationError that names the field path.

    A bool, a string, Infinity or NaN is rejected, and an int field takes only integral values.
    """
    if kind is int and type(value) is int:  # not a bool; exact, however large
        return value
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or isinstance(value, (bool, str)):  # float() reads "1_0" and " -1 "
        raise ConfigurationError(f"{path}: expected a number, got {value!r}")
    if not math.isfinite(number):
        raise ConfigurationError(f"{path}: expected a finite number, got {value!r}")
    if kind is float:
        return number
    if not number.is_integer():
        raise ConfigurationError(f"{path}: expected an integer, got {value!r}")
    return int(number)


_SIGNS = {"+": 1, "+1": 1, 1: 1, "-": -1, "-1": -1, -1: -1}


def _known(data, path, keys):
    """Raise a ConfigurationError at the first key of ``data`` that is not one of ``keys``."""
    for key in data:
        if key not in keys:
            raise ConfigurationError(f"{path}.{key}: unknown field (fields: {', '.join(keys)})")


def _sign(value, path):
    """+1 or -1 for a ``where`` sign; True and 1.0 are not signs."""
    if type(value) not in (int, str) or value not in _SIGNS:
        raise ConfigurationError(f"{path}: expected one of {list(_SIGNS)}, got {value!r}")
    return _SIGNS[value]


def _curve_ref(condition, path, curve_ids):
    """The ``curve`` of a ``where`` entry, which must be the id of a curve."""
    curve_id = _require(condition, "curve", path, int)
    if curve_id not in curve_ids:
        raise ConfigurationError(f"{path}.curve: no curve has id {curve_id}")
    return curve_id


def _expression(path, build):
    """build(), with a parse or constant failure raised as a ConfigurationError that names ``path``."""
    try:
        return build()
    except (ExpressionError, EvaluationError) as exc:
        raise ConfigurationError(f"{path}: expression error: {exc}") from exc


def _optional(data, key, default):
    """data[key] checked to be of the default's type, or the default when absent."""
    return _require(data, key, "scenario", type(default)) if key in data else default


def _config(section):
    """DiagnosticsConfig from the ``config`` object; every key must name one of its fields."""
    defaults = {f.name: f.default for f in fields(DiagnosticsConfig)}
    values = {}
    for key in section:
        if key not in defaults:
            raise ConfigurationError(f"config.{key}: not a diagnostics setting")
        kind = type(defaults[key])
        values[key] = _require(section, key, "config", list if kind is tuple else kind)
    if "dwell_grid" in values:
        values["dwell_grid"] = tuple(
            _number(v, f"config.dwell_grid[{i}]") for i, v in enumerate(values["dwell_grid"])
        )
    return DiagnosticsConfig(**values)


def load_scenario(path) -> Scenario:
    """Load and validate a scenario file; failures report their field path."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"scenario file {path} does not exist")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: not valid JSON ({exc})") from None
    return scenario_from_dict(data)


def scenario_from_dict(data) -> Scenario:
    if not isinstance(data, dict):
        raise ConfigurationError("scenario: expected an object")
    if data.get("schema", SCHEMA) != SCHEMA:
        raise ConfigurationError(f"schema: unsupported value {data.get('schema')!r}")
    name = _optional(data, "name", "unnamed")
    dom = _require(data, "domain", "scenario", dict)
    kind = _require(dom, "kind", "domain", str)
    bounds = _require(dom, "bounds", "domain", list)
    _known(dom, "domain", ("kind", "bounds"))
    if len(bounds) != 4:
        raise ConfigurationError("domain.bounds: expected [x_min, x_max, y_min, y_max]")
    bounds = [_number(b, f"domain.bounds[{i}]") for i, b in enumerate(bounds)]
    check_extent(*bounds, name="domain.bounds:")  # as Domain does, with the field path
    if kind not in DOMAIN_KINDS:
        raise ConfigurationError(f"domain.kind: expected one of {list(DOMAIN_KINDS)}, got {kind!r}")
    domain = Domain(kind, *bounds)
    parameters = {
        str(k): _number(v, f"parameters.{k}") for k, v in _optional(data, "parameters", {}).items()
    }
    taken = [name for name in parameters if name in RESERVED_NAMES]
    if taken:  # the parameter would replace a coordinate or lose to a builtin
        raise ConfigurationError(f"parameters.{taken[0]}: reserved name (taken: {', '.join(RESERVED_NAMES)})")
    unnamed = [name for name in parameters if not is_name(name)]
    if unnamed:  # no expression could read the parameter
        raise ConfigurationError(
            f"parameters.{unnamed[0]}: not a name (expected a letter or '_', then letters, digits or '_')")
    curves = []
    for i, cd in enumerate(_require(data, "curves", "scenario", list)):
        path = f"curves[{i}]"
        curve_id = _require(cd, "id", path, int)
        h = str(_require(cd, "h", path))
        positive = _require(cd, "positive_region", path, int)
        negative = _require(cd, "negative_region", path, int)
        _known(cd, path, ("id", "h", "positive_region", "negative_region"))
        curves.append(_expression(f"{path}.h", lambda: SwitchingCurve(
            curve_id, ScalarField(h, parameters=parameters), positive, negative)))
    curve_ids = {c.id for c in curves}
    regions = []
    for i, rd in enumerate(_require(data, "regions", "scenario", list)):
        path = f"regions[{i}]"
        fd = _require(rd, "field", path, list)
        if len(fd) != 2:
            raise ConfigurationError(f"{path}.field: expected [fx, fy]")
        region_id = _require(rd, "id", path, int)
        where_list = _require(rd, "where", path, list)
        if not where_list:
            raise ConfigurationError(f"{path}.where: needs at least one membership condition")
        conditions = []
        for j, c in enumerate(where_list):
            where = f"{path}.where[{j}]"
            curve_id = _curve_ref(c, where, curve_ids)
            conditions.append((curve_id, _sign(_require(c, "sign", where), f"{where}.sign")))
            _known(c, where, ("curve", "sign"))
        _known(rd, path, ("id", "field", "where"))
        fx, fy = (
            _expression(f"{path}.field[{j}]", lambda: ScalarField(str(fd[j]), parameters=parameters))
            for j in (0, 1)
        )
        regions.append(RegionSpec(region_id, PlanarField(fx, fy), conditions))
    config = _config(_optional(data, "config", {}))
    config.check(domain)
    integ = _optional(data, "integrator", {})
    _known(integ, "integrator", ("rtol", "atol", "max_step", "sample_spacing"))
    settings = {"rtol": integ.get("rtol", 1e-10), "atol": integ.get("atol", 1e-12)}
    # a null step setting keeps its domain-derived default
    settings.update((k, integ[k]) for k in ("max_step", "sample_spacing") if integ.get(k) is not None)
    for key, value in settings.items():
        settings[key] = _number(value, f"integrator.{key}")
        if not settings[key] > 0:
            raise ConfigurationError(f"integrator.{key}: expected a positive number")
    options = IntegratorOptions(**settings)
    _known(data, "scenario",
           ("schema", "name", "domain", "parameters", "curves", "regions", "config", "integrator"))
    return Scenario(name, config, options, FilippovSystem(domain, curves, regions))


def shipped_path(name: str) -> Path:
    """Path of a scenario shipped inside the package."""
    if not name.endswith(".json"):
        name = name + ".json"
    ref = resources.files("filippov").joinpath("scenarios", name)
    with resources.as_file(ref) as concrete:
        return Path(concrete)


def load_shipped(name: str) -> Scenario:
    return load_scenario(shipped_path(name))

