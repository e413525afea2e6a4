"""Scenario files: JSON descriptions of systems plus diagnostic budgets.

Schema documented in docs/scenario_schema.md; shipped scenarios live in the
package's ``scenarios/`` directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

from .diagnostics import DiagnosticsConfig
from .errors import ConfigurationError, ExpressionError
from .expr import PlanarField, ScalarField
from .integrate import IntegratorOptions
from .system import Domain, FilippovSystem, RegionSpec, SwitchingCurve

SCHEMA = "filippov.scenario/1"


@dataclass
class Scenario:
    name: str
    domain: Domain
    parameters: dict
    curve_defs: list
    region_defs: list
    config: DiagnosticsConfig
    integrator: IntegratorOptions = field(default_factory=IntegratorOptions)
    source_path: str | None = None
    _system: FilippovSystem | None = None

    def build_system(self, validate=True) -> FilippovSystem:
        if self._system is not None:
            return self._system
        curves = []
        for cd in self.curve_defs:
            h = ScalarField(cd["h"], parameters=self.parameters)
            curves.append(SwitchingCurve(cd["id"], h, cd["positive_region"], cd["negative_region"]))
        regions = []
        for rd in self.region_defs:
            fx, fy = rd["field"]
            planar = PlanarField(
                ScalarField(fx, parameters=self.parameters),
                ScalarField(fy, parameters=self.parameters),
            )
            conditions = [(c["curve"], +1 if c["sign"] in ("+", 1, "+1") else -1)
                          for c in rd["where"]]
            regions.append(RegionSpec(rd["id"], planar, conditions))
        self._system = FilippovSystem(
            self.domain, curves, regions, self.parameters, validate=validate
        )
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
    """``kind(value)``, or a ConfigurationError that names the field path."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{path}: expected a number, got {value!r}") from None


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
    choices = ("sliding_and_escaping", "sliding_only")
    if values.get("ms_interpretation", choices[0]) not in choices:
        raise ConfigurationError(f"config.ms_interpretation: expected one of {list(choices)}")
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
    return scenario_from_dict(data, source=str(path))


def scenario_from_dict(data, source=None) -> Scenario:
    if not isinstance(data, dict):
        raise ConfigurationError("scenario: expected an object")
    if data.get("schema", SCHEMA) != SCHEMA:
        raise ConfigurationError(f"schema: unsupported value {data.get('schema')!r}")
    name = _optional(data, "name", "unnamed")
    dom = _require(data, "domain", "scenario", dict)
    kind = _require(dom, "kind", "domain", str)
    bounds = _require(dom, "bounds", "domain", list)
    if len(bounds) != 4:
        raise ConfigurationError("domain.bounds: expected [x_min, x_max, y_min, y_max]")
    domain = Domain(kind, *[_number(b, f"domain.bounds[{i}]") for i, b in enumerate(bounds)])
    parameters = {
        str(k): _number(v, f"parameters.{k}") for k, v in _optional(data, "parameters", {}).items()
    }
    curve_defs = []
    for i, cd in enumerate(_require(data, "curves", "scenario", list)):
        curve_defs.append({
            "id": _require(cd, "id", f"curves[{i}]", int),
            "h": str(_require(cd, "h", f"curves[{i}]")),
            "positive_region": _require(cd, "positive_region", f"curves[{i}]", int),
            "negative_region": _require(cd, "negative_region", f"curves[{i}]", int),
        })
    region_defs = []
    for i, rd in enumerate(_require(data, "regions", "scenario", list)):
        fd = _require(rd, "field", f"regions[{i}]", list)
        if len(fd) != 2:
            raise ConfigurationError(f"regions[{i}].field: expected [fx, fy]")
        region_defs.append({
            "id": _require(rd, "id", f"regions[{i}]", int),
            "field": [str(fd[0]), str(fd[1])],
            "where": [
                {"curve": _require(c, "curve", f"regions[{i}].where[{j}]", int),
                 "sign": _require(c, "sign", f"regions[{i}].where[{j}]")}
                for j, c in enumerate(_require(rd, "where", f"regions[{i}]", list))
            ],
        })
    config = _config(_optional(data, "config", {}))
    integ = _optional(data, "integrator", {})
    steps = {}  # None keeps the domain-derived default
    for key in ("max_step", "sample_spacing"):
        if integ.get(key) is not None:
            steps[key] = _number(integ[key], f"integrator.{key}")
            if not steps[key] > 0:
                raise ConfigurationError(f"integrator.{key}: expected a positive number")
    options = IntegratorOptions(
        rtol=_number(integ.get("rtol", 1e-10), "integrator.rtol"),
        atol=_number(integ.get("atol", 1e-12), "integrator.atol"),
        **steps,
    )
    scenario = Scenario(
        name=name, domain=domain, parameters=parameters,
        curve_defs=curve_defs, region_defs=region_defs,
        config=config, integrator=options, source_path=source,
    )
    try:
        scenario.build_system()
    except ExpressionError as exc:
        raise ConfigurationError(f"expression error: {exc}") from exc
    return scenario


def shipped_path(name: str) -> Path:
    """Path of a scenario shipped inside the package."""
    if not name.endswith(".json"):
        name = name + ".json"
    ref = resources.files("filippov").joinpath("scenarios", name)
    with resources.as_file(ref) as concrete:
        return Path(concrete)


def load_shipped(name: str) -> Scenario:
    return load_scenario(shipped_path(name))


def list_shipped():
    base = resources.files("filippov").joinpath("scenarios")
    return sorted(p.name for p in base.iterdir() if p.name.endswith(".json"))
