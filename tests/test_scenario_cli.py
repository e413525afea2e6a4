import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from filippov import diagnostics, integrate, scenario
from filippov.cli import main
from filippov.diagnostics import DiagnosticsConfig, GridCoverage, chaos_report
from filippov.errors import ConfigurationError
from filippov.scenario import load_scenario, load_shipped, scenario_from_dict, shipped_path
from filippov.sigma import PointClass, classify_point

from conftest import list_shipped, time_limit


def test_shipped_scenarios_present():
    names = list_shipped()
    assert "sliding_belt_torus.json" in names
    assert "chaotic_torus.json" in names
    assert "rotation_plane.json" in names
    assert "fold_demo_plane.json" in names


def test_config_round_trips_every_setting():
    # a report's config names every setting, so the run can be repeated from it
    changed = {"int": lambda v: v + 3, "float": lambda v: 2.0 * v + 0.5,
               "tuple": lambda v: (0.0, 0.1, 0.3), "str": lambda v: "sliding_only"}
    cfg = DiagnosticsConfig(**{
        f.name: changed[type(f.default).__name__](f.default)
        for f in dataclasses.fields(DiagnosticsConfig)
    })
    assert cfg != DiagnosticsConfig()
    assert len(cfg.to_dict()) == len(dataclasses.fields(DiagnosticsConfig)) == 20
    assert scenario._config(cfg.to_dict()) == cfg
    assert scenario._config(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_load_sliding_belt():
    scenario = load_shipped("sliding_belt_torus")
    assert scenario.name == "sliding_belt_torus"
    system = scenario.build_system()
    assert len(system.curves) == 1 and len(system.regions) == 2


def test_load_missing_file(tmp_path):
    with pytest.raises(ConfigurationError, match="does not exist"):
        load_scenario(tmp_path / "nope.json")


def test_load_reports_field_paths(tmp_path):
    def scenario():
        return {
            "domain": {"kind": "plane_rect", "bounds": [0, 1, 0, 1]},
            "parameters": {"a": 1.0},
            "curves": [{"id": 0, "h": "y - 0.5", "positive_region": 1, "negative_region": 2}],
            "regions": [
                {"id": 1, "field": ["a", "-1"], "where": [{"curve": 0, "sign": "+"}]},
                {"id": 2, "field": ["1", "1"], "where": [{"curve": 0, "sign": "-"}]},
            ],
        }

    cases = [
        (lambda d: d["curves"][0].pop("negative_region"),
         r"curves\[0\]: missing required field 'negative_region'"),
        (lambda d: d["regions"][0]["where"][0].pop("curve"),
         r"regions\[0\]\.where\[0\]: missing required field 'curve'"),
        (lambda d: d["regions"][1]["where"][0].pop("sign"),
         r"regions\[1\]\.where\[0\]: missing required field 'sign'"),
        (lambda d: d["regions"][0]["where"][0].update(sign="positive"),
         r"regions\[0\]\.where\[0\]\.sign: expected one of .*, got 'positive'"),
        (lambda d: d["regions"][0]["where"][0].update(sign=True),
         r"regions\[0\]\.where\[0\]\.sign: expected one of .*, got True"),
        (lambda d: d["regions"][1]["where"][0].update(sign=False),
         r"regions\[1\]\.where\[0\]\.sign: expected one of .*, got False"),
        (lambda d: d["regions"][1]["where"][0].update(sign=-2),
         r"regions\[1\]\.where\[0\]\.sign: expected one of .*, got -2"),
        (lambda d: d["regions"][1]["where"][0].update(sign=None),
         r"regions\[1\]\.where\[0\]\.sign: expected one of .*, got None"),
        (lambda d: d["regions"][1].update(where=["y < 0.5"]),
         r"regions\[1\]\.where\[0\]: expected an object"),
        (lambda d: d["regions"][0]["where"][0].update(curve="zero"),
         r"regions\[0\]\.where\[0\]\.curve: expected a number"),
        (lambda d: d["regions"][1]["where"].append({"curve": 5, "sign": "+"}),
         r"regions\[1\]\.where\[1\]\.curve: no curve has id 5"),
        (lambda d: d["domain"].update(bounds=[0, 1, "low", 1]),
         r"domain\.bounds\[2\]: expected a number"),
        (lambda d: d["parameters"].update(a="big"), r"parameters\.a: expected a number"),
        (lambda d: d["curves"][0].update(id=[0]), r"curves\[0\]\.id: expected a number"),
        (lambda d: d["regions"][1].update(id="two"), r"regions\[1\]\.id: expected a number"),
        (lambda d: d["curves"][0].update(id=0.7), r"curves\[0\]\.id: expected an integer, got 0\.7"),
        (lambda d: d.update(config={"grid_resolution": 32.9}),
         r"config\.grid_resolution: expected an integer, got 32\.9"),
        (lambda d: d.update(config={"seed": True}), r"config\.seed: expected a number, got True"),
        (lambda d: d.update(integrator={"rtol": True}),
         r"integrator\.rtol: expected a number, got True"),
        (lambda d: d.update(integrator={"rtol": 10 ** 400}), r"integrator\.rtol: expected a number"),
        (lambda d: d.update(name=5), r"scenario\.name: expected str"),
        (lambda d: d.update(parameters=[1]), r"scenario\.parameters: expected dict"),
        (lambda d: d.update(config=[1]), r"scenario\.config: expected dict"),
        (lambda d: d.update(integrator=[1]), r"scenario\.integrator: expected dict"),
        (lambda d: d.update(integrator={"max_step": "big"}),
         r"integrator\.max_step: expected a number, got 'big'"),
        (lambda d: d.update(integrator={"sample_spacing": 0}),
         r"integrator\.sample_spacing: expected a positive number"),
        (lambda d: d.update(integrator={"rtol": 0, "atol": 0}),
         r"integrator\.rtol: expected a positive number"),
        (lambda d: d.update(integrator={"atol": 0}), r"integrator\.atol: expected a positive number"),
        (lambda d: d.update(integrator={"rtol": -1}), r"integrator\.rtol: expected a positive number"),
        (lambda d: d.update(integrator={"atol": -1}), r"integrator\.atol: expected a positive number"),
        (lambda d: d.update(integrator={"atol": math.nan}),
         r"integrator\.atol: expected a finite number, got nan"),
        (lambda d: d.update(config={"to_dict": 1}), r"config\.to_dict: not a diagnostics setting"),
        (lambda d: d.update(config={"grid_resolution": "fine"}),
         r"config\.grid_resolution: expected a number, got 'fine'"),
        (lambda d: d.update(config={"dwell_grid": 0.1}), r"config\.dwell_grid: expected list"),
        (lambda d: d.update(config={"dwell_grid": [0.0, "long"]}),
         r"config\.dwell_grid\[1\]: expected a number"),
        (lambda d: d.update(config={"ms_interpretation": "both"}),
         r"config\.ms_interpretation: expected one of \['sliding_and_escaping', 'sliding_only'\], got 'both'$"),
        (lambda d: d["domain"].update(kind="disk"),
         r"domain\.kind: expected one of \['plane_rect', 'flat_torus'\], got 'disk'$"),
        # json.dumps writes these as Infinity, -Infinity and NaN, which json.loads reads back
        (lambda d: d["domain"].update(bounds=[0, math.inf, 0, 1]),
         r"domain\.bounds\[1\]: expected a finite number, got inf"),
        (lambda d: d["parameters"].update(a=math.nan), r"parameters\.a: expected a finite number, got nan"),
        (lambda d: d.update(config={"probe_horizon": math.inf}),
         r"config\.probe_horizon: expected a finite number, got inf"),
        (lambda d: d.update(config={"disk_radius": math.nan}),
         r"config\.disk_radius: expected a finite number, got nan"),
        (lambda d: d.update(config={"grid_resolution": math.inf}),
         r"config\.grid_resolution: expected a finite number, got inf"),
        (lambda d: d.update(config={"dwell_grid": [0.0, -math.inf]}),
         r"config\.dwell_grid\[1\]: expected a finite number, got -inf"),
        (lambda d: d.update(integrator={"max_step": math.inf}),
         r"integrator\.max_step: expected a finite number, got inf"),
        (lambda d: d.update(integrator={"rtol": math.nan}),
         r"integrator\.rtol: expected a finite number, got nan"),
        # an expression error names its field; a field folds its constants as it is built
        (lambda d: d["regions"][1]["field"].__setitem__(1, "1 + z"),
         r"regions\[1\]\.field\[1\]: expression error: unknown identifier 'z' \(at position 4\)"),
        (lambda d: d["curves"][0].update(h="abs(y - 0.5)"),
         r"curves\[0\]\.h: expression error: 'abs' is not a smooth primitive and is not allowed "
         r"\(at position 0\)"),
        (lambda d: d["curves"][0].update(h="y * (1e200)^2"),
         r"curves\[0\]\.h: expression error: .*out of range"),
        # a constant or function would win over the parameter, and x or y would replace
        # the coordinate (h = y then reads as a constant)
        *[(lambda d, _n=name: d["parameters"].update({_n: 0.5}),
           rf"parameters\.{name}: reserved name \(taken: x, y, pi, e, sin, cos, exp, sqrt\)")
          for name in ("x", "y", "pi", "e", "sin", "cos", "exp", "sqrt")],
        # no expression can name a parameter that is not one NAME token
        *[(lambda d, _n=name: d["parameters"].update({_n: 0.5}),
           rf"parameters\.{re.escape(name)}: not a name \(expected a letter or '_', then letters, digits or '_'\)")
          for name in ("a b", "1a", "", "a-b", "a.b")],
        (lambda d: d["regions"][1].update(where=[]),
         r"regions\[1\]\.where: needs at least one membership condition"),
        # float() reads these strings, but the schema asks for JSON numbers
        (lambda d: d["domain"].update(bounds=["-1", "1_0", " -1 ", "1"]),
         r"domain\.bounds\[0\]: expected a number, got '-1'"),
        (lambda d: d["domain"].update(bounds=[-1, "1_0", -1, 1]),
         r"domain\.bounds\[1\]: expected a number, got '1_0'"),
        (lambda d: d["curves"][0].update(id="0"), r"curves\[0\]\.id: expected a number, got '0'"),
        (lambda d: d.update(integrator={"rtol": "1e-8"}),
         r"integrator\.rtol: expected a number, got '1e-8'"),
        (lambda d: d["parameters"].update(a="2"), r"parameters\.a: expected a number, got '2'"),
        (lambda d: d.update(config={"grid_resolution": "16"}),
         r"config\.grid_resolution: expected a number, got '16'"),
        # finite bounds whose difference is not, and bounds in the wrong order
        (lambda d: d["domain"].update(bounds=[-1e308, 1e308, -1, 1]),
         r"domain\.bounds: must have finite extent, got width inf, height 2\.0"),
        (lambda d: d["domain"].update(bounds=[1, 0, 0, 1]), r"domain\.bounds: must have positive extent"),
    ]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario()))
    load_scenario(path)  # the unedited scenario loads
    for plus, minus in ((1, -1), ("+1", "-1")):
        data = scenario()
        data["regions"][0]["where"][0]["sign"], data["regions"][1]["where"][0]["sign"] = plus, minus
        path.write_text(json.dumps(data))
        regions = load_scenario(path).build_system().regions
        assert [r.conditions for r in regions] == [[(0, 1)], [(0, -1)]]
    data = scenario()
    data["config"] = {"seed": 10 ** 400}  # JSON holds integers of any size
    path.write_text(json.dumps(data))
    assert load_scenario(path).config.seed == 10 ** 400
    for edit, message in cases:
        data = scenario()
        edit(data)
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match=message):
            load_scenario(path)
    path.write_text(json.dumps([scenario()]))
    with pytest.raises(ConfigurationError, match=r"scenario: expected an object"):
        load_scenario(path)


UNKNOWN_FIELDS = [
    # each was read past: a misspelt tolerance ran at the default rtol of 1e-10
    (lambda d: d.update(integrator={"rtoll": 1e-6}),
     "integrator.rtoll: unknown field (fields: rtol, atol, max_step, sample_spacing)"),
    (lambda d: d.update(integrator={"max_segments": 5}),
     "integrator.max_segments: unknown field (fields: rtol, atol, max_step, sample_spacing)"),
    (lambda d: d.update(confg={"seed": 3}), "scenario.confg: unknown field (fields: schema, name, domain, "
                                            "parameters, curves, regions, config, integrator)"),
    (lambda d: d["domain"].update(bound=[0, 1, 0, 1]), "domain.bound: unknown field (fields: kind, bounds)"),
    (lambda d: d["curves"][0].update(hh="x"),
     "curves[0].hh: unknown field (fields: id, h, positive_region, negative_region)"),
    (lambda d: d["regions"][0].update(feild=["1", "0"]),
     "regions[0].feild: unknown field (fields: id, field, where)"),
    (lambda d: d["regions"][1]["where"][0].update(sing="-"),
     "regions[1].where[0].sing: unknown field (fields: curve, sign)"),
]


@pytest.mark.parametrize("edit, message", UNKNOWN_FIELDS, ids=[m.split(":")[0] for _, m in UNKNOWN_FIELDS])
def test_unknown_field_is_rejected_with_its_path(edit, message, tmp_path, capsys):
    data = json.loads(shipped_path("rotation_plane").read_text())
    edit(data)
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        scenario_from_dict(data)
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(data))
    assert main(["orbit", "--scenario", str(path), "--start", "0.3,0.2", "--horizon", "2"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_load_rejects_overlapping_curves(tmp_path):
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps({
        "name": "overlap",
        "domain": {"kind": "plane_rect", "bounds": [-1, 1, -1, 1]},
        "curves": [
            {"id": 0, "h": "y", "positive_region": 1, "negative_region": 2},
            {"id": 1, "h": "y - 1e-7", "positive_region": 1, "negative_region": 2},
        ],
        "regions": [
            {"id": 1, "field": ["1", "0"], "where": [{"curve": 0, "sign": "+"}, {"curve": 1, "sign": "+"}]},
            {"id": 2, "field": ["1", "0"], "where": [{"curve": 0, "sign": "-"}, {"curve": 1, "sign": "-"}]},
        ],
    }))
    with pytest.raises(ConfigurationError, match=r"curves \[0, 1\] are not disjoint"):
        load_scenario(path)


def test_load_rejects_abs(tmp_path):
    path = tmp_path / "abs.json"
    path.write_text(json.dumps({
        "name": "nonsmooth",
        "domain": {"kind": "plane_rect", "bounds": [-1, 1, -1, 1]},
        "curves": [{"id": 0, "h": "y", "positive_region": 1, "negative_region": 2}],
        "regions": [
            {"id": 1, "field": ["abs(x)", "1"], "where": [{"curve": 0, "sign": "+"}]},
            {"id": 2, "field": ["1", "1"], "where": [{"curve": 0, "sign": "-"}]},
        ],
    }))
    with pytest.raises(ConfigurationError, match="not a smooth primitive"):
        load_scenario(path)


# ---------------------------------------------------------------------------
# CLI dispatch
# ---------------------------------------------------------------------------


def test_cli_classify_writes_report(tmp_path):
    out = tmp_path / "report.json"
    status = main([
        "classify", "--scenario", str(shipped_path("fold_demo_plane")),
        "--curve", "0", "--resolution", "400", "--json", str(out),
    ])
    assert status == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "filippov.sigma/1"
    assert payload["arcs"]
    assert payload["tangencies"]


def test_cli_classify_curved_sigma(tmp_path):
    # a circle: each arc's class is read on the curve, not at a chord midpoint off it
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({
        "name": "circle",
        "domain": {"kind": "plane_rect", "bounds": [-1, 1, -1, 1]},
        "curves": [{"id": 0, "h": "x^2 + y^2 - 0.25", "positive_region": 1, "negative_region": 2}],
        "regions": [
            {"id": 1, "field": ["1", "0"], "where": [{"curve": 0, "sign": "+"}]},
            {"id": 2, "field": ["0.3", "1"], "where": [{"curve": 0, "sign": "-"}]},
        ],
    }))
    out = tmp_path / "report.json"
    assert main(["classify", "--scenario", str(path), "--resolution", "300", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert [a["class"] for a in payload["arcs"]] == ["escaping", "crossing", "sliding", "crossing"]
    assert len(payload["tangencies"]) == 4


def test_cli_orbit_writes_csv_and_json(tmp_path):
    csv_out = tmp_path / "orbit.csv"
    json_out = tmp_path / "orbit.json"
    status = main([
        "orbit", "--scenario", str(shipped_path("fold_demo_plane")),
        "--start=-1.2,0.7", "--horizon", "4",
        "--csv", str(csv_out), "--json", str(json_out),
    ])
    assert status == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "t,x,y,segment_kind,segment_index"
    payload = json.loads(json_out.read_text())
    assert payload["schema"] == "filippov.orbit/1"


def test_cli_orbit_artifacts_are_byte_identical(tmp_path):
    args = [
        "orbit", "--scenario", str(shipped_path("sliding_belt_torus")),
        "--start", "0.1,0.9", "--horizon", "5", "--policy", "slide_on",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--csv", str(a), "--json", str(tmp_path / "a.json")]) == 0
    assert main(args + ["--csv", str(b), "--json", str(tmp_path / "b.json")]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_cli_portrait_writes_svg(tmp_path):
    out = tmp_path / "portrait.svg"
    status = main([
        "portrait", "--scenario", str(shipped_path("fold_demo_plane")),
        "--resolution", "300", "--orbit-start=-1.5,0.8", "--horizon", "4",
        "--svg", str(out),
    ])
    assert status == 0
    text = out.read_text()
    assert text.startswith("<?xml")
    assert 'version="1.1"' in text


def test_cli_saturate(tmp_path):
    out = tmp_path / "cov.json"
    csv_out = tmp_path / "cov.csv"
    status = main([
        "saturate", "--scenario", str(shipped_path("sliding_belt_torus")),
        "--grid", "16", "--horizon", "10",
        "--json", str(out), "--csv", str(csv_out),
    ])
    assert status == 0
    payload = json.loads(out.read_text())
    assert payload["resolution"] == 16
    assert 0 < payload["fraction"] <= 1
    assert csv_out.read_text().startswith("i,j,hit")


def test_cli_saturate_is_the_report_saturation(tmp_path):
    # `filippov saturate` runs the saturation phase of chaos_report, on the same config
    data = json.loads(shipped_path("sliding_belt_torus").read_text())
    data["config"].update(transitivity_pairs=1, transitivity_budget=1, probe_horizon=1.0,
                          sensitivity_budget=1, sensitivity_horizon=1.0, graph_budget=2,
                          graph_horizon=1.0, cycle_windows=1, cycle_horizon=1.0,
                          saturate_horizon=0.5, saturate_seeds_per_arc=2, grid_resolution=8,
                          sigma_resolution=256)
    path, out = tmp_path / "belt.json", tmp_path / "cov.json"
    path.write_text(json.dumps(data))
    assert main(["saturate", "--scenario", str(path), "--json", str(out)]) == 0
    loaded = load_scenario(path)
    report = chaos_report(loaded.build_system(), loaded.config, opts=loaded.integrator)
    saturation = json.loads(out.read_text())
    assert saturation == report["saturation"]
    assert 0 < saturation["hit_cells"] < 64  # the horizon and the policies decide the cells


def test_cli_saturate_logs_progress_on_stderr_at_info():
    import filippov

    env = dict(os.environ, FILIPPOV_LOG="INFO",
               PYTHONPATH=str(Path(filippov.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "filippov.cli", "saturate",
         "--scenario", str(shipped_path("sliding_belt_torus")), "--grid", "4", "--horizon", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["resolution"] == 4  # stdout holds the JSON alone
    assert re.search(r"^INFO filippov\.diagnostics: saturate: \d+ of \d+ seed x direction x "
                     r"policy orbits integrated, 16 of 16 cells hit$", proc.stderr, re.M)


def _classify_with_log_level(value):
    import filippov

    env = dict(os.environ, FILIPPOV_LOG=value, PYTHONPATH=str(Path(filippov.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "filippov.cli", "classify", "--scenario", str(shipped_path("rotation_plane")),
         "--resolution", "20"],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("value", ["WARN", "fatal", "notset", ""])
def test_cli_log_level_names(value):
    proc = _classify_with_log_level(value)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("value", ["basic_format", "loud"])
def test_cli_unknown_log_level_exits_2(value):
    # logging.BASIC_FORMAT is a string: basicConfig raised ValueError outside main's handler (exit 1)
    proc = _classify_with_log_level(value)
    assert proc.returncode == 2
    assert proc.stderr == f"error: FILIPPOV_LOG: expected a logging level name such as INFO, got {value!r}\n"


def test_cli_saturate_seeds_follow_ms_interpretation(tmp_path, monkeypatch):
    data = json.loads(shipped_path("sliding_belt_torus").read_text())
    data["config"]["ms_interpretation"] = "sliding_only"
    path = tmp_path / "belt.json"
    path.write_text(json.dumps(data))
    calls = []

    def capture(system, seeds, *args, **kwargs):
        calls.append((system, list(seeds)))
        return GridCoverage(system.domain, 4)

    monkeypatch.setattr(diagnostics, "saturate", capture)
    assert main(["saturate", "--scenario", str(path), "--json", str(tmp_path / "cov.json")]) == 0
    [(system, seeds)] = calls
    assert seeds
    assert all(classify_point(system, 0, p).point_class is PointClass.SLIDING for p in seeds)


def test_cli_diagnose_rotation_is_inconclusive_and_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["diagnose", "--scenario", str(shipped_path("rotation_plane")), "--seed", "11"]
    status_a = main(argv + ["--json", str(a)])
    status_b = main(argv + ["--json", str(b)])
    assert status_a == status_b == 1  # not chaotic: inconclusive exit code
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["verdict"].startswith("not chaotic")


def test_cli_unknown_command_errors():
    assert main(["frobnicate"]) == 2


def test_cli_missing_scenario_errors(tmp_path):
    assert main(["classify", "--scenario", str(tmp_path / "none.json")]) == 2


def test_cli_bad_policy_errors(tmp_path):
    status = main([
        "orbit", "--scenario", str(shipped_path("fold_demo_plane")),
        "--start", "0,0.5", "--horizon", "1", "--policy", "bogus",
    ])
    assert status == 2


def _orbit_argv(name, start, horizon, *more):
    return ["orbit", "--scenario", str(shipped_path(name)), "--start", start,
            "--horizon", horizon, *more]


@pytest.mark.parametrize("argv, message", [
    # a horizon or dwell of inf or nan is never reached: the orbit runs forever or not at all
    (_orbit_argv("rotation_plane", "0.3,0.2", "inf"), "--horizon: expected a finite number > 0, got inf"),
    (_orbit_argv("rotation_plane", "0.3,0.2", "nan"), "--horizon: expected a finite number > 0, got nan"),
    (_orbit_argv("sliding_belt_torus", "0.3,0.5", "2", "--policy", "dwell:dwell=nan,side=up"),
     "--policy: expected 'dwell:dwell=T,side=up|down' with a finite T >= 0, got 'dwell:dwell=nan,side=up'"),
    # a negative dwell has no meaning
    (_orbit_argv("sliding_belt_torus", "0.3,0.5", "2", "--policy", "dwell:dwell=-1"),
     "--policy: expected 'dwell:dwell=T,side=up|down' with a finite T >= 0, got 'dwell:dwell=-1'"),
])
def test_cli_non_finite_or_negative_time_exits_2(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_scenario_with_infinite_bound_exits_2(tmp_path, capsys):
    data = json.loads(shipped_path("rotation_plane").read_text())
    data["domain"]["bounds"][1] = math.inf
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(data))
    assert "Infinity" in path.read_text()
    assert main(["orbit", "--scenario", str(path), "--start", "0.3,0.2", "--horizon", "2"]) == 2
    assert capsys.readouterr().err == "error: domain.bounds[1]: expected a finite number, got inf\n"


@pytest.mark.parametrize("flag, bad, message", [
    ("--start", "a,0.2", "--start: expected two finite numbers 'x,y', got 'a,0.2'"),
    ("--start", "0.3,inf", "--start: expected two finite numbers 'x,y', got '0.3,inf'"),
    ("--orbit-start", "0.3,0.2,0", "--orbit-start: expected two finite numbers 'x,y', got '0.3,0.2,0'"),
    ("--policy", "dwell:foo", "--policy: expected 'dwell:dwell=T,side=up|down' with a finite T >= 0, "
                              "got 'dwell:foo'"),
    ("--size", "640", "--size: expected two positive integers 'WxH', got '640'"),
    # the frame is drawn 40 px inside each edge: at 60 it ran backwards, at 80 it was a point
    ("--size", "60x60", "--size: expected each side above 80 px, the two 40 px margins, got '60x60'"),
    ("--size", "80x80", "--size: expected each side above 80 px, the two 40 px margins, got '80x80'"),
    ("--resolution", "1", "--resolution: expected an integer >= 2, got 1"),
    ("--resolution", "65537", "--resolution: expected at most 65536, got 65537"),
    ("--horizon", "nan", "--horizon: expected a finite number > 0, got nan"),
    ("--horizon", "-1", "--horizon: expected a finite number > 0, got -1.0"),
    ("--curve", "7", "--curve: no curve has id 7 (ids: 0)"),
])
def test_cli_argument_errors_name_the_flag(flag, bad, message, tmp_path, capsys):
    out = tmp_path / "out"
    scenario = str(shipped_path("rotation_plane"))
    portrait = ["portrait", "--scenario", scenario, "--svg", str(out), flag, bad]
    runs = {
        "--start": [_orbit_argv("rotation_plane", bad, "1")],
        "--policy": [_orbit_argv("rotation_plane", "0.3,0.2", "1", "--policy", bad)],
        # classify and portrait both decompose Σ at --resolution
        "--resolution": [["classify", "--scenario", scenario, "--json", str(out), flag, bad], portrait],
        "--horizon": [_orbit_argv("rotation_plane", "0.3,0.2", bad, "--json", str(out)), portrait],
        "--curve": [["classify", "--scenario", scenario, "--json", str(out), flag, bad]],
    }.get(flag, [portrait])
    for argv in runs:
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("command, flag, bad, expected", [
    ("cycles", "--radius", ("-0.4", "0", "nan", "inf"), "a finite number > 0"),
    ("cycles", "--windows", ("0", "-1"), "an integer >= 1"),
    ("saturate", "--grid", ("0", "-3"), "an integer >= 1"),
    ("saturate", "--horizon", ("0", "-1", "nan", "inf"), "a finite number > 0"),
])
def test_cli_budget_flags_are_checked(command, flag, bad, expected, tmp_path, capsys):
    # a given value is checked, not replaced by the config's when it is falsy
    out = tmp_path / "out.json"
    for text in bad:
        argv = [command, "--scenario", str(shipped_path("fold_demo_plane")), "--json", str(out),
                f"{flag}={text}"]
        assert main(argv) == 2
        value = int(text) if expected.startswith("an integer") else float(text)
        assert capsys.readouterr().err == f"error: {flag}: expected {expected}, got {value!r}\n"
        assert not out.exists()


def test_cli_non_finite_literal_exits_2(tmp_path, capsys):
    # 1e999 overflows to inf, which has no place in an expression
    data = json.loads(shipped_path("rotation_plane").read_text())
    data["regions"][0]["field"][0] = "1e999*0+1"
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(data))
    assert main(["orbit", "--scenario", str(path), "--start", "0.3,0.2", "--horizon", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: regions[0].field[0]: expression error: number '1e999' is not finite (at position 0)\n")


def test_cli_overflowing_constant_in_a_field_exits_2(tmp_path, capsys):
    # the field is compiled as written, so only folding its constants finds the overflow
    data = json.loads(shipped_path("rotation_plane").read_text())
    data["regions"][0]["field"][0] = "x * (1e200)^2"
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(data))
    assert main(["orbit", "--scenario", str(path), "--start", "0.3,0.2", "--horizon", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: regions[0].field[0]: expression error: (34, 'Numerical result out of range')\n")


def test_cli_overflowing_parameter_exits_2(tmp_path, capsys):
    # the compiled code inlines a parameter's value, so folding with the values bound finds
    # the overflow at load, in a field and in a curve, and names the expression
    for edit, where in (
        (lambda d: d["regions"][0]["field"].__setitem__(0, "x * a^2"), "regions[0].field[0]"),
        (lambda d: d["curves"][0].update(h="y * a^2"), "curves[0].h"),
    ):
        data = json.loads(shipped_path("rotation_plane").read_text())
        data["parameters"] = {"a": 1e200}
        edit(data)
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(data))
        assert main(["orbit", "--scenario", str(path), "--start", "0.3,0.2", "--horizon", "2"]) == 2
        assert capsys.readouterr().err == (
            f"error: {where}: expression error: (34, 'Numerical result out of range')\n")
        with pytest.raises(ConfigurationError, match=re.escape(where)):
            scenario.scenario_from_dict(data)


def test_region_field_constants_fold_at_load_and_run_as_written():
    for j, source, message in ((0, "x * (1e200)^2", "out of range"), (1, "exp(1000) * y", "math range error")):
        data = json.loads(shipped_path("rotation_plane").read_text())
        data["regions"][1]["field"][j] = source
        with pytest.raises(ConfigurationError,
                           match=rf"regions\[1\]\.field\[{j}\]: expression error: .*{message}"):
            scenario.scenario_from_dict(data)
    # folding would turn x * 1 + 0 * y into x, which is -0.0 at x = -0.0
    data = json.loads(shipped_path("rotation_plane").read_text())
    data["regions"][1]["field"][1] = "x * 1 + 0 * y"
    component = scenario.scenario_from_dict(data).build_system().region(2).field.component_y
    assert component.source() == "x * 1 + 0 * y"
    assert math.copysign(1.0, component.raw()(-0.0, 1.0)) == 1.0


def test_cli_reserved_parameter_name_exits_2(tmp_path, capsys):
    data = json.loads(shipped_path("rotation_plane").read_text())
    data["parameters"] = {"e": 2.0}
    path = tmp_path / "reserved.json"
    path.write_text(json.dumps(data))
    assert main(["orbit", "--scenario", str(path), "--start", "0.3,0.2", "--horizon", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: parameters.e: reserved name (taken: x, y, pi, e, sin, cos, exp, sqrt)\n")


def test_cli_raw_evaluation_error_exits_2(tmp_path, capsys, caplog):
    # sqrt(x) is undefined on the left half of the domain, where the orbit starts
    path = tmp_path / "sqrt.json"
    path.write_text(json.dumps({
        "name": "sqrt_field",
        "domain": {"kind": "plane_rect", "bounds": [-1, 1, -1, 1]},
        "curves": [{"id": 0, "h": "y", "positive_region": 1, "negative_region": 2}],
        "regions": [
            {"id": 1, "field": ["1", "sqrt(x)"], "where": [{"curve": 0, "sign": "+"}]},
            {"id": 2, "field": ["1", "sqrt(x)"], "where": [{"curve": 0, "sign": "-"}]},
        ],
    }))
    status = main(["orbit", f"--scenario={path}", "--start=-0.5,0.5", "--horizon", "2"])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    # reported once, as the error line; pytest diverts logging from stderr to caplog
    logged = "".join(r.getMessage() for r in caplog.records)
    assert (err + logged).count("evaluation failed") == 1


def test_cli_unexpected_exception_exits_2(monkeypatch, capsys):
    import filippov.cli as cli

    def boom(args):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "_cmd_classify", boom)
    assert main(["classify", "--scenario", "unused.json"]) == 2
    assert "error: RuntimeError: unexpected" in capsys.readouterr().err


def test_cli_cycles_windows_lie_inside_plane_domain(tmp_path):
    data = json.loads(shipped_path("fold_demo_plane").read_text())
    data["config"].update(graph_budget=6, graph_horizon=5.0, cycle_horizon=5.0)
    scenario = tmp_path / "fold.json"
    scenario.write_text(json.dumps(data))
    out = tmp_path / "cycles.json"
    status = main(["cycles", "--scenario", str(scenario), "--windows", "6", "--radius", "0.4",
                   "--json", str(out)])
    assert status in (0, 1)
    x_min, x_max, y_min, y_max = data["domain"]["bounds"]
    windows = [n for n in json.loads(out.read_text())["graph"]["nodes"] if n["kind"] == "window_v"]
    assert len(windows) == 6
    for w in windows:
        (x, y), r = w["point"], w["radius"]
        assert r == 0.4
        assert x_min + r <= x <= x_max - r and y_min + r <= y <= y_max - r


FIT = "expected at most 1.0, half the shorter side of the domain"  # fold_demo_plane is 4 x 2


@pytest.mark.parametrize("key", ["disk_radius", "sensitivity_disk_radius", "window_radius"])
def test_plane_disk_radius_must_fit_the_domain(key, tmp_path, capsys):
    # a disk wider than the rectangle was drawn partly outside it, and at radius 5
    # a probe failed with "point (-2.07, -2.06) left the domain", which named no setting
    data = json.loads(shipped_path("fold_demo_plane").read_text())
    path, out = tmp_path / "fold.json", tmp_path / "report.json"
    for radius in (1.5, 5.0):
        data["config"][key] = radius
        path.write_text(json.dumps(data))
        assert main(["diagnose", "--scenario", str(path), "--json", str(out)]) == 2
        assert capsys.readouterr().err == f"error: config.{key}: {FIT}, got {radius!r}\n"
        assert not out.exists()
        system = load_shipped("fold_demo_plane").build_system()
        with pytest.raises(ConfigurationError, match=re.escape(f"config.{key}: {FIT}")):
            chaos_report(system, dataclasses.replace(DiagnosticsConfig(), **{key: radius}))
    data["config"][key] = 1.0  # a disk as tall as the rectangle still fits
    assert getattr(scenario_from_dict(data).config, key) == 1.0
    torus = json.loads(shipped_path("chaotic_torus").read_text())
    torus["config"][key] = 5.0  # a disk on the torus wraps, whatever its radius
    assert getattr(scenario_from_dict(torus).config, key) == 5.0


@pytest.mark.parametrize("radius", ["1.5", "5"])
def test_cli_cycles_radius_must_fit_a_plane_domain(radius, tmp_path, capsys):
    # 1.5 exited 1 with windows that stuck out of the rectangle, 5 exited 2 naming no flag
    out = tmp_path / "cycles.json"
    argv = ["cycles", "--scenario", str(shipped_path("fold_demo_plane")), "--json", str(out),
            "--radius", radius]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: --radius: {FIT}, got {float(radius)!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("key, bad, expected", [
    ("grid_resolution", 0, "an integer >= 1"),
    ("sigma_resolution", 1, "an integer >= 2"),
    ("saturate_horizon", 0.0, "a finite number > 0"),
    ("saturate_seeds_per_arc", 0, "an integer >= 1"),
    ("probe_horizon", -1.0, "a finite number > 0"),
    ("transitivity_pairs", 0, "an integer >= 1"),
    ("transitivity_budget", 0, "an integer >= 1"),
    ("disk_radius", -0.05, "a finite number > 0"),
    ("sensitivity_disk_radius", 0.0, "a finite number > 0"),
    ("sensitivity_budget", -3, "an integer >= 1"),
    ("sensitivity_horizon", 0.0, "a finite number > 0"),
    ("r_fraction", 0.0, "a finite number > 0"),
    ("cycle_windows", 0, "an integer >= 1"),
    ("window_radius", 0.0, "a finite number > 0"),
    ("graph_horizon", -2.0, "a finite number > 0"),
    ("graph_budget", 0, "an integer >= 1"),
    ("cycle_horizon", 0.0, "a finite number > 0"),
    ("dwell_grid", [0.0, -0.02], "a finite number >= 0"),
    ("grid_resolution", 4097, "at most 4096"),
    ("sigma_resolution", 65537, "at most 65536"),
])
def test_config_ranges_name_the_key(key, bad, expected, tmp_path, capsys):
    # a count of 0 or a radius <= 0 once made a vacuous verdict, an IndexError or a
    # false "inconclusive"; now loading and chaos_report both refuse it
    name = f"{key}[1]" if key == "dwell_grid" else key
    message = f"config.{name}: expected {expected}, got {bad[1] if key == 'dwell_grid' else bad!r}"
    data = json.loads(shipped_path("fold_demo_plane").read_text())
    data.setdefault("config", {})[key] = bad
    path, out = tmp_path / "bad.json", tmp_path / "report.json"
    path.write_text(json.dumps(data))
    assert main(["diagnose", "--scenario", str(path), "--json", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    system = load_shipped("fold_demo_plane").build_system()
    value = tuple(bad) if key == "dwell_grid" else bad
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        chaos_report(system, dataclasses.replace(DiagnosticsConfig(), **{key: value}))


@pytest.mark.parametrize("key, flag, command, value", [
    ("grid_resolution", "--grid", "saturate", 100000),  # 10 GB of coverage flags
    ("sigma_resolution", "--resolution", "classify", 10**8),  # some 90 GB of curve samples
])
@pytest.mark.parametrize("given_as", ["flag", "config"])
def test_a_resolution_above_its_bound_exits_2_before_it_allocates(key, flag, command, value,
                                                                   given_as, tmp_path):
    # the run is a child under a 1 GiB address-space limit, so a missing bound fails here
    # (as "error: MemoryError: ") and cannot take the machine's memory
    import resource

    import filippov

    bound = diagnostics.CONFIG_RANGES[key]
    path = shipped_path("sliding_belt_torus")
    argv = [command, "--scenario", str(path), "--json", str(tmp_path / "out.json")]
    if given_as == "flag":
        argv += [flag, str(value)]
        message = f"error: {flag}: expected {bound[-1][1]}, got {value}\n"
    else:
        data = json.loads(path.read_text())
        data.setdefault("config", {})[key] = value
        argv[2] = str(tmp_path / "big.json")
        Path(argv[2]).write_text(json.dumps(data))
        message = f"error: config.{key}: expected {bound[-1][1]}, got {value}\n"
    if command == "saturate":
        argv += ["--horizon", "1"]
    env = dict(os.environ, PYTHONPATH=str(Path(filippov.__file__).resolve().parents[1]))
    limit = (1 << 30, 1 << 30)
    with time_limit(60):
        proc = subprocess.run([sys.executable, "-m", "filippov.cli", *argv], env=env,
                              capture_output=True, text=True,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit))
    assert (proc.returncode, proc.stderr) == (2, message)
    assert not (tmp_path / "out.json").exists()


def test_an_orbit_past_its_step_bound_exits_2(tmp_path):
    # --horizon 1e300 used to run on to MAX_SEGMENTS segments, millions of steps and samples;
    # the run is a child under a 1 GiB address-space limit
    import resource

    import filippov

    argv = ["orbit", "--scenario", str(shipped_path("rotation_plane")), "--start", "0.3,0.2",
            "--horizon", "1e300", "--json", str(tmp_path / "out.json")]
    env = dict(os.environ, PYTHONPATH=str(Path(filippov.__file__).resolve().parents[1]))
    limit = (1 << 30, 1 << 30)
    with time_limit(120):
        proc = subprocess.run([sys.executable, "-m", "filippov.cli", *argv], env=env,
                              capture_output=True, text=True,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit))
    message = (f"error: orbit took {integrate.MAX_ORBIT_STEPS} accepted steps, its bound: "
               "use a shorter --horizon or a larger integrator.max_step\n")
    assert (proc.returncode, proc.stderr) == (2, message)
    assert not (tmp_path / "out.json").exists()


def test_an_orbit_past_its_sample_bound_exits_2(tmp_path):
    # at the smallest sample_spacing the loader allows, each step's chord is cut into hundreds of
    # samples, and the orbit used to end in "error: MemoryError: " before its step bound; the run
    # is a child under a 1 GiB address-space limit
    import resource

    import filippov

    data = json.loads(shipped_path("rotation_plane").read_text())
    data["integrator"] = {"sample_spacing": 2e-5}  # the least the loader allows on the 2 x 2 domain
    path = tmp_path / "fine.json"
    path.write_text(json.dumps(data))
    argv = ["orbit", "--scenario", str(path), "--start", "0.3,0.2", "--horizon", "1e300",
            "--json", str(tmp_path / "out.json")]
    env = dict(os.environ, PYTHONPATH=str(Path(filippov.__file__).resolve().parents[1]))
    limit = (1 << 30, 1 << 30)
    with time_limit(120):
        proc = subprocess.run([sys.executable, "-m", "filippov.cli", *argv], env=env,
                              capture_output=True, text=True,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit))
    message = (f"error: orbit stores more than {integrate.MAX_ORBIT_SAMPLES} samples, its bound: "
               "use a larger integrator.sample_spacing or a shorter --horizon\n")
    assert (proc.returncode, proc.stderr) == (2, message)
    assert not (tmp_path / "out.json").exists()


def test_the_resolution_bounds_sit_far_above_every_shipped_value():
    grid, sigma = diagnostics.GRID_RESOLUTION_MAX, diagnostics.SIGMA_RESOLUTION_MAX
    for name in list_shipped():
        cfg = load_shipped(name).config
        assert 100 * cfg.grid_resolution <= grid and 100 * cfg.sigma_resolution <= sigma
    domain = load_shipped("sliding_belt_torus").build_system().domain
    DiagnosticsConfig(grid_resolution=grid, sigma_resolution=sigma).check(domain)  # the bounds pass


@pytest.mark.parametrize("key", ["sample_spacing", "max_step"])
def test_a_step_setting_below_its_bound_exits_2_before_it_runs(key, tmp_path):
    # at 1e-9 the orbit's samples used to exhaust memory ("error: MemoryError: "), and its
    # steps to run on for hours; the run is a child under a 1 GiB address-space limit
    import resource

    import filippov

    data = json.loads(shipped_path("rotation_plane").read_text())
    data["integrator"] = {key: 1e-9}
    path = tmp_path / "fine.json"
    path.write_text(json.dumps(data))
    argv = ["orbit", "--scenario", str(path), "--start", "0.3,0.2", "--horizon", "2",
            "--json", str(tmp_path / "out.json")]
    env = dict(os.environ, PYTHONPATH=str(Path(filippov.__file__).resolve().parents[1]))
    limit = (1 << 30, 1 << 30)
    with time_limit(60):
        proc = subprocess.run([sys.executable, "-m", "filippov.cli", *argv], env=env,
                              capture_output=True, text=True,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit))
    least = scenario.MIN_STEP_FRACTION * 2.0  # the domain is 2 x 2
    message = (f"error: integrator.{key}: expected at least {least!r}, "
               f"{scenario.MIN_STEP_FRACTION!r} of the shorter side of the domain, got 1e-09\n")
    assert (proc.returncode, proc.stderr) == (2, message)
    assert not (tmp_path / "out.json").exists()


def test_the_step_bound_sits_far_below_the_defaults():
    # the defaults are 1/16 and 1/64 of the shorter side, and no shipped scenario sets either
    assert 100 * scenario.MIN_STEP_FRACTION <= 1 / 64
    for name in list_shipped():
        data = json.loads(shipped_path(name).read_text())
        assert {"max_step", "sample_spacing"}.isdisjoint(data.get("integrator", {}))
        domain = load_shipped(name).build_system().domain
        least = scenario.MIN_STEP_FRACTION * min(domain.width, domain.height)
        data["integrator"] = {"max_step": least, "sample_spacing": least}
        assert scenario_from_dict(data).integrator.max_step == least  # the bound itself passes
