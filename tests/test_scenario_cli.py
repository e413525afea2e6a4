import json

import pytest

from filippov.cli import main
from filippov.errors import ConfigurationError
from filippov.scenario import list_shipped, load_scenario, load_shipped, shipped_path


def test_shipped_scenarios_present():
    names = list_shipped()
    assert "sliding_belt_torus.json" in names
    assert "chaotic_torus.json" in names
    assert "rotation_plane.json" in names
    assert "fold_demo_plane.json" in names


def test_load_sliding_belt():
    scenario = load_shipped("sliding_belt_torus")
    assert scenario.name == "sliding_belt_torus"
    assert len(scenario.curve_defs) == 1
    assert len(scenario.region_defs) == 2
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
        (lambda d: d["regions"][1].update(where=["y < 0.5"]),
         r"regions\[1\]\.where\[0\]: expected an object"),
        (lambda d: d["regions"][0]["where"][0].update(curve="zero"),
         r"regions\[0\]\.where\[0\]\.curve: expected a number"),
        (lambda d: d["domain"].update(bounds=[0, 1, "low", 1]),
         r"domain\.bounds\[2\]: expected a number"),
        (lambda d: d["parameters"].update(a="big"), r"parameters\.a: expected a number"),
        (lambda d: d["curves"][0].update(id=[0]), r"curves\[0\]\.id: expected a number"),
        (lambda d: d["regions"][1].update(id="two"), r"regions\[1\]\.id: expected a number"),
        (lambda d: d.update(name=5), r"scenario\.name: expected str"),
        (lambda d: d.update(parameters=[1]), r"scenario\.parameters: expected dict"),
        (lambda d: d.update(config=[1]), r"scenario\.config: expected dict"),
        (lambda d: d.update(integrator=[1]), r"scenario\.integrator: expected dict"),
        (lambda d: d.update(integrator={"max_step": "big"}),
         r"integrator\.max_step: expected a number, got 'big'"),
        (lambda d: d.update(integrator={"sample_spacing": 0}),
         r"integrator\.sample_spacing: expected a positive number"),
        (lambda d: d.update(config={"to_dict": 1}), r"config\.to_dict: not a diagnostics setting"),
        (lambda d: d.update(config={"grid_resolution": "fine"}),
         r"config\.grid_resolution: expected a number, got 'fine'"),
        (lambda d: d.update(config={"dwell_grid": 0.1}), r"config\.dwell_grid: expected list"),
        (lambda d: d.update(config={"dwell_grid": [0.0, "long"]}),
         r"config\.dwell_grid\[1\]: expected a number"),
        (lambda d: d.update(config={"ms_interpretation": "both"}),
         r"config\.ms_interpretation: expected one of \['sliding_and_escaping', 'sliding_only'\]"),
    ]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario()))
    load_scenario(path)  # the unedited scenario loads
    for edit, message in cases:
        data = scenario()
        edit(data)
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match=message):
            load_scenario(path)
    path.write_text(json.dumps([scenario()]))
    with pytest.raises(ConfigurationError, match=r"scenario: expected an object"):
        load_scenario(path)


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
