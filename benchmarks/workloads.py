"""Workload definitions: inputs generated from the seed, the entry call, output checks.

Each workload drives the same public calls as the ``filippov`` CLI:

* ``diagnose`` workloads: ``load_scenario`` -> ``build_system`` -> ``chaos_report``;
* ``saturate`` workloads: ``load_scenario`` -> ``build_system`` ->
  ``sigma_decomposition`` -> ``sigma_seed_points`` -> ``saturate``.

The seed selects one of ``INPUT_COUNT`` inputs (``index = seed % INPUT_COUNT``),
so the outputs the seed commit gave at every index can be recorded in
``expected.json`` and checked on every run, whatever seed the run gets.

This module imports ``filippov`` only inside functions, so ``run.py`` can list
workloads and check names without loading the program.  Program functions are
looked up through their modules at call time, so the tracer's patches apply.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

INPUT_COUNT = 15
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
CYCLE_GAP_TOL = 1e-6  # criterion-6 endpoint gap of a closed orbit


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    entry: str  # "diagnose" | "saturate"
    # DiagnosticsConfig overrides that shrink the shipped budgets to run length
    config: dict = field(default_factory=dict)

    @property
    def check_names(self):
        if self.entry == "saturate":
            return ("expected", "coverage")
        return ("expected", "verdict", "saturation", "transitivity", "sensitivity", "cycles")


WORKLOADS = {
    w.name: w
    for w in (
        # Regular-arc stepping dominates (saturation, then branch enumeration
        # for the segment graph); the seed moves every probe disk and window.
        Workload(
            "torus_chaos", "chaotic_torus", "diagnose",
            {
                "saturate_seeds_per_arc": 1,
                "saturate_horizon": 15.0,
                "transitivity_pairs": 3,
                "probe_horizon": 25.0,
                "sensitivity_budget": 2,
                "sensitivity_horizon": 25.0,
                "graph_budget": 4,
                "graph_horizon": 15.0,
                "cycle_windows": 2,
                "cycle_horizon": 40.0,
            },
        ),
        # Sliding and coverage marking dominate; the seed moves the seed points
        # along the arcs (index 7 is the shipped layout).
        Workload(
            "belt_saturate", "sliding_belt_torus", "saturate",
            {"saturate_seeds_per_arc": 16, "saturate_horizon": 8.0},
        ),
        # Negative control: cheap linear fields, no sliding, no forks, no
        # saturation; transitivity probes are almost all of the run.  Many
        # one-orbit probes, and few sensitivity pairs from the one sensitivity
        # disk, keep the cost of one input close to that of another: an orbit
        # runs the full horizon only when it starts inside the unit circle.
        Workload(
            "rotation_probe", "rotation_plane", "diagnose",
            {"transitivity_pairs": 96, "transitivity_budget": 1, "sensitivity_budget": 2},
        ),
        # Tiny input for the benchmark's self-test; not a measured workload.
        Workload(
            "fold_smoke", "fold_demo_plane", "diagnose",
            {
                "saturate_horizon": 5.0,
                "saturate_seeds_per_arc": 2,
                "transitivity_pairs": 2,
                "transitivity_budget": 4,
                "sensitivity_budget": 2,
                "cycle_windows": 1,
                "graph_budget": 8,
                "graph_horizon": 10.0,
                "cycle_horizon": 10.0,
            },
        ),
    )
}


def input_index(seed: int) -> int:
    return seed % INPUT_COUNT


@dataclass
class Inputs:
    workload: Workload
    index: int
    scenario: object
    system: object
    config: object


def setup(workload: Workload, index: int) -> Inputs:
    """Parse, compile and validate the scenario; apply the seed's inputs."""
    from filippov import scenario as scenario_mod

    scenario = scenario_mod.load_scenario(scenario_mod.shipped_path(workload.scenario))
    system = scenario.build_system()
    cfg = scenario.config
    for key, value in workload.config.items():
        setattr(cfg, key, value)
    if workload.entry == "diagnose":
        cfg.seed = index
    return Inputs(workload, index, scenario, system, cfg)


def saturate_seeds(inputs: Inputs):
    """Seed points at offset (index + 0.5) / INPUT_COUNT of each arc spacing."""
    from filippov import diagnostics, sigma

    system, cfg = inputs.system, inputs.config
    decs = [sigma.sigma_decomposition(system, c.id, cfg.sigma_resolution) for c in system.curves]
    fine = diagnostics.sigma_seed_points(
        system, decs, per_arc=cfg.saturate_seeds_per_arc * INPUT_COUNT
    )
    return fine[inputs.index::INPUT_COUNT]


def run(inputs: Inputs) -> dict:
    """The workload's entry call; returns a JSON-ready output."""
    from filippov import diagnostics

    system, cfg, opts = inputs.system, inputs.config, inputs.scenario.integrator
    if inputs.workload.entry == "diagnose":
        return diagnostics.chaos_report(system, cfg, opts=opts)
    seeds = saturate_seeds(inputs)
    cov = diagnostics.saturate(
        system, seeds, cfg.saturate_horizon, diagnostics._saturate_policies(cfg.dwell_grid),
        grid_resolution=cfg.grid_resolution, opts=opts,
    )
    out = cov.to_dict()
    out["seed_points"] = len(seeds)
    out["hits"] = "".join("1" if h else "0" for h in cov.hits.ravel())
    return out


def digest(output: dict) -> str:
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


def signature(workload: Workload, output: dict) -> dict:
    """The part of an output recorded in expected.json at the seed commit."""
    if workload.entry == "saturate":
        return {key: output[key] for key in ("hit_cells", "resolution", "seed_points")}
    sat = output["saturation"]
    return {
        "verdict": output["verdict"],
        "ingredients": output["ingredients"],
        "hypothesis": output["hypothesis"]["sliding_or_escaping_nonempty"],
        "hit_cells": None if sat is None else sat["hit_cells"],
    }


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def check(inputs: Inputs, output: dict, expected: dict) -> list:
    """Every check is one operation: a list of (name, ok, detail)."""
    workload = inputs.workload
    want = expected.get(workload.name, {}).get(str(inputs.index))
    got = signature(workload, output)
    results = [("expected", want == got, None if want == got else {"want": want, "got": got})]
    if workload.entry == "saturate":
        results += _check_saturate(inputs, output)
    else:
        results += _check_diagnose(inputs, output)
    return results


def _check_saturate(inputs, output):
    cfg = inputs.config
    cells = cfg.grid_resolution ** 2
    return [
        ("coverage", output["resolution"] == cfg.grid_resolution and output["hit_cells"] == cells
         and output["hits"].count("1") == cells, output["hit_cells"]),
    ]


def _check_diagnose(inputs, output):
    from filippov import diagnostics
    from filippov.integrate import BranchPolicy

    system, cfg = inputs.system, inputs.config
    ing = output["ingredients"]
    hypothesis = output["hypothesis"]["sliding_or_escaping_nonempty"]
    if all(ing.values()):
        verdict = "chaotic at budget"
    elif not hypothesis:
        verdict = "not chaotic (hypothesis absent)"
    else:
        verdict = "not chaotic at budget (inconclusive)"
    results = [("verdict", output["verdict"] == verdict, output["verdict"])]

    sat = output["saturation"]
    if hypothesis:
        ok = sat is not None and sat["resolution"] == cfg.grid_resolution and 0 < sat["hit_cells"]
    else:
        ok = sat is None
    results.append(("saturation", ok, sat))

    tr = output["transitivity"]
    found = sum(1 for p in tr["pairs"] if p["found"])
    ok = (tr["total"] == cfg.transitivity_pairs == len(tr["pairs"]) and tr["found"] == found
          and tr["positive"] == (found == tr["total"]) == ing["transitive"])
    results.append(("transitivity", ok, f"{tr['found']}/{tr['total']}"))

    sens = output["sensitivity"]
    w = sens["witness"]
    r = cfg.r_fraction * system.domain.diameter()
    ok = sens["r"] == r and sens["positive"] == w["found"] == ing["sensitive"]
    if ok and w["found"]:
        witness = diagnostics.SensitivityWitness(
            tuple(w["x"]), tuple(w["y"]), _policy(BranchPolicy, w["policy_x"]),
            _policy(BranchPolicy, w["policy_y"]), w["t"], w["separation"],
            cfg.sensitivity_horizon,
        )
        ok = w["separation"] > r and witness.revalidate(system, inputs.scenario.integrator)
    results.append(("sensitivity", ok, w.get("separation")))

    dp = output["dense_periodicity"]
    windows = dp["windows"]
    ok = dp["positive"] == ing["dense_periodic"]
    if hypothesis and windows:
        ok = ok and len(windows) == cfg.cycle_windows
    for win in windows:
        if win["found"]:
            ok = ok and win["record"]["endpoint_gap"] <= CYCLE_GAP_TOL
    results.append(("cycles", ok, sum(1 for win in windows if win["found"])))
    return results


def _policy(policy_cls, text):
    """Inverse of BranchPolicy.describe()."""
    if text.startswith("dwell_then_exit("):
        dwell, side = text[len("dwell_then_exit("):-1].split(",")
        return policy_cls.dwell_exit(float(dwell), side)
    return policy_cls(text)
