"""Command-line interface: scenario loading, dispatch, artifact emission.

Exit codes: 0 success, 1 inconclusive diagnostics, 2 errors.  All randomness
flows from the scenario seed (or --seed override) so that identical argv and
scenario produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import random
import sys

from .diagnostics import (
    build_segment_graph,
    chaos_report,
    saturate,
    sigma_seed_points,
    _random_disk,
    _saturate_policies,
    _window_cycles,
)
from .errors import FilippovError
from .integrate import BranchPolicy, integrate_filippov
from .portrait import PortraitData, PortraitSpec, render_portrait
from .scenario import load_scenario
from .sigma import sigma_decomposition

log = logging.getLogger("filippov")

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_ERROR = 2


def _setup_logging():
    level = os.environ.get("FILIPPOV_LOG", "WARNING").upper()
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _dump_json(payload, path):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _parse_point(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise FilippovError(f"expected 'x,y', got {text!r}")
    return (float(parts[0]), float(parts[1]))


def _parse_policy(text):
    if text is None:
        return BranchPolicy.slide_on()
    name, _, arg = text.partition(":")
    if name in ("exit_immediately_up", "exit_up"):
        return BranchPolicy.exit_up()
    if name in ("exit_immediately_down", "exit_down"):
        return BranchPolicy.exit_down()
    if name in ("slide_until_tangency", "slide_on"):
        return BranchPolicy.slide_on()
    if name in ("dwell_then_exit", "dwell"):
        params = dict(p.split("=") for p in arg.split(",") if p)
        return BranchPolicy.dwell_exit(
            float(params.get("dwell", 0.0)),
            "positive" if params.get("side", "up") in ("up", "positive") else "negative",
        )
    raise FilippovError(f"unknown policy {text!r}")


def _cmd_classify(args):
    scenario = load_scenario(args.scenario)
    sys_ = scenario.build_system()
    dec = sigma_decomposition(sys_, args.curve, args.resolution)
    _dump_json(dec.to_dict(), args.json)
    return EXIT_OK


def _cmd_orbit(args):
    scenario = load_scenario(args.scenario)
    sys_ = scenario.build_system()
    orbit = integrate_filippov(
        sys_, _parse_point(args.start), args.horizon,
        direction=args.direction, policy=_parse_policy(args.policy),
        opts=scenario.integrator,
    )
    if args.csv:
        with open(args.csv, "w") as fh:
            orbit.write_csv(fh)
    _dump_json(orbit.to_json_dict(), args.json)
    return EXIT_OK


def _cmd_portrait(args):
    scenario = load_scenario(args.scenario)
    sys_ = scenario.build_system()
    decs = [sigma_decomposition(sys_, c.id, args.resolution) for c in sys_.curves]
    orbits = [integrate_filippov(sys_, _parse_point(start), args.horizon,
                                 policy=_parse_policy(args.policy), opts=scenario.integrator)
              for start in args.orbit_start or []]
    width, height = (int(v) for v in args.size.split("x"))
    spec = PortraitSpec(width=width, height=height, title=scenario.name)
    svg = render_portrait(spec, PortraitData(sys_.domain, decs, orbits))
    with open(args.svg, "w") as fh:
        fh.write(svg)
    return EXIT_OK


def _cmd_saturate(args):
    scenario = load_scenario(args.scenario)
    sys_ = scenario.build_system()
    cfg = scenario.config
    decs = [sigma_decomposition(sys_, c.id, cfg.sigma_resolution) for c in sys_.curves]
    seeds = sigma_seed_points(sys_, decs, per_arc=cfg.saturate_seeds_per_arc)
    if not seeds:
        _dump_json({"error": "no sliding or escaping arcs to seed from"}, args.json)
        return EXIT_INCONCLUSIVE
    grid = args.grid or cfg.grid_resolution
    horizon = args.horizon or cfg.saturate_horizon
    cov = saturate(sys_, seeds, horizon, _saturate_policies(cfg.dwell_grid),
                   grid_resolution=grid, opts=scenario.integrator)
    if args.csv:
        with open(args.csv, "w") as fh:
            cov.write_csv(fh)
    _dump_json(cov.to_dict(), args.json)
    return EXIT_OK


def _cmd_diagnose(args):
    scenario = load_scenario(args.scenario)
    sys_ = scenario.build_system()
    cfg = scenario.config
    if args.seed is not None:
        cfg.seed = args.seed
    report = chaos_report(sys_, cfg, opts=scenario.integrator)
    _dump_json(report, args.json)
    return EXIT_OK if report["verdict"] == "chaotic at budget" else EXIT_INCONCLUSIVE


def _cmd_cycles(args):
    scenario = load_scenario(args.scenario)
    sys_ = scenario.build_system()
    cfg = scenario.config
    if args.seed is not None:
        cfg.seed = args.seed
    rng = random.Random(cfg.seed)
    radius = args.radius or cfg.window_radius
    windows = [_random_disk(rng, sys_.domain, radius)
               for _ in range(args.windows or cfg.cycle_windows)]
    decs = [sigma_decomposition(sys_, c.id, cfg.sigma_resolution) for c in sys_.curves]
    graph = build_segment_graph(
        sys_, decs, windows=windows, horizon=cfg.graph_horizon, budget=cfg.graph_budget,
        opts=scenario.integrator, dwell_grid=cfg.dwell_grid,
    )
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(graph.to_dot() + "\n")
    cycles = _window_cycles(graph, sys_, cfg.cycle_horizon, scenario.integrator)
    _dump_json({"graph": graph.to_dict(), "cycles": cycles}, args.json)
    all_found = bool(graph.nodes_of_kind("sliding_anchor")) and all(c["found"] for c in cycles)
    return EXIT_OK if all_found and cycles else EXIT_INCONCLUSIVE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="filippov",
        description="Simulation and analysis of planar Filippov systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decompose a switching curve by point class")
    p.add_argument("--scenario", required=True)
    p.add_argument("--curve", type=int, default=0)
    p.add_argument("--resolution", type=int, default=2000)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("orbit", help="integrate one Filippov orbit")
    p.add_argument("--scenario", required=True)
    p.add_argument("--start", required=True, help="x,y")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--direction", choices=("forward", "backward"), default="forward")
    p.add_argument("--policy", default=None,
                   help="exit_up | exit_down | slide_on | dwell:dwell=0.1,side=up")
    p.add_argument("--csv", default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("portrait", help="render an SVG phase portrait")
    p.add_argument("--scenario", required=True)
    p.add_argument("--resolution", type=int, default=800)
    p.add_argument("--orbit-start", action="append", default=None)
    p.add_argument("--horizon", type=float, default=20.0)
    p.add_argument("--policy", default=None)
    p.add_argument("--size", default="640x640")
    p.add_argument("--svg", required=True)
    p.set_defaults(fn=_cmd_portrait)

    p = sub.add_parser("saturate", help="grid coverage of the sliding/escaping saturation")
    p.add_argument("--scenario", required=True)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=_cmd_saturate)

    p = sub.add_parser("diagnose", help="full chaos-ingredient report")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=_cmd_diagnose)

    p = sub.add_parser("cycles", help="closed orbits through random windows")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--windows", type=int, default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--dot", default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=_cmd_cycles)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (FilippovError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except Exception as exc:  # an unexpected failure is an error, never "inconclusive"
        log.debug("unexpected failure", exc_info=True)
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
