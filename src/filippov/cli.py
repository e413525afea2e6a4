"""Command-line interface: scenario loading, dispatch, artifact emission.

Exit codes: 0 success, 1 inconclusive diagnostics, 2 errors.  All randomness
flows from the scenario seed (or --seed override) so that identical argv and
scenario produce byte-identical artifacts.

``FILIPPOV_LOG`` sets the level of the log on stderr: a level name of the
``logging`` module in any case (DEBUG, INFO, WARNING or WARN, ERROR, CRITICAL or
FATAL, NOTSET).  It is WARNING when the variable is unset or empty; any other
value is an error (exit code 2).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import random
import sys
from dataclasses import replace

from .diagnostics import (
    CONFIG_RANGES,
    COUNT,
    POSITIVE,
    chaos_report,
    cycles_phase,
    disk_fit,
    graph_phase,
    saturate_phase,
    saturation_seeds,
    sigma_phase,
)
from .errors import ConfigurationError, FilippovError
from .integrate import BranchPolicy, integrate_filippov
from .portrait import MARGIN, PortraitData, PortraitSpec, render_portrait
from .scenario import load_scenario
from .sigma import sigma_decomposition

log = logging.getLogger("filippov")

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_ERROR = 2


def _setup_logging():
    name = os.environ.get("FILIPPOV_LOG") or "WARNING"
    level = getattr(logging, name.upper(), None)
    if type(level) is not int:  # logging.BASIC_FORMAT is a string, not a level
        raise ConfigurationError(f"FILIPPOV_LOG: expected a logging level name such as INFO, got {name!r}")
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s")


def _dump_json(payload, path):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _parse_pair(text, flag, sep, convert, valid, expected):
    """The two values of ``text`` split at ``sep``, or a ConfigurationError that names the flag."""
    try:
        a, b = (convert(v) for v in text.split(sep))
        if valid(a) and valid(b):
            return a, b
    except ValueError:
        pass
    raise ConfigurationError(f"{flag}: expected {expected}, got {text!r}")


def _parse_point(text, flag):
    return _parse_pair(text, flag, ",", float, math.isfinite, "two finite numbers 'x,y'")


def _flag(value, default, flag, *checks):
    """``value`` when the flag was given, passing each check in turn; else ``default``."""
    for valid, expected in checks:
        if value is not None and not valid(value):
            raise ConfigurationError(f"{flag}: expected {expected}, got {value!r}")
    return default if value is None else value


def _load(args):
    """The scenario named by ``--scenario``, its system, and its config with ``--seed`` applied."""
    scenario = load_scenario(args.scenario)
    cfg = scenario.config
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    return scenario, scenario.build_system(), cfg


_SIDES = {"up": "positive", "positive": "positive", "down": "negative", "negative": "negative"}


def _parse_policy(text):
    name, _, arg = (text or "slide_on").partition(":")
    if name in ("exit_immediately_up", "exit_up"):
        return BranchPolicy.exit_up()
    if name in ("exit_immediately_down", "exit_down"):
        return BranchPolicy.exit_down()
    if name in ("slide_until_tangency", "slide_on"):
        return BranchPolicy.slide_on()
    if name in ("dwell_then_exit", "dwell"):
        try:
            params = dict(p.split("=") for p in arg.split(",") if p)
            if params.keys() <= {"dwell", "side"}:
                dwell = float(params.get("dwell", 0.0))
                return BranchPolicy.dwell_exit(dwell, _SIDES[params.get("side", "up")])
        except (ValueError, KeyError, ConfigurationError):
            pass
        raise ConfigurationError(
            f"--policy: expected 'dwell:dwell=T,side=up|down' with a finite T >= 0, got {text!r}")
    raise ConfigurationError(f"--policy: unknown policy {text!r}")


def _cmd_classify(args):
    scenario, sys_, _ = _load(args)
    ids = [c.id for c in sys_.curves]
    if args.curve not in ids:
        raise ConfigurationError(
            f"--curve: no curve has id {args.curve} (ids: {', '.join(map(str, ids))})")
    resolution = _flag(args.resolution, None, "--resolution", CONFIG_RANGES["sigma_resolution"])
    dec = sigma_decomposition(sys_, args.curve, resolution)
    _dump_json(dec.to_dict(), args.json)
    return EXIT_OK


def _cmd_orbit(args):
    scenario, sys_, _ = _load(args)
    horizon = _flag(args.horizon, None, "--horizon", POSITIVE)
    orbit = integrate_filippov(
        sys_, _parse_point(args.start, "--start"), horizon,
        direction=args.direction, policy=_parse_policy(args.policy),
        opts=scenario.integrator,
    )
    if args.csv:
        with open(args.csv, "w") as fh:
            orbit.write_csv(fh)
    _dump_json(orbit.to_json_dict(), args.json)
    return EXIT_OK


def _cmd_portrait(args):
    scenario, sys_, _ = _load(args)
    resolution = _flag(args.resolution, None, "--resolution", CONFIG_RANGES["sigma_resolution"])
    horizon = _flag(args.horizon, None, "--horizon", POSITIVE)
    width, height = _parse_pair(args.size, "--size", "x", int, lambda v: v > 0,
                                "two positive integers 'WxH'")
    if not min(width, height) > 2 * MARGIN:  # the frame would be mirrored or a point
        raise ConfigurationError(f"--size: expected each side above {2 * MARGIN} px, "
                                 f"the two {MARGIN} px margins, got {args.size!r}")
    decs = [sigma_decomposition(sys_, c.id, resolution) for c in sys_.curves]
    orbits = [integrate_filippov(sys_, _parse_point(start, "--orbit-start"), horizon,
                                 policy=_parse_policy(args.policy), opts=scenario.integrator)
              for start in args.orbit_start or []]
    spec = PortraitSpec(width=width, height=height, title=scenario.name)
    svg = render_portrait(spec, PortraitData(sys_.domain, decs, orbits))
    with open(args.svg, "w") as fh:
        fh.write(svg)
    return EXIT_OK


def _cmd_saturate(args):
    scenario, sys_, cfg = _load(args)
    cfg = replace(cfg, grid_resolution=_flag(args.grid, cfg.grid_resolution, "--grid", COUNT),
                  saturate_horizon=_flag(args.horizon, cfg.saturate_horizon, "--horizon", POSITIVE))
    seeds = saturation_seeds(sys_, sigma_phase(sys_, cfg), cfg)
    if not seeds:
        _dump_json({"error": "no sliding or escaping arcs to seed from"}, args.json)
        return EXIT_INCONCLUSIVE
    cov = saturate_phase(sys_, seeds, cfg, scenario.integrator)
    if args.csv:
        with open(args.csv, "w") as fh:
            cov.write_csv(fh)
    _dump_json(cov.to_dict(), args.json)
    return EXIT_OK


def _cmd_diagnose(args):
    scenario, sys_, cfg = _load(args)
    report = chaos_report(sys_, cfg, opts=scenario.integrator)
    _dump_json(report, args.json)
    return EXIT_OK if report["verdict"] == "chaotic at budget" else EXIT_INCONCLUSIVE


def _cmd_cycles(args):
    scenario, sys_, cfg = _load(args)
    radius = _flag(args.radius, cfg.window_radius, "--radius", POSITIVE, disk_fit(sys_.domain))
    cfg = replace(cfg, window_radius=radius,
                  cycle_windows=_flag(args.windows, cfg.cycle_windows, "--windows", COUNT))
    graph = graph_phase(sys_, sigma_phase(sys_, cfg), cfg, random.Random(cfg.seed), scenario.integrator)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(graph.to_dot() + "\n")
    cycles = cycles_phase(graph, sys_, cfg, scenario.integrator)
    _dump_json({"graph": graph.to_dict(), "cycles": cycles}, args.json)
    return EXIT_OK if cycles and all(c["found"] for c in cycles) else EXIT_INCONCLUSIVE


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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        _setup_logging()
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
