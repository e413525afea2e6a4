"""Sliding arcs through the generated loop against the stepper loop they replaced.

``integrate_sliding`` steps in the generated loop ``integrate._sliding_loop``,
which inlines the step control of the regular-arc loop, the sliding field, the
projection onto the curve and the sample emission;
``regular_reference.reference_integrate_sliding`` is the loop it replaced,
which stepped with ``ReferenceStepper.propose`` and restarted the stepper at
each projected point.  On seeded starts on the
sliding and escaping arcs of the shipped scenarios, and on cases that end in
each exit, both must return the same segment times and points and the same
exit, bit for bit through ``float.hex`` (so -0.0 is not 0.0), or fail with the
same error; and both must evaluate every field equally often (the loop
inlines each field's text, so the ``calls`` fixture counts its reads through
the text hook, ``conftest.observe_loop_reads``).
"""

import math
import random
import re

import pytest

from filippov.errors import FilippovError, IntegrationError
from filippov.integrate import _EMIT_TO, IntegratorOptions, integrate_sliding
from filippov.scenario import load_shipped
from filippov.sigma import PointClass, sigma_decomposition
from filippov.system import Domain

from conftest import build_plane_system, time_limit
from regular_reference import reference_integrate_sliding

STARTS = 6  # seeded starts per arc and option set
OPTIONS = (None, IntegratorOptions(rtol=1e-7, atol=1e-9, sample_spacing=0.005))


def _bits(value):
    """A comparable image of nested tuples and lists of floats that tells -0.0 from 0.0."""
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, tuple(_bits(v) for v in value))
    return value.hex() if isinstance(value, float) else value


def _run(fn, calls, case, opts):
    sys_, curve_id, p, t_max, escaping = case
    calls.clear()
    try:
        seg, exit_info = fn(sys_, curve_id, p, t_max, opts, allow_escaping=escaping)
        out = (seg.kind, seg.curve_id, _bits(seg.times), _bits(seg.points), _bits(exit_info))
    except (FilippovError, ArithmeticError, ValueError) as exc:
        out = ("raises", type(exc).__name__, str(exc))
    return out, dict(calls)


def check(cases, calls, options=OPTIONS):
    """Each case (system, curve, start, t_max, allow_escaping) under each option set; the exit kinds."""
    kinds = []
    for opts in options:
        for case in cases:
            got = _run(integrate_sliding, calls, case, opts)
            assert got == _run(reference_integrate_sliding, calls, case, opts), (case[1:], opts)
            assert got[1], case[1:]  # the counters saw the calls
            kinds.append(got[0][0] if got[0][0] == "raises" else got[0][-1][1][0])
    return kinds


def _scaled_torus():
    system = load_shipped("chaotic_torus").build_system()
    return system.with_velocity_scale(lambda p: 0.75 + 0.5 * math.sin(2.0 * math.pi * p[0]) ** 2)


SYSTEMS = {
    "sliding_belt_torus": lambda: load_shipped("sliding_belt_torus").build_system(),
    "chaotic_torus": lambda: load_shipped("chaotic_torus").build_system(),
    "fold_demo_plane": lambda: load_shipped("fold_demo_plane").build_system(),
    "chaotic_torus:scaled": _scaled_torus,
}


def arc_starts(sys_, rng, count=STARTS, t_max=(0.2, 3.0)):
    """``count`` seeded cases on each sliding and escaping arc of every curve."""
    cases = []
    for curve in sys_.curves:
        dec = sigma_decomposition(sys_, curve.id, 512)
        for arc in dec.arcs_of_class(PointClass.SLIDING, PointClass.ESCAPING):
            component = dec.component_obj(arc)
            for _ in range(count):
                p = component.point_at(arc.s_start + rng.uniform(0.05, 0.95) * arc.length)
                cases.append((sys_, curve.id, p, rng.uniform(*t_max),
                              arc.point_class is PointClass.ESCAPING))
    return cases


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_arcs_of_shipped_scenarios(name, calls):
    sys_ = SYSTEMS[name]()
    cases = arc_starts(sys_, random.Random(name))
    kinds = check(cases, calls)
    assert "raises" not in kinds
    assert {"t_max", "tangency"} & set(kinds)


def test_every_exit(calls, pe_system):
    fold = load_shipped("fold_demo_plane").build_system()
    cases = [
        # a sliding arc of the belt runs to t_max, an escaping one too when allowed
        (SYSTEMS["sliding_belt_torus"](), 0, (0.3, 0.0), 2.0, False),
        (SYSTEMS["sliding_belt_torus"](), 0, (0.3, 0.5), 2.0, True),
        # ... and fails when not
        (SYSTEMS["sliding_belt_torus"](), 0, (0.3, 0.5), 2.0, False),
        # the fold at the origin ends the arc
        (fold, 0, (-1.0, 0.0), 5.0, False),
        # anti-parallel fields meet at a pseudo-equilibrium
        (pe_system, 0, (1.0, 0.0), 60.0, False),
        # backward, the fold's sliding arc escapes through the rectangle's left edge
        (fold.reversed(), 0, (-1.0, 0.0), 20.0, True),
        # L1 = x - 1 and L2 = 2 - 2x vanish together at the two-fold x = 1
        (build_plane_system(("1", "x - 1"), ("1", "2 - 2*x")), 0, (0.0, 0.0), 5.0, False),
        # a crossing point cannot slide
        (fold, 0, (1.0, 0.0), 1.0, False),
    ]
    kinds = check(cases, calls)
    assert kinds[:len(cases)] == ["t_max", "t_max", "raises", "tangency", "pseudo_eq", "left_domain",
                                  "tangency", "raises"]
    # with a small max_step, the arc stops at |Z_s| * dt_next < 1e-14 before |Z_s| <= PE_NORM_TOL
    assert check([(pe_system, 0, (1.5e-10, 0.0), 1.0, False)], calls,
                 options=(IntegratorOptions(max_step=5e-5),)) == ["pseudo_eq"]


def test_creeping_sliding_arc_fails_at_its_step_limit():
    # h = y slides on Z_s = (1 / (0.5 - x), 0), which reaches x = 0.5 at infinite speed;
    # past it the steps shrink to about 1e-11 and t stalls near 0.125
    sys_ = build_plane_system(("1 / (0.5 - x)", "-1"), ("1 / (0.5 - x)", "1"))
    opts = IntegratorOptions(rtol=1e-7, atol=1e-9, sample_spacing=0.005)
    with time_limit(30), pytest.raises(IntegrationError, match="accepted steps and reached only"):
        integrate_sliding(sys_, 0, (0.0, 0.0), 4.0, opts)


def test_error_paths(calls):
    # each error the loop raises inline, against the reference's type, message and raw calls
    cases = {
        # h = y - x^2 with L2 - L1 = 2 exp(-(h / 1e-9)^2): 2 on the curve, 0 at the stages off it
        "UndefinedSlidingError": build_plane_system(
            ("1", "2*x - 1"), ("1", "2*x - 1 + 2 * exp(-((y - x^2) / 1e-9)^2)"), h="y - x^2"),
        # |grad h| = exp(-(x / 0.1)^2) on y = 0 falls below GRAD_MIN at x = 0.43, where the
        # Lie pair is still +-1000 |grad h|
        "ConfigurationError": build_plane_system(("1", "-1000"), ("1", "1000"), h="y * exp(-(x / 0.1)^2)"),
        # the arc slides to x = 0.3, past which sqrt(0.3 - x) fails
        "ValueError": build_plane_system(("1 + 1e-3 * sqrt(0.3 - x)", "-1"), ("1", "1")),
    }
    messages = {}
    for expected, sys_ in cases.items():
        for opts in OPTIONS:
            case = (sys_, 0, (0.0, 0.0), 5.0, False)
            got = _run(integrate_sliding, calls, case, opts)
            assert got == _run(reference_integrate_sliding, calls, case, opts), (expected, opts)
            assert got[0][:2] == ("raises", expected) and got[1]
            messages[expected] = got[0][2]
    # the undefined field is met at a stage, off the curve, and not at a restart on it
    x, y = map(float, re.search(r"at \((.*), (.*)\):", messages["UndefinedSlidingError"]).groups())
    assert abs(y - x * x) > 1e-12
    assert messages["ConfigurationError"].startswith("gradient of h degenerate near (0.")


def test_torus_wrap_is_domain_canonical():
    # the generated loops wrap torus points inline; here through the sliding emitter's last
    # point, on edges where floor's roundoff lands on the upper edge (-1e-17 wraps to 1.0)
    rng = random.Random(3)
    for domain in (Domain("flat_torus", 0.0, 1.0, 0.0, 1.0), Domain("flat_torus", -0.5, 1.5, -math.pi, math.pi)):
        lo, hi, width = domain.x_min, domain.x_max, domain.width
        values = [lo, hi, -0.0, lo - 1e-17, hi - 1e-17, hi + 1e-17, lo - 3 * width, hi + 5 * width,
                  lo - width * (1 + 2 ** -52), 1e15 + 0.1] + [rng.uniform(-40.0, 40.0) for _ in range(500)]
        for x in values:
            for y in (x, values[rng.randrange(len(values))]):
                times, pts = [0.0], [(lo, domain.y_min)]
                _EMIT_TO[True](x, y, 1.0, times, pts, math.inf, math.inf, domain)
                assert _bits(pts[-1]) == _bits(domain.canonical((x, y))), (x, y)
