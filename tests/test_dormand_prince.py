"""The generated Dormand-Prince kernels against the tableau loops they unroll.

``reference_rk_step`` and ``reference_at`` (in ``regular_reference``) are the
Runge-Kutta step and ``_DenseStep.at`` as they were before the kernels were
generated as straight lines, and ``ReferenceStepper.propose`` is the step
control that the one ``accepted_step`` piece of the regular-arc and the
sliding-arc loop unrolls.  On seeded random points and step sizes, for the
regular field of every region of the shipped scenarios, the sliding field and
velocity-scaled fields, each kernel must return exactly their bits: the
accepted steps of the regular-arc loop with all seven stages and the points of
their event grid, with the trial step capped by ``t_max`` or ``max_step``, and
the dense output at random theta.  The loop is written through
``integrate._REGULAR_SOURCE`` with a stage that calls the right-hand side, or
with the stage text a system writes for its region, scale included.  The
sliding-arc loop, which adds the projection onto the curve, is checked against
the stepper loop it replaced in ``tests/test_sliding_loop.py``.
"""

import itertools
import math
import random

import pytest

from filippov.diagnostics import rescale_tangency_freeze
from filippov.errors import IntegrationError, UndefinedSlidingError
from filippov.expr import LoopText, compiled
from filippov.integrate import _NAMES, _REGULAR_SOURCE, _THETA_GRID, IntegratorOptions, _DenseStep
from filippov.scenario import load_shipped
from filippov.system import Domain

from conftest import decompose, list_shipped
from regular_reference import (
    ReferenceStepper, reference_at, reference_rhs, reference_rk_step, reference_sliding_rhs,
)

SAMPLES = 500  # random (point, step size) pairs per right-hand side


# --------------------------------------------------------------------------- #
# right-hand sides and random inputs
# --------------------------------------------------------------------------- #


def _bits(value):
    """A comparable image of nested tuples and lists of floats that tells -0.0 from 0.0."""
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, tuple(_bits(v) for v in value))
    return value.hex() if isinstance(value, float) else value


def _regular_fields():
    for name in list_shipped():
        sys_ = load_shipped(name).build_system()
        for region in sys_.regions:
            yield f"{name}:region{region.id}", sys_, region
    fold = load_shipped("fold_demo_plane").build_system()
    for name, sys_ in (
        ("fold_demo_plane", rescale_tangency_freeze(fold, decompose(fold))),
        ("chaotic_torus", load_shipped("chaotic_torus").build_system().with_velocity_scale(
            lambda p: 0.75 + 0.5 * math.sin(2.0 * math.pi * p[0]) ** 2)),
    ):
        assert sys_.velocity_scale is not None
        for region in sys_.regions:
            yield f"{name}:scaled:region{region.id}", sys_, region


REGULAR = list(_regular_fields())


def _sliding_rhs():
    for name in ("sliding_belt_torus", "chaotic_torus"):
        sys_ = load_shipped(name).build_system()
        yield f"{name}:sliding", sys_, reference_sliding_rhs(sys_, 0)


CASES = [(name, sys_, reference_rhs(sys_, region.field)) for name, sys_, region in REGULAR]
CASES += list(_sliding_rhs())


def _inputs(sys_, rng, on_curve):
    """Seeded (x, y, dt): points of the domain (projected onto curve 0 for
    the sliding kernel) and step sizes from 1e-7 to 0.2, log-uniform."""
    d = sys_.domain
    curve = sys_.curves[0]
    while True:
        p = (rng.uniform(d.x_min, d.x_max), rng.uniform(d.y_min, d.y_max))
        if on_curve:
            p = curve.project(p, 3)
        yield p[0], p[1], 10.0 ** rng.uniform(-7.0, math.log10(0.2))


def _steps(name, sys_, rhs):
    """SAMPLES seeded (x, y, dt, k1) with k1 = rhs(x, y) defined."""
    rng = random.Random(name)
    inputs = _inputs(sys_, rng, name.endswith(":sliding"))
    out = []
    while len(out) < SAMPLES:
        x, y, dt = next(inputs)
        try:
            out.append((x, y, dt, rhs(x, y)))
        except UndefinedSlidingError:
            continue
    return out


# --------------------------------------------------------------------------- #
# the kernels against the loops
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("name, sys_, rhs", CASES, ids=[c[0] for c in CASES])
def test_rk_step_matches_the_tableau_loop(name, sys_, rhs):
    # the loop's step control against the stepper's tableau loop, with the trial step capped by
    # t_max or by max_step in a third of the cases each; the loop calls a component per stage
    rng = random.Random(name + ":caps")
    stage = called(lambda x, y: rhs(x, y)[0], lambda x, y: rhs(x, y)[1])
    for x, y, dt, k1 in _steps(name, sys_, rhs):
        cap = rng.choice((math.inf, dt * rng.uniform(0.1, 2.0)))
        limits = rng.choice(((cap, math.inf), (math.inf, cap), (math.inf, math.inf)))
        got = loop_steps(sys_.domain, stage, x, y, k1, dt, *limits)
        assert got == stepper_steps(rhs, x, y, k1, dt, *limits)


@pytest.mark.parametrize("name, sys_, rhs", CASES, ids=[c[0] for c in CASES])
def test_dense_output_matches_the_tableau_loop(name, sys_, rhs):
    rng = random.Random(name + ":theta")
    checked = 0
    for x, y, dt, k1 in _steps(name, sys_, rhs):
        try:
            ks = reference_rk_step(rhs, x, y, k1, dt)[2]
        except UndefinedSlidingError:
            continue
        step = _DenseStep(rng.uniform(0.0, 10.0), dt, x, y, ks)
        for theta in [rng.random() for _ in range(4)] + list(_THETA_GRID):
            assert _bits(step.at(theta)) == _bits(reference_at(step, theta))
        checked += 1
    assert checked > SAMPLES // 2


_SPECIAL = (0.0, -0.0, 1.0, -1.0, 5e-324, math.inf, -math.inf, math.nan)
_ZEROS = (0.0, -0.0)  # every sum of signed zeros is -0.0 only without its leading 0.0


def _special_field(values, seed):
    """A right-hand side that returns ``values`` in a seeded order, where a
    dropped ``0.0 +`` or zero coefficient shows."""
    component = _special_component(values, seed)
    return lambda x, y: (component(x, y), component(x, y))


def _special_component(values, seed):
    """The components of ``_special_field(values, seed)`` as one callable: the
    loop calls it as fx, then fy, taking the values in the same order."""
    rng = random.Random(seed)
    return lambda x, y: rng.choice(values)


def test_kernels_match_the_loops_on_signed_zeros_and_non_finite_values():
    rng = random.Random(11)
    for seed in range(4000):
        values = _ZEROS if seed % 2 else _SPECIAL
        x, y = rng.choice(values), rng.choice(values)
        k1 = (rng.choice(values), rng.choice(values))
        dt = rng.choice((1e-3, 0.0, -0.0, 1.0))
        ks = reference_rk_step(_special_field(values, seed), x, y, k1, dt)[2]
        step = _DenseStep(0.0, dt, x, y, ks)
        for theta in _THETA_GRID[1:-1] + (rng.random(),):
            assert _bits(step.at(theta)) == _bits(reference_at(step, theta))
        component = _special_component(values, seed)
        assert loop_steps(_PLANE, called(component, component), x, y, k1, dt) == \
            stepper_steps(_special_field(values, seed), x, y, k1, dt)


# --------------------------------------------------------------------------- #
# the regular-arc loop's steps and event grid against the stepper loop
# --------------------------------------------------------------------------- #

_OPTS = IntegratorOptions()
_PLANE = Domain("plane_rect", -1.0, 1.0, -1.0, 1.0)


def _image(step, grid):
    """A step's bits with each stage cut to its velocity, and its grid."""
    return _bits((step.t0, step.dt, step.x0, step.y0, tuple((k[0], k[1]) for k in step.ks), tuple(grid)))


def called(fx, fy):
    """A stage that calls ``fx`` and ``fy`` at its point, in that order."""
    return lambda text, px, py, vx, vy: [f"{vx} = {text.bind(fx)}({px}, {py})",
                                         f"{vy} = {text.bind(fy)}({px}, {py})"]


def inlined(sys_, region_id):
    """The region's stage as the system writes it for the generated loop: its field's text, scale applied."""
    return lambda text, px, py, vx, vy: sys_.stage((region_id,), px, py, ((vx, vy),), text.component, text.bind)


def loop_steps(domain, stage, x, y, k1, dt, t_max=math.inf, max_step=math.inf, count=2):
    """The first ``count`` steps the regular-arc loop accepts from (x, y) at t = 0, trying dt first.

    ``stage(text, px, py, vx, vy)`` writes the field's lines through ``text``, a
    ``LoopText``.  An unarmed curve with h = 1 everywhere makes every step a
    candidate, so the loop hands back each step with its event grid.
    """
    text = LoopText()
    source = _REGULAR_SOURCE(domain.kind == "flat_torus", lambda *point: stage(text, *point),
                             [lambda px, py: "1.0"])
    steps = compiled(source, "regular_steps", _NAMES, cache=True)(
        tuple(text.bound), [0.0], [], domain, _OPTS.rtol, _OPTS.atol,
        max_step, 1.0, t_max, (math.inf, math.inf), x, y, k1[0], k1[1], dt, [0.0], [(x, y)], [0])
    try:
        return [_image(step, grid) for step, grid, _ in itertools.islice(steps, count)]
    except (IntegrationError, UndefinedSlidingError) as exc:
        return ("raises", type(exc).__name__, str(exc))


def stepper_steps(rhs, x, y, k1, dt, t_max=math.inf, max_step=math.inf, count=2):
    """``loop_steps`` from the stepper: each accepted step and ``[start] + at(theta)`` on the grid."""
    stepper = ReferenceStepper(lambda x, y: k1, (x, y), _OPTS, max_step)
    stepper.f, stepper.dt = rhs, dt
    out = []
    try:
        while len(out) < count and stepper.t < t_max - 1e-14:
            step = stepper.propose(t_max - stepper.t)
            out.append(_image(step, step.grid()))
    except (IntegrationError, UndefinedSlidingError) as exc:
        return ("raises", type(exc).__name__, str(exc))
    return out


@pytest.mark.parametrize("name, sys_, region", REGULAR, ids=[c[0] for c in REGULAR])
def test_loop_steps_and_grid_match_the_stepper(name, sys_, region):
    # the loop inlines the field's text, on a scaled system times g as ``FilippovSystem.stage`` writes it
    rhs = reference_rhs(sys_, region.field)
    for x, y, dt, k1 in _steps(name, sys_, rhs)[:SAMPLES // 5]:
        got = loop_steps(sys_.domain, inlined(sys_, region.id), x, y, k1, dt)
        assert got == stepper_steps(rhs, x, y, k1, dt)
