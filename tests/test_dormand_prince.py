"""The generated Dormand-Prince kernels against the tableau loops they unroll.

``reference_rk_step`` and ``reference_at`` below are ``_rk_step`` and
``_DenseStep.at`` as they were before the kernels were generated as straight
lines.  On seeded random points and step sizes, for the regular field of every
region of the shipped scenarios, the sliding kernel and a velocity-scaled
field, each kernel must return exactly their bits: the step's end point, all
seven stages, the error estimate, the dense output at random theta and the
points of the event grid.
"""

import math
import random

import pytest

from filippov.diagnostics import rescale_tangency_freeze
from filippov.errors import UndefinedSlidingError
from filippov.integrate import (
    _A, _E, _P, _THETA_GRID, _DenseStep, _make_rhs, _make_sliding_rhs, _rk_step,
)
from filippov.scenario import list_shipped, load_shipped

SAMPLES = 500  # random (point, step size) pairs per right-hand side


# --------------------------------------------------------------------------- #
# reference loops, as they were before the generated kernels
# --------------------------------------------------------------------------- #


def reference_at(step, theta):
    x = 0.0
    y = 0.0
    for k, p in zip(step.ks, _P):
        q = theta * (p[0] + theta * (p[1] + theta * (p[2] + theta * p[3])))
        x += k[0] * q
        y += k[1] * q
    return (step.x0 + step.dt * x, step.y0 + step.dt * y)


def reference_rk_step(f, x, y, k1, dt):
    ks = [k1]
    for i in range(1, 7):
        ax = x
        ay = y
        row = _A[i]
        for a, k in zip(row, ks):
            ax += dt * a * k[0]
            ay += dt * a * k[1]
        ks.append(f(ax, ay))
    x1 = ax  # stage 7 uses the 5th-order solution weights
    y1 = ay
    ex = 0.0
    ey = 0.0
    for e, k in zip(_E, ks):
        ex += e * k[0]
        ey += e * k[1]
    return x1, y1, ks, ex * dt, ey * dt


# --------------------------------------------------------------------------- #
# right-hand sides and random inputs
# --------------------------------------------------------------------------- #


def _bits(value):
    """A comparable image of nested tuples and lists of floats that tells -0.0 from 0.0."""
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, tuple(_bits(v) for v in value))
    return value.hex() if isinstance(value, float) else value


def _regular_rhs():
    for name in list_shipped():
        sys_ = load_shipped(name).build_system()
        for region in sys_.regions:
            yield f"{name}:region{region.id}", sys_, _make_rhs(sys_, region.field)
    sys_ = rescale_tangency_freeze(load_shipped("fold_demo_plane").build_system())
    assert sys_.velocity_scale is not None
    for region in sys_.regions:
        yield f"fold_demo_plane:scaled:region{region.id}", sys_, _make_rhs(sys_, region.field)


def _sliding_rhs():
    for name in ("sliding_belt_torus", "chaotic_torus"):
        sys_ = load_shipped(name).build_system()
        yield f"{name}:sliding", sys_, _make_sliding_rhs(sys_, 0)


CASES = list(_regular_rhs()) + list(_sliding_rhs())


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


def _outcome(fn, *args):
    try:
        return _bits(fn(*args))
    except UndefinedSlidingError as exc:  # a two-fold at a stage: both must raise it
        return ("raises", type(exc).__name__)


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
    for x, y, dt, k1 in _steps(name, sys_, rhs):
        assert _outcome(_rk_step, rhs, x, y, k1, dt) == _outcome(reference_rk_step, rhs, x, y, k1, dt)


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
        grid = step.grid()
        assert _bits(grid) == _bits([(x, y)] + [step.at(th) for th in _THETA_GRID[1:]])
        assert _bits(grid) == _bits([(x, y)] + [reference_at(step, th) for th in _THETA_GRID[1:]])
        checked += 1
    assert checked > SAMPLES // 2


_SPECIAL = (0.0, -0.0, 1.0, -1.0, 5e-324, math.inf, -math.inf, math.nan)
_ZEROS = (0.0, -0.0)  # every sum of signed zeros is -0.0 only without its leading 0.0


def _special_field(values, seed):
    """A right-hand side that returns ``values`` in a seeded order, where a
    dropped ``0.0 +`` or zero coefficient shows."""
    rng = random.Random(seed)
    return lambda x, y: (rng.choice(values), rng.choice(values))


def test_kernels_match_the_loops_on_signed_zeros_and_non_finite_values():
    rng = random.Random(11)
    for seed in range(4000):
        values = _ZEROS if seed % 2 else _SPECIAL
        x, y = rng.choice(values), rng.choice(values)
        k1 = (rng.choice(values), rng.choice(values))
        dt = rng.choice((1e-3, 0.0, -0.0, 1.0))
        got = _rk_step(_special_field(values, seed), x, y, k1, dt)
        assert _bits(got) == _bits(reference_rk_step(_special_field(values, seed), x, y, k1, dt))
        step = _DenseStep(0.0, dt, x, y, got[2])
        for theta in _THETA_GRID[1:-1] + (rng.random(),):
            assert _bits(step.at(theta)) == _bits(reference_at(step, theta))
        assert _bits(step.grid()) == _bits([(x, y)] + [reference_at(step, th) for th in _THETA_GRID[1:]])


def test_ks_holds_the_tuples_the_field_returns():
    # the sliding kernel returns (Z_s, L1, L2); the stepper reads the Lie pair from ks[6]
    _, sys_, rhs = next(c for c in CASES if c[0] == "sliding_belt_torus:sliding")
    x, y, dt, k1 = _steps("sliding_belt_torus:sliding", sys_, rhs)[0]
    _, _, ks, _, _ = _rk_step(rhs, x, y, k1, dt)
    assert len(ks) == 7 and ks[0] is k1 and all(len(k) == 4 for k in ks)
