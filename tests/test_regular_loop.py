"""The generated regular-arc loop against the step loop it replaced.

``integrate_regular`` runs the steps of an arc in one generated loop
(``integrate._REGULAR_STEPS``); ``regular_reference.reference_integrate_regular``
is the loop it replaced.  On seeded starts both must return the same segment
times and points and the same hit, bit for bit through ``float.hex`` (so -0.0
is not 0.0), or fail with the same error; and both must call every raw
``fx``, ``fy`` and ``h`` callable equally often.
"""

import math
import random

import pytest

from filippov import integrate
from filippov.diagnostics import rescale_tangency_freeze
from filippov.errors import FilippovError, IntegrationError
from filippov.expr import PlanarField, ScalarField
from filippov.integrate import ESCAPE_BAND, CaptureTarget, IntegratorOptions, integrate_regular
from filippov.scenario import load_shipped
from filippov.system import Domain, FilippovSystem, RegionSpec, SwitchingCurve

from conftest import build_plane_system, decompose, list_shipped, time_limit
from regular_reference import reference_integrate_regular

STARTS = 6  # seeded starts per region and option set
OPTIONS = (None, IntegratorOptions(rtol=1e-7, atol=1e-9, sample_spacing=0.005))


def _bits(value, captures=()):
    """A comparable image of nested tuples and lists of floats that tells -0.0 from 0.0."""
    if isinstance(value, CaptureTarget):
        return ("target", next(i for i, c in enumerate(captures) if c is value))
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, tuple(_bits(v, captures) for v in value))
    return value.hex() if isinstance(value, float) else value


def _run(fn, calls, sys_, case, opts):
    p, region, t_max, entry, captures = case
    calls.clear()
    try:
        seg, hit = fn(sys_, p, region, t_max, opts, entry_curve=entry, captures=captures)
        out = (seg.kind, seg.region_id, _bits(seg.times), _bits(seg.points), _bits(hit, captures))
    except (FilippovError, ArithmeticError, ValueError) as exc:
        out = ("raises", type(exc).__name__, str(exc))
    return out, dict(calls)


def hit_kind(outcome):
    """'raises', or the hit's kind: 'curve', 't_max', 'left_domain' or 'capture'."""
    return outcome[0] if outcome[0] == "raises" else outcome[-1][1][0]


def check(sys_, cases, calls, options=OPTIONS):
    """Each case (start, region, t_max, entry curve, captures) under each option set; the outcomes."""
    outcomes = []
    for opts in options:
        for case in cases:
            got = _run(integrate_regular, calls, sys_, case, opts)
            want = _run(reference_integrate_regular, calls, sys_, case, opts)
            assert got == want, (case, opts)
            assert got[1], case  # the counters saw the calls
            outcomes.append(got[0])
    return outcomes


def region_starts(sys_, rng, count=STARTS, t_max=(0.2, 3.0)):
    """``count`` seeded (start, region, t_max, None, ()) cases in each region."""
    d = sys_.domain
    cases = []
    for region in sys_.regions:
        found = 0
        while found < count:
            p = (rng.uniform(d.x_min, d.x_max), rng.uniform(d.y_min, d.y_max))
            if sys_.region_of(p) == region.id:
                cases.append((p, region.id, rng.uniform(*t_max), None, ()))
                found += 1
    return cases


def two_curve_plane():
    """A parabola over a line: region 2 lies between them, so its arcs screen two armed curves."""
    curves = [SwitchingCurve(0, ScalarField("y - 0.3 - 0.2 * x^2"), 1, 2),
              SwitchingCurve(1, ScalarField("y + 0.4"), 2, 3)]
    regions = [RegionSpec(1, PlanarField("-y", "x"), [(0, 1)]),
               RegionSpec(2, PlanarField("0.5 - y", "x + 0.2"), [(0, -1), (1, 1)]),
               RegionSpec(3, PlanarField("-y", "x - 0.3"), [(1, -1)])]
    return FilippovSystem(Domain("plane_rect", -1.0, 1.0, -1.0, 1.0), curves, regions, validate=False)


# --------------------------------------------------------------------------- #
# the arc kinds: regions, curves, exits, scales, captures, failures
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("name", list_shipped())
def test_every_shipped_region(name, calls):
    sys_ = load_shipped(name).build_system()
    outcomes = check(sys_, region_starts(sys_, random.Random(name)), calls)
    assert "curve" in map(hit_kind, outcomes)


def test_two_curves(calls):
    sys_ = two_curve_plane()
    outcomes = check(sys_, region_starts(sys_, random.Random(2), count=10, t_max=(1.0, 6.0)), calls)
    hit_curves = {o[-1][1][1] for o in outcomes if hit_kind(o) == "curve"}
    assert hit_curves == {0, 1}


@pytest.mark.parametrize("name", list_shipped())
def test_starts_on_and_near_a_curve(name, calls):
    # on the curve and inside ESCAPE_BAND h does not arm at the start, nor on the entry curve
    sys_ = load_shipped(name).build_system()
    rng = random.Random(name + ":on")
    d = sys_.domain
    curve = sys_.curves[0]
    gx, gy = curve.grad[0], curve.grad[1]
    cases = []
    while len(cases) < 4 * STARTS:
        q = curve.project((rng.uniform(d.x_min, d.x_max), rng.uniform(d.y_min, d.y_max)), 3)
        q = d.canonical(q)
        if not d.contains(q):
            continue
        side = rng.choice((1.0, -1.0))
        region = curve.positive_region if side > 0 else curve.negative_region
        norm = math.hypot(gx(*q), gy(*q))
        offset = side * rng.choice((0.0, 0.3, 3.0)) * ESCAPE_BAND / norm
        p = (q[0] + offset * gx(*q), q[1] + offset * gy(*q))
        entry = rng.choice((None, curve.id)) if offset else curve.id
        cases.append((p, region, rng.uniform(0.2, 3.0), entry, ()))
    check(sys_, cases, calls)


def test_rectangle_exits(calls):
    sys_ = build_plane_system(("1", "0.7"), ("-0.4", "-1"))
    cases = [((x, y), 1 if y > 0 else 2, 5.0, None, ())
             for x, y in ((1.5, 0.5), (-1.9, 0.2), (1.99, 0.99), (0.0, -0.3), (1.0, -0.99))]
    fold = load_shipped("fold_demo_plane").build_system()
    outcomes = check(sys_, cases, calls)
    outcomes += check(fold, [((x, 0.5), 1, 6.0, None, ()) for x in (-1.5, 0.5, 1.9)], calls)
    assert list(map(hit_kind, outcomes)).count("left_domain") >= 8


def test_velocity_scaled_arcs(calls):
    fold = load_shipped("fold_demo_plane").build_system()
    plane = rescale_tangency_freeze(fold, decompose(fold))
    torus = load_shipped("chaotic_torus").build_system().with_velocity_scale(
        lambda p: 0.75 + 0.5 * math.sin(2.0 * math.pi * p[0]) ** 2)
    for sys_, seed in ((plane, 3), (torus, 4)):
        assert sys_.velocity_scale is not None
        check(sys_, region_starts(sys_, random.Random(seed)), calls)


@pytest.mark.parametrize("name, start, region", [
    ("rotation_plane", (0.5, 0.3), 1),
    ("fold_demo_plane", (-1.5, 0.5), 1),
    ("chaotic_torus", (0.3, 0.25), 1),
    ("sliding_belt_torus", (0.2, 0.3), 1),
])
def test_capture_targets(name, start, region, calls, monkeypatch):
    # targets on the path ride, targets a little off it pass the coarse gate and fly on
    sys_ = load_shipped(name).build_system()
    seg, _ = reference_integrate_regular(sys_, start, region, 3.0)
    rng = random.Random(name)
    path = seg.points[1:-1]
    assert len(path) > 8
    cases = []
    for _ in range(STARTS):
        on = rng.choice(path)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        near = [sys_.domain.canonical((on[0] + r * math.cos(angle), on[1] + r * math.sin(angle)))
                for r in (2e-6, 5e-4, 0.05)]
        targets = [CaptureTarget(q, 0) for q in [on] + near]
        for chosen in ([targets[0]], targets[1:2], targets[2:], targets[::-1], targets[1:]):
            cases.append((start, region, 3.0, None, chosen))

    handed_back = []
    loops = dict(integrate._REGULAR_STEPS)

    def counting(key):
        def steps(*args):
            for step in loops[key](*args):
                handed_back.append(step)
                yield step
        return steps

    for key in loops:
        monkeypatch.setitem(integrate._REGULAR_STEPS, key, counting(key))
    outcomes = check(sys_, cases, calls, options=(None,))
    kinds = list(map(hit_kind, outcomes))
    assert "capture" in kinds and kinds.count("capture") < len(kinds)
    # the loop hands back more steps than end in an event: the gate passes near misses
    assert len(handed_back) > len(kinds)


@pytest.mark.parametrize("field, start", [
    (("1", "sqrt(x)"), (-0.5, 0.5)),  # undefined at the start
    (("-1", "sqrt(x)"), (0.3, 0.5)),  # undefined once a stage crosses x = 0
    (("1", "1 / (0.5 - x)^2"), (0.2, -0.9)),  # blows up at x = 0.5
    (("1 / (0.5 - x)", "0.1"), (0.0, 0.5)),  # reaches x = 0.5 at infinite speed
])
def test_failing_fields(field, start, calls):
    sys_ = build_plane_system(field, field, h="y + 5")  # no curve in the rectangle
    # default options only: at rtol = 1e-7 the last case creeps on past x = 0.5 with
    # steps near 1e-11, and the reference loop has no step limit to end it
    outcomes = check(sys_, [(start, 1, 4.0, None, ())], calls, options=(None,))
    assert hit_kind(outcomes[0]) in ("raises", "left_domain")


def test_creeping_arc_fails_at_its_step_limit():
    # past x = 0.5 the steps shrink to about 1e-11 and t stalls near 0.125
    field = ("1 / (0.5 - x)", "0.1")
    sys_ = build_plane_system(field, field, h="y + 5")
    opts = IntegratorOptions(rtol=1e-7, atol=1e-9, sample_spacing=0.005)
    with time_limit(30), pytest.raises(IntegrationError, match="accepted steps and reached only"):
        integrate_regular(sys_, (0.0, 0.5), 1, 4.0, opts)
