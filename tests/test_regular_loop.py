"""The generated regular-arc loop against the step loop it replaced.

``integrate_regular`` runs the steps of an arc in one generated loop
(``integrate._regular_loop``); ``regular_reference.reference_integrate_regular``
is the loop it replaced.  On seeded starts both must return the same segment
times and points and the same hit, bit for bit through ``float.hex`` (so -0.0
is not 0.0), or fail with the same error; and both must evaluate every
``fx``, ``fy`` and ``h`` equally often.  The loop inlines each field's text,
so the ``calls`` fixture counts its reads through the text hook
(``conftest.observe_loop_reads``).
"""

import math
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

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


def capture_cases(sys_, start, region, t_max, rng):
    """Cases from ``start`` with capture targets on the reference path and a little off it."""
    seg, _ = reference_integrate_regular(sys_, start, region, t_max)
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
            cases.append((start, region, t_max, None, chosen))
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


def test_a_scaled_stage_evaluates_g_once_per_point(calls, monkeypatch):
    # ``FilippovSystem.stage`` evaluates g once at a stage's point and multiplies each component
    # by it; the raw_pair callables the loops called before evaluated g per component, so a
    # regular stage called it twice and a sliding stage four times.  Counted while loop code runs.
    g_calls = []
    torus = load_shipped("chaotic_torus").build_system()
    scaled = torus.with_velocity_scale(
        lambda p: g_calls.append(p) or 0.75 + 0.5 * math.sin(2.0 * math.pi * p[0]) ** 2)
    x_components = [id(r.field.component_x) for r in scaled.regions]
    inside = {"regular": [0, 0], "sliding": [0, 0]}  # per loop: g calls, reads of x components

    def measured(kind, run):
        tally = inside[kind]
        g0, x0 = len(g_calls), sum(calls.get(i, 0) for i in x_components)
        try:
            return run()
        finally:
            tally[0] += len(g_calls) - g0
            tally[1] += sum(calls.get(i, 0) for i in x_components) - x0

    def regular(loop_of):
        def counted(sys_, region_id):
            loop, bound = loop_of(sys_, region_id)

            def steps(*args):
                it = loop(*args)
                while True:
                    try:
                        step = measured("regular", lambda: next(it))
                    except StopIteration:
                        return
                    yield step
            return steps, bound
        return counted

    def sliding(loop_of):
        def counted(sys_, curve_id):
            loop, bound = loop_of(sys_, curve_id)
            return (lambda *args: measured("sliding", lambda: loop(*args))), bound
        return counted

    monkeypatch.setattr(integrate, "_regular_loop", regular(integrate._regular_loop))
    monkeypatch.setattr(integrate, "_sliding_loop", sliding(integrate._sliding_loop))
    rng = random.Random(6)
    for _ in range(8):
        integrate.integrate_filippov(scaled, (rng.random(), rng.random()), 4.0)
    (g_regular, x_regular), (g_sliding, x_sliding) = inside["regular"], inside["sliding"]
    assert g_regular > 100 and g_sliding > 100
    assert g_regular == x_regular  # a regular stage reads its region's x component once
    assert 2 * g_sliding == x_sliding  # a sliding stage reads both side regions' x components


def test_equal_field_texts_share_one_loop():
    # rotation_plane's two regions have the field (-y, x): one loop text, compiled once, reads no value
    sys_ = load_shipped("rotation_plane").build_system()
    (one, bound), (two, _) = (integrate._regular_loop(sys_, r.id) for r in sys_.regions)
    assert one is two and bound == ()
    assert integrate._regular_loop(load_shipped("rotation_plane").build_system(), 1)[0] is one


def test_loops_compile_on_first_use():
    # importing the package and building a system compile no arc loop; an orbit compiles its own
    probe = ("from filippov import integrate\nfrom filippov.scenario import load_shipped\n"
             "sys_ = load_shipped('rotation_plane').build_system()\n"
             "print(integrate._loop.cache_info().currsize)\n"
             "integrate.integrate_filippov(sys_, (0.3, 0.2), 5.0)\n"
             "print(integrate._loop.cache_info().currsize)\n")
    src = Path(integrate.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src))).stdout
    assert out.split() == ["0", "1"]


@pytest.mark.parametrize("name, start, region", [
    ("rotation_plane", (0.5, 0.3), 1),
    ("fold_demo_plane", (-1.5, 0.5), 1),
    ("chaotic_torus", (0.3, 0.25), 1),
    ("sliding_belt_torus", (0.2, 0.3), 1),
])
def test_capture_targets(name, start, region, calls, monkeypatch):
    # targets on the path ride, targets a little off it pass the coarse gate and fly on
    sys_ = load_shipped(name).build_system()
    cases = capture_cases(sys_, start, region, 3.0, random.Random(name))

    handed_back = []
    regular_loop = integrate._regular_loop

    def counting(system, region_id):
        loop, bound = regular_loop(system, region_id)

        def steps(*args):
            for step in loop(*args):
                handed_back.append(step)
                yield step
        return steps, bound

    monkeypatch.setattr(integrate, "_regular_loop", counting)
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


# --------------------------------------------------------------------------- #
# the event screen's fast path, the torus's lazy grid and the loop text's shape
# --------------------------------------------------------------------------- #


def loop_source(monkeypatch, sys_, region_id):
    """The source text of the region's regular-arc loop, as ``_regular_loop`` writes it."""
    sources = []
    compiled = integrate._loop
    monkeypatch.setattr(integrate, "_loop", lambda source, name: sources.append(source) or compiled(source, name))
    monkeypatch.setattr(integrate, "_LOOPS", weakref.WeakKeyDictionary())
    integrate._regular_loop(sys_, region_id)
    return sources[-1]


def same_bits(sys_, cases):
    """Each case against the reference, with the loop's own text: no read is observed."""
    outcomes = []
    for case in cases:
        got = _run(integrate_regular, {}, sys_, case, None)
        assert got == _run(reference_integrate_regular, {}, sys_, case, None), case
        outcomes.append(got[0])
    return outcomes


@pytest.mark.parametrize("y0", [0.0, -0.0])
def test_unarmed_starts_on_signed_zeros(y0, calls):
    # h = y from y = +-0.0: the start's h is a signed zero, so the curve is unarmed, and the
    # field arms it upward or downward as the arc leaves it, or never as it runs along it
    for fy in ("1", "-1", "1e-9", "-1e-9", "0"):
        sys_ = build_plane_system(("0.5", fy), ("0.5", fy))
        cases = [((x, y0), region, 1.5, entry, ()) for x in (-1.0, 0.3) for region in (1, 2)
                 for entry in (None, 0)]
        check(sys_, cases, calls)


@pytest.mark.parametrize("y0", [0.5, -0.5, 0.25])
def test_armed_curves_whose_grid_values_reach_signed_zeros(y0, calls):
    # h = y * exp(-1000 x) arms at x = -0.5 with the sign of y and underflows to 0.0 (y > 0) or
    # -0.0 (y < 0) as x passes about 0.745: the screen reads armed values that are not of the
    # curve's strict sign, and no sign change.  From x = 0.6 h is below ESCAPE_BAND: never armed.
    sys_ = build_plane_system(("1", "0"), ("1", "0.1 * y"), h="y * exp(-1000 * x)")
    region = 1 if y0 > 0 else 2
    outcomes = check(sys_, [((-0.5, y0), region, 2.0, None, ()), ((0.6, y0), region, 1.0, 0, ())], calls)
    assert {hit_kind(o) for o in outcomes} == {"t_max"}
    seg, _ = integrate_regular(sys_, (-0.5, y0), region, 2.0)
    end = sys_.curves[0].h.raw()(*seg.points[-1])
    assert end == 0.0 and math.copysign(1.0, end) == math.copysign(1.0, y0)


def test_a_curve_crossed_twice_inside_one_step(calls):
    # h = y - 0.01 cos(40 x) dips below 0 on x-intervals of width 0.052, under one step of 0.125
    # along y = 0.005: the step's end values share the armed sign and a middle one does not
    sys_ = build_plane_system(("1", "0"), ("1", "0"), h="y - 0.01 * cos(40 * x)")
    cases = [((x, 0.005), 1 if sys_.curves[0].h(x, 0.005) > 0 else 2, 3.0, None, ())
             for x in (-1.9, -1.43, -0.7, 0.05, 0.61)]
    outcomes = check(sys_, cases, calls)
    assert "curve" in map(hit_kind, outcomes)


TORUS_CURVES = {"y": "sin(2*pi*y)", "x": "sin(2*pi*x)", "xy": "sin(2*pi*(x + 2*y))"}


def torus_system(h):
    domain = Domain("flat_torus", 0.0, 1.0, 0.0, 1.0)
    regions = [RegionSpec(1, PlanarField("1", "0.3 + 0.2*cos(2*pi*x)"), [(0, 1)]),
               RegionSpec(2, PlanarField("0.4", "-1"), [(0, -1)])]
    return FilippovSystem(domain, [SwitchingCurve(0, ScalarField(h), 1, 2)], regions, validate=False)


@pytest.mark.parametrize("reads", list(TORUS_CURVES))
def test_torus_grid_coordinates_no_curve_reads(reads, monkeypatch):
    # a grid coordinate inside the step that no h reads is computed only for a yielded step or a
    # capture test: the arcs, captured or not, keep the reference's bits
    sys_ = torus_system(TORUS_CURVES[reads])
    source = loop_source(monkeypatch, sys_, 1)
    late = source.partition("if targets or cand:")[2].partition("if targets:")[0]
    assert {g for g in ("g1x", "g1y", "g2x", "g2y", "g3x", "g3y") if f"{g} = " in late} == {
        "y": {"g1x", "g2x", "g3x"}, "x": {"g1y", "g2y", "g3y"}, "xy": set()}[reads]
    rng = random.Random(reads)
    cases = region_starts(sys_, rng)
    cases += capture_cases(sys_, (0.05, 0.05), 1, 3.0, rng)  # region 1 holds its arc for 0.2 or more
    kinds = list(map(hit_kind, same_bits(sys_, cases)))
    assert "curve" in kinds and "capture" in kinds


def test_the_loop_text_keeps_its_cheaper_step(monkeypatch):
    # the shape of one trial step, pinned so that a change that undoes it fails here and not
    # only in the benchmark's noise: each stage forms its dt * a_ij products once for both
    # coordinates, the step control spells abs and isfinite inline, and a repeated call in a
    # field is computed once per stage
    rotation = loop_source(monkeypatch, load_shipped("rotation_plane").build_system(), 1)
    trial = rotation.partition("for _ in range(60):")[2].partition("\n        else:")[0]
    assert trial.count("dt * ") == 21
    assert "abs(" not in trial and "isfinite(" not in trial
    torus = loop_source(monkeypatch, load_shipped("chaotic_torus").build_system(), 1)
    stage = next(line for line in torus.splitlines() if line.strip().startswith("k2y = "))
    # cos(2 pi x), cos(2 pi (x - psi)) and cos(2 pi y), which the field text holds twice
    assert stage.count("cos(") == 3 and stage.count(" * ay)") == 1
