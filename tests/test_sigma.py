import math

import pytest

from filippov import sigma
from filippov.diagnostics import build_segment_graph, sigma_seed_points
from filippov.errors import NonIsolatedTangencyError, UndefinedSlidingError
from filippov.expr import PlanarField, ScalarField
from filippov.integrate import _SLIDING_RHS
from filippov.scenario import load_shipped
from filippov.sigma import (
    PointClass,
    _sigma_dot,
    classify_point,
    convex_weight,
    lie_pair_at,
    sigma_decomposition,
    sliding_vector_field,
    trace_curve,
)
from filippov.system import Domain, FilippovSystem, RegionSpec, SwitchingCurve

from conftest import build_plane_system, count_trace_calls, decompose, list_shipped


def test_classify_crossing():
    s = build_plane_system(("1", "1"), ("1", "1"))
    cls = classify_point(s, 0, (0.5, 0.0))
    assert cls.point_class is PointClass.CROSSING
    assert (cls.lie_positive, cls.lie_negative) == (1.0, 1.0)


def test_classify_sliding(flat_system):
    cls = classify_point(flat_system, 0, (0.5, 0.0))
    assert cls.point_class is PointClass.SLIDING
    assert (cls.lie_positive, cls.lie_negative) == (-1.0, 1.0)


def test_classify_escaping():
    s = build_plane_system(("1", "1"), ("1", "-1"))
    cls = classify_point(s, 0, (0.5, 0.0))
    assert cls.point_class is PointClass.ESCAPING


def test_classify_pseudo_equilibrium_antiparallel():
    # lambda = L2/(L2-L1) = 1/3 makes the convex combination vanish
    s = build_plane_system(("2", "-2"), ("-1", "1"))
    cls = classify_point(s, 0, (0.5, 0.0))
    assert cls.point_class is PointClass.PSEUDO_EQUILIBRIUM
    assert (cls.lie_positive, cls.lie_negative) == (-2.0, 1.0)
    assert cls.sliding_velocity == (0.0, 0.0)
    assert convex_weight(s, 0, (0.5, 0.0)) == pytest.approx(1.0 / 3.0)


def test_classify_tangency(fold_system):
    cls = classify_point(fold_system, 0, (0.0, 0.0))
    assert cls.point_class is PointClass.TANGENCY_REGULAR
    assert cls.tangent_side == "positive"


def test_classify_double_tangency():
    s = build_plane_system(("1", "x"), ("1", "x"))
    cls = classify_point(s, 0, (0.0, 0.0))
    assert cls.point_class is PointClass.TANGENCY_DOUBLE


def test_sliding_field_symmetric(flat_system):
    assert sliding_vector_field(flat_system, 0, (0.5, 0.0)) == (1.0, 0.0)


def test_sliding_field_derived_convex_combination():
    # oracle: lambda = L2/(L2-L1) = 1/3, (1/3)(0,-2) + (2/3)(3,1) = (2, 0)
    s = build_plane_system(("0", "-2"), ("3", "1"))
    lam = convex_weight(s, 0, (0.5, 0.0))
    assert lam == pytest.approx(1.0 / 3.0, abs=1e-15)
    zs = sliding_vector_field(s, 0, (0.5, 0.0))
    assert zs == pytest.approx((2.0, 0.0), abs=1e-15)


def test_sliding_field_undefined_at_crossing():
    s = build_plane_system(("1", "1"), ("1", "1"))
    with pytest.raises(UndefinedSlidingError):
        sliding_vector_field(s, 0, (0.5, 0.0))


def test_find_tangency_single_fold(fold_system):
    tps = sigma_decomposition(fold_system, 0, 800).tangencies
    assert len(tps) == 1
    tp = tps[0]
    assert tp.position == pytest.approx((0.0, 0.0), abs=1e-8)
    assert tp.side == "positive"
    assert tp.fold == "visible"
    assert tp.second_lie == pytest.approx(1.0, abs=1e-9)


def test_find_tangency_none(flat_system):
    assert sigma_decomposition(flat_system, 0, 400).tangencies == []


def test_find_tangency_two_roots():
    s = build_plane_system(("1", "x^2 - 0.25"), ("1", "1"))
    # oracle: dense scan of L1(x) = x^2 - 0.25 along the curve
    scan = [(-2 + 4 * k / 100000) ** 2 - 0.25 for k in range(100001)]
    signs = [v for v in scan if v != 0.0]
    brackets = sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)
    assert brackets == 2
    tps = sigma_decomposition(s, 0, 800).tangencies
    xs = sorted(round(tp.position[0], 6) for tp in tps)
    assert xs == [-0.5, 0.5]


def test_non_isolated_tangency_is_an_error():
    s = build_plane_system(("1", "0"), ("1", "1"))  # L1 identically zero
    with pytest.raises(NonIsolatedTangencyError):
        sigma_decomposition(s, 0, 400)


def test_pseudo_equilibria_single_root(pe_system):
    pes = sigma_decomposition(pe_system, 0, 800).pseudo_equilibria
    assert len(pes) == 1
    assert pes[0] == pytest.approx((0.0, 0.0), abs=1e-9)
    zs = sliding_vector_field(pe_system, 0, pes[0])
    assert math.hypot(*zs) <= 1e-10


def _sigma_dot_reference(sys, curve_id, p):
    """The deleted form of Z_s . t: the unit tangent from `_tangent_at`, then `sliding_vector_field`."""
    gx, gy = sys.curve(curve_id).gradient_at(p)
    norm = math.hypot(gx, gy)
    tx, ty = -gy / norm, gx / norm
    zx, zy = sliding_vector_field(sys, curve_id, p)
    return zx * tx + zy * ty


def _lie_derivative_reference(sys, planar, curve_id, p):
    """The deleted `FilippovSystem.lie_derivative`."""
    p = sys.domain.canonical(p)
    gx, gy = sys.curve(curve_id).gradient_at(p)
    vx, vy = sys.field_value(planar, p)
    return gx * vx + gy * vy


def _outcome(fn, *args):
    """fn(*args) as float.hex strings, or the class and message of what it raised."""
    try:
        value = fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return [v.hex() for v in value] if isinstance(value, tuple) else value.hex()


def _shipped_cases(resolution):
    """(system, curve id, arc) for each arc of each curve of the shipped scenarios."""
    for name in list_shipped():
        system = load_shipped(name).build_system()
        for curve in system.curves:
            for arc in sigma_decomposition(system, curve.id, resolution).arcs:
                yield system, curve.id, arc


def test_sigma_dot_matches_the_two_call_form(pe_system):
    cases = [(pe_system, 0, (-1.0 + k / 64.0, 0.0)) for k in range(129)]
    # L1 = L2: the sliding field is undefined, and both forms must say so alike
    equal = build_plane_system(("1", "-1"), ("2", "-1"))
    cases += [(equal, 0, (x, 0.0)) for x in (-0.5, 0.0, 0.25)]
    cases += [(system, cid, p) for system, cid, arc in _shipped_cases(256)
              if arc.point_class in (PointClass.SLIDING, PointClass.ESCAPING) for p in arc.samples]
    assert len(cases) > 500
    for system, cid, p in cases:
        assert _outcome(_sigma_dot, system, cid, p) == _outcome(_sigma_dot_reference, system, cid, p)


def test_lie_pair_at_matches_the_one_field_form():
    checked = 0
    for system, cid, arc in _shipped_cases(128):
        y1, y2 = system.side_fields(cid)
        for x, y in arc.samples:
            for p in ((x, y), (x + 0.37, y - 1.9)):
                want = tuple(_lie_derivative_reference(system, planar, cid, p) for planar in (y1, y2))
                assert _outcome(lie_pair_at, system, cid, p) == _outcome(lambda: want)
                checked += 1
    assert checked > 1000


def test_pseudo_equilibria_none(flat_system):
    assert sigma_decomposition(flat_system, 0, 400).pseudo_equilibria == []


def test_pseudo_equilibria_on_torus_both_belts():
    domain = Domain("flat_torus", 0.0, 2 * math.pi, 0.0, 2 * math.pi)
    curve = SwitchingCurve(0, ScalarField("sin(y)"), 1, 2)
    regions = [
        RegionSpec(1, PlanarField("sin(x)", "-1"), [(0, +1)]),
        RegionSpec(2, PlanarField("sin(x)", "1"), [(0, -1)]),
    ]
    s = FilippovSystem(domain, [curve], regions, validate=False)
    pes = sigma_decomposition(s, 0, 800).pseudo_equilibria
    # oracle: dense scan of Z_s . t = sin(x) over each belt finds roots at 0, pi
    expected = {(0.0, 0.0), (math.pi, 0.0), (0.0, math.pi), (math.pi, math.pi)}
    found = {(round(p[0] % (2 * math.pi), 6) % round(2 * math.pi, 6), round(p[1], 6)) for p in pes}
    norm = {(round(a, 4) % 6.2832, round(b, 4)) for a, b in found}
    assert len(pes) == 4
    for p in pes:
        zs = sliding_vector_field(s, 0, p)
        assert math.hypot(*zs) <= 1e-10


def test_sigma_decomposition_fold(fold_system):
    dec = sigma_decomposition(fold_system, 0, 800)
    classes = {a.point_class for a in dec.arcs}
    assert classes == {PointClass.SLIDING, PointClass.CROSSING}
    assert len(dec.tangencies) == 1
    # oracle: dense sign table; sliding exactly where x < 0
    for arc in dec.arcs:
        comp = dec.component_obj(arc)
        mid = comp.point_at(0.5 * (arc.s_start + arc.s_end))
        if arc.point_class is PointClass.SLIDING:
            assert mid[0] < 0
        else:
            assert mid[0] > 0


def test_sigma_decomposition_all_crossing():
    s = build_plane_system(("1", "1"), ("1", "1"))
    dec = sigma_decomposition(s, 0, 400)
    assert len(dec.arcs) == 1
    assert dec.arcs[0].point_class is PointClass.CROSSING


@pytest.mark.parametrize("resolution", [64, 300, 512, 2000])
def test_sigma_decomposition_of_a_circle(resolution):
    # an arc's midpoint on a chord of the traced circle is about 9e-6 off Σ, far
    # outside EPS_SIGMA; it is projected onto the curve before it is classified
    s = build_plane_system(("1", "0"), ("0.3", "1"), bounds=(-1, 1, -1, 1), h="x^2 + y^2 - 0.25")
    dec = sigma_decomposition(s, 0, resolution)
    assert [a.point_class for a in dec.arcs] == [
        PointClass.ESCAPING, PointClass.CROSSING, PointClass.SLIDING, PointClass.CROSSING]
    # L1 = 2x vanishes at (0, ±0.5); L2 = 0.6x + 2y on the line y = -0.3x
    xn = 0.5 / math.sqrt(1.09)
    expected = {"positive": [(0.0, -0.5), (0.0, 0.5)], "negative": [(-xn, 0.3 * xn), (xn, -0.3 * xn)]}
    for side, points in expected.items():
        found = sorted((tuple(t.position) for t in dec.tangencies if t.side == side), key=sum)
        assert found == [pytest.approx(p, abs=1e-8) for p in points]


def test_points_handed_out_on_a_curved_sigma_lie_on_it():
    # chord points of the traced circle lie up to |h| = 9e-6 off it; arc ends and samples,
    # saturation seeds and graph anchors are projected onto the curve
    s = build_plane_system(("1", "0"), ("0.3", "1"), bounds=(-1, 1, -1, 1), h="x^2 + y^2 - 0.25")
    h = s.curve(0).h.raw()
    decs = decompose(s, 512)
    points = [p for arc in decs[0].arcs for p in (arc.start_point, arc.end_point, *arc.samples)]
    points += sigma_seed_points(s, decs)
    graph = build_segment_graph(s, decs, horizon=0.5, budget=1)
    anchors = [node.point for node in graph.nodes if node.kind.endswith("_anchor")]
    assert len(anchors) == 2 and len(points) == 4 * 35 + 32
    assert max(abs(h(*p)) for p in points + anchors) <= 1e-12


def test_sigma_decomposition_orientation_swap(fold_system):
    # h -> -h with sides swapped must give the same decomposition
    domain = Domain("plane_rect", -2, 2, -1, 1)
    curve = SwitchingCurve(0, ScalarField("-y"), 2, 1)
    regions = [
        RegionSpec(1, PlanarField("1", "x"), [(0, -1)]),
        RegionSpec(2, PlanarField("1", "1"), [(0, +1)]),
    ]
    swapped = FilippovSystem(domain, [curve], regions, validate=False)
    a = sigma_decomposition(fold_system, 0, 400)
    b = sigma_decomposition(swapped, 0, 400)
    classes_a = sorted(arc.point_class.value for arc in a.arcs)
    classes_b = sorted(arc.point_class.value for arc in b.arcs)
    assert classes_a == classes_b
    assert b.tangencies[0].position == pytest.approx(a.tangencies[0].position, abs=1e-8)


def test_decomposition_serializes(fold_system):
    d = sigma_decomposition(fold_system, 0, 400).to_dict()
    assert d["schema"] == "filippov.sigma/1"
    assert d["arcs"] and d["tangencies"]


# ---------------------------------------------------------------------------
# sampled properties on sliding/escaping points
# ---------------------------------------------------------------------------


def _sample_sliding_points(systems, count=10_000):
    points = []
    per = count // len(systems) + 1
    for s in systems:
        dec = sigma_decomposition(s, 0, 512)
        arcs = dec.arcs_of_class(PointClass.SLIDING, PointClass.ESCAPING)
        if not arcs:
            continue
        per_arc = per // len(arcs) + 1
        for arc in arcs:
            comp = dec.component_obj(arc)
            # keep clear of the tangency deadband at the arc ends
            for k in range(per_arc):
                w = 0.02 + 0.96 * (k + 0.5) / per_arc
                points.append((s, comp.point_at(arc.s_start + w * arc.length)))
    return points[:count]


@pytest.fixture(scope="module")
def sliding_samples():
    systems = [
        build_plane_system(("1", "-1"), ("1", "1")),
        build_plane_system(("1", "x"), ("1", "1")),
        build_plane_system(("0.3", "-0.5 - x^2"), ("-0.2", "2 + y")),
        build_plane_system(("1", "1"), ("1", "-1")),  # escaping belt
    ]
    return _sample_sliding_points(systems, 2000)


def test_sliding_field_is_tangent(sliding_samples):
    for s, p in sliding_samples:
        zs = sliding_vector_field(s, 0, p)
        gx, gy = s.curve(0).gradient_at(p)
        dot = zs[0] * gx + zs[1] * gy
        bound = 1e-9 * math.hypot(*zs) * math.hypot(gx, gy)
        assert abs(dot) <= max(bound, 1e-15)


def test_convex_weight_in_unit_interval_and_forms_agree(sliding_samples):
    for s, p in sliding_samples:
        lam = convex_weight(s, 0, p)
        assert 0.0 < lam < 1.0
        y1, y2 = s.side_fields(0)
        v1 = s.field_value(y1, p)
        v2 = s.field_value(y2, p)
        combo = (lam * v1[0] + (1 - lam) * v2[0], lam * v1[1] + (1 - lam) * v2[1])
        quotient = sliding_vector_field(s, 0, p)
        assert abs(combo[0] - quotient[0]) <= 1e-12
        assert abs(combo[1] - quotient[1]) <= 1e-12
        assert_kernel_matches_classification(s, p)


def assert_kernel_matches_classification(s, p):
    """The generated piece every stage of a sliding arc runs gives ``sliding_vector_field``'s
    bits at p, and the Lie pair it returns is ``classify_point``'s."""
    curve = s.curve(0)
    kernel = _SLIDING_RHS(*s.raw_pair(curve.positive_region), *s.raw_pair(curve.negative_region),
                          *(g.raw() for g in curve.grad), 0, *p)
    assert kernel[:2] == sliding_vector_field(s, 0, p)
    cls = classify_point(s, 0, p)
    assert kernel[2:] == (cls.lie_positive, cls.lie_negative)


def test_sliding_kernel_matches_classification_on_a_scaled_torus():
    # the system scales each side field before the Lie pair is formed, for the kernel as for
    # the classification, so both form the same pair and the same Z_s from the same bits
    torus = load_shipped("chaotic_torus").build_system().with_velocity_scale(
        lambda p: 0.75 + 0.5 * math.sin(2.0 * math.pi * p[0]) ** 2)
    samples = _sample_sliding_points([torus], 62)
    assert len(samples) == 62
    for s, p in samples:
        assert_kernel_matches_classification(s, p)


def test_classification_invariant_under_h_scaling():
    for c in (0.5, 2.0, 10.0):
        base = build_plane_system(("1", "x"), ("1", "1"))
        domain = Domain("plane_rect", -2, 2, -1, 1)
        curve = SwitchingCurve(0, ScalarField(f"{c}*y"), 1, 2)
        regions = [
            RegionSpec(1, PlanarField("1", "x"), [(0, +1)]),
            RegionSpec(2, PlanarField("1", "1"), [(0, -1)]),
        ]
        scaled = FilippovSystem(domain, [curve], regions, validate=False)
        for k in range(100):
            x = -1.9 + 3.8 * k / 99
            p = (x, 0.0)
            a = classify_point(base, 0, p)
            b = classify_point(scaled, 0, p)
            assert a.point_class is b.point_class
            if a.sliding_velocity is not None:
                za = sliding_vector_field(base, 0, p)
                zb = sliding_vector_field(scaled, 0, p)
                assert za[0] == pytest.approx(zb[0], abs=1e-12)
                assert za[1] == pytest.approx(zb[1], abs=1e-12)


# ---------------------------------------------------------------------------
# the delta-step sign-sampling oracle for classification
# ---------------------------------------------------------------------------


def _rk4(f, p, dt, steps=4):
    x, y = p
    h = dt / steps
    for _ in range(steps):
        k1 = f(x, y)
        k2 = f(x + h / 2 * k1[0], y + h / 2 * k1[1])
        k3 = f(x + h / 2 * k2[0], y + h / 2 * k2[1])
        k4 = f(x + h * k3[0], y + h * k3[1])
        x += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        y += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return (x, y)


def classification_oracle(sys, curve_id, p, delta=1e-4):
    """Integrate both raw fields for time delta and read the signs of h.

    delta is halved until both signs are resolved beyond the start offset,
    which keeps the quadratic term from masking small Lie derivatives.
    """
    curve = sys.curve(curve_id)
    h = curve.h.raw()
    h0 = h(*p)
    y1, y2 = (r.raw_pair() for r in sys.side_fields(curve_id))
    signs = []
    for fx, fy in (y1, y2):
        f = lambda x, y: (fx(x, y), fy(x, y))
        d = delta
        sign = 0.0
        for _ in range(40):
            end = _rk4(f, p, d)
            value = h(*end) - h0
            if abs(value) > 1e3 * 2.2e-16 * (1 + abs(h0)):
                candidate = 1.0 if value > 0 else -1.0
                half = h(*_rk4(f, p, d / 2)) - h0
                if half * value > 0:
                    sign = candidate
                    break
            d /= 2
        signs.append(sign)
    s1, s2 = signs
    if s1 == s2 and s1 != 0:
        return PointClass.CROSSING
    if s1 < 0 < s2:
        return PointClass.SLIDING
    if s2 < 0 < s1:
        return PointClass.ESCAPING
    return None  # unresolved (tangency scale)


def test_classification_agrees_with_delta_step_oracle(sliding_samples):
    checked = 0
    systems = {id(s): s for s, _ in sliding_samples}
    for s, p in sliding_samples[:400]:
        cls = classify_point(s, 0, p)
        if abs(cls.lie_positive) <= 1e-8 or abs(cls.lie_negative) <= 1e-8:
            continue
        expected = cls.point_class
        if expected is PointClass.PSEUDO_EQUILIBRIUM:
            expected = PointClass.SLIDING if cls.lie_positive < 0 else PointClass.ESCAPING
        got = classification_oracle(s, 0, p)
        assert got is expected, (p, (cls.lie_positive, cls.lie_negative), got)
        checked += 1
    assert checked >= 300


def test_crossing_points_agree_with_oracle():
    s = build_plane_system(("1", "x"), ("1", "1"))
    for k in range(50):
        x = 0.1 + 1.8 * k / 49  # crossing zone
        p = (x, 0.0)
        assert classify_point(s, 0, p).point_class is PointClass.CROSSING
        assert classification_oracle(s, 0, p) is PointClass.CROSSING


def test_trace_curve_closed_on_torus(belt_system):
    comps = trace_curve(belt_system, 0, 256)
    assert len(comps) == 2
    assert all(c.closed for c in comps)
    for c in comps:
        assert c.length == pytest.approx(1.0, abs=1e-6)


def _trace_curve_reference(system, curve_id, resolution):
    """trace_curve with the seed de-dup against every traced point, not the cells near it."""
    curve, d = system.curve(curve_id), system.domain
    ds = min(d.width, d.height) / 256.0
    components, used = [], []
    for seed in sigma._curve_seeds(system, curve):
        if any(d.distance(seed, q) < 2.0 * ds for q in used):
            continue
        points, closed = sigma._trace_one(system, curve, seed, ds)
        if not closed:
            back, _ = sigma._trace_one(system, curve, seed, ds, direction=-1.0)
            points = list(reversed(back[1:])) + points
        used.extend(points)
        components.append(sigma._resample(system, curve, points, closed, resolution,
                                          len(components)))
    return components


def _torus_curve_system(bounds, h):
    domain = Domain("flat_torus", *bounds)
    regions = [
        RegionSpec(1, PlanarField("1", "0"), [(0, +1)]),
        RegionSpec(2, PlanarField("0", "1"), [(0, -1)]),
    ]
    return FilippovSystem(domain, [SwitchingCurve(0, ScalarField(h), 1, 2)], regions,
                          validate=False)


_SEAM_CASES = {
    # two wavy lines, each crossing the x seam, one also the y seam
    "wavy": ((0, 1, 0, 1), "sin(2*pi*(y - 0.5 - 0.2*sin(2*pi*x)))"),
    # a closed curve around the corner, crossing both seams; width 1.3 is not a
    # multiple of 2 ds = 0.7 / 128
    "corner": ((0, 1.3, 0, 0.7), "cos(2*pi*x/1.3) + cos(2*pi*y/0.7) - 1.2"),
}


@pytest.mark.parametrize("name", list_shipped() + sorted(_SEAM_CASES))
def test_trace_curve_matches_the_all_points_de_dup(name):
    if name in _SEAM_CASES:
        system = _torus_curve_system(*_SEAM_CASES[name])
    else:
        system = load_shipped(name).build_system()
    for curve in system.curves:
        got = trace_curve(system, curve.id, 128)
        assert got == _trace_curve_reference(system, curve.id, 128)
        if name == "corner":
            assert len(got) == 1 and got[0].closed
        elif name == "wavy":
            assert len(got) == 2 and all(c.closed for c in got)


def test_sigma_decomposition_traces_the_curve_once(monkeypatch, fold_system):
    calls = count_trace_calls(monkeypatch)
    sigma_decomposition(fold_system, 0, 256)
    assert calls == [0]


def _point_at_reference(comp, s):
    """CurveComponent.point_at with its own binary search over ``params``."""
    pts, prm = comp.points, comp.params
    if comp.closed:
        s = s % comp.length
    s = min(max(s, 0.0), prm[-1])
    lo, hi = 0, len(prm) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if prm[mid] <= s:
            lo = mid
        else:
            hi = mid
    span = prm[hi] - prm[lo]
    w = 0.0 if span == 0.0 else (s - prm[lo]) / span
    a = pts[lo]
    dx, dy = comp.domain.displacement(a, pts[hi])
    return comp.domain.canonical((a[0] + w * dx, a[1] + w * dy))


@pytest.mark.parametrize("name", list_shipped())
def test_point_at_matches_the_reference_search(name):
    system = load_shipped(name).build_system()
    checked = 0
    for curve in system.curves:
        for comp in trace_curve(system, curve.id, 128):
            prm, length = comp.params, comp.length
            assert all(a < b for a, b in zip(prm, prm[1:]))
            probes = list(prm) + [0.5 * (a + b) for a, b in zip(prm, prm[1:])]
            probes += [0.0, length, -1e-9, -0.25 * length, length + 1e-9, 1.75 * length]
            probes += [s + k * length for s in prm[1:4] for k in (-2, -1, 1, 3)]  # closed wrap
            for s in probes:
                got = comp.point_at(s)
                want = _point_at_reference(comp, s)
                assert [v.hex() for v in got] == [v.hex() for v in want], (comp.curve_id, s)
                checked += 1
    assert checked > 0
