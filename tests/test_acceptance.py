"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import dataclasses
import json
import math
import random
import time

import pytest

from filippov.cli import main
from filippov.diagnostics import (
    SensitivityWitness,
    assemble_closed_orbits,
    build_segment_graph,
    chaos_report,
    rescale_tangency_freeze,
)
from filippov.expr import evaluate, differentiate, parse_expression
from filippov.integrate import IntegratorOptions, integrate_filippov
from filippov.scenario import load_shipped, shipped_path
from filippov.sigma import (
    PointClass,
    classify_point,
    convex_weight,
    sigma_decomposition,
    sliding_vector_field,
)

from conftest import decompose
from test_expr import _random_expression
from test_sigma import classification_oracle

SHIPPED = ["sliding_belt_torus", "chaotic_torus", "rotation_plane", "fold_demo_plane"]


@pytest.fixture(scope="module")
def scenarios():
    return {name: load_shipped(name) for name in SHIPPED}


@pytest.fixture(scope="module")
def systems(scenarios):
    return {name: sc.build_system() for name, sc in scenarios.items()}


@pytest.fixture(scope="module")
def sigma_samples(systems):
    """~10^4 points on sliding/escaping arcs across the shipped scenarios."""
    samples = []
    for name in SHIPPED:
        s = systems[name]
        for curve in s.curves:
            dec = sigma_decomposition(s, curve.id, 512)
            arcs = dec.arcs_of_class(PointClass.SLIDING, PointClass.ESCAPING)
            if not arcs:
                continue
            per_arc = 10_000 // (len(arcs) * 3) + 1
            for arc in arcs:
                comp = dec.component_obj(arc)
                for k in range(per_arc):
                    w = 0.01 + 0.98 * (k + 0.5) / per_arc
                    samples.append((s, curve.id, comp.point_at(arc.s_start + w * arc.length)))
    return samples[:10_000]


@pytest.fixture(scope="module")
def chaotic_report(scenarios, systems):
    sc = scenarios["chaotic_torus"]
    t0 = time.time()
    report = chaos_report(systems["chaotic_torus"], sc.config, opts=sc.integrator)
    report["_elapsed"] = time.time() - t0
    return report


def test_criterion_1_sliding_field_correctness(sigma_samples):
    t0 = time.time()
    assert len(sigma_samples) >= 9_000
    for s, cid, p in sigma_samples:
        quotient = sliding_vector_field(s, cid, p)
        lam = convex_weight(s, cid, p)
        assert 0.0 < lam < 1.0
        y1, y2 = s.side_fields(cid)
        v1 = s.field_value(y1, p)
        v2 = s.field_value(y2, p)
        combo = (lam * v1[0] + (1 - lam) * v2[0], lam * v1[1] + (1 - lam) * v2[1])
        assert abs(combo[0] - quotient[0]) <= 1e-12
        assert abs(combo[1] - quotient[1]) <= 1e-12
        gx, gy = s.curve(cid).gradient_at(p)
        dot = quotient[0] * gx + quotient[1] * gy
        bound = 1e-9 * math.hypot(*quotient) * math.hypot(gx, gy)
        assert abs(dot) <= max(bound, 1e-15)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"\nPASS criterion 1: sliding-field forms agree on {len(sigma_samples)} points "
          f"({elapsed:.1f}s)")


def test_criterion_2_classification_oracle(sigma_samples):
    t0 = time.time()
    checked = 0
    for s, cid, p in sigma_samples:
        cls = classify_point(s, cid, p)
        if abs(cls.lie_positive) <= 1e-8 or abs(cls.lie_negative) <= 1e-8:
            continue
        expected = cls.point_class
        if expected is PointClass.PSEUDO_EQUILIBRIUM:
            expected = PointClass.SLIDING if cls.lie_positive < 0 else PointClass.ESCAPING
        got = classification_oracle(s, cid, p)
        assert got is expected, (p, (cls.lie_positive, cls.lie_negative), got)
        checked += 1
    elapsed = time.time() - t0
    assert checked >= 9_000
    assert elapsed < 10.0
    print(f"\nPASS criterion 2: delta-step oracle agrees on {checked} points ({elapsed:.1f}s)")


def test_criterion_3_event_accuracy_and_no_tunneling(systems):
    rng = random.Random(20260808)
    total_events = 0
    for name in SHIPPED:
        s = systems[name]
        h_fns = [(c.id, c.h.raw()) for c in s.curves]
        d = s.domain
        starts = []
        while len(starts) < 100:
            p = (d.x_min + rng.random() * d.width, d.y_min + rng.random() * d.height)
            if all(abs(h(p[0], p[1])) > 1e-3 for _, h in h_fns):
                starts.append(p)
        for p in starts:
            orbit = integrate_filippov(s, p, 10.0)
            for seg, nxt in zip(orbit.segments, orbit.segments[1:]):
                if seg.kind == "regular_arc" and nxt.kind in (
                    "crossing_event", "sliding_arc", "escape_departure",
                ):
                    end = seg.end_point
                    curve_id = nxt.curve_id if nxt.curve_id is not None else nxt.detail.get("curve")
                    h = dict(h_fns)[curve_id if curve_id is not None else 0]
                    assert abs(h(*end)) <= 1e-10, (name, p, end)
                    total_events += 1
            for seg in orbit.segments:
                if seg.kind != "regular_arc":
                    continue
                for cid, h in h_fns:
                    signs = {
                        1 if h(*q) > 0 else -1
                        for q in seg.points[1:-1]
                        if abs(h(*q)) > 1e-9
                    }
                    assert len(signs) <= 1, (name, p, cid)
    assert total_events > 200
    print(f"\nPASS criterion 3: {total_events} events located to |h| <= 1e-10, no tunneling")


def test_criterion_4_integrator_convergence(circle_system):
    orbit = integrate_filippov(circle_system, (1.0, 0.0), 2 * math.pi)
    end = orbit.end_point()
    err = math.hypot(end[0] - 1.0, end[1])
    assert err <= 1e-7
    opts = IntegratorOptions()
    tight = integrate_filippov(
        circle_system, (1.0, 0.0), 2 * math.pi,
        opts=dataclasses.replace(opts, rtol=opts.rtol * 0.1, atol=opts.atol * 0.1),
    )
    te = tight.end_point()
    shift = math.hypot(end[0] - te[0], end[1] - te[1])
    assert shift <= 1e-6
    print(f"\nPASS criterion 4: circle return error {err:.2e}, tightening shift {shift:.2e}")


def test_criterion_5_torus_sliding_belt_period(systems):
    s = systems["sliding_belt_torus"]
    graph = build_segment_graph(s, decompose(s), horizon=15.0, budget=40, dwell_grid=(0.0,))
    q0 = graph.nodes_of_kind("sliding_anchor")[0].node_id
    record = assemble_closed_orbits(graph, q0, set(), s, horizon=10.0)
    assert record is not None
    period = record.period
    assert period == pytest.approx(1.0, abs=1e-6)
    print(f"\nPASS criterion 5: sliding-belt cycle period {period!r}")


def test_criterion_6a_saturation_coverage(chaotic_report):
    sat = chaotic_report["saturation"]
    assert sat["resolution"] == 32
    assert sat["fraction"] >= 0.99
    print(f"\nPASS criterion 6a: saturation coverage {sat['fraction']:.4f} >= 0.99")


def test_criterion_6b_transitivity_pairs(chaotic_report):
    tr = chaotic_report["transitivity"]
    assert tr["total"] == 20
    assert tr["found"] == 20
    print("\nPASS criterion 6b: transitivity probes 20/20")


def test_criterion_6c_sensitivity_witness(chaotic_report, scenarios, systems):
    sens = chaotic_report["sensitivity"]
    assert sens["positive"], sens
    r = sens["r"]
    domain = systems["chaotic_torus"].domain
    assert r == pytest.approx(0.25 * domain.diameter())
    w = sens["witness"]
    assert w["separation"] > r
    witness = SensitivityWitness(
        tuple(w["x"]), tuple(w["y"]),
        _policy_from(w["policy_x"]), _policy_from(w["policy_y"]),
        w["t"], w["separation"], scenarios["chaotic_torus"].config.sensitivity_horizon,
    )
    assert witness.revalidate(systems["chaotic_torus"], scenarios["chaotic_torus"].integrator)
    print(f"\nPASS criterion 6c: witness separation {w['separation']:.3f} > r = {r:.3f}, re-validated")


def _policy_from(text):
    from filippov.integrate import BranchPolicy

    if text.startswith("dwell_then_exit("):
        inner = text[len("dwell_then_exit("):-1]
        dwell, side = inner.split(",")
        return BranchPolicy.dwell_exit(float(dwell), side)
    return BranchPolicy(text)


def test_criterion_6d_closed_orbits_through_windows(chaotic_report):
    dp = chaotic_report["dense_periodicity"]
    assert len(dp["windows"]) == 10
    assert all(w["found"] for w in dp["windows"])
    for w in dp["windows"]:
        assert w["record"]["endpoint_gap"] <= 1e-6
    print("\nPASS criterion 6d: closed orbits through 10/10 windows, gaps <= 1e-6")


def test_criterion_6_runtime(chaotic_report):
    assert chaotic_report["_elapsed"] < 300.0
    assert chaotic_report["verdict"] == "chaotic at budget"
    print(f"\nPASS criterion 6: full machinery in {chaotic_report['_elapsed']:.0f}s < 300s")


def test_criterion_7_rescale_tangency_freeze(systems):
    for name in ("fold_demo_plane", "chaotic_torus"):
        s = systems[name]
        decompositions = decompose(s)
        rescaled = rescale_tangency_freeze(s, decompositions)
        tangencies = [tp for dec in decompositions for tp in dec.tangencies]
        assert tangencies, name
        for tp in tangencies:
            for region in rescaled.regions:
                v = rescaled.field_value(region.field, tp.position)
                assert math.hypot(*v) <= 1e-12
    # trace comparison away from tangencies (regular arc of the fold system)
    s = systems["fold_demo_plane"]
    rescaled = rescale_tangency_freeze(s, decompose(s))
    a = [p for _, p, _, _ in integrate_filippov(s, (-1.8, 0.8), 1.2).samples()]
    b = [p for _, p, _, _ in integrate_filippov(rescaled, (-1.8, 0.8), 2.0).samples()]
    hd = _hausdorff_clipped(a, b)
    assert hd <= 1e-6
    print(f"\nPASS criterion 7: tangencies frozen to equilibria, trace Hausdorff {hd:.2e}")


def _hausdorff_clipped(a, b):
    length_a = sum(math.dist(x, y) for x, y in zip(a, a[1:]))
    clipped = [b[0]]
    acc = 0.0
    for x, y in zip(b, b[1:]):
        step = math.dist(x, y)
        if acc + step >= length_a:
            w = (length_a - acc) / step if step > 0 else 0.0
            clipped.append((x[0] + w * (y[0] - x[0]), x[1] + w * (y[1] - x[1])))
            break
        acc += step
        clipped.append(y)

    def seg_dist(p, a0, a1):
        vx, vy = a1[0] - a0[0], a1[1] - a0[1]
        wx, wy = p[0] - a0[0], p[1] - a0[1]
        den = vx * vx + vy * vy
        t = 0.0 if den == 0 else max(0.0, min(1.0, (wx * vx + wy * vy) / den))
        return math.hypot(wx - t * vx, wy - t * vy)

    def one_way(pts, poly):
        return max(min(seg_dist(p, q0, q1) for q0, q1 in zip(poly, poly[1:])) for p in pts)

    return max(one_way(a, clipped), one_way(clipped, a))


def test_criterion_8_expression_derivatives():
    rng = random.Random(424242)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        source = _random_expression(rng)
        e = parse_expression(source, {"x", "y"})
        dx = differentiate(e, "x")
        for _ in range(10):
            x = rng.uniform(-1.5, 1.5)
            y = rng.uniform(-1.5, 1.5)
            sym = evaluate(dx, {"x": x, "y": y})
            fd = (
                evaluate(e, {"x": x + h, "y": y}) - evaluate(e, {"x": x - h, "y": y})
            ) / (2 * h)
            rel = abs(sym - fd) / (1 + abs(sym))
            worst = max(worst, rel)
            assert rel <= 1e-6
    print(f"\nPASS criterion 8: 1000 derivative checks, worst relative error {worst:.2e}")


def test_criterion_9_diagnose_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["diagnose", "--scenario", str(shipped_path("rotation_plane")), "--seed", "11"]
    assert main(argv + ["--json", str(a)]) == main(argv + ["--json", str(b)])
    assert a.read_bytes() == b.read_bytes()
    print("\nPASS criterion 9: diagnose artifacts byte-identical across runs")


def test_criterion_10_negative_control(scenarios, systems):
    sc = scenarios["rotation_plane"]
    report = chaos_report(systems["rotation_plane"], sc.config, opts=sc.integrator)
    assert report["verdict"].startswith("not chaotic")
    assert not report["transitivity"]["positive"]
    assert report["transitivity"]["found"] < report["transitivity"]["total"]
    assert report["sensitivity"]["witness"] == {
        "found": False, "reason": "inconclusive at budget",
        "budget": sc.config.sensitivity_budget,
    }
    assert report["hypothesis"]["sliding_or_escaping_nonempty"] is False
    print(f"\nPASS criterion 10: rotation verdict {report['verdict']!r}, "
          f"transitivity {report['transitivity']['found']}/{report['transitivity']['total']}")
