"""The array trace queries against the scalar per-sample walkers they replaced.

The reference walkers below are the per-sample loops that ``orbit_enters``,
``GridCoverage.mark_orbit``, ``_edges_from_orbit`` and ``_returns_to`` used to
run; on wrapping torus orbits and plane orbits from the shipped scenarios the
array queries must give exactly their answers.
"""

import numpy as np
import pytest

from filippov import diagnostics
from filippov.diagnostics import (
    NODE_VICINITY,
    Disk,
    GraphEdge,
    GraphNode,
    GridCoverage,
    build_segment_graph,
    orbit_enters,
)
from filippov.integrate import BranchPolicy, enumerate_branches, integrate_filippov
from filippov.scenario import load_shipped

from conftest import decompose


# --------------------------------------------------------------------------- #
# reference walkers: one Python step per stored sample
# --------------------------------------------------------------------------- #


def reference_enters(orbit, disk, domain, t_max=None):
    for t, p, _, _ in orbit.samples():
        if t_max is not None and t > t_max:
            return None
        if disk.contains(domain, p):
            return t
    return None


def reference_hits(orbit, domain, resolution):
    hits = np.zeros((resolution, resolution), dtype=bool)
    for _, p, _, _ in orbit.samples():
        x, y = domain.canonical(p)
        i = int((x - domain.x_min) / domain.width * resolution)
        j = int((y - domain.y_min) / domain.height * resolution)
        hits[min(i, resolution - 1), min(j, resolution - 1)] = True
    return hits


def reference_edges(domain, src, orbit, nodes):
    ts, xs, ys = [], [], []
    for t, p, _, _ in orbit.samples():
        ts.append(t)
        xs.append(p[0])
        ys.append(p[1])
    if len(ts) < 2:
        return []
    ts, xs, ys = np.asarray(ts), np.asarray(xs), np.asarray(ys)

    def wrap(d, period):
        if domain.kind != "flat_torus":
            return d
        return d - np.round(d / period) * period

    sx = wrap(xs[1:] - xs[:-1], domain.width)
    sy = wrap(ys[1:] - ys[:-1], domain.height)
    seg2 = sx * sx + sy * sy
    seg2[seg2 == 0.0] = 1e-300
    edges = []
    for n in nodes:
        ax = wrap(n.point[0] - xs[:-1], domain.width)
        ay = wrap(n.point[1] - ys[:-1], domain.height)
        w = np.clip((ax * sx + ay * sy) / seg2, 0.0, 1.0)
        dist = np.hypot(w * sx - ax, w * sy - ay)
        ok = dist <= n.radius
        if n.node_id == src.node_id:
            away = np.hypot(ax, ay) > 3.0 * max(n.radius, NODE_VICINITY)
            first_away = int(np.argmax(away)) if away.any() else len(ok)
            ok[:first_away] = False
        idx = np.nonzero(ok)[0]
        if idx.size == 0:
            continue
        i = int(idx[0])
        t_hit = float(ts[i] + w[i] * (ts[i + 1] - ts[i]))
        if t_hit > 1e-9:
            edges.append(GraphEdge(src.node_id, n.node_id, orbit, t_hit, list(orbit.script)))
    return sorted(edges, key=lambda e: e.target)


def reference_returns(domain, orbit, base, t_min=1e-3, tol=1e-6):
    out = []
    prev_t, prev_p = None, None
    last_t = -1.0
    for t, p, _, _ in orbit.samples():
        if prev_p is not None and t > t_min:
            a, b = prev_p, p
            seg = domain.displacement(a, b)
            seg_len2 = seg[0] ** 2 + seg[1] ** 2
            w = 0.0
            if seg_len2 > 0:
                to_base = domain.displacement(a, base)
                w = max(0.0, min(1.0, (to_base[0] * seg[0] + to_base[1] * seg[1]) / seg_len2))
            q = domain.canonical((a[0] + w * seg[0], a[1] + w * seg[1]))
            if domain.distance(q, base) <= tol:
                t_hit = prev_t + w * (t - prev_t)
                if t_hit > t_min and t_hit - last_t > 1e-6:
                    last_t = t_hit
                    out.append((t_hit, q))
        prev_t, prev_p = t, p
    return out


# --------------------------------------------------------------------------- #
# orbits from the shipped scenarios
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def shipped_orbits():
    """(system, orbit) pairs: wrapping torus orbits, plane orbits, forks and backward runs."""
    runs = {
        "chaotic_torus": [((0.1, 0.25), "forward", None), ((0.77, 0.61), "backward", None),
                          ((0.3, 0.9), "forward", BranchPolicy.exit_down())],
        "sliding_belt_torus": [((0.1, 0.9), "forward", BranchPolicy.slide_on()),
                               ((0.3, 0.5), "forward", BranchPolicy.exit_up()),
                               ((0.6, 0.2), "backward", BranchPolicy.dwell_exit(0.1, "negative"))],
        "fold_demo_plane": [((-1.2, 0.7), "forward", None), ((0.5, -0.5), "backward", None)],
        "rotation_plane": [((0.3, 0.2), "forward", None), ((0.9, -0.4), "forward", None)],
    }
    out = []
    for name, starts in runs.items():
        scenario = load_shipped(name)
        system = scenario.build_system()
        for start, direction, policy in starts:
            out.append((system, integrate_filippov(
                system, start, 6.0, direction=direction, policy=policy, opts=scenario.integrator,
            )))
        for orbit in enumerate_branches(system, starts[0][0], 4.0, budget=4, dwell_grid=(0.0, 0.05),
                                        opts=scenario.integrator):
            out.append((system, orbit))
    return out


def _points(orbit):
    return [p for _, p, _, _ in orbit.samples()]


def _probe_points(system, orbit):
    """Samples, chord midpoints, a near-corner point and an off-trace point."""
    d = system.domain
    pts = _points(orbit)
    picks = [pts[k] for k in range(0, len(pts), max(1, len(pts) // 5))]
    for k in range(1, len(pts), max(1, len(pts) // 4)):
        dx, dy = d.displacement(pts[k - 1], pts[k])
        picks.append(d.canonical((pts[k - 1][0] + 0.5 * dx, pts[k - 1][1] + 0.5 * dy)))
    picks.append((d.x_min + 0.01 * d.width, d.y_min + 0.01 * d.height))
    picks.append((d.x_min + 0.37 * d.width, d.y_min + 0.61 * d.height))
    return picks


def test_stored_samples_are_canonical_and_time_ordered(shipped_orbits):
    # the coverage kernel bins samples without re-wrapping them, and the
    # window entries of graph edges assume times never decrease
    seams = 0
    for system, orbit in shipped_orbits:
        times = [t for t, _, _, _ in orbit.samples()]
        assert all(a <= b for a, b in zip(times, times[1:]))
        for seg in orbit.segments:
            assert len(seg.times) == len(seg.points)
        pts = _points(orbit)
        for p in pts:
            assert system.domain.canonical(p) == p
        if system.domain.kind == "flat_torus":
            seams += sum(1 for a, b in zip(pts, pts[1:])
                         if abs(a[0] - b[0]) > 0.5 or abs(a[1] - b[1]) > 0.5)
    assert seams > 0  # the orbits here, and in the tests below, cross the torus seams


def test_orbit_enters_matches_scalar_walker(shipped_orbits):
    hits = 0
    for system, orbit in shipped_orbits:
        d = system.domain
        t_mid = 0.5 * orbit.duration()
        for center in _probe_points(system, orbit):
            for radius in (1e-3, 0.05, 0.2):
                disk = Disk(center, radius)
                for t_max in (None, t_mid):
                    got = orbit_enters(orbit, disk, d, t_max=t_max)
                    assert got == reference_enters(orbit, disk, d, t_max=t_max)
                    hits += got is not None
    assert hits > 100


def test_mark_orbit_matches_scalar_walker(shipped_orbits):
    for system, orbit in shipped_orbits:
        for resolution in (7, 32):
            cov = GridCoverage(system.domain, resolution)
            cov.mark_orbit(orbit)
            assert np.array_equal(cov.hits, reference_hits(orbit, system.domain, resolution))


def test_edges_from_orbit_match_scalar_walker(shipped_orbits):
    found = 0
    for system, orbit in shipped_orbits:
        d = system.domain
        points = [orbit.initial_point] + _probe_points(system, orbit)
        nodes = [GraphNode(i, "tangency", p, NODE_VICINITY if i % 2 else 0.05)
                 for i, p in enumerate(points)]
        trace = diagnostics._trace(orbit)
        for src in (nodes[0], nodes[1]):
            got = diagnostics._edges_from_orbit(d, src, orbit, trace, nodes)
            want = reference_edges(d, src, orbit, nodes)
            assert [(e.source, e.target, e.flight_time, e.script) for e in got] == \
                [(e.source, e.target, e.flight_time, e.script) for e in want]
            found += len(got)
    assert found > 50


def test_returns_to_matches_scalar_walker(shipped_orbits):
    found = 0
    for system, orbit in shipped_orbits:
        trace = diagnostics._trace(orbit)
        for base in [orbit.initial_point] + _probe_points(system, orbit):
            got = list(diagnostics._returns_to(system, trace, base))
            assert got == reference_returns(system.domain, orbit, base)
            found += len(got)
    assert found > 20


def test_segment_graph_walks_each_orbit_once(belt_system, monkeypatch):
    traced = []
    enumerated = []
    trace, enumerate_ = diagnostics._trace, diagnostics.enumerate_branches

    def counting_trace(orbit):
        traced.append(orbit)
        return trace(orbit)

    def counting_enumerate(*args, **kwargs):
        orbits = enumerate_(*args, **kwargs)
        enumerated.extend(orbits)
        return orbits

    monkeypatch.setattr(diagnostics, "_trace", counting_trace)
    monkeypatch.setattr(diagnostics, "enumerate_branches", counting_enumerate)
    windows = [Disk((0.3, 0.2), 0.05), Disk((0.7, 0.8), 0.05), Disk((0.5, 0.5), 0.1)]
    graph = build_segment_graph(belt_system, decompose(belt_system), windows=windows,
                                horizon=15.0, budget=60, dwell_grid=(0.0, 0.1))
    assert any(e.windows_hit for e in graph.edges)
    for e in graph.edges:  # the windows each edge's orbit entered by its flight time
        assert e.windows_hit == {
            n.node_id for n in graph.nodes_of_kind("window_v")
            if reference_enters(e.orbit, Disk(n.point, n.radius), belt_system.domain,
                                t_max=e.flight_time) is not None
        }
    assert len(enumerated) > 1
    assert [id(o) for o in traced] == [id(o) for o in enumerated]
