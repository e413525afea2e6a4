"""The trace queries against reference walkers over every stored sample.

The reference walkers below step through ``orbit.samples()`` one sample, or
one chord between consecutive samples, at a time, each node on its own; on
wrapping torus orbits and plane orbits from the shipped scenarios
``first_entry``, ``GridCoverage.mark_orbit``, ``_edges_from_orbit`` and
``_returns_to`` must give exactly their answers.
"""

import math
from types import SimpleNamespace

import pytest

from filippov import diagnostics
from filippov.diagnostics import (
    NODE_VICINITY,
    Disk,
    GraphEdge,
    GraphNode,
    GridCoverage,
    build_segment_graph,
)
from filippov.integrate import (
    BranchPolicy,
    PolicyCursor,
    enumerate_branches,
    first_entry,
    integrate_filippov,
)
from filippov.scenario import load_shipped
from filippov.system import Domain

from conftest import decompose


# --------------------------------------------------------------------------- #
# reference walkers: one Python step per stored sample
# --------------------------------------------------------------------------- #


def reference_enters(orbit, disk, domain, t_max=None):
    for t, p, _, _ in orbit.samples():
        if t_max is not None and t > t_max:
            return None
        if domain.distance(disk.center, p) <= disk.radius:
            return t
    return None


def reference_hits(orbit, domain, resolution):
    """Row-major cell flags, one per cell: 1 where some sample falls."""
    hits = [0] * (resolution * resolution)
    for _, p, _, _ in orbit.samples():
        x, y = domain.canonical(p)
        i = int((x - domain.x_min) / domain.width * resolution)
        j = int((y - domain.y_min) / domain.height * resolution)
        hits[min(i, resolution - 1) * resolution + min(j, resolution - 1)] = 1
    return hits


def reference_chord(domain, a, b, point):
    """(w, distance) of the closest point to ``point`` on the chord from sample a to sample b."""
    sx, sy = domain.displacement(a, b)
    ax, ay = domain.displacement(a, point)
    seg2 = sx * sx + sy * sy
    if seg2 == 0.0:
        seg2 = 1e-300
    w = min(1.0, max(0.0, (ax * sx + ay * sy) / seg2))
    return w, math.hypot(w * sx - ax, w * sy - ay)


def reference_edges(domain, src, orbit, nodes):
    samples = [(t, p) for t, p, _, _ in orbit.samples()]
    edges = []
    for n in nodes:
        away = n.node_id != src.node_id  # the source must be left before it is re-entered
        for (t0, a), (t1, b) in zip(samples, samples[1:]):
            if not away:
                away = domain.distance(a, n.point) > 3.0 * max(n.radius, NODE_VICINITY)
                if not away:
                    continue
            w, dist = reference_chord(domain, a, b, n.point)
            if dist <= n.radius:
                t_hit = t0 + w * (t1 - t0)
                if t_hit > 1e-9:
                    edges.append(GraphEdge(src.node_id, n.node_id, t_hit, list(orbit.script)))
                break
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


def test_first_entry_matches_scalar_walker(shipped_orbits):
    hits = 0
    for system, orbit in shipped_orbits:
        d = system.domain
        t_mid = 0.5 * orbit.duration()
        for center in _probe_points(system, orbit):
            for radius in (1e-3, 0.05, 0.2):
                disk = Disk(center, radius)
                got = first_entry(d, orbit.segments, disk)
                assert got == reference_enters(orbit, disk, d)
                # sample times never decrease: the entry by t_mid is the first entry, if no later
                by_mid = got if got is not None and got <= t_mid else None
                assert by_mid == reference_enters(orbit, disk, d, t_max=t_mid)
                hits += got is not None
    assert hits > 100


def test_mark_orbit_matches_scalar_walker(shipped_orbits):
    for system, orbit in shipped_orbits:
        for resolution in (7, 32):
            cov = GridCoverage(system.domain, resolution)
            cov.mark_orbit(orbit)
            assert list(cov.hits.ravel()) == reference_hits(orbit, system.domain, resolution)


def test_edges_from_orbit_match_scalar_walker(shipped_orbits):
    found = 0
    for system, orbit in shipped_orbits:
        d = system.domain
        points = [orbit.initial_point] + _probe_points(system, orbit)
        nodes = [GraphNode(i, "tangency", p, NODE_VICINITY if i % 2 else 0.05)
                 for i, p in enumerate(points)]
        trace = diagnostics._trace(orbit)
        for src in (nodes[0], nodes[1]):
            got = diagnostics._edges_from_orbit(d, src, orbit.script, trace, nodes)
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


def test_segment_graph_walks_each_orbit_once(monkeypatch):
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
    # edges leave the sliding anchor only; its orbits fork where they meet the
    # escaping arc, and by their flight times they have entered none, some or all windows
    scenario = load_shipped("chaotic_torus")
    system = scenario.build_system()
    windows = [Disk((0.84, 0.76), 0.1), Disk((0.42, 0.26), 0.1), Disk((0.51, 0.4), 0.1)]
    graph = build_segment_graph(system, decompose(system), windows=windows, horizon=15.0,
                                budget=40, opts=scenario.integrator, dwell_grid=(0.0, 0.02))
    assert {len(e.windows_hit) for e in graph.edges} == {0, 1, 2, 3}
    for e in graph.edges:  # the windows each edge's orbit entered by its flight time
        orbit = integrate_filippov(system, graph.node(e.source).point, 15.0, opts=scenario.integrator,
                                   policy=PolicyCursor(BranchPolicy.slide_on(), e.script),
                                   ride_targets=graph.ride_targets)
        assert e.windows_hit == {
            n.node_id for n in graph.nodes_of_kind("window_v")
            if reference_enters(orbit, Disk(n.point, n.radius), system.domain,
                                t_max=e.flight_time) is not None
        }
    assert len(enumerated) > 1
    assert [id(o) for o in traced] == [id(o) for o in enumerated]


@pytest.mark.parametrize("kind", ["plane_rect", "flat_torus"])
def test_a_sample_or_chord_on_the_rim_is_inside(kind):
    # (0.375, 0.5) lies exactly 0.625 from the origin, and so does the closest point of each
    # chord below: one leaves the rim at right angles to the radius, one ends on it
    domain = Domain(kind, -1.0, 1.0, -1.0, 1.0)
    rim, far, disk = (0.375, 0.5), (0.875, 0.125), Disk((0.0, 0.0), 0.625)
    assert math.hypot(*rim) == disk.radius < math.hypot(*far)

    def orbit(*points):
        segment = SimpleNamespace(times=[float(k) for k in range(len(points))], points=list(points))
        return SimpleNamespace(segments=[segment], script=[])

    entering = orbit((0.9, 0.9), rim, (0.1, 0.1))
    assert first_entry(domain, entering.segments, disk) == 1.0
    leaving = diagnostics._trace(orbit(rim, far, (0.9, 0.9)))
    assert list(diagnostics._chords_near(domain, leaving, disk.center, disk.radius)) == [(0, 0.0)]
    ending = orbit((0.9, 0.9), far, rim)
    trace = diagnostics._trace(ending)
    assert list(diagnostics._chords_near(domain, trace, disk.center, disk.radius)) == [(1, 1.0)]
    src = GraphNode(1, "sliding_anchor", (0.9, -0.9), NODE_VICINITY)
    node = GraphNode(0, "tangency", disk.center, disk.radius)
    [edge] = diagnostics._edges_from_orbit(domain, src, ending.script, trace, [node])
    assert (edge.source, edge.target, edge.flight_time) == (1, 0, 2.0)
