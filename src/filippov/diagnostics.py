"""Numerical probes for the chaos ingredients and the constructive lemmas.

Every probe is budget-bounded and deterministic under a fixed seed; a
negative outcome is always labeled "inconclusive at budget" rather than a
certificate of absence.  Probes are embarrassingly parallel over seeds and
pairs; this implementation runs them sequentially for reproducibility.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import FilippovError
from .integrate import (
    BranchPolicy,
    IntegratorOptions,
    PolicyCursor,
    enumerate_branches,
    integrate_filippov,
    _nudge_into_arc,
)
from .sigma import (
    PointClass,
    classify_point,
    find_tangency_points,
    sigma_decomposition,
    sliding_vector_field,
)
from .system import FilippovSystem


@dataclass(frozen=True)
class Disk:
    center: tuple[float, float]
    radius: float

    def contains(self, domain, p):
        return domain.distance(self.center, p) <= self.radius

    def to_dict(self):
        return {"center": list(self.center), "radius": self.radius}


@dataclass
class ProbeNotFound:
    reason: str = "inconclusive at budget"
    budget: int = 0

    def to_dict(self):
        return {"found": False, "reason": self.reason, "budget": self.budget}


class GridCoverage:
    """Cell-hit flags over the domain at a fixed resolution."""

    def __init__(self, domain, resolution):
        self.domain = domain
        self.resolution = resolution
        self.hits = np.zeros((resolution, resolution), dtype=bool)

    def mark_orbit(self, orbit):
        """Hit the cell of every stored sample (samples are canonical already)."""
        _, x, y = _trace(orbit)
        d, n = self.domain, self.resolution
        i = ((x - d.x_min) / d.width * n).astype(np.int64)
        j = ((y - d.y_min) / d.height * n).astype(np.int64)
        self.hits[np.minimum(i, n - 1), np.minimum(j, n - 1)] = True

    def fraction(self):
        return float(self.hits.sum()) / float(self.hits.size)

    def covers(self, other):
        """Cell-wise: every cell hit by ``other`` is hit by self."""
        return bool(np.all(self.hits | ~other.hits))

    def write_csv(self, fh):
        fh.write("i,j,hit\n")
        for (i, j), hit in np.ndenumerate(self.hits):
            fh.write(f"{i},{j},{int(hit)}\n")

    def to_dict(self):
        return {
            "resolution": self.resolution,
            "fraction": self.fraction(),
            "hit_cells": int(self.hits.sum()),
        }


def sigma_seed_points(sys, decompositions, per_arc=16, classes=(PointClass.SLIDING, PointClass.ESCAPING)):
    """Evenly spread seed points on the sliding/escaping arcs."""
    seeds = []
    for dec in decompositions:
        for arc in dec.arcs_of_class(*classes):
            comp = dec.component_obj(arc)
            for k in range(per_arc):
                w = (k + 0.5) / per_arc
                seeds.append(comp.point_at(arc.s_start + w * arc.length))
    return seeds


def saturate(sys, seeds, horizon, policies, grid_resolution=32, opts=None):
    """Grid coverage of the union of orbits, both directions, from every seed under every policy."""
    if not seeds:
        raise FilippovError("saturate needs a nonempty seed set")
    opts = opts or IntegratorOptions()
    cov = GridCoverage(sys.domain, grid_resolution)
    for seed in seeds:
        for direction in ("forward", "backward"):
            for policy in policies:
                orbit = integrate_filippov(
                    sys, seed, horizon, direction=direction, policy=policy, opts=opts
                )
                cov.mark_orbit(orbit)
    return cov


def _disk_seeds(disk, n, domain):
    """Deterministic sunflower layout inside a disk."""
    pts = [disk.center]
    golden = math.pi * (3.0 - math.sqrt(5.0))
    for k in range(1, n):
        r = disk.radius * math.sqrt(k / n) * 0.95
        a = k * golden
        pts.append(domain.canonical(
            (disk.center[0] + r * math.cos(a), disk.center[1] + r * math.sin(a))
        ))
    return pts


def _trace(orbit):
    """(t, x, y) float arrays of the orbit's stored samples; every trace query reads these."""
    t = np.array([tt for seg in orbit.segments for tt in seg.times], dtype=float)
    xy = np.array([p for seg in orbit.segments for p in seg.points], dtype=float).reshape(-1, 2)
    return t, xy[:, 0], xy[:, 1]


def _wrap(domain, dx, dy):
    """Shortest representatives of displacement arrays (wrap-aware on the torus)."""
    if domain.kind == "flat_torus":
        dx = dx - np.round(dx / domain.width) * domain.width
        dy = dy - np.round(dy / domain.height) * domain.height
    return dx, dy


def _distances(domain, trace, point):
    """Distance from every sample of the trace to ``point``."""
    _, x, y = trace
    return np.hypot(*_wrap(domain, x - point[0], y - point[1]))


def _entry(domain, trace, disk, t_max=None):
    """First sample time at which the trace is inside the disk (by ``t_max``), else None."""
    t = trace[0]
    inside = _distances(domain, trace, disk.center) <= disk.radius
    if t_max is not None:
        inside &= t <= t_max  # sample times never decrease
    return float(t[np.argmax(inside)]) if inside.any() else None


def _approach(domain, trace, point):
    """Per chord between consecutive samples: closest-point fraction w and distance to ``point``."""
    _, x, y = trace
    sx, sy = _wrap(domain, x[1:] - x[:-1], y[1:] - y[:-1])
    ax, ay = _wrap(domain, point[0] - x[:-1], point[1] - y[:-1])
    seg2 = sx * sx + sy * sy
    seg2[seg2 == 0.0] = 1e-300
    w = np.clip((ax * sx + ay * sy) / seg2, 0.0, 1.0)
    return w, np.hypot(w * sx - ax, w * sy - ay)


def orbit_enters(orbit, disk, domain, t_max=None):
    """First sample time at which the trace enters the disk, else None."""
    return _entry(domain, _trace(orbit), disk, t_max)


def transitivity_probe(sys, u_disk, v_disk, budget, horizon, opts=None, dwell_grid=(0.0,)):
    """Search for one Filippov orbit meeting both disks (forward, budgeted)."""
    opts = opts or IntegratorOptions()
    n_seeds = max(1, min(budget, 16))
    spent = 0
    for seed in _disk_seeds(u_disk, n_seeds, sys.domain):
        if not sys.domain.contains(seed):
            continue
        per_seed = max(1, (budget - spent) // max(1, n_seeds))
        orbits = enumerate_branches(
            sys, seed, horizon, budget=per_seed, dwell_grid=dwell_grid, opts=opts
        )
        spent += len(orbits)
        for orbit in orbits:
            trace = _trace(orbit)
            # the orbit must genuinely meet both disks
            if (_entry(sys.domain, trace, v_disk) is not None
                    and _entry(sys.domain, trace, u_disk) is not None):
                return orbit
        if spent >= budget:
            break
    return ProbeNotFound(budget=budget)


@dataclass
class SensitivityWitness:
    x: tuple[float, float]
    y: tuple[float, float]
    policy_x: BranchPolicy
    policy_y: BranchPolicy
    t: float
    separation: float
    horizon: float

    def to_dict(self):
        return {
            "found": True,
            "x": list(self.x),
            "y": list(self.y),
            "policy_x": self.policy_x.describe(),
            "policy_y": self.policy_y.describe(),
            "t": self.t,
            "separation": self.separation,
        }

    def revalidate(self, sys, opts=None):
        """Re-integrate both records; the separation at t must reproduce to 1e-6."""
        opts = opts or IntegratorOptions()
        ox = integrate_filippov(sys, self.x, self.horizon, policy=self.policy_x, opts=opts)
        oy = integrate_filippov(sys, self.y, self.horizon, policy=self.policy_y, opts=opts)
        d = sys.domain.distance(
            ox.position_at(self.t, sys.domain), oy.position_at(self.t, sys.domain)
        )
        return abs(d - self.separation) <= 1e-6 and d > 0.0


def _pair_separation(sys, orbit_a, orbit_b, horizon):
    """(t, d) of the largest separation on a grid of 512 times."""
    best = (0.0, 0.0)
    t_end = min(orbit_a.duration(), orbit_b.duration(), horizon)
    for k in range(1, 513):
        t = t_end * k / 512
        d = sys.domain.distance(
            orbit_a.position_at(t, sys.domain), orbit_b.position_at(t, sys.domain)
        )
        if d > best[1]:
            best = (t, d)
    return best


def sensitivity_probe(sys, disk, r, budget, horizon, opts=None, rng=None):
    """Search for two orbits from the disk separating beyond r.

    Pairs include x == y with two branch policies whenever the starting point
    carries the escaping freedom; distance is the flat quotient metric.
    """
    if r <= 0:
        raise FilippovError("sensitivity radius r must be positive")
    opts = opts or IntegratorOptions()
    rng = rng or random.Random(0)
    domain = sys.domain
    slide = BranchPolicy.slide_on()
    center = domain.canonical(disk.center)
    pairs = [(center, center, BranchPolicy.exit_up(), BranchPolicy.exit_down())]
    for k in range(budget):
        a = rng.uniform(0, 2 * math.pi)
        rad = disk.radius * math.sqrt(rng.random())
        p = domain.canonical((center[0] + rad * math.cos(a), center[1] + rad * math.sin(a)))
        q = domain.canonical((center[0] - rad * math.cos(a), center[1] - rad * math.sin(a)))
        pairs.append((p, q, slide, slide))
    tried = 0
    for x, y, pol_x, pol_y in pairs:
        if tried >= budget:
            break
        if not (domain.contains(x) and domain.contains(y)):
            continue
        tried += 1
        try:
            ox = integrate_filippov(sys, x, horizon, policy=pol_x, opts=opts)
            oy = integrate_filippov(sys, y, horizon, policy=pol_y, opts=opts)
        except FilippovError:
            continue
        if x == y and not ox.choices and not oy.choices:
            continue  # identical deterministic orbits, no freedom used
        t, d = _pair_separation(sys, ox, oy, horizon)
        if d > r:
            witness = SensitivityWitness(x, y, pol_x, pol_y, t, d, horizon)
            if witness.revalidate(sys, opts):
                return witness
    return ProbeNotFound(budget=budget)


# --------------------------------------------------------------------------- #
# segment graph and closed-orbit assembly
# --------------------------------------------------------------------------- #

NODE_VICINITY = 1e-3
_RETURN_TOL = 1e-6  # endpoint gap of an exact return to a cycle's base point
_RETURN_T_MIN = 1e-3  # a return needs at least this flight time


@dataclass
class GraphNode:
    node_id: int
    kind: str  # sliding_anchor | escape_anchor | tangency | escape_entry | window_v
    point: tuple[float, float]
    radius: float  # capture vicinity (NODE_VICINITY for points, disk radius for windows)

    def to_dict(self):
        return {
            "id": self.node_id,
            "kind": self.kind,
            "point": list(self.point),
            "radius": self.radius,
        }


@dataclass
class GraphEdge:
    source: int
    target: int
    orbit: object
    flight_time: float
    script: list
    windows_hit: set = field(default_factory=set)

    def to_dict(self):
        return {
            "source": self.source,
            "target": self.target,
            "flight_time": self.flight_time,
            "windows_hit": sorted(self.windows_hit),
        }


@dataclass
class SegmentGraph:
    nodes: list
    edges: list
    hypothesis_failed: bool = False
    ride_targets: list = field(default_factory=list)  # (TangencyPoint, curve id) escape entries

    def node(self, node_id):
        return self.nodes[node_id]

    def out_edges(self, node_id):
        return [e for e in self.edges if e.source == node_id]

    def nodes_of_kind(self, *kinds):
        return [n for n in self.nodes if n.kind in kinds]

    def validate_edges(self, domain):
        """Every edge starts near its source and first meets its target."""
        for e in self.edges:
            src = self.node(e.source)
            dst = self.node(e.target)
            start = e.orbit.initial_point
            if domain.distance(start, src.point) > max(src.radius, NODE_VICINITY) + 1e-9:
                return False
            hit = e.orbit.position_at(e.flight_time, domain)
            if domain.distance(hit, dst.point) > dst.radius + 1e-6:
                return False
        return True

    def to_dot(self):
        lines = ["digraph segment_graph {"]
        for n in self.nodes:
            label = f"{n.kind}#{n.node_id}"
            lines.append(f'  n{n.node_id} [label="{label}"];')
        for e in self.edges:
            lines.append(
                f'  n{e.source} -> n{e.target} [label="{e.flight_time:.3f}"];'
            )
        lines.append("}")
        return "\n".join(lines)

    def to_dict(self):
        return {
            "schema": "filippov.graph/1",
            "hypothesis_failed": self.hypothesis_failed,
            "nodes": [n.to_dict() for n in self.nodes],
            "edges": [e.to_dict() for e in self.edges],
        }


def probe_windows(sys, count, radius, rng, horizon=20.0, opts=None, kind="forward"):
    """Window disks kept by the short-orbit criterion.

    'forward' windows flow into the sliding region; 'backward' windows reach
    the escaping region in backward time.
    """
    opts = opts or IntegratorOptions()
    direction = "forward" if kind == "forward" else "backward"
    want = PointClass.SLIDING if kind == "forward" else PointClass.ESCAPING
    out = []
    attempts = 0
    d = sys.domain
    while len(out) < count and attempts < count * 40:
        attempts += 1
        p = (d.x_min + rng.random() * d.width, d.y_min + rng.random() * d.height)
        orbit = integrate_filippov(sys, p, horizon, direction=direction, opts=opts)
        entered = next((seg for seg in orbit.segments if seg.kind == "sliding_arc"), None)
        if entered is None:
            continue
        try:
            cls = classify_point(sys, entered.curve_id, entered.start_point)
        except FilippovError:
            continue
        if cls.point_class in (want, PointClass.PSEUDO_EQUILIBRIUM):
            out.append(Disk(d.canonical(p), radius))
    return out


def _escape_entry_tangencies(sys, decompositions):
    """Escape-entry tangencies: the sliding flow points into an escaping arc.

    Only these can serve as graze-capture (ride) targets; at the other end of
    an arc the sliding flow immediately leaves it again.  A tangency whose
    neighbourhood cannot be classified is skipped.
    """
    targets = []
    for dec in decompositions:
        for tp in dec.tangencies:
            if tp.kind != "regular":
                continue
            try:
                probe = _nudge_into_arc(sys, dec.curve_id, tp.position, step=1e-4)
                pcls = classify_point(sys, dec.curve_id, probe)
            except FilippovError:
                continue
            if pcls.point_class is PointClass.ESCAPING:
                targets.append((tp, dec.curve_id))
    return targets


def build_segment_graph(sys, decompositions, windows=None, horizon=60.0, budget=400,
                        opts=None, dwell_grid=(0.0, 0.02)):
    """Nodes on the manifold joined by numerically computed orbit segments.

    ``decompositions`` are the caller's ``sigma_decomposition`` results, one
    per curve of ``sys``; anchors sit on their sliding and escaping arcs and
    every tangency becomes a node.  The escape-entry tangencies among them are
    the graph's ``ride_targets``.  Edges are discovered by branch-enumerated
    integration (with graze capture of the ride targets) from every node;
    each edge stores its orbit, its first-passage flight time and the windows
    its orbit entered by then.
    """
    opts = opts or IntegratorOptions()
    domain = sys.domain
    decs = decompositions
    slide_arcs = [(dec, arc) for dec in decs for arc in dec.arcs_of_class(PointClass.SLIDING)]
    escape_arcs = [(dec, arc) for dec in decs for arc in dec.arcs_of_class(PointClass.ESCAPING)]
    nodes: list[GraphNode] = []

    if not slide_arcs and not escape_arcs:
        return SegmentGraph(nodes=[], edges=[], hypothesis_failed=True)

    def add_node(kind, point, radius=NODE_VICINITY):
        node = GraphNode(len(nodes), kind, domain.canonical(point), radius)
        nodes.append(node)
        return node

    def flow_fraction(dec, arc, fraction):
        """Point a given fraction of the way along the sliding flow direction."""
        comp = dec.component_obj(arc)
        if comp.closed and arc.length >= comp.length - 1e-9:
            return comp.point_at(arc.s_start + fraction * arc.length)
        mid = comp.point_at(arc.s_start + 0.5 * arc.length)
        ahead = comp.point_at(arc.s_start + 0.5 * arc.length + 1e-4)
        zx, zy = sliding_vector_field(sys, arc.curve_id, mid)
        dx, dy = domain.displacement(mid, ahead)
        along = zx * dx + zy * dy  # does the flow run with increasing s?
        w = fraction if along > 0 else 1.0 - fraction
        return comp.point_at(arc.s_start + w * arc.length)

    for dec, arc in slide_arcs:
        add_node("sliding_anchor", flow_fraction(dec, arc, 0.8))
    for dec, arc in escape_arcs:
        add_node("escape_anchor", flow_fraction(dec, arc, 0.5))

    ride_targets = _escape_entry_tangencies(sys, decs)
    ride_positions = {t[0].position for t in ride_targets}
    for dec in decs:
        for tp in dec.tangencies:
            kind = "escape_entry" if tp.position in ride_positions else "tangency"
            add_node(kind, tp.position)

    window_nodes = [add_node("window_v", disk.center, radius=disk.radius) for disk in windows or ()]

    edges = []
    spent = 0
    for src in nodes:
        if spent >= budget:
            break
        per_node = max(2, budget // max(1, len(nodes)))
        orbits = enumerate_branches(
            sys, src.point, horizon, budget=per_node, dwell_grid=dwell_grid,
            opts=opts, ride_targets=ride_targets,
        )
        spent += len(orbits)
        for orbit in orbits:
            trace = _trace(orbit)
            # sample times never decrease: an edge's orbit has entered a window
            # by its flight time exactly when the first entry is no later
            entries = [(n.node_id, _entry(domain, trace, Disk(n.point, n.radius)))
                       for n in window_nodes]
            for e in _edges_from_orbit(domain, src, orbit, trace, nodes):
                e.windows_hit = {wid for wid, t_in in entries
                                 if t_in is not None and t_in <= e.flight_time}
                edges.append(e)
    return SegmentGraph(nodes=nodes, edges=edges, ride_targets=ride_targets)


def _edges_from_orbit(domain, src, orbit, trace, nodes):
    """First-passage hits of every node vicinity along one orbit's trace.

    Distances are measured to the chords between consecutive samples so that
    close passes between samples (grazes in particular) are not missed.
    """
    ts = trace[0]
    if ts.size < 2:
        return []
    script = list(orbit.script)
    edges = []
    for n in nodes:
        w, dist = _approach(domain, trace, n.point)
        ok = dist <= n.radius
        if n.node_id == src.node_id:
            # require the orbit to leave the source vicinity before re-entry
            away = _distances(domain, trace, n.point)[:-1] > 3.0 * max(n.radius, NODE_VICINITY)
            first_away = int(np.argmax(away)) if away.any() else len(ok)
            ok[:first_away] = False
        if not ok.any():
            continue
        i = int(np.argmax(ok))
        t_hit = float(ts[i] + w[i] * (ts[i + 1] - ts[i]))
        if t_hit > 1e-9:
            edges.append(GraphEdge(src.node_id, n.node_id, orbit, t_hit, script))
    return sorted(edges, key=lambda e: e.target)


@dataclass
class ClosedOrbitRecord:
    orbit: object
    period: float
    base_point: tuple[float, float]
    windows_visited: list
    endpoint_gap: float

    def to_dict(self):
        return {
            "period": self.period,
            "base": list(self.base_point),
            "windows_visited": self.windows_visited,
            "endpoint_gap": self.endpoint_gap,
        }


def _returns_to(sys, trace, base):
    """Yield (t, point) whenever the trace passes through the base point.

    The chord kernel proposes the chords that come within twice the tolerance;
    the scalar domain metric computes each one's point and gap and decides.
    """
    domain = sys.domain
    ts, xs, ys = trace
    if ts.size < 2:
        return
    _, dist = _approach(domain, trace, base)
    last_t = -1.0
    for i in np.flatnonzero((dist <= 2.0 * _RETURN_TOL) & (ts[1:] > _RETURN_T_MIN)):
        prev_t, t = float(ts[i]), float(ts[i + 1])
        a, b = (float(xs[i]), float(ys[i])), (float(xs[i + 1]), float(ys[i + 1]))
        seg = domain.displacement(a, b)
        seg_len2 = seg[0] ** 2 + seg[1] ** 2
        w = 0.0
        if seg_len2 > 0:
            to_base = domain.displacement(a, base)
            w = max(0.0, min(1.0, (to_base[0] * seg[0] + to_base[1] * seg[1]) / seg_len2))
        q = domain.canonical((a[0] + w * seg[0], a[1] + w * seg[1]))
        if domain.distance(q, base) <= _RETURN_TOL:
            t_hit = prev_t + w * (t - prev_t)
            if t_hit > _RETURN_T_MIN and t_hit - last_t > 1e-6:
                last_t = t_hit
                yield t_hit, q


def assemble_closed_orbits(graph, base_anchor, windows_to_visit, sys, horizon=200.0,
                           opts=None):
    """Closed orbits through the base anchor visiting the requested windows.

    ``graph`` is a ``build_segment_graph`` result for ``sys``; candidate
    orbits may ride its ``ride_targets``, so no curve is traced here.
    Candidate branch scripts come from the graph: scripts of edges leaving
    the base anchor (depth one) and their concatenations through exact
    returns to the anchor (depth two).  The first 24 candidates are re-validated
    end-to-end by a fresh integration from the anchor; a cycle is accepted
    only when some exact return (endpoint mismatch <= 1e-6) happens after the
    requested windows were visited.
    """
    opts = opts or IntegratorOptions()
    if not graph.nodes:
        return []
    base = graph.node(base_anchor)
    want = set(windows_to_visit)

    out = graph.out_edges(base_anchor)
    scripts = [e.script for e in out if want <= set(e.windows_hit)] + [[]]
    scripts += [e.script for e in out]
    scripts += [list(e1.script) + list(e2.script)
                for e1 in out if e1.target == base_anchor for e2 in out]
    candidates = {}  # first occurrence of each distinct script, in order
    for script in scripts:
        candidates.setdefault(tuple(str(s) for s in script), list(script))

    records = []
    for script in list(candidates.values())[:24]:
        record = _revalidate_cycle(sys, graph, base, want, script, horizon, opts)
        if record is not None:
            records.append(record)
            if want:
                return records  # one validated cycle per request suffices
    return records


def _revalidate_cycle(sys, graph, base, want, script, horizon, opts):
    orbit = integrate_filippov(
        sys, base.point, horizon,
        policy=PolicyCursor(BranchPolicy.slide_on(), script),
        opts=opts, ride_targets=graph.ride_targets,
    )
    trace = _trace(orbit)
    entries = [_entry(sys.domain, trace, Disk(graph.node(wid).point, graph.node(wid).radius))
               for wid in want]
    if None in entries:
        return None
    t_needed = max(entries, default=0.0)
    for period, endpoint in _returns_to(sys, trace, base.point):
        if period >= t_needed:
            gap = sys.domain.distance(endpoint, base.point)
            return ClosedOrbitRecord(orbit, period, base.point, sorted(want), gap)
    return None


def _window_cycles(graph, sys, horizon, opts):
    """Per window node, the first closed orbit through it from any sliding anchor."""
    bases = [n.node_id for n in graph.nodes_of_kind("sliding_anchor")]
    results = []
    for node in graph.nodes_of_kind("window_v"):
        recs = []
        for base in bases:
            recs = assemble_closed_orbits(graph, base, {node.node_id}, sys,
                                          horizon=horizon, opts=opts)
            if recs:
                break
        results.append({
            "window": node.to_dict(),
            "found": bool(recs),
            "record": recs[0].to_dict() if recs else None,
        })
    return results


# --------------------------------------------------------------------------- #
# tangency-freezing rescale
# --------------------------------------------------------------------------- #


def rescale_tangency_freeze(sys, sigma_resolution=512):
    """Multiply the field by g(p) = prod min(1, |p - T_j|^2) over tangencies.

    The rescaled system's tangency points are equilibria; orbit traces away
    from them coincide with the originals as point sets.
    """
    tangencies = [tp for curve in sys.curves
                  for tp in find_tangency_points(sys, curve.id, sigma_resolution)]
    if not tangencies:
        return sys
    positions = [t.position for t in tangencies]
    domain = sys.domain

    def g(p):
        out = 1.0
        for q in positions:
            d = domain.distance(p, q)
            out *= min(1.0, d * d)
        return out

    rescaled = sys.with_velocity_scale(g)
    rescaled.frozen_tangencies = rescaled.frozen_tangencies + tuple(tangencies)
    return rescaled


# --------------------------------------------------------------------------- #
# aggregated chaos report
# --------------------------------------------------------------------------- #


@dataclass
class DiagnosticsConfig:
    seed: int = 0
    grid_resolution: int = 32
    sigma_resolution: int = 512
    saturate_horizon: float = 200.0
    saturate_seeds_per_arc: int = 16
    probe_horizon: float = 100.0
    transitivity_pairs: int = 20
    transitivity_budget: int = 50
    disk_radius: float = 0.05
    sensitivity_disk_radius: float = 0.01
    sensitivity_budget: int = 48
    sensitivity_horizon: float = 150.0
    r_fraction: float = 0.25
    cycle_windows: int = 10
    window_radius: float = 0.05
    graph_horizon: float = 80.0
    graph_budget: int = 200
    cycle_horizon: float = 200.0
    dwell_grid: tuple = (0.0, 0.02)
    ms_interpretation: str = "sliding_and_escaping"  # or "sliding_only"

    def to_dict(self):
        return {
            "seed": self.seed,
            "grid_resolution": self.grid_resolution,
            "sigma_resolution": self.sigma_resolution,
            "saturate_horizon": self.saturate_horizon,
            "probe_horizon": self.probe_horizon,
            "transitivity_pairs": self.transitivity_pairs,
            "disk_radius": self.disk_radius,
            "r_fraction": self.r_fraction,
            "cycle_windows": self.cycle_windows,
            "window_radius": self.window_radius,
            "dwell_grid": list(self.dwell_grid),
            "ms_interpretation": self.ms_interpretation,
        }


def _saturate_policies(dwell_grid):
    policies = [BranchPolicy.exit_up(), BranchPolicy.exit_down(), BranchPolicy.slide_on()]
    for d in dwell_grid:
        if d > 0:
            policies.append(BranchPolicy.dwell_exit(d, "positive"))
            policies.append(BranchPolicy.dwell_exit(d, "negative"))
    return policies


def _random_disk(rng, domain, radius):
    # keep plane-domain disks fully inside the rectangle
    pad = radius if domain.kind == "plane_rect" else 0.0
    return Disk(
        (domain.x_min + pad + rng.random() * (domain.width - 2 * pad),
         domain.y_min + pad + rng.random() * (domain.height - 2 * pad)),
        radius,
    )


def chaos_report(sys, config=None, opts=None):
    """Aggregate the transitivity / sensitivity / dense-periodicity probes.

    Returns a JSON-ready dict with per-ingredient evidence; inconclusive
    probes are labeled as such and never upgraded to negatives.
    """
    cfg = config or DiagnosticsConfig()
    opts = opts or IntegratorOptions()
    rng = random.Random(cfg.seed)
    domain = sys.domain
    report = {
        "schema": "filippov.report/1",
        "config": cfg.to_dict(),
        "domain": {"kind": domain.kind, "diameter": domain.diameter()},
    }

    decs = [sigma_decomposition(sys, c.id, cfg.sigma_resolution) for c in sys.curves]
    report["sigma"] = [dec.to_dict() for dec in decs]
    classes = (
        (PointClass.SLIDING, PointClass.ESCAPING)
        if cfg.ms_interpretation == "sliding_and_escaping"
        else (PointClass.SLIDING,)
    )
    seeds = sigma_seed_points(sys, decs, per_arc=cfg.saturate_seeds_per_arc, classes=classes)
    hypothesis = bool(seeds)
    report["hypothesis"] = {
        "sliding_or_escaping_nonempty": hypothesis,
        "note": None if hypothesis else
        "sliding and escaping regions are empty: the dense-periodicity "
        "machinery does not apply; only transitivity probes run",
    }

    if hypothesis:
        cov = saturate(
            sys, seeds, cfg.saturate_horizon, _saturate_policies(cfg.dwell_grid),
            grid_resolution=cfg.grid_resolution, opts=opts,
        )
        report["saturation"] = cov.to_dict()
    else:
        report["saturation"] = None

    trials = []
    for _ in range(cfg.transitivity_pairs):
        u = _random_disk(rng, domain, cfg.disk_radius)
        v = _random_disk(rng, domain, cfg.disk_radius)
        result = transitivity_probe(
            sys, u, v, cfg.transitivity_budget, cfg.probe_horizon,
            opts=opts, dwell_grid=cfg.dwell_grid,
        )
        ok = not isinstance(result, ProbeNotFound)
        trials.append({
            "U": u.to_dict(), "V": v.to_dict(),
            "found": ok,
            "detail": None if ok else result.to_dict(),
        })
    found_all = all(t["found"] for t in trials)
    report["transitivity"] = {
        "pairs": trials,
        "found": sum(1 for t in trials if t["found"]),
        "total": len(trials),
        "positive": found_all,
        "label": "positive" if found_all else "inconclusive at budget",
    }

    r = cfg.r_fraction * domain.diameter()
    disk = _random_disk(rng, domain, cfg.sensitivity_disk_radius)
    witness = sensitivity_probe(
        sys, disk, r, cfg.sensitivity_budget, cfg.sensitivity_horizon,
        opts=opts, rng=random.Random(rng.random()),
    )
    sensitive = isinstance(witness, SensitivityWitness)
    report["sensitivity"] = {
        "r": r,
        "disk": disk.to_dict(),
        "witness": witness.to_dict(),
        "positive": sensitive,
        "label": "positive" if sensitive else "inconclusive at budget",
    }

    if hypothesis:
        windows = [_random_disk(rng, domain, cfg.window_radius) for _ in range(cfg.cycle_windows)]
        graph = build_segment_graph(
            sys, decs, windows=windows, horizon=cfg.graph_horizon, budget=cfg.graph_budget,
            opts=opts, dwell_grid=cfg.dwell_grid,
        )
        cycle_results = (_window_cycles(graph, sys, cfg.cycle_horizon, opts)
                         if graph.nodes_of_kind("sliding_anchor") else [])
        periodic_positive = bool(cycle_results) and all(c["found"] for c in cycle_results)
        report["dense_periodicity"] = {
            "graph": graph.to_dict(),
            "windows": cycle_results,
            "positive": periodic_positive,
            "label": "positive" if periodic_positive else "inconclusive at budget",
        }
    else:
        report["dense_periodicity"] = {
            "graph": None, "windows": [], "positive": False,
            "label": "hypothesis absent",
        }

    ingredients = {
        "transitive": report["transitivity"]["positive"],
        "sensitive": report["sensitivity"]["positive"],
        "dense_periodic": report["dense_periodicity"]["positive"],
    }
    report["ingredients"] = ingredients
    if all(ingredients.values()):
        report["verdict"] = "chaotic at budget"
    elif not hypothesis:
        report["verdict"] = "not chaotic (hypothesis absent)"
    else:
        report["verdict"] = "not chaotic at budget (inconclusive)"
    return report
