"""Numerical probes for the chaos ingredients and the constructive lemmas.

Every probe is budget-bounded and deterministic under a fixed seed; a
negative outcome is always labeled "inconclusive at budget" rather than a
certificate of absence.  Probes are embarrassingly parallel over seeds and
pairs; this implementation runs them sequentially for reproducibility.

Disk entries are ``integrate.first_entry`` walks of an orbit's segments; a
transitivity probe orbit carries them as its ``goal_entries``.  The passes
of the chords between samples near a point walk plain lists: ``_trace``
lists an orbit's stored sample times and points once, and ``_chords_near``
reads them with the domain's displacement arithmetic.  A cycle candidate's
returns to its anchor are listed once, when it is integrated, from the
closest points ``_chords_near`` yields; each request for a cycle scans them.
"""

from __future__ import annotations

import itertools
import logging
import math
import random
import time
from dataclasses import asdict, dataclass, field

from .errors import ConfigurationError, FilippovError
from .integrate import (
    BranchPolicy,
    PolicyCursor,
    enumerate_branches,
    first_entry,
    integrate_filippov,
)
from .sigma import (
    PointClass,
    classify_point,
    nudge_into_arc,
    onto_curve,
    sigma_decomposition,
    sliding_vector_field,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Disk:
    center: tuple[float, float]
    radius: float

    def to_dict(self):
        return {"center": list(self.center), "radius": self.radius}


@dataclass
class ProbeNotFound:
    reason: str = "inconclusive at budget"
    budget: int = 0

    def to_dict(self):
        return {"found": False, "reason": self.reason, "budget": self.budget}


class CellFlags:
    """An n x n grid of 0/1 flags, stored flat in row-major (i, j) order."""

    def __init__(self, n):
        self.n = n
        self.flags = bytearray(n * n)

    @property
    def size(self):
        return len(self.flags)

    def sum(self):
        return self.flags.count(1)

    def all(self):
        return 0 not in self.flags

    def ravel(self):
        """The flags as bytes, row by row."""
        return bytes(self.flags)


class GridCoverage:
    """Cell-hit flags over the domain at a fixed resolution."""

    def __init__(self, domain, resolution):
        self.domain = domain
        self.resolution = resolution
        self.hits = CellFlags(resolution)

    def mark_orbit(self, orbit):
        """Hit the cell of every stored sample (samples are canonical already)."""
        d, n = self.domain, self.resolution
        x0, y0, width, height = d.x_min, d.y_min, d.width, d.height
        cells = {(int((x - x0) / width * n), int((y - y0) / height * n))
                 for seg in orbit.segments for x, y in seg.points}
        flags, last = self.hits.flags, n - 1
        for i, j in cells:
            flags[min(i, last) * n + min(j, last)] = 1

    def fraction(self):
        return float(self.hits.sum()) / float(self.hits.size)

    def write_csv(self, fh):
        fh.write("i,j,hit\n")
        n = self.resolution
        for k, hit in enumerate(self.hits.flags):
            fh.write(f"{k // n},{k % n},{hit}\n")

    def to_dict(self):
        return {
            "resolution": self.resolution,
            "fraction": self.fraction(),
            "hit_cells": self.hits.sum(),
        }


def sigma_seed_points(sys, decompositions, per_arc=16, classes=(PointClass.SLIDING, PointClass.ESCAPING)):
    """Evenly spread seed points on the sliding/escaping arcs."""
    seeds = []
    for dec in decompositions:
        for arc in dec.arcs_of_class(*classes):
            comp = dec.component_obj(arc)
            for k in range(per_arc):
                w = (k + 0.5) / per_arc
                seeds.append(onto_curve(sys, arc.curve_id, comp.point_at(arc.s_start + w * arc.length)))
    return seeds


def saturation_seeds(sys, decompositions, cfg):
    """Seed points on the arcs that ``cfg.ms_interpretation`` puts in M_s."""
    classes = (
        (PointClass.SLIDING, PointClass.ESCAPING)
        if cfg.ms_interpretation == "sliding_and_escaping"
        else (PointClass.SLIDING,)
    )
    return sigma_seed_points(sys, decompositions, per_arc=cfg.saturate_seeds_per_arc, classes=classes)


def saturate(sys, seeds, horizon, policies, grid_resolution=32, opts=None):
    """Grid coverage of the union of orbits, both directions, from every seed under every policy.

    A policy acts only at an escape choice, so an orbit that records none is
    the orbit of every policy, and the remaining policies are skipped.  Once every
    cell is hit no later orbit can change the coverage: saturate returns there.
    """
    if not seeds:
        raise FilippovError("saturate needs a nonempty seed set")
    cov = GridCoverage(sys.domain, grid_resolution)
    orbits = 0
    for seed, direction in itertools.product(seeds, ("forward", "backward")):
        for policy in policies:
            orbit = integrate_filippov(sys, seed, horizon, direction=direction, policy=policy,
                                       opts=opts)
            cov.mark_orbit(orbit)
            orbits += 1
            if cov.hits.all() or not any(c.kind == "escape_exit" for c in orbit.choices):
                break
        if cov.hits.all():
            break
    log.info("saturate: %d of %d seed x direction x policy orbits integrated, %d of %d cells hit",
             orbits, 2 * len(seeds) * len(policies), cov.hits.sum(), cov.hits.size)
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
    """(t, x, y) lists of the orbit's stored samples; every chord query reads these."""
    t = [tt for seg in orbit.segments for tt in seg.times]
    points = [p for seg in orbit.segments for p in seg.points]
    return t, [p[0] for p in points], [p[1] for p in points]


def _chords_near(domain, trace, point, r, start=0):
    """(i, w) for every chord i >= ``start`` that comes within r of ``point``, in order.

    Chord i runs from sample i to sample i + 1; w in [0, 1] is the fraction
    along it of its closest point to ``point``.  The loop runs once per chord
    and node, so it inlines ``Domain.displacement``'s arithmetic.
    """
    _, xs, ys = trace
    px, py = point
    torus, width, height = domain.kind == "flat_torus", domain.width, domain.height
    for i in range(start, len(xs) - 1):
        x, y = xs[i], ys[i]
        sx, sy, ax, ay = xs[i + 1] - x, ys[i + 1] - y, px - x, py - y
        if torus:
            sx -= round(sx / width) * width
            sy -= round(sy / height) * height
            ax -= round(ax / width) * width
            ay -= round(ay / height) * height
        w = (ax * sx + ay * sy) / (sx * sx + sy * sy or 1e-300)
        w = 0.0 if w < 0.0 else 1.0 if w > 1.0 else w
        if math.hypot(w * sx - ax, w * sy - ay) <= r:
            yield i, w


def transitivity_probe(sys, u_disk, v_disk, budget, horizon, opts=None, dwell_grid=(0.0,)):
    """Search for one Filippov orbit meeting both disks (forward, budgeted).

    The two disks are the enumeration's goal, so an orbit ends once it has
    entered both; it met them when both of its ``goal_entries`` are set.
    """
    n_seeds = max(1, min(budget, 16))
    spent = 0
    for seed in _disk_seeds(u_disk, n_seeds, sys.domain):
        if not sys.domain.contains(seed):
            continue
        per_seed = max(1, (budget - spent) // max(1, n_seeds))
        orbits = enumerate_branches(
            sys, seed, horizon, budget=per_seed, dwell_grid=dwell_grid, opts=opts,
            goal=(u_disk, v_disk),
        )
        spent += len(orbits)
        for orbit in orbits:
            if None not in orbit.goal_entries:
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
            if x == y and not any(c.kind == "escape_exit" for c in ox.choices):
                continue  # no policy was consulted, so oy would repeat ox: separation 0
            oy = integrate_filippov(sys, y, horizon, policy=pol_y, opts=opts)
        except FilippovError:
            continue
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
    ride_targets: list = field(default_factory=list)  # the escape-entry TangencyPoints

    def node(self, node_id):
        return self.nodes[node_id]

    def out_edges(self, node_id):
        return [e for e in self.edges if e.source == node_id]

    def nodes_of_kind(self, *kinds):
        return [n for n in self.nodes if n.kind in kinds]

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
                probe = nudge_into_arc(sys, dec.curve_id, tp.position, step=1e-4)
                pcls = classify_point(sys, dec.curve_id, probe)
            except FilippovError:
                continue
            if pcls.point_class is PointClass.ESCAPING:
                targets.append(tp)
    return targets


def build_segment_graph(sys, decompositions, windows=None, horizon=60.0, budget=400,
                        opts=None, dwell_grid=(0.0, 0.02)):
    """Nodes on the manifold joined by numerically computed orbit segments.

    ``decompositions`` are the caller's ``sigma_decomposition`` results, one
    per curve of ``sys``; anchors sit on their sliding and escaping arcs and
    every tangency becomes a node.  The escape-entry tangencies among them are
    the graph's ``ride_targets``.  Edges leave the sliding anchors, the bases
    of closed orbits, by branch-enumerated integration (with graze capture of
    the ride targets); each edge stores its orbit's branch script, its
    first-passage flight time and the windows its orbit entered by then.  The
    orbit is ``integrate_filippov`` from the source node under
    ``PolicyCursor(BranchPolicy.slide_on(), edge.script)`` with the graph's
    ``ride_targets``.
    """
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
            return onto_curve(sys, arc.curve_id, comp.point_at(arc.s_start + fraction * arc.length))
        mid = comp.point_at(arc.s_start + 0.5 * arc.length)
        ahead = comp.point_at(arc.s_start + 0.5 * arc.length + 1e-4)
        zx, zy = sliding_vector_field(sys, arc.curve_id, mid)
        dx, dy = domain.displacement(mid, ahead)
        along = zx * dx + zy * dy  # does the flow run with increasing s?
        w = fraction if along > 0 else 1.0 - fraction
        return onto_curve(sys, arc.curve_id, comp.point_at(arc.s_start + w * arc.length))

    for dec, arc in slide_arcs:
        add_node("sliding_anchor", flow_fraction(dec, arc, 0.8))
    for dec, arc in escape_arcs:
        add_node("escape_anchor", flow_fraction(dec, arc, 0.5))

    ride_targets = _escape_entry_tangencies(sys, decs)
    ride_positions = {tp.position for tp in ride_targets}
    for dec in decs:
        for tp in dec.tangencies:
            kind = "escape_entry" if tp.position in ride_positions else "tangency"
            add_node(kind, tp.position)

    window_nodes = [add_node("window_v", disk.center, radius=disk.radius) for disk in windows or ()]

    edges = []
    spent = 0
    for src in nodes[:len(slide_arcs)]:  # the sliding anchors come first
        if spent >= budget:
            break
        per_node = max(2, budget // max(1, len(nodes)))
        orbits = enumerate_branches(
            sys, src.point, horizon, budget=per_node, dwell_grid=dwell_grid,
            opts=opts, ride_targets=ride_targets,
        )
        spent += len(orbits)
        for orbit in orbits:
            # sample times never decrease: an edge's orbit has entered a window
            # by its flight time exactly when the first entry is no later
            entries = [(n.node_id, first_entry(domain, orbit.segments, Disk(n.point, n.radius)))
                       for n in window_nodes]
            for e in _edges_from_orbit(domain, src, orbit.script, _trace(orbit), nodes):
                e.windows_hit = {wid for wid, t_in in entries
                                 if t_in is not None and t_in <= e.flight_time}
                edges.append(e)
    return SegmentGraph(nodes=nodes, edges=edges, ride_targets=ride_targets)


def _edges_from_orbit(domain, src, script, trace, nodes):
    """First-passage hits of every node vicinity along the trace of one orbit with branch ``script``.

    Distances are measured to the chords between consecutive samples so that
    close passes between samples (grazes in particular) are not missed.
    """
    ts, xs, ys = trace
    edges = []
    for n in nodes:
        start = 0
        if n.node_id == src.node_id:
            # require the orbit to leave the source vicinity before re-entry
            far = 3.0 * max(n.radius, NODE_VICINITY)
            start = next((i for i in range(len(ts) - 1)
                          if domain.distance(n.point, (xs[i], ys[i])) > far), len(ts))
        hit = next(_chords_near(domain, trace, n.point, n.radius, start), None)
        if hit is None:
            continue
        i, w = hit
        t_hit = ts[i] + w * (ts[i + 1] - ts[i])
        if t_hit > 1e-9:
            edges.append(GraphEdge(src.node_id, n.node_id, t_hit, script))
    return sorted(edges, key=lambda e: e.target)


@dataclass
class ClosedOrbitRecord:
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
    """Yield (t, gap) whenever the trace passes through the base point.

    ``_chords_near`` proposes the chords that come within twice the tolerance,
    with the fraction w of each one's closest point q; a pass is a q within
    the tolerance of the base, and gap is that distance.
    """
    domain = sys.domain
    ts, xs, ys = trace
    last_t = -1.0
    for i, w in _chords_near(domain, trace, base, 2.0 * _RETURN_TOL):
        prev_t, t = ts[i], ts[i + 1]
        if t <= _RETURN_T_MIN:
            continue
        x, y = xs[i], ys[i]
        sx, sy = domain.displacement((x, y), (xs[i + 1], ys[i + 1]))
        gap = domain.distance(domain.canonical((x + w * sx, y + w * sy)), base)
        if gap <= _RETURN_TOL:
            t_hit = prev_t + w * (t - prev_t)
            if t_hit > _RETURN_T_MIN and t_hit - last_t > 1e-6:
                last_t = t_hit
                yield t_hit, gap


def assemble_closed_orbits(graph, base_anchor, windows_to_visit, sys, horizon=200.0,
                           opts=None, runs=None):
    """The first closed orbit through the base anchor that visits the requested windows, else None.

    ``graph`` is a ``build_segment_graph`` result for ``sys``; candidate
    orbits may ride its ``ride_targets``, so no curve is traced here.
    Candidate branch scripts come from the graph: scripts of edges leaving
    the base anchor (depth one) and their concatenations through exact
    returns to the anchor (depth two).  The first 24 candidates are re-validated
    in order by a fresh integration from the anchor; a cycle is accepted at
    the first exact return (endpoint mismatch <= 1e-6) after the requested
    windows were visited.

    ``windows_to_visit`` are ids of the graph's window nodes.  A candidate's
    window entries and its returns to the anchor, as (period, gap) pairs, are
    listed once, when it is integrated; ``runs`` (base anchor, script key) ->
    (first entry time per window id, returns) shares them between calls with
    the same graph, system, horizon and options, so a request only scans them.
    Without it every candidate is integrated afresh.
    """
    if not graph.nodes:
        return None
    base = graph.node(base_anchor)
    want = set(windows_to_visit)
    runs = {} if runs is None else runs

    out = graph.out_edges(base_anchor)
    scripts = [e.script for e in out if want <= set(e.windows_hit)] + [[]]
    scripts += [e.script for e in out]
    scripts += [list(e1.script) + list(e2.script)
                for e1 in out if e1.target == base_anchor for e2 in out]
    candidates = {}  # first occurrence of each distinct script, in order
    for script in scripts:
        candidates.setdefault(tuple(str(s) for s in script), list(script))

    for key, script in list(candidates.items())[:24]:
        if (base_anchor, key) not in runs:
            orbit = integrate_filippov(
                sys, base.point, horizon, opts=opts,
                policy=PolicyCursor(BranchPolicy.slide_on(), script), ride_targets=graph.ride_targets)
            entries = {n.node_id: first_entry(sys.domain, orbit.segments, Disk(n.point, n.radius))
                       for n in graph.nodes_of_kind("window_v")}
            runs[base_anchor, key] = entries, list(_returns_to(sys, _trace(orbit), base.point))
        entries, returns = runs[base_anchor, key]
        t_in = [entries[wid] for wid in want]
        if None in t_in:
            continue
        t_needed = max(t_in, default=0.0)
        for period, gap in returns:
            if period >= t_needed:
                return ClosedOrbitRecord(period, base.point, sorted(want), gap)
    return None


# --------------------------------------------------------------------------- #
# tangency-freezing rescale
# --------------------------------------------------------------------------- #


def rescale_tangency_freeze(sys, decompositions):
    """Multiply the field by g(p) = prod min(1, |p - T_j|^2) over the tangencies of ``decompositions``.

    The rescaled system's tangency points are equilibria; orbit traces away
    from them coincide with the originals as point sets.
    """
    positions = [tp.position for dec in decompositions for tp in dec.tangencies]
    if not positions:
        return sys
    domain = sys.domain

    def g(p):
        out = 1.0
        for q in positions:
            d = domain.distance(p, q)
            out *= min(1.0, d * d)
        return out

    return sys.with_velocity_scale(g)


# --------------------------------------------------------------------------- #
# aggregated chaos report
# --------------------------------------------------------------------------- #


# a range is a tuple of (check, expected) pairs, and a value in it passes every check
POSITIVE = ((lambda v: 0 < v < math.inf, "a finite number > 0"),)
COUNT = ((lambda v: v >= 1, "an integer >= 1"),)
GRID_RESOLUTION_MAX = 4096  # the coverage flags take n * n bytes, 16 MiB at the bound
SIGMA_RESOLUTION_MAX = 65536  # one curve's decomposition at the bound peaks near 60 MB
# the range of every numeric setting but ``seed`` and ``dwell_grid``
CONFIG_RANGES = {
    "grid_resolution": (*COUNT, (lambda v: v <= GRID_RESOLUTION_MAX, f"at most {GRID_RESOLUTION_MAX}")),
    "sigma_resolution": ((lambda v: v >= 2, "an integer >= 2"),
                         (lambda v: v <= SIGMA_RESOLUTION_MAX, f"at most {SIGMA_RESOLUTION_MAX}")),
    "saturate_horizon": POSITIVE,
    "saturate_seeds_per_arc": COUNT,
    "probe_horizon": POSITIVE,
    "transitivity_pairs": COUNT,
    "transitivity_budget": COUNT,
    "disk_radius": POSITIVE,
    "sensitivity_disk_radius": POSITIVE,
    "sensitivity_budget": COUNT,
    "sensitivity_horizon": POSITIVE,
    "r_fraction": POSITIVE,
    "cycle_windows": COUNT,
    "window_radius": POSITIVE,
    "graph_horizon": POSITIVE,
    "graph_budget": COUNT,
    "cycle_horizon": POSITIVE,
}
DISK_RADII = ("disk_radius", "sensitivity_disk_radius", "window_radius")  # the radii of drawn disks


def disk_fit(domain):
    """The check that a disk of radius r fits inside ``domain``: 2r <= a rectangle's shorter side."""
    side = min(domain.width, domain.height) if domain.kind == "plane_rect" else math.inf
    return (lambda r: not 2 * r > side, f"at most {side / 2!r}, half the shorter side of the domain")


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
        """Every setting, in the form a scenario's ``config`` object takes."""
        return {**asdict(self), "dwell_grid": list(self.dwell_grid)}

    def check(self, domain):
        """Raise a ConfigurationError that names ``config.<key>`` for a setting out of range.

        Every disk the probes draw must also fit inside ``domain`` (``disk_fit``).
        """
        fit = (disk_fit(domain),)
        for key, checks in [*CONFIG_RANGES.items(), *((key, fit) for key in DISK_RADII)]:
            value = getattr(self, key)
            for valid, expected in checks:
                if not valid(value):
                    raise ConfigurationError(f"config.{key}: expected {expected}, got {value!r}")
        for i, dwell in enumerate(self.dwell_grid):
            if not 0 <= dwell < math.inf:
                raise ConfigurationError(
                    f"config.dwell_grid[{i}]: expected a finite number >= 0, got {dwell!r}")
        choices = ["sliding_and_escaping", "sliding_only"]
        if self.ms_interpretation not in choices:
            raise ConfigurationError(
                f"config.ms_interpretation: expected one of {choices}, got {self.ms_interpretation!r}")


def _saturate_policies(dwell_grid):
    policies = [BranchPolicy.exit_up(), BranchPolicy.exit_down(), BranchPolicy.slide_on()]
    for d in dwell_grid:
        if d > 0:
            policies.append(BranchPolicy.dwell_exit(d, "positive"))
            policies.append(BranchPolicy.dwell_exit(d, "negative"))
    return policies


def _random_disk(rng, domain, radius):
    # keep plane-domain disks fully inside the rectangle (``disk_fit`` holds)
    pad = radius if domain.kind == "plane_rect" else 0.0
    return Disk(
        (domain.x_min + pad + rng.random() * (domain.width - 2 * pad),
         domain.y_min + pad + rng.random() * (domain.height - 2 * pad)),
        radius,
    )


def sigma_phase(sys, cfg):
    """The Σ decomposition of every curve of ``sys`` at ``cfg.sigma_resolution``."""
    return [sigma_decomposition(sys, c.id, cfg.sigma_resolution) for c in sys.curves]


def saturate_phase(sys, seeds, cfg, opts=None):
    """Coverage of the orbits from ``saturation_seeds`` at the horizon, policies and grid of ``cfg``."""
    return saturate(sys, seeds, cfg.saturate_horizon, _saturate_policies(cfg.dwell_grid),
                    grid_resolution=cfg.grid_resolution, opts=opts)


def graph_phase(sys, decompositions, cfg, rng, opts=None):
    """The segment graph through ``cfg.cycle_windows`` windows drawn from ``rng``."""
    windows = [_random_disk(rng, sys.domain, cfg.window_radius) for _ in range(cfg.cycle_windows)]
    return build_segment_graph(sys, decompositions, windows=windows, horizon=cfg.graph_horizon,
                               budget=cfg.graph_budget, opts=opts, dwell_grid=cfg.dwell_grid)


def cycles_phase(graph, sys, cfg, opts=None):
    """Per window node of ``graph``, the first closed orbit through it from any sliding anchor."""
    bases = [n.node_id for n in graph.nodes_of_kind("sliding_anchor")]
    runs = {}  # shared by every window: each candidate is integrated and listed once
    results = []
    for node in graph.nodes_of_kind("window_v"):
        rec = None
        for base in bases:
            rec = assemble_closed_orbits(graph, base, {node.node_id}, sys,
                                         horizon=cfg.cycle_horizon, opts=opts, runs=runs)
            if rec is not None:
                break
        results.append({"window": node.to_dict(), "found": rec is not None,
                        "record": rec.to_dict() if rec else None})
    return results


def chaos_report(sys, config=None, opts=None):
    """Aggregate the transitivity / sensitivity / dense-periodicity probes.

    Returns a JSON-ready dict with per-ingredient evidence; inconclusive
    probes are labeled as such and never upgraded to negatives.  Each phase
    logs one INFO line with its wall time, which the report does not carry.
    """
    cfg = config or DiagnosticsConfig()
    cfg.check(sys.domain)
    rng = random.Random(cfg.seed)
    domain = sys.domain
    clock = [time.perf_counter()]

    def phase_done(name, summary):
        log.info("chaos_report %s: %.2f s, %s", name, time.perf_counter() - clock[0], summary)
        clock[0] = time.perf_counter()

    report = {
        "schema": "filippov.report/1",
        "config": cfg.to_dict(),
        "domain": {"kind": domain.kind, "diameter": domain.diameter()},
    }

    decs = sigma_phase(sys, cfg)
    report["sigma"] = [dec.to_dict() for dec in decs]
    seeds = saturation_seeds(sys, decs, cfg)
    hypothesis = bool(seeds)
    report["hypothesis"] = {
        "sliding_or_escaping_nonempty": hypothesis,
        "note": None if hypothesis else
        "sliding and escaping regions are empty: the dense-periodicity "
        "machinery does not apply; only transitivity probes run",
    }
    phase_done("sigma", f"{len(decs)} curves, {len(seeds)} saturation seeds")

    if hypothesis:
        cov = saturate_phase(sys, seeds, cfg, opts)
        report["saturation"] = cov.to_dict()
        phase_done("saturate", f"{report['saturation']['hit_cells']} of {cov.hits.size} cells hit")
    else:
        report["saturation"] = None

    trials, stops = [], []  # stops: model times at which found orbits reached their goal
    for _ in range(cfg.transitivity_pairs):
        u = _random_disk(rng, domain, cfg.disk_radius)
        v = _random_disk(rng, domain, cfg.disk_radius)
        result = transitivity_probe(
            sys, u, v, cfg.transitivity_budget, cfg.probe_horizon,
            opts=opts, dwell_grid=cfg.dwell_grid,
        )
        ok = not isinstance(result, ProbeNotFound)
        if ok and result.terminal == "goal_reached":
            stops.append(result.duration())
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
    found, half = report["transitivity"]["found"], len(stops) // 2
    stops.sort()
    median = f"median t = {(stops[half] + stops[~half]) / 2:.2f} of " if stops else ""
    phase_done("transitivity", f"{found} of {len(trials)} pairs found, {len(stops)} of {found} "
               f"found orbits stopped at their goal ({median}probe_horizon {cfg.probe_horizon:g})")

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
    phase_done("sensitivity", "witness found" if sensitive else "no witness")

    if hypothesis:
        graph = graph_phase(sys, decs, cfg, rng, opts)
        phase_done("graph", f"{len(graph.nodes)} nodes, {len(graph.edges)} edges")
        # with no sliding anchor the report lists no windows (``filippov cycles`` lists them unfound)
        cycle_results = (cycles_phase(graph, sys, cfg, opts)
                         if graph.nodes_of_kind("sliding_anchor") else [])
        periodic_positive = bool(cycle_results) and all(c["found"] for c in cycle_results)
        phase_done("cycles", f"{sum(c['found'] for c in cycle_results)} windows closed")
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
