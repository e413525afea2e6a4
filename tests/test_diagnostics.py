import dataclasses
import math
import random
import statistics

import pytest

from filippov import diagnostics, integrate
from filippov.diagnostics import (
    DiagnosticsConfig,
    Disk,
    GridCoverage,
    ProbeNotFound,
    SensitivityWitness,
    assemble_closed_orbits,
    build_segment_graph,
    chaos_report,
    rescale_tangency_freeze,
    saturate,
    sensitivity_probe,
    sigma_seed_points,
    transitivity_probe,
)
from filippov.expr import PlanarField, ScalarField
from filippov.integrate import BranchPolicy, PolicyCursor, first_entry, integrate_filippov
from filippov.sigma import PointClass, sigma_decomposition
from filippov.system import Domain, FilippovSystem, RegionSpec, SwitchingCurve

from conftest import build_plane_system, count_trace_calls, decompose


def _two_cells_system():
    """Two rotation cells separated by a vertical crossing line: decoupled."""
    domain = Domain("plane_rect", -2, 2, -1, 1)
    curve = SwitchingCurve(0, ScalarField("x"), 1, 2)
    regions = [
        RegionSpec(1, PlanarField("-y", "x - 1"), [(0, +1)]),  # cell around (1, 0)
        RegionSpec(2, PlanarField("-y", "x + 1"), [(0, -1)]),  # cell around (-1, 0)
    ]
    return FilippovSystem(domain, [curve], regions, validate=False)


def test_grid_coverage_single_arc_cells():
    # oracle: straight トrajectory (1, 0) from (-1.75, 0.05) crosses one row
    s = build_plane_system(("1", "0"), ("1", "1"), bounds=(-2, 2, -1, 1))
    orbit = integrate_filippov(s, (-1.75, 0.05), 3.5)
    cov = GridCoverage(s.domain, 8)
    cov.mark_orbit(orbit)
    expected = {(i, 4) for i in range(8) if -1.75 <= -2 + (i + 1) * 0.5 or True}
    hit = {(i, j) for i in range(8) for j in range(8) if cov.hits.ravel()[i * 8 + j]}
    # the trajectory spans x in [-1.75, 1.75] at y = 0.05: row j=4, columns 0..7
    assert hit == {(i, 4) for i in range(8)}


def test_saturate_monotone_in_seed_set(belt_system):
    dec = sigma_decomposition(belt_system, 0, 256)
    seeds = sigma_seed_points(belt_system, [dec], per_arc=6)
    policies = [BranchPolicy.exit_up(), BranchPolicy.exit_down()]
    small = saturate(belt_system, seeds[:3], 10.0, policies, grid_resolution=16)
    large = saturate(belt_system, seeds, 10.0, policies, grid_resolution=16)
    # cell-wise: every cell the smaller seed set hits, the larger one hits too
    assert all(a or not b for a, b in zip(large.hits.ravel(), small.hits.ravel()))
    assert large.fraction() >= small.fraction()


def test_saturate_integrates_a_policy_free_orbit_once(belt_system, monkeypatch):
    # forward from the sliding belt the orbit slides with no escape choice;
    # backward the belt is escaping, so every policy gives its own orbit
    seed = (0.3, 0.0)
    policies = diagnostics._saturate_policies((0.0, 0.02))
    original = diagnostics.integrate_filippov
    runs = []

    def counting(system, p0, horizon, direction="forward", **kwargs):
        runs.append(direction)
        return original(system, p0, horizon, direction=direction, **kwargs)

    monkeypatch.setattr(diagnostics, "integrate_filippov", counting)
    cov = saturate(belt_system, [seed], 2.0, policies, grid_resolution=16)
    assert runs == ["forward"] + ["backward"] * len(policies)
    reference = GridCoverage(belt_system.domain, 16)  # the union over every policy
    for direction in ("forward", "backward"):
        for policy in policies:
            reference.mark_orbit(original(belt_system, seed, 2.0, direction=direction, policy=policy))
    assert cov.hits.ravel() == reference.hits.ravel()


def test_saturate_stops_at_full_coverage(belt_system, monkeypatch):
    # the 4 x 4 grid is full after 12 orbits, long before the last seed
    seeds = sigma_seed_points(belt_system, [sigma_decomposition(belt_system, 0, 256)], per_arc=3)
    policies = diagnostics._saturate_policies((0.0, 0.02))
    original = diagnostics.integrate_filippov
    orbits = []

    def counting(*args, **kwargs):
        orbits.append(original(*args, **kwargs))
        return orbits[-1]

    monkeypatch.setattr(diagnostics, "integrate_filippov", counting)
    cov = saturate(belt_system, seeds, 1.0, policies, grid_resolution=4)
    seen = GridCoverage(belt_system.domain, 4)
    for k, orbit in enumerate(orbits):
        assert 0 in seen.hits, f"orbit {k} ran after every cell was hit"
        seen.mark_orbit(orbit)
    assert 0 not in seen.hits
    reference = GridCoverage(belt_system.domain, 4)  # the full loop, every orbit
    for seed in seeds:
        for direction in ("forward", "backward"):
            for policy in policies:
                reference.mark_orbit(original(belt_system, seed, 1.0, direction=direction,
                                              policy=policy))
    assert cov.hits.ravel() == reference.hits.ravel()
    assert cov.to_dict() == reference.to_dict()


def test_saturate_logs_orbits_and_cells(belt_system, caplog):
    seeds = [(0.3, 0.0)]
    policies = [BranchPolicy.exit_up(), BranchPolicy.exit_down()]
    with caplog.at_level("INFO", logger="filippov.diagnostics"):
        cov = saturate(belt_system, seeds, 1.0, policies, grid_resolution=16)
    [line] = [r.getMessage() for r in caplog.records if r.name == "filippov.diagnostics"]
    assert line == (f"saturate: 3 of 4 seed x direction x policy orbits integrated, "
                    f"{cov.hits.count(1)} of 256 cells hit")


def test_transitivity_found_on_straight_flow():
    s = build_plane_system(("1", "0"), ("1", "1"), bounds=(-2, 2, -1, 1))
    u = Disk((-1.5, 0.5), 0.1)
    v = Disk((1.5, 0.5), 0.1)
    orbit = transitivity_probe(s, u, v, budget=8, horizon=5.0)
    assert not isinstance(orbit, ProbeNotFound)
    entries = tuple(first_entry(s.domain, orbit.segments, disk) for disk in (u, v))
    assert None not in entries and orbit.goal_entries == entries


def test_transitivity_not_found_across_invariant_cells():
    s = _two_cells_system()
    u = Disk((1.0, 0.0), 0.2)
    v = Disk((-1.0, 0.0), 0.2)
    result = transitivity_probe(s, u, v, budget=12, horizon=30.0)
    assert isinstance(result, ProbeNotFound)
    assert result.reason == "inconclusive at budget"


def test_the_goal_flips_no_found_flag_in_a_forking_batch(belt_system, monkeypatch):
    # budget 50 over 16 seeds enumerates 3 orbits from the seed on the
    # escaping belt; the goal stop must not turn a miss into a find or back
    rng = random.Random(3)
    pairs = [(Disk((0.3, 0.5), 0.05), diagnostics._random_disk(rng, belt_system.domain, 0.05))
             for _ in range(12)]
    batches = []
    original = diagnostics.enumerate_branches

    def recording(*args, **kwargs):
        orbits = original(*args, **kwargs)
        batches.append((len(orbits), sum(o.terminal == "goal_reached" for o in orbits)))
        return orbits

    def probe(u, v):
        result = transitivity_probe(belt_system, u, v, budget=50, horizon=3.0,
                                    dwell_grid=(0.0, 0.1))
        return not isinstance(result, ProbeNotFound)

    monkeypatch.setattr(diagnostics, "enumerate_branches", recording)
    with_goal = [probe(u, v) for u, v in pairs]
    assert any(n > 1 for n, _ in batches) and any(stops for _, stops in batches)

    def whole(*args, goal=(), **kwargs):
        # orbits run to the horizon, with the entries of their finished traces
        return [dataclasses.replace(o, goal_entries=tuple(
                    first_entry(belt_system.domain, o.segments, disk) for disk in goal))
                for o in original(*args, **kwargs)]

    monkeypatch.setattr(diagnostics, "enumerate_branches", whole)
    without = [probe(u, v) for u, v in pairs]
    assert with_goal == without
    assert any(with_goal) and not all(with_goal)


@pytest.mark.parametrize("seed, budget, radius, found", [(2, 4, 0.2, 3), (4, 2, 0.05, 0)])
def test_chaos_report_logs_goal_stops(belt_system, caplog, monkeypatch, seed, budget, radius,
                                      found):
    cfg = DiagnosticsConfig(seed=seed, transitivity_pairs=4, transitivity_budget=budget,
                            disk_radius=radius, probe_horizon=3.0, saturate_horizon=2.0,
                            saturate_seeds_per_arc=1, sensitivity_budget=2,
                            sensitivity_horizon=2.0, cycle_windows=2, graph_horizon=4.0,
                            graph_budget=8, cycle_horizon=4.0, sigma_resolution=256)
    stops = []
    original = diagnostics.transitivity_probe

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        if getattr(result, "terminal", None) == "goal_reached":
            stops.append(result.duration())
        return result

    monkeypatch.setattr(diagnostics, "transitivity_probe", recording)
    with caplog.at_level("INFO", logger="filippov.diagnostics"):
        report = chaos_report(belt_system, cfg)
    [line] = [r.getMessage() for r in caplog.records
              if r.getMessage().startswith("chaos_report transitivity: ")]
    assert report["transitivity"]["found"] == len(stops) == found
    median = f"median t = {statistics.median(stops):.2f} of " if stops else ""
    # the first field is the phase's wall time
    assert line.split(", ", 1)[1] == (
        f"{found} of 4 pairs found, {found} of {found} found orbits stopped at their goal "
        f"({median}probe_horizon 3)"
    )


def test_sensitivity_witness_on_escaping_belt(belt_system):
    # x = y on the escaping belt with exit-up vs exit-down separates linearly
    disk = Disk((0.5, 0.5), 0.02)
    witness = sensitivity_probe(belt_system, disk, r=0.3, budget=12, horizon=40.0)
    assert isinstance(witness, SensitivityWitness)
    assert witness.separation > 0.3
    assert witness.revalidate(belt_system)


@pytest.mark.parametrize("centre, calls, found", [
    ((0.5, 0.5), 4, True),  # escaping belt: the pair differs, and revalidation runs it again
    ((0.5, 0.0), 1, False),  # sliding belt: no policy is asked, the twin orbit is skipped
    ((0.5, 0.25), 1, False),  # off the curve
])
def test_sensitivity_centre_twin_runs_only_when_a_policy_acts(belt_system, monkeypatch,
                                                              centre, calls, found):
    made = []

    def counting(*args, **kwargs):
        made.append(args[1])
        return integrate_filippov(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "integrate_filippov", counting)
    result = sensitivity_probe(belt_system, Disk(centre, 0.02), r=0.3, budget=1, horizon=40.0)
    assert made == [centre] * calls
    assert isinstance(result, SensitivityWitness if found else ProbeNotFound)


def test_sensitivity_not_found_for_isometric_rotation():
    domain = Domain("plane_rect", -1, 1, -1, 1)
    curve = SwitchingCurve(0, ScalarField("y"), 1, 2)
    regions = [
        RegionSpec(1, PlanarField("-y", "x"), [(0, +1)]),
        RegionSpec(2, PlanarField("-y", "x"), [(0, -1)]),
    ]
    s = FilippovSystem(domain, [curve], regions, validate=False)
    disk = Disk((0.5, 0.3), 0.05)
    result = sensitivity_probe(s, disk, r=0.5, budget=10, horizon=25.0)
    assert isinstance(result, ProbeNotFound)


def test_segment_graph_empty_when_no_sliding():
    s = build_plane_system(("1", "1"), ("1", "1"))
    graph = build_segment_graph(s, decompose(s), horizon=5.0, budget=10)
    assert graph.hypothesis_failed
    assert graph.nodes == [] and graph.edges == []


@pytest.mark.parametrize("name", ["belt", "escaping_only"])
def test_segment_graph_enumerates_only_from_sliding_anchors(belt_system, monkeypatch, name):
    # closed orbits are assembled from the sliding anchors' out-edges only
    system = belt_system if name == "belt" else build_plane_system(("1", "1"), ("1", "-1"))
    starts = []
    original = diagnostics.enumerate_branches

    def recording(sys_, p0, *args, **kwargs):
        starts.append(p0)
        return original(sys_, p0, *args, **kwargs)

    monkeypatch.setattr(diagnostics, "enumerate_branches", recording)
    windows = [Disk((0.3, 0.2), 0.05), Disk((0.7, 0.8), 0.05)]
    graph = build_segment_graph(system, decompose(system), windows=windows,
                                horizon=15.0, budget=60, dwell_grid=(0.0, 0.1))
    assert not graph.hypothesis_failed
    anchors = {n.node_id: n.point for n in graph.nodes_of_kind("sliding_anchor")}
    assert starts == list(anchors.values())
    for e in graph.edges:  # each edge's orbit starts at its anchor and reaches its target
        assert e.source in anchors
        orbit = integrate_filippov(system, anchors[e.source], 15.0,
                                   policy=PolicyCursor(BranchPolicy.slide_on(), e.script),
                                   ride_targets=graph.ride_targets)
        assert orbit.initial_point == anchors[e.source] and orbit.duration() >= e.flight_time
    if name == "belt":
        assert anchors and graph.edges
    else:  # an escape anchor and windows, but no sliding anchor to leave
        assert not anchors and graph.nodes_of_kind("escape_anchor")
        assert graph.edges == []


def test_belt_cycle_has_unit_period(belt_system, monkeypatch):
    graph = build_segment_graph(belt_system, decompose(belt_system), horizon=15.0,
                                budget=40, dwell_grid=(0.0,))
    q0 = graph.nodes_of_kind("sliding_anchor")[0].node_id
    orbits = []
    original = diagnostics.integrate_filippov

    def recording(*args, **kwargs):
        orbits.append(original(*args, **kwargs))
        return orbits[-1]

    monkeypatch.setattr(diagnostics, "integrate_filippov", recording)
    rec = assemble_closed_orbits(graph, q0, set(), belt_system, horizon=10.0)
    assert rec is not None
    assert rec.period == pytest.approx(1.0, abs=1e-6)
    assert rec.endpoint_gap <= 1e-6
    # the record is the first return of the anchor's one candidate, as listed
    [orbit] = orbits
    base = graph.node(q0).point
    first = next(diagnostics._returns_to(belt_system, diagnostics._trace(orbit), base))
    assert (rec.period, rec.endpoint_gap) == first


def test_no_cyctherough_anchor_gives_empty(fold_system):
    graph = build_segment_graph(fold_system, decompose(fold_system), horizon=8.0,
                                budget=30, dwell_grid=(0.0,))
    anchors = graph.nodes_of_kind("sliding_anchor")
    assert anchors
    rec = assemble_closed_orbits(graph, anchors[0].node_id, set(), fold_system,
                                 horizon=8.0)
    assert rec is None  # orbits leave the plane, nothing returns


def _torus_window_graph(budget, graph_horizon):
    """``chaotic_torus``, its integrator options and a graph with three windows."""
    from filippov.scenario import load_shipped

    scenario = load_shipped("chaotic_torus")
    system, opts = scenario.build_system(), scenario.integrator
    rng = random.Random(0)
    windows = [diagnostics._random_disk(rng, system.domain, 0.1) for _ in range(3)]
    graph = build_segment_graph(system, decompose(system), windows=windows, horizon=graph_horizon,
                                budget=budget, opts=opts, dwell_grid=(0.0, 0.02))
    return system, opts, graph


def test_cycle_search_integrates_candidates_until_its_first_record(monkeypatch):
    # with no window requested every return closes a cycle, so the candidates after the
    # first one that returns are never integrated (the torus anchor's first candidate
    # returns, and two more follow it)
    (system, opts, graph), horizon = _torus_window_graph(8, 20.0), 40.0
    q0 = graph.nodes_of_kind("sliding_anchor")[0].node_id
    orbits = []
    original = diagnostics.integrate_filippov

    def recording(*args, **kwargs):
        orbits.append(original(*args, **kwargs))
        return orbits[-1]

    monkeypatch.setattr(diagnostics, "integrate_filippov", recording)
    rec = assemble_closed_orbits(graph, q0, set(), system, horizon=horizon, opts=opts)
    base = graph.node(q0).point
    returns = [list(diagnostics._returns_to(system, diagnostics._trace(o), base)) for o in orbits]
    assert [bool(r) for r in returns] == [False] * (len(orbits) - 1) + [True]
    assert (rec.period, rec.endpoint_gap) == returns[-1][0]


@pytest.mark.parametrize("budget, graph_horizon, cycle_horizon, closed", [
    (8, 20.0, 40.0, True),  # one candidate closes every window
    (4, 10.0, 20.0, False),  # three candidates close none
])
def test_window_cycles_integrates_each_candidate_once(monkeypatch, budget, graph_horizon,
                                                      cycle_horizon, closed):
    system, opts, graph = _torus_window_graph(budget, graph_horizon)
    original, returns_to = diagnostics.integrate_filippov, diagnostics._returns_to
    calls, walks = [], []

    def counting(sys_, p0, horizon, policy=None, **kwargs):
        calls.append((p0, tuple(str(s) for s in policy.script)))
        return original(sys_, p0, horizon, policy=policy, **kwargs)

    def counting_walk(sys_, trace, base):
        walks.append(base)
        return returns_to(sys_, trace, base)

    monkeypatch.setattr(diagnostics, "integrate_filippov", counting)
    monkeypatch.setattr(diagnostics, "_returns_to", counting_walk)
    cfg = DiagnosticsConfig(cycle_horizon=cycle_horizon)
    results = diagnostics.cycles_phase(graph, system, cfg, opts)
    shared = list(calls)
    assert len(walks) == len(set(shared))  # each candidate's returns are listed once
    calls.clear()
    reference = []  # each window on its own, every candidate integrated afresh
    bases = [n.node_id for n in graph.nodes_of_kind("sliding_anchor")]
    for node in graph.nodes_of_kind("window_v"):
        rec = None
        for base in bases:
            rec = assemble_closed_orbits(graph, base, {node.node_id}, system,
                                         horizon=cycle_horizon, opts=opts)
            if rec is not None:
                break
        reference.append({"window": node.to_dict(), "found": rec is not None,
                          "record": rec.to_dict() if rec else None})
    assert len(shared) == len(set(shared)) == len(set(calls)) < len(calls)
    assert results == reference
    assert [r["found"] for r in results] == [closed] * 3


def test_rescale_freezes_tangencies(fold_system):
    decompositions = decompose(fold_system)
    rescaled = rescale_tangency_freeze(fold_system, decompositions)
    tps = [tp for dec in decompositions for tp in dec.tangencies]
    assert len(tps) == 1
    t = tps[0]
    vx, vy = rescaled.field_value(rescaled.region(1).field, t.position)
    assert math.hypot(vx, vy) <= 1e-12
    vx, vy = rescaled.field_value(rescaled.region(2).field, t.position)
    assert math.hypot(vx, vy) <= 1e-12


def test_rescaled_reversal_is_built_once_and_shares_the_scale(fold_system):
    rescaled = rescale_tangency_freeze(fold_system, decompose(fold_system))
    rev = rescaled.reversed()
    assert rev is rescaled.reversed()
    assert rev.velocity_scale is rescaled.velocity_scale
    p = (-1.5, 0.5)
    vx, vy = rescaled.field_value(rescaled.region(1).field, p)
    assert rev.field_value(rev.region(1).field, p) == (-vx, -vy)
    # every backward orbit runs on that one reversal
    run = integrate._Run(rescaled, p, 0.5, "backward", integrate.PolicyCursor(), None, ())
    assert run.sys is rev


def test_rescale_identity_without_tangencies(belt_system):
    rescaled = rescale_tangency_freeze(belt_system, decompose(belt_system))
    assert rescaled is belt_system


def test_rescale_preserves_direction_field(fold_system):
    rescaled = rescale_tangency_freeze(fold_system, decompose(fold_system))
    for p in [(-1.5, 0.5), (1.0, 0.7), (0.5, -0.5), (-0.9, -0.8)]:
        rid = fold_system.region_of(p)
        v = fold_system.field_value(fold_system.region(rid).field, p)
        w = rescaled.field_value(rescaled.region(rid).field, p)
        cross = v[0] * w[1] - v[1] * w[0]
        dot = v[0] * w[0] + v[1] * w[1]
        assert dot > 0
        angle = abs(cross) / (math.hypot(*v) * math.hypot(*w))
        assert angle <= 1e-9


def test_rescale_traces_match_away_from_tangencies(fold_system):
    start = (-1.8, 0.8)
    horizon = 1.2  # stays in the upper region, away from the fold at the origin
    orig = integrate_filippov(fold_system, start, horizon)
    resc = integrate_filippov(rescale_tangency_freeze(fold_system, decompose(fold_system)), start, 2.0)
    a = [p for _, p, _, _ in orig.samples()]
    b = [p for _, p, _, _ in resc.samples()]
    # compare as point sets: Hausdorff distance against the other polyline
    def hausdorff(pts, poly):
        worst = 0.0
        for p in pts:
            best = min(_point_segment_distance(p, q0, q1) for q0, q1 in zip(poly, poly[1:]))
            worst = max(worst, best)
        return worst

    def _point_segment_distance(p, a0, a1):
        vx, vy = a1[0] - a0[0], a1[1] - a0[1]
        wx, wy = p[0] - a0[0], p[1] - a0[1]
        den = vx * vx + vy * vy
        t = 0.0 if den == 0 else max(0.0, min(1.0, (wx * vx + wy * vy) / den))
        return math.hypot(wx - t * vx, wy - t * vy)

    # clip the rescaled trace to the arclength of the original one
    length_a = sum(math.dist(x, y) for x, y in zip(a, a[1:]))
    clipped_b = [b[0]]
    acc = 0.0
    for x, y in zip(b, b[1:]):
        step = math.dist(x, y)
        if acc + step >= length_a:
            w = (length_a - acc) / step if step > 0 else 0.0
            clipped_b.append((x[0] + w * (y[0] - x[0]), x[1] + w * (y[1] - x[1])))
            break
        acc += step
        clipped_b.append(y)
    assert hausdorff(a, clipped_b) <= 1e-6
    assert hausdorff(clipped_b, a) <= 1e-6


def test_chaos_report_gates_on_hypothesis():
    s = _two_cells_system()
    cfg = DiagnosticsConfig(seed=2, transitivity_pairs=4, transitivity_budget=6,
                            probe_horizon=15.0, sensitivity_budget=6,
                            sensitivity_horizon=15.0, cycle_windows=2)
    report = chaos_report(s, cfg)
    assert report["hypothesis"]["sliding_or_escaping_nonempty"] is False
    assert report["saturation"] is None
    assert report["dense_periodicity"]["label"] == "hypothesis absent"
    assert report["verdict"] == "not chaotic (hypothesis absent)"
    assert report["transitivity"]["total"] == 4


def test_chaos_report_negative_labels_are_inconclusive(belt_system):
    cfg = DiagnosticsConfig(seed=4, transitivity_pairs=3, transitivity_budget=4,
                            probe_horizon=6.0, saturate_horizon=12.0,
                            saturate_seeds_per_arc=3, sensitivity_budget=4,
                            sensitivity_horizon=10.0, cycle_windows=1,
                            graph_horizon=6.0, graph_budget=30, cycle_horizon=8.0,
                            sigma_resolution=256)
    report = chaos_report(belt_system, cfg)
    assert report["schema"] == "filippov.report/1"
    # the belt is not transitive: two one-dimensional traces cannot meet
    # arbitrary disk pairs, and negatives must be labeled inconclusive
    if not report["transitivity"]["positive"]:
        assert report["transitivity"]["label"] == "inconclusive at budget"
        assert report["verdict"] != "chaotic at budget"


def test_chaos_report_logs_one_line_per_phase(belt_system, caplog):
    cfg = DiagnosticsConfig(seed=4, transitivity_pairs=2, transitivity_budget=2,
                            probe_horizon=2.0, saturate_horizon=2.0, saturate_seeds_per_arc=1,
                            sensitivity_budget=2, sensitivity_horizon=2.0, cycle_windows=2,
                            graph_horizon=4.0, graph_budget=8, cycle_horizon=4.0,
                            sigma_resolution=256)
    with caplog.at_level("INFO", logger="filippov.diagnostics"):
        report = chaos_report(belt_system, cfg)
    lines = [r.getMessage() for r in caplog.records if r.name == "filippov.diagnostics"]
    phases = [line.split(":")[0] for line in lines if line.startswith("chaos_report ")]
    assert phases == [f"chaos_report {p}" for p in
                      ("sigma", "saturate", "transitivity", "sensitivity", "graph", "cycles")]
    assert sum(line.startswith("saturate: ") for line in lines) == 1
    assert report == chaos_report(belt_system, cfg)  # timings stay out of the report


def test_escape_entry_tangency_skipped_when_unclassifiable(monkeypatch):
    from filippov import diagnostics, integrate
    from filippov.errors import UndefinedSlidingError

    # h = y: escaping for x > 0, crossing for x < 0, the sliding flow at the
    # fold x = 0 runs into the escaping arc
    s = build_plane_system(("1", "x"), ("1", "-1"))
    decs = decompose(s)
    (target,) = diagnostics._escape_entry_tangencies(s, decs)
    assert target.position == pytest.approx((0.0, 0.0), abs=1e-9) and target.curve_id == 0

    def unclassifiable(*args, **kwargs):
        raise UndefinedSlidingError("probe failed")

    monkeypatch.setattr(diagnostics, "classify_point", unclassifiable)
    assert diagnostics._escape_entry_tangencies(s, decs) == []


def test_chaos_report_traces_each_curve_once(monkeypatch):
    from filippov.scenario import load_shipped

    scenario = load_shipped("chaotic_torus")
    system = scenario.build_system()
    cfg = scenario.config
    small = {
        "saturate_seeds_per_arc": 1, "saturate_horizon": 2.0,
        "transitivity_pairs": 1, "transitivity_budget": 1, "probe_horizon": 2.0,
        "sensitivity_budget": 1, "sensitivity_horizon": 2.0,
        "graph_budget": 2, "graph_horizon": 5.0, "cycle_windows": 2, "cycle_horizon": 5.0,
    }
    for key, value in small.items():
        setattr(cfg, key, value)
    calls = count_trace_calls(monkeypatch)
    report = chaos_report(system, cfg, opts=scenario.integrator)
    assert report["dense_periodicity"]["windows"]  # the cycle assembly ran
    assert sorted(calls) == sorted(c.id for c in system.curves)
