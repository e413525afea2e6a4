import dataclasses
import json
import math

import pytest

from filippov import diagnostics, integrate
from filippov.diagnostics import Disk
from filippov.errors import ConfigurationError, IntegrationError
from filippov.expr import PlanarField, ScalarField
from filippov.integrate import (
    BranchPolicy,
    IntegratorOptions,
    enumerate_branches,
    first_entry,
    integrate_filippov,
    integrate_regular,
    integrate_sliding,
)
from filippov.integrate import PolicyCursor
from filippov.scenario import load_shipped
from filippov.sigma import PointClass, classify_point
from filippov.system import Domain, FilippovSystem, RegionSpec, SwitchingCurve

from conftest import build_plane_system, count_arc_calls, decompose, observe_loop_reads


def serialize(orbit):
    """The orbit's JSON form as one canonical string: equal strings, equal orbits."""
    return json.dumps(orbit.to_json_dict(), sort_keys=True)


def test_regular_event_location():
    s = build_plane_system(("0", "-1"), ("1", "1"))
    seg, hit = integrate_regular(s, (0.0, 1.0), 1, 5.0)
    assert hit[0] == "curve" and hit[1] == 0
    assert seg.t_end == pytest.approx(1.0, abs=1e-9)
    assert abs(seg.end_point[1]) <= 1e-10


def test_regular_runs_to_horizon():
    s = build_plane_system(("1", "0"), ("1", "1"), bounds=(-1, 3, -1, 1))
    seg, hit = integrate_regular(s, (0.0, 0.5), 1, 2.0)
    assert hit[0] == "t_max"
    assert seg.end_point == pytest.approx((2.0, 0.5), abs=1e-9)


def test_circular_field_closed_form(circle_system):
    orbit = integrate_filippov(circle_system, (1.0, 0.0), 2 * math.pi)
    end = orbit.end_point()
    assert math.hypot(end[0] - 1.0, end[1]) <= 1e-7
    assert len(orbit.segments) == 1


def test_event_endpoints_have_tiny_h(fold_system):
    h = fold_system.curve(0).h.raw()
    for x0 in (-1.5, -0.7, 0.4, 1.2):
        orbit = integrate_filippov(fold_system, (x0, 0.8), 4.0)
        for seg, nxt in zip(orbit.segments, orbit.segments[1:]):
            if seg.kind == "regular_arc" and nxt.kind in ("crossing_event", "sliding_arc"):
                assert abs(h(*seg.end_point)) <= 1e-10


def test_handle_crossing_continues_to_other_side():
    s = build_plane_system(("1", "-1"), ("1", "-1"))
    orbit = integrate_filippov(s, (1.0, 0.0), 0.5)
    assert [g.kind for g in orbit.segments] == ["crossing_event", "regular_arc"]
    assert orbit.segments[0].detail == {"curve": 0}
    assert orbit.segments[1].region_id == 2


def test_handle_sliding_entry(flat_system):
    orbit = integrate_filippov(flat_system, (1.0, 0.0), 0.5)
    assert [g.kind for g in orbit.segments] == ["sliding_arc"]
    assert orbit.segments[0].detail == {"escaping": False}
    assert orbit.choices == []


def test_handle_visible_fold_ejects_tangent_side(fold_system):
    # oracle: a small step along Y1 from the fold raises h quadratically
    p = (0.0, 0.0)
    y1 = fold_system.region(1).field
    x, y = p
    dt = 1e-3
    for _ in range(10):
        vx, vy = y1(x, y)
        x += dt * vx
        y += dt * vy
    assert y > 0  # moves off into the h > 0 side
    orbit = integrate_filippov(fold_system, p, 0.5)
    assert [g.kind for g in orbit.segments] == ["regular_arc"]
    assert orbit.segments[0].region_id == 1


@pytest.mark.parametrize("y1, y2, policy, kinds, end", [
    # crossing: both fields point down
    (("1", "-1"), ("1", "-1"), None, ["crossing_event", "regular_arc"], 2),
    # sliding: the fields point at each other
    (("1", "-1"), ("1", "1"), None, ["sliding_arc"], None),
    # escaping: the fields point away from each other; the policy picks the lower side
    (("1", "1"), ("1", "-1"), BranchPolicy.exit_down(), ["escape_departure", "regular_arc"], 2),
    # regular tangency of Y1 whose other field departs linearly
    (("1", "-x"), ("1", "-1"), None, ["regular_arc"], 2),
    # visible fold of Y1: Y1(Y1 h) = 1 > 0 lifts the orbit off into region 1
    (("1", "x"), ("1", "1"), None, ["regular_arc"], 1),
    # invisible fold of Y1: Y1(Y1 h) = -1 < 0 bounds a sliding arc
    (("1", "-x"), ("1", "1"), None, ["sliding_arc"], None),
    # degenerate fold of Y1: Y1(Y1 h) = -2x vanishes at the tangency
    (("1", "-x^2"), ("1", "1"), None, ["terminal"], "degenerate_tangency"),
    # pseudo-equilibrium in the escaping region: the policy leaves upwards
    (("-x", "1"), ("-x", "-1"), BranchPolicy.exit_up(), ["escape_departure", "regular_arc"], 1),
    # pseudo-equilibrium of the sliding flow: a rest point
    (("-x", "-1"), ("-x", "1"), None, ["terminal"], "pseudo_equilibrium"),
    # double tangency: both fields are tangent
    (("1", "x"), ("1", "x"), None, ["terminal"], "double_tangency"),
])
def test_sigma_continuation_from_the_origin(y1, y2, policy, kinds, end):
    # h = y; ``end`` is the region of the last arc, or the terminal reason
    orbit = integrate_filippov(build_plane_system(y1, y2), (0.0, 0.0), 0.5, policy=policy)
    assert [g.kind for g in orbit.segments] == kinds
    last = orbit.segments[-1]
    if last.kind == "terminal":
        assert orbit.terminal == last.detail["reason"] == end
    else:
        assert orbit.terminal is None and orbit.duration() == pytest.approx(0.5)
        assert last.region_id == end
    escapes = [c.side for c in orbit.choices if c.kind == "escape_exit"]
    assert escapes == ([] if policy is None else ["positive" if end == 1 else "negative"])


def test_sliding_to_horizon():
    s = build_plane_system(("1", "-1"), ("1", "1"), bounds=(-1, 4, -1, 1))
    seg, exit_info = integrate_sliding(s, 0, (0.0, 0.0), 3.0)
    assert exit_info[0] == "t_max"
    assert seg.end_point == pytest.approx((3.0, 0.0), abs=1e-8)
    assert max(abs(p[1]) for p in seg.points) <= 1e-8


def test_sliding_exits_at_fold(fold_system):
    seg, exit_info = integrate_sliding(fold_system, 0, (-1.0, 0.0), 5.0)
    assert exit_info[0] == "tangency"
    assert exit_info[1] == pytest.approx((0.0, 0.0), abs=1e-8)
    assert seg.t_end == pytest.approx(1.0, abs=1e-6)


def test_sliding_reaches_pseudo_equilibrium(pe_system):
    seg, exit_info = integrate_sliding(pe_system, 0, (1.0, 0.0), 60.0)
    assert exit_info[0] == "pseudo_eq"
    assert abs(exit_info[1][0]) <= 1e-6


def test_filippov_piecewise_closed_form():
    s = build_plane_system(("1", "-1"), ("1", "1"), bounds=(-1, 4, -1, 2))
    orbit = integrate_filippov(s, (0.0, 1.0), 3.0)
    kinds = [g.kind for g in orbit.segments]
    assert kinds == ["regular_arc", "sliding_arc"]
    assert orbit.segments[0].t_end == pytest.approx(1.0, abs=1e-9)
    assert orbit.segments[0].end_point == pytest.approx((1.0, 0.0), abs=1e-9)
    assert orbit.end_point() == pytest.approx((3.0, 0.0), abs=1e-8)
    # closed-form trace: (t, 1-t) then (t, 0)
    for t, p, kind, _ in orbit.samples():
        if kind == "regular_arc":
            assert p == pytest.approx((t, 1.0 - t), abs=1e-8)
        else:
            assert p == pytest.approx((t, 0.0), abs=1e-8)


def test_filippov_straight_crossing():
    s = build_plane_system(("1", "-1"), ("1", "-1"), bounds=(-1, 4, -2, 2))
    orbit = integrate_filippov(s, (0.0, 1.0), 2.0)
    kinds = [g.kind for g in orbit.segments]
    assert kinds == ["regular_arc", "crossing_event", "regular_arc"]
    assert orbit.segments[1].points[0] == pytest.approx((1.0, 0.0), abs=1e-9)
    assert orbit.end_point() == pytest.approx((2.0, -1.0), abs=1e-8)


def test_filippov_torus_wrap(belt_system):
    orbit = integrate_filippov(belt_system, (0.0, 0.0), 2.5)
    assert orbit.end_point() == pytest.approx((0.5, 0.0), abs=1e-8)
    assert all(0 <= p[0] < 1 for _, p, _, _ in orbit.samples())


def test_backward_consistency_on_regular_arc(circle_system):
    forward = integrate_filippov(circle_system, (1.0, 0.0), 1.5)
    end = forward.end_point()
    back = integrate_filippov(circle_system, end, 1.5, direction="backward")
    ret = back.end_point()
    assert math.hypot(ret[0] - 1.0, ret[1]) <= 1e-7


def test_backward_swaps_sliding_and_escaping(belt_system):
    # forward from the escaping belt needs a policy; backward slides
    orbit = integrate_filippov(belt_system, (0.3, 0.5), 1.0, direction="backward")
    assert orbit.segments[0].kind == "sliding_arc"


def test_determinism_bit_identical(fold_system):
    a = integrate_filippov(fold_system, (-1.2, 0.7), 5.0)
    b = integrate_filippov(fold_system, (-1.2, 0.7), 5.0)
    assert serialize(a) == serialize(b)


def test_left_domain_terminal(fold_system):
    orbit = integrate_filippov(fold_system, (1.5, 0.5), 10.0)
    assert orbit.terminal == "left_domain"
    assert orbit.segments[-1].kind == "terminal"


def test_double_tangency_stops():
    s = build_plane_system(("1", "x"), ("1", "x"))
    orbit = integrate_filippov(s, (0.0, 0.0), 1.0)
    assert orbit.terminal == "double_tangency"


def test_sliding_into_double_tangency_stops():
    # slides at unit speed along y = 0 into the two-fold at x = 1, where
    # L1 = x - 1 and L2 = 2 - 2x vanish together
    s = build_plane_system(("1", "x - 1"), ("1", "2 - 2*x"))
    orbit = integrate_filippov(s, (0.0, 0.0), 5.0)
    assert orbit.terminal == "double_tangency"
    assert [seg.kind for seg in orbit.segments] == ["sliding_arc", "terminal"]
    assert orbit.segments[0].end_point == pytest.approx((1.0, 0.0), abs=1e-9)


def test_no_tunneling_interior_samples(fold_system):
    h = fold_system.curve(0).h.raw()
    for x0, y0 in [(-1.8, 0.9), (-1.1, -0.6), (0.3, 0.9)]:
        orbit = integrate_filippov(fold_system, (x0, y0), 6.0)
        for seg in orbit.segments:
            if seg.kind != "regular_arc":
                continue
            interior = seg.points[1:-1]
            signs = {1 if h(*p) > 0 else -1 for p in interior if abs(h(*p)) > 1e-9}
            assert len(signs) <= 1


def test_step_tightening_changes_little(circle_system):
    base = IntegratorOptions()
    tight = dataclasses.replace(base, rtol=base.rtol * 0.1, atol=base.atol * 0.1)
    a = integrate_filippov(circle_system, (1.0, 0.0), 2 * math.pi, opts=base)
    b = integrate_filippov(circle_system, (1.0, 0.0), 2 * math.pi, opts=tight)
    ea, eb = a.end_point(), b.end_point()
    assert math.hypot(ea[0] - eb[0], ea[1] - eb[1]) <= 1e-6


def test_enumerate_three_branches_on_escaping_start(belt_system):
    orbits = enumerate_branches(belt_system, (0.3, 0.5), 2.0, budget=5, dwell_grid=(0.0,))
    assert len(orbits) == 3
    labels = [o.policy["script"] for o in orbits]
    assert labels == [
        ["exit_immediately_up"],
        ["exit_immediately_down"],
        ["slide_until_tangency"],
    ]


def test_enumerate_budget_truncates(belt_system):
    orbits = enumerate_branches(belt_system, (0.3, 0.5), 2.0, budget=2, dwell_grid=(0.0,))
    assert len(orbits) == 2


def test_enumerate_single_orbit_without_escaping(fold_system):
    orbits = enumerate_branches(fold_system, (-1.5, 0.5), 3.0, budget=7, dwell_grid=(0.0,))
    assert len(orbits) == 1


def test_enumerate_fork_tree_with_dwell_grid(belt_system):
    # fork set: |dwell grid| x {up, down} plus slide-on = 2*2 + 1
    orbits = enumerate_branches(belt_system, (0.3, 0.5), 2.0, budget=100, dwell_grid=(0.0, 0.1))
    assert len(orbits) == 5
    dwell_ends = [o.end_point() for o in orbits if "dwell" in str(o.policy["script"])]
    assert len(dwell_ends) == 2


def _enumerate_against_fresh_runs(system, p0, horizon, **kwargs):
    """Enumerate, and check each orbit against a fresh run of its script from p0."""
    orbits = enumerate_branches(system, p0, horizon, **kwargs)
    for orbit in orbits:
        fresh = integrate_filippov(
            system, p0, horizon, policy=PolicyCursor(BranchPolicy.slide_on(), orbit.script),
            opts=kwargs.get("opts"), ride_targets=kwargs.get("ride_targets", ()),
        )
        assert serialize(fresh) == serialize(orbit)
    return orbits


def test_enumerated_orbits_equal_fresh_runs_of_their_scripts(belt_system):
    orbits = _enumerate_against_fresh_runs(
        belt_system, (0.3, 0.5), 2.0, budget=100, dwell_grid=(0.0, 0.1)
    )
    assert len(orbits) == 5

    scenario = load_shipped("chaotic_torus")
    torus = scenario.build_system()
    rides = diagnostics._escape_entry_tangencies(torus, decompose(torus))
    entry = min((tp.position for tp in rides), key=lambda q: math.dist(q, (0.5817, 0.5)))
    assert math.dist(entry, (0.5817, 0.5)) < 1e-3
    # from the tangency the ride fork happens on sigma; from (0.77, 0.61) a
    # regular arc grazes the tangency first
    for p0 in (entry, (0.77, 0.61)):
        orbits = _enumerate_against_fresh_runs(
            torus, p0, 6.0, budget=12, opts=scenario.integrator, ride_targets=rides
        )
        scripts = [o.policy["script"] for o in orbits]
        assert ["pass"] in scripts
        assert ["ride", "exit_immediately_up"] in scripts


def _enumerate_with_goal(system, p0, horizon, goal, **kwargs):
    """Enumerate with and without the goal; check each goal orbit against the fresh run."""
    orbits = enumerate_branches(system, p0, horizon, goal=goal, **kwargs)
    plain = enumerate_branches(system, p0, horizon, **kwargs)
    stopped = 0
    for orbit in orbits:
        # the entries the run recorded step by step are those of the finished orbit
        assert orbit.goal_entries == tuple(first_entry(system.domain, orbit.segments, d) for d in goal)
        fresh = integrate_filippov(
            system, p0, horizon, policy=PolicyCursor(BranchPolicy.slide_on(), orbit.script),
            opts=kwargs.get("opts"), ride_targets=kwargs.get("ride_targets", ()),
        )
        if orbit.terminal != "goal_reached":
            assert serialize(orbit) == serialize(fresh)
            assert serialize(orbit) in [serialize(o) for o in plain]
            continue
        stopped += 1
        assert orbit.segments == fresh.segments[:len(orbit.segments)]
        assert orbit.choices == fresh.choices[:len(orbit.choices)]
        # the run stopped on the arc that entered the last pending disk
        assert None not in orbit.goal_entries
        last = max(i for i, seg in enumerate(orbit.segments)
                   if seg.kind in ("regular_arc", "sliding_arc"))
        before = dataclasses.replace(orbit, segments=orbit.segments[:last])
        assert any(first_entry(system.domain, before.segments, d) is None for d in goal)
    return orbits, plain, stopped


@pytest.mark.parametrize("goal, script, kinds, duration", [
    # the exit into y > 0.5 passes both disks on its first arc, which meets the
    # sliding belt at t = 0.5; the fresh run slides on to the horizon
    ((Disk((0.5, 0.7), 0.05), Disk((0.7, 0.9), 0.05)), "exit_immediately_down",
     ["escape_departure", "regular_arc"], 0.5),
    # a goal met on the last arc leaves the orbit whole; only its terminal is new
    ((Disk((0.5, 0.7), 0.05), Disk((0.9, 0.0), 0.05)), "exit_immediately_down",
     ["escape_departure", "regular_arc", "sliding_arc"], 2.0),
    # the dwell step adds a sliding arc and then a departure marker; the first
    # disk holds samples of the arc only
    ((Disk((0.35, 0.5), 0.02), Disk((0.5, 0.6), 0.05)), "dwell_then_exit(0.1,negative)",
     ["sliding_arc", "escape_departure", "regular_arc"], 0.6),
])
def test_an_orbit_stopped_at_its_goal_is_a_prefix_of_the_fresh_run(belt_system, goal, script,
                                                                    kinds, duration):
    orbits, plain, stopped = _enumerate_with_goal(
        belt_system, (0.3, 0.5), 2.0, goal, budget=100, dwell_grid=(0.0, 0.1)
    )
    assert stopped == 1 and len(orbits) == len(plain) == 5
    [orbit] = [o for o in orbits if o.terminal == "goal_reached"]
    assert orbit.policy["script"] == [script]
    assert [seg.kind for seg in orbit.segments] == kinds
    assert orbit.duration() == pytest.approx(duration, abs=1e-9)


def test_goal_orbits_on_the_torus_with_ride_forks():
    scenario = load_shipped("chaotic_torus")
    torus = scenario.build_system()
    rides = diagnostics._escape_entry_tangencies(torus, decompose(torus))
    p0 = (0.77, 0.61)
    kwargs = dict(budget=12, opts=scenario.integrator, ride_targets=rides)
    reference = enumerate_branches(torus, p0, 6.0, **kwargs)
    # disks on the fork's later branches: each orbit that meets both stops there
    goal = (Disk(reference[0].position_at(1.0, torus.domain), 0.05),
            Disk(reference[-1].position_at(4.0, torus.domain), 0.05))
    orbits, _, stopped = _enumerate_with_goal(torus, p0, 6.0, goal, **kwargs)
    scripts = [o.policy["script"][0] for o in orbits if o.terminal == "goal_reached"]
    assert stopped >= 2 and "pass" in scripts and "ride" in scripts


def test_an_orbit_that_misses_its_goal_is_unchanged(belt_system):
    goal = (Disk((0.5, 0.7), 0.05), Disk((0.2, 0.3), 0.05))  # no branch meets both
    orbits, plain, stopped = _enumerate_with_goal(
        belt_system, (0.3, 0.5), 2.0, goal, budget=100, dwell_grid=(0.0, 0.1)
    )
    assert stopped == 0
    assert [serialize(o) for o in orbits] == [serialize(o) for o in plain]


def test_an_orbit_that_leaves_the_domain_keeps_its_terminal():
    # one regular arc meets both disks and leaves the rectangle at x = 2, in the same step
    s = build_plane_system(("1", "0"), ("1", "1"), bounds=(-2, 2, -1, 1))
    goal = (Disk((-1.0, 0.5), 0.1), Disk((1.5, 0.5), 0.1))
    [orbit] = enumerate_branches(s, (-1.5, 0.5), 5.0, budget=1, goal=goal)
    assert orbit.terminal == "left_domain"
    assert [seg.kind for seg in orbit.segments] == ["regular_arc", "terminal"]
    assert serialize(orbit) == serialize(integrate_filippov(s, (-1.5, 0.5), 5.0))
    assert orbit.goal_entries == tuple(first_entry(s.domain, orbit.segments, d) for d in goal)
    assert None not in orbit.goal_entries
    # so the probe finds such an orbit
    found = diagnostics.transitivity_probe(s, *goal, budget=1, horizon=5.0)
    assert found.terminal == "left_domain" and None not in found.goal_entries


def test_enumeration_integrates_each_arc_once(belt_system, monkeypatch):
    calls = count_arc_calls(monkeypatch)
    orbits = enumerate_branches(belt_system, (0.3, 0.5), 2.0, budget=100, dwell_grid=(0.0, 0.1))
    arcs = sum(1 for o in orbits for seg in o.segments if seg.kind in ("regular_arc", "sliding_arc"))
    assert 0 < len(calls) <= arcs


def test_segment_budget_terminal(monkeypatch):
    # crossings at y = 0.5 and y = 0 (mod 1); each arc is one driver step,
    # and so is each sigma touch with the crossing it decides
    domain = Domain("flat_torus", 0, 1, 0, 1)
    curve = SwitchingCurve(0, ScalarField("sin(2*pi*y)"), 1, 2)
    regions = [
        RegionSpec(1, PlanarField("1", "1"), [(0, +1)]),
        RegionSpec(2, PlanarField("1", "2"), [(0, -1)]),
    ]
    system = FilippovSystem(domain, [curve], regions, validate=False)
    monkeypatch.setattr(integrate, "MAX_SEGMENTS", 5)
    orbit = integrate_filippov(system, (0.1, 0.25), 50.0)
    assert orbit.terminal == "segment_budget"
    assert [s.kind for s in orbit.segments] == [
        "regular_arc", "crossing_event", "regular_arc", "crossing_event", "regular_arc",
    ]


@pytest.mark.parametrize("name, p0, horizon", [("rotation_plane", (0.3, 0.2), 20.0),
                                              ("chaotic_torus", (0.3, 0.7), 8.0)])
def test_an_orbit_takes_at_most_its_step_bound(name, p0, horizon, monkeypatch):
    # the arcs of one orbit, regular and sliding, share MAX_ORBIT_STEPS accepted steps: an orbit
    # that takes exactly that many keeps its bytes, and one more step is an error naming the flag
    system = load_shipped(name).build_system()
    orbit = integrate_filippov(system, p0, horizon)
    arcs = [s for s in orbit.segments if s.kind.endswith("_arc")]
    kinds = {"regular_arc", "sliding_arc"} if name == "chaotic_torus" else {"regular_arc"}
    assert len(arcs) > 6 and arcs[-1].kind == "regular_arc" and {s.kind for s in arcs} == kinds
    steps = sum(s.steps for s in orbit.segments)
    assert steps > 0 and all(s.steps > 0 for s in arcs)
    monkeypatch.setattr(integrate, "MAX_ORBIT_STEPS", steps)
    assert serialize(integrate_filippov(system, p0, horizon)) == serialize(orbit)
    monkeypatch.setattr(integrate, "MAX_ORBIT_STEPS", steps - 1)
    with pytest.raises(IntegrationError, match=f"orbit took {steps - 1} accepted steps, its bound: "
                                               "use a shorter --horizon or a larger integrator.max_step"):
        integrate_filippov(system, p0, horizon)


@pytest.mark.parametrize("name, p0, horizon", [("rotation_plane", (0.3, 0.2), 20.0),
                                              ("chaotic_torus", (0.3, 0.7), 8.0)])
def test_an_orbit_stores_at_most_its_sample_bound(name, p0, horizon, monkeypatch):
    # the arcs of one orbit share MAX_ORBIT_SAMPLES stored samples, tested where a chord is cut
    # (a spacing of 1e-3 cuts most chords): an orbit whose arcs store exactly that many keeps
    # its bytes, and one whose arcs store twice as many is an error naming the setting
    system = load_shipped(name).build_system()
    opts = IntegratorOptions(sample_spacing=1e-3)
    orbit = integrate_filippov(system, p0, horizon, opts=opts)
    stored = sum(len(s.times) for s in orbit.segments if s.kind.endswith("_arc"))
    monkeypatch.setattr(integrate, "MAX_ORBIT_SAMPLES", stored)
    assert serialize(integrate_filippov(system, p0, horizon, opts=opts)) == serialize(orbit)
    monkeypatch.setattr(integrate, "MAX_ORBIT_SAMPLES", stored // 2)
    with pytest.raises(IntegrationError, match=f"orbit stores more than {stored // 2} samples"):
        integrate_filippov(system, p0, horizon, opts=opts)


@pytest.mark.parametrize("kind", ["regular", "sliding"])
def test_an_arc_stores_at_most_its_room(kind, circle_system, belt_system):
    # an arc without events emits every step in its loop: the loop's own cuts test the room
    opts = IntegratorOptions(sample_spacing=1e-3)
    if kind == "regular":
        arc = lambda room: integrate_regular(circle_system, (1.0, 0.0), 1, 20.0, opts, room=room)[0]
    else:
        arc = lambda room: integrate_sliding(belt_system, 0, (0.3, 0.0), 5.0, opts, room=room)[0]
    full = arc(math.inf)
    stored = len(full.times)
    assert stored > 100
    assert arc(stored).to_dict() == full.to_dict() and arc(stored).points == full.points
    with pytest.raises(IntegrationError, match="integrator.sample_spacing"):
        arc(stored // 2)


@pytest.mark.parametrize("emitter", ["_EMIT", "_EMIT_TO"])
@pytest.mark.parametrize("torus", [False, True])
def test_the_emitters_cut_a_chord_only_within_the_room(emitter, torus):
    # a chord of length 1 at spacing 0.25 is cut into four pieces: three cut samples and its end
    domain = Domain("flat_torus" if torus else "plane_rect", -4.0, 4.0, -4.0, 4.0)
    step = integrate._DenseStep(0.0, 1.0, 0.0, 0.0, ((1.0, 0.0),) * 7)  # x = t along a constant field

    def emit(room):
        times, pts = [0.0], [(0.0, 0.0)]
        if emitter == "_EMIT":
            integrate._EMIT[torus](step, 1.0, (1.0, 0.0), times, pts, 0.25, room, domain)
        else:
            integrate._EMIT_TO[torus](1.0, 0.0, 1.0, times, pts, 0.25, room, domain)
        return times

    assert emit(math.inf) == emit(5) == [0.0, 0.25, 0.5, 0.75, 1.0]
    with pytest.raises(IntegrationError, match="integrator.sample_spacing"):
        emit(4)


def test_policy_dwell_then_exit(belt_system):
    policy = BranchPolicy.dwell_exit(0.25, "negative")
    orbit = integrate_filippov(belt_system, (0.3, 0.5), 2.0, policy=policy)
    kinds = [g.kind for g in orbit.segments]
    assert kinds[0] == "sliding_arc"  # the dwell ride along the escaping belt
    assert "escape_departure" in kinds
    assert orbit.choices[0].dwell == 0.25
    # dwell advances along the belt at unit speed before leaving
    dep = next(g for g in orbit.segments if g.kind == "escape_departure")
    assert dep.points[0] == pytest.approx((0.55, 0.5), abs=1e-8)


def test_orbit_csv_and_json(fold_system, tmp_path):
    orbit = integrate_filippov(fold_system, (-1.2, 0.7), 3.0)
    csv_path = tmp_path / "orbit.csv"
    with open(csv_path, "w") as fh:
        orbit.write_csv(fh)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,x,y,segment_kind,segment_index"
    assert len(lines) > 10
    payload = orbit.to_json_dict()
    assert payload["schema"] == "filippov.orbit/1"
    json.dumps(payload)  # serializable


def test_segments_are_time_contiguous(fold_system):
    orbit = integrate_filippov(fold_system, (-1.6, 0.9), 5.0)
    for a, b in zip(orbit.segments, orbit.segments[1:]):
        assert b.t_start == pytest.approx(a.t_end, abs=1e-12)
        da = a.end_point
        db = b.points[0]
        assert math.hypot(da[0] - db[0], da[1] - db[1]) <= 1e-9


def test_position_at_interpolates(flat_system):
    orbit = integrate_filippov(flat_system, (0.0, 1.0), 3.0)
    assert orbit.position_at(0.5, flat_system.domain) == pytest.approx((0.5, 0.5), abs=1e-7)
    assert orbit.position_at(2.0, flat_system.domain) == pytest.approx((2.0, 0.0), abs=1e-7)


def test_position_at_interpolates_across_the_torus_wrap():
    system = load_shipped("chaotic_torus").build_system()
    orbit = integrate_filippov(system, (0.3, 0.5), 1.0)
    # t = 0.49475 lies between the samples at y = 0.9895 and y = 0.0 (after the wrap)
    assert orbit.position_at(0.49475, system.domain)[1] == pytest.approx(0.99475, abs=1e-9)


def test_sliding_arc_stops_at_the_rectangle_edge():
    system = load_shipped("fold_demo_plane").build_system()
    orbit = integrate_filippov(system, (-1.0, 0.0), 20.0, direction="backward")
    assert orbit.terminal == "left_domain"
    assert orbit.segments[-2].kind == "sliding_arc"
    assert all(system.domain.contains(p) for _, p, _, _ in orbit.samples())
    assert abs(orbit.end_point()[0] - system.domain.x_min) <= 1e-9


def test_horizon_must_be_positive(flat_system):
    for horizon in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(IntegrationError, match="horizon must be positive and finite"):
            integrate_filippov(flat_system, (0.0, 1.0), horizon)


def test_dwell_must_be_finite_and_not_negative():
    for dwell in (-1.0, math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="dwell must be a finite number >= 0"):
            BranchPolicy.dwell_exit(dwell, "positive")
    assert BranchPolicy.dwell_exit(0.0, "negative").dwell == 0.0


def test_policy_kind_and_side_must_be_known():
    # an unknown kind ran as slide_until_tangency, and an unknown side left to the negative side
    with pytest.raises(ConfigurationError, match="unknown branch policy kind 'bogus'"):
        BranchPolicy("bogus")
    for side in ("sideways", "up", None):
        with pytest.raises(ConfigurationError, match="branch policy side must be 'positive' or 'negative'"):
            BranchPolicy("dwell_then_exit", 0.1, side=side)
    for kind in BranchPolicy.KINDS:
        for side in ("positive", "negative"):
            assert BranchPolicy(kind, side=side).kind == kind


def test_position_at_skips_marker_segments():
    # the orbit opens with a one-sample escape_departure marker at t = 0
    system = load_shipped("sliding_belt_torus").build_system()
    orbit = integrate_filippov(system, (0.3, 0.5), 1.0, policy=BranchPolicy.exit_up())
    assert orbit.segments[0].kind == "escape_departure"
    assert orbit.position_at(0.0, system.domain) == pytest.approx(orbit.segments[0].points[0])


def test_regular_steps_reuse_their_end_points(monkeypatch):
    # each accepted step evaluates h once at each point of its event grid: theta = 0 is
    # the step's own start point and theta = 1 the sample the arc emits at its end; an
    # event step's theta = 0 and theta = 1 never come from ``at``
    s = build_plane_system(("1", "-1"), ("1", "1"))
    log = []  # ("h", point) per evaluation of the curve's h, ("at", theta) per dense output
    at, raw, h_field = integrate._DenseStep.at, ScalarField.raw, s.curves[0].h

    def logging_at(step, theta):
        log.append(("at", theta))
        return at(step, theta)

    def logger(field):
        return lambda x, y: log.append(("h", (x, y))) if field is h_field else None

    def logging_raw(field):
        fn, log_h = raw(field), logger(field)

        def logged(x, y):
            log_h(x, y)
            return fn(x, y)

        return logged

    monkeypatch.setattr(integrate._DenseStep, "at", logging_at)
    monkeypatch.setattr(ScalarField, "raw", logging_raw)
    observe_loop_reads(monkeypatch, logger)  # the loop inlines h: its reads are logged through the text hook
    opts = IntegratorOptions(sample_spacing=1e9)  # one sample per step, at its end
    for t_max, kind in ((0.3, "t_max"), (2.0, "curve")):  # the arc ends on the curve at t = 0.5
        log.clear()
        seg, hit = integrate_regular(s, (0.0, 0.5), 1, t_max, opts)
        steps = len(seg.times) - 1
        assert hit[0] == kind and steps > 3
        screen = next((i for i, (what, _) in enumerate(log) if what == "at"), len(log))
        assert all(what == "h" for what, _ in log[:screen])
        assert screen == 1 + 5 * steps  # the start, then one grid per accepted step
        grids = [[q for _, q in log[1 + 5 * i:6 + 5 * i]] for i in range(steps)]
        assert grids[0][0] == seg.points[0]
        ends = [grid[-1] for grid in grids]
        assert ends[:steps - (kind == "curve")] == seg.points[1:1 + steps - (kind == "curve")]
        for before, grid in zip(ends, grids[1:]):  # the stepper's end point, not the grid's
            assert math.dist(before, grid[0]) < 1e-12
        thetas = [theta for what, theta in log if what == "at"]
        assert thetas.count(0.0) == thetas.count(1.0) == 0
        assert bool(thetas) == (kind == "curve")
