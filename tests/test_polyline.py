"""`Domain.along` against the three polyline lookups it replaced.

The bodies of the old `Orbit.position_at`, `CurveComponent.point_at` and the
target walk of `sigma._resample` are kept here as references.  Off a stored
parameter every lookup must give the same bits; at an interior stored
parameter (a tie) the walk gave a + 1.0 (b - a), and `along` returns the
stored sample itself.
"""

import math
import random
from bisect import bisect_right
from types import SimpleNamespace

import pytest

from filippov import sigma
from filippov.integrate import integrate_filippov
from filippov.scenario import load_shipped
from filippov.sigma import CurveComponent, trace_curve
from filippov.system import Domain

from conftest import list_shipped

DOMAINS = [Domain("plane_rect", -2.0, 3.0, -1.0, 0.5), Domain("flat_torus", 0.0, 2.5, -1.0, 1.0)]


def _hex(p):
    return [v.hex() for v in p]


def _position_at_loop(orbit, t, domain):
    """The deleted body of `Orbit.position_at`."""
    for seg in orbit.segments:
        if len(seg.times) > 1 and seg.t_start - 1e-12 <= t <= seg.t_end + 1e-12:
            times = seg.times
            i = max(1, min(len(times) - 1, bisect_right(times, t)))
            t0, t1 = times[i - 1], times[i]
            a = seg.points[i - 1]
            w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
            dx, dy = domain.displacement(a, seg.points[i])
            return domain.canonical((a[0] + w * dx, a[1] + w * dy))
    return orbit.end_point()


def _point_at_loop(comp, s):
    """The deleted body of `CurveComponent.point_at`."""
    pts, prm = comp.points, comp.params
    if comp.closed:
        s = s % comp.length
    s = min(max(s, 0.0), prm[-1])
    hi = max(1, min(len(prm) - 1, bisect_right(prm, s)))
    span = prm[hi] - prm[hi - 1]
    w = 0.0 if span == 0.0 else (s - prm[hi - 1]) / span
    a = pts[hi - 1]
    dx, dy = comp.domain.displacement(a, pts[hi])
    return comp.domain.canonical((a[0] + w * dx, a[1] + w * dy))


def _walk(d, cum, points, targets):
    """The deleted target walk of `sigma._resample`, before its projection; targets ascend."""
    out = []
    j = 0
    for s in targets:
        while j < len(cum) - 2 and cum[j + 1] < s:
            j += 1
        span = cum[j + 1] - cum[j]
        w = 0.0 if span == 0 else (s - cum[j]) / span
        a, b = points[j], points[j + 1]
        dx, dy = d.displacement(a, b)
        out.append(d.canonical((a[0] + w * dx, a[1] + w * dy)))
    return out


def _random_polyline(rng, d, n, repeats=False):
    """n canonical points at ascending params; with ``repeats`` some spans have zero length."""
    params = [rng.uniform(-1.0, 1.0)]
    for _ in range(n - 1):
        step = 0.0 if repeats and rng.random() < 0.2 else rng.uniform(1e-3, 0.5)
        params.append(params[-1] + step)
    points = [d.canonical((rng.uniform(d.x_min - 1, d.x_max + 1), rng.uniform(d.y_min - 1, d.y_max + 1)))
              for _ in range(n)]
    return params, points


def _probes(rng, params):
    lo, hi = params[0], params[-1]
    probes = [0.5 * (a + b) for a, b in zip(params, params[1:])]
    probes += [rng.uniform(lo - 0.5, hi + 0.5) for _ in range(40)]
    return sorted(s for s in probes if s not in set(params))


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.kind)
def test_along_matches_the_deleted_lookups_on_random_polylines(domain):
    rng = random.Random(12)
    for trial in range(300):
        params, points = _random_polyline(rng, domain, rng.randint(2, 12), repeats=trial % 2 == 1)
        probes = _probes(rng, params)
        got = [domain.along(params, points, s) for s in probes]
        assert list(map(_hex, got)) == list(map(_hex, _walk(domain, params, points, probes)))
        seg = SimpleNamespace(times=params, points=points, t_start=-math.inf, t_end=math.inf)
        orbit = SimpleNamespace(segments=[seg])
        for s, q in zip(probes + params, got + [domain.along(params, points, s) for s in params]):
            assert _hex(q) == _hex(_position_at_loop(orbit, s, domain))
        arclength = [p - params[0] for p in params]
        comp = CurveComponent(0, 0, points, arclength, trial % 4 == 0, arclength[-1], domain=domain)
        for s in [p - params[0] for p in probes] + arclength:
            assert _hex(comp.point_at(s)) == _hex(_point_at_loop(comp, s))


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.kind)
def test_along_returns_the_stored_sample_at_a_tie(domain):
    rng = random.Random(5)
    differs = 0
    for _ in range(200):
        params, points = _random_polyline(rng, domain, rng.randint(3, 10))
        ties = params[1:-1]
        for k, s in enumerate(ties, start=1):
            assert _hex(domain.along(params, points, s)) == _hex(points[k])
        walked = _walk(domain, params, points, ties)
        differs += sum(_hex(q) != _hex(p) for q, p in zip(walked, points[1:-1]))
        # the two ends extrapolate on the end chords, as the walk and position_at did
        for s in (params[0], params[-1]):
            assert _hex(domain.along(params, points, s)) == _hex(_walk(domain, params, points, [s])[0])
    assert differs > 0  # the walk's a + 1.0 (b - a) is not always b


def _resample_reference(sys, curve, points, closed, resolution, index):
    """The deleted `sigma._resample`, walk included."""
    d = sys.domain
    cum = [0.0]
    for a, b in zip(points, points[1:]):
        cum.append(cum[-1] + d.distance(a, b))
    length = cum[-1]
    n = resolution if closed else resolution + 1
    targets = [length * k / resolution for k in range(n)]
    out_pts = [d.canonical(curve.project(q, 3)) for q in _walk(d, cum, points, targets)]
    if closed:
        out_pts.append(out_pts[0])
        targets.append(length)
    return out_pts, targets


@pytest.mark.parametrize("name", list_shipped())
def test_shipped_curves_resample_and_interpolate_as_before(name, monkeypatch):
    # shipped targets do land on trace vertices (straight curves traced in dyadic
    # steps), but there a + 1.0 (b - a) is b exactly, so every component keeps its bits
    system = load_shipped(name).build_system()
    calls = []
    real = sigma._resample
    monkeypatch.setattr(sigma, "_resample", lambda *args: calls.append(args) or real(*args))
    checked = 0
    for curve in system.curves:
        for resolution in (64, 300):
            calls.clear()
            for comp, args in zip(trace_curve(system, curve.id, resolution), calls):
                want_pts, want_par = _resample_reference(*args)
                assert list(map(_hex, comp.points)) == list(map(_hex, want_pts))
                assert [s.hex() for s in comp.params] == [s.hex() for s in want_par]
                probes = [0.5 * (a + b) for a, b in zip(comp.params, comp.params[1:])]
                probes += list(comp.params) + [-0.3, comp.length + 0.2, 2.6 * comp.length]
                for s in probes:
                    assert _hex(comp.point_at(s)) == _hex(_point_at_loop(comp, s))
                    checked += 1
    assert checked > 0


@pytest.mark.parametrize("name", list_shipped())
def test_orbit_position_at_matches_the_deleted_loop(name):
    scenario = load_shipped(name)
    system = scenario.build_system()
    d = system.domain
    checked = 0
    for fx, fy in ((0.31, 0.27), (0.62, 0.71)):
        start = (d.x_min + fx * d.width, d.y_min + fy * d.height)
        orbit = integrate_filippov(system, start, 3.0, opts=scenario.integrator)
        for seg in orbit.segments:
            times = seg.times
            probes = list(times) + [0.5 * (a + b) for a, b in zip(times, times[1:])]
            probes += [seg.t_start - 1e-12, seg.t_end + 1e-12, seg.t_end + 1.0]
            for t in probes:
                assert _hex(orbit.position_at(t, d)) == _hex(_position_at_loop(orbit, t, d))
                checked += 1
    assert checked > 100
