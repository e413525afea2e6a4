"""Event-driven integration of Filippov orbits.

The regular stepper is a hand-rolled Dormand-Prince 5(4) pair with the
classical quartic dense output; events (sign changes of any h_i, domain
exit, graze captures) are located on the dense output by a guarded
bisection/secant hybrid and polished onto the curve with Newton steps.
Sliding arcs integrate the Filippov convex combination constrained to the
curve by per-step Newton projection.

One orbit is computed sequentially; distinct orbits may be computed
concurrently against the shared immutable system.
"""

from __future__ import annotations

import copy
import json
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field

from .errors import IntegrationError, UndefinedSlidingError, evaluation_boundary
from .sigma import (
    PE_NORM_TOL,
    PointClass,
    TAU_CLASS,
    classify_point,
    filippov_combination,
    lie_pair,
    second_lie_value,
    sliding_vector_field,
)
from .system import FilippovSystem, OnSigma

EVENT_H_TOL = 1e-10  # |h| at located non-sliding event endpoints
POLISH_H_TOL = EVENT_H_TOL * 1e-3  # Newton polish onto a curve stops below this |h|
ESCAPE_BAND = 1e-8  # hysteresis band: a curve re-arms once |h| leaves it


# --------------------------------------------------------------------------- #
# Dormand-Prince 5(4) with dense output
# --------------------------------------------------------------------------- #

_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)


@dataclass
class IntegratorOptions:
    rtol: float = 1e-10
    atol: float = 1e-12
    max_step: float | None = None  # default: min domain extent / 16
    sample_spacing: float | None = None  # default: min domain extent / 64
    capture_radius: float = 1e-6
    max_segments: int = 200_000

    def resolved(self, domain):
        extent = min(domain.width, domain.height)
        max_step = self.max_step if self.max_step is not None else extent / 16.0
        spacing = self.sample_spacing if self.sample_spacing is not None else extent / 64.0
        return max_step, spacing

    def tightened(self, factor=0.1):
        return IntegratorOptions(
            rtol=self.rtol * factor, atol=self.atol * factor,
            max_step=self.max_step, sample_spacing=self.sample_spacing,
            capture_radius=self.capture_radius, max_segments=self.max_segments,
        )


class _DenseStep:
    """One accepted RK step with its quartic interpolant."""

    __slots__ = ("t0", "dt", "x0", "y0", "ks")

    def __init__(self, t0, dt, x0, y0, ks):
        self.t0 = t0
        self.dt = dt
        self.x0 = x0
        self.y0 = y0
        self.ks = ks

    def at(self, theta):
        x = 0.0
        y = 0.0
        for k, p in zip(self.ks, _P):
            q = theta * (p[0] + theta * (p[1] + theta * (p[2] + theta * p[3])))
            x += k[0] * q
            y += k[1] * q
        return (self.x0 + self.dt * x, self.y0 + self.dt * y)


def _rk_step(f, x, y, k1, dt):
    ks = [k1]
    for i in range(1, 7):
        ax = x
        ay = y
        row = _A[i]
        for a, k in zip(row, ks):
            ax += dt * a * k[0]
            ay += dt * a * k[1]
        ks.append(f(ax, ay))
    x1 = ax  # stage 7 uses the 5th-order solution weights
    y1 = ay
    ex = 0.0
    ey = 0.0
    for e, k in zip(_E, ks):
        ex += e * k[0]
        ey += e * k[1]
    return x1, y1, ks, ex * dt, ey * dt


class _Stepper:
    def __init__(self, f, p0, opts, max_step):
        self.f = f
        self.t = 0.0
        self.x, self.y = p0
        self.k1 = f(self.x, self.y)
        self.rtol = opts.rtol
        self.atol = opts.atol
        self.max_step = max_step
        self.dt = min(max_step, 1e-3)

    def propose(self, dt_cap):
        """Advance one accepted step of size <= dt_cap; returns a _DenseStep."""
        dt = min(self.dt, dt_cap, self.max_step)
        for _ in range(60):
            x1, y1, ks, ex, ey = _rk_step(self.f, self.x, self.y, self.k1, dt)
            if not (math.isfinite(x1) and math.isfinite(y1)):
                dt *= 0.25
                continue
            sx = self.atol + self.rtol * max(abs(self.x), abs(x1))
            sy = self.atol + self.rtol * max(abs(self.y), abs(y1))
            err = math.sqrt(0.5 * ((ex / sx) ** 2 + (ey / sy) ** 2))
            if err <= 1.0:
                step = _DenseStep(self.t, dt, self.x, self.y, ks)
                self.t += dt
                self.x, self.y = x1, y1
                self.k1 = ks[6]  # FSAL
                factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
                self.dt = min(self.max_step, dt * factor)
                return step
            dt *= max(0.2, 0.9 * err ** -0.2)
            if dt < 1e-15:
                break
        raise IntegrationError("step size underflow (degenerate point?)")

    def restart_from(self, t, p):
        self.t = t
        self.x, self.y = p
        self.k1 = self.f(self.x, self.y)


# --------------------------------------------------------------------------- #
# orbit data model
# --------------------------------------------------------------------------- #


@dataclass
class OrbitSegment:
    kind: str  # regular_arc | sliding_arc | crossing_event | escape_departure | terminal
    t_start: float
    t_end: float
    times: list = field(default_factory=list)
    points: list = field(default_factory=list)
    region_id: int | None = None
    curve_id: int | None = None
    detail: dict = field(default_factory=dict)

    @property
    def start_point(self):
        return self.points[0]

    @property
    def end_point(self):
        return self.points[-1]

    def to_dict(self):
        return {
            "kind": self.kind,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "region": self.region_id,
            "curve": self.curve_id,
            "start": list(self.points[0]),
            "end": list(self.points[-1]),
            "n_samples": len(self.points),
            "detail": self.detail,
        }


@dataclass
class BranchChoice:
    t: float
    point: tuple[float, float]
    kind: str  # escape_exit | sliding_exit_at_tangency | double_tangency_stop | enter_escaping
    side: str | None = None
    dwell: float | None = None

    def to_dict(self):
        d = {"t": self.t, "point": list(self.point), "kind": self.kind}
        if self.side is not None:
            d["side"] = self.side
        if self.dwell is not None:
            d["dwell"] = self.dwell
        return d


@dataclass(frozen=True)
class BranchPolicy:
    """Deterministic resolution of the escaping-region freedom."""

    kind: str  # exit_immediately_up | exit_immediately_down | slide_until_tangency | dwell_then_exit
    dwell: float = 0.0
    side: str = "positive"

    @staticmethod
    def exit_up():
        return BranchPolicy("exit_immediately_up")

    @staticmethod
    def exit_down():
        return BranchPolicy("exit_immediately_down")

    @staticmethod
    def slide_on():
        return BranchPolicy("slide_until_tangency")

    @staticmethod
    def dwell_exit(dwell, side):
        return BranchPolicy("dwell_then_exit", dwell=dwell, side=side)

    def describe(self):
        if self.kind == "dwell_then_exit":
            return f"dwell_then_exit({self.dwell!r},{self.side})"
        return self.kind


class PolicyCursor:
    """Feeds scripted choices to the driver.

    ``script`` entries are BranchPolicy objects (escaping encounters) or the
    strings 'ride'/'pass' (graze capture opportunities), consumed in order.
    Once the script is exhausted the default policy resolves escaping
    encounters and graze captures are passed.
    """

    def __init__(self, policy=None, script=None):
        self.default = policy if policy is not None else BranchPolicy.slide_on()
        self.script = list(script or [])
        self.index = 0

    def next_escape(self):
        if self._script_done("escape"):
            return self.default
        entry = self.script[self.index]
        self.index += 1
        if not isinstance(entry, BranchPolicy):
            raise IntegrationError("policy script mismatch: expected a BranchPolicy")
        return entry

    def next_ride(self):
        if self._script_done("ride"):
            return "pass"
        entry = self.script[self.index]
        self.index += 1
        if entry not in ("ride", "pass"):
            raise IntegrationError("policy script mismatch: expected 'ride' or 'pass'")
        return entry

    def _script_done(self, kind):
        """Is the script used up at this choice of ``kind`` ('escape' | 'ride')?"""
        return self.index == len(self.script)

    def describe(self):
        parts = [e.describe() if isinstance(e, BranchPolicy) else e for e in self.script]
        return {"default": self.default.describe(), "script": parts}


class _Fork(Exception):
    """A forking cursor met an unscripted choice; ``args[0]`` is 'escape' or 'ride'."""


_MAX_FORK_DEPTH = 8  # scripts this long continue on the default policy


class _ForkingCursor(PolicyCursor):
    """Raises _Fork at the first unscripted choice while the script is short."""

    def _script_done(self, kind):
        if self.index == len(self.script) < _MAX_FORK_DEPTH:
            raise _Fork(kind)
        return super()._script_done(kind)


@dataclass
class Orbit:
    initial_point: tuple[float, float]
    direction: str
    horizon: float
    segments: list
    choices: list
    terminal: str | None
    policy: dict
    script: list = field(default_factory=list)  # consumed policy entries, re-runnable

    def duration(self):
        return self.segments[-1].t_end if self.segments else 0.0

    def end_point(self):
        for seg in reversed(self.segments):
            if seg.points:
                return seg.points[-1]
        return self.initial_point

    def samples(self):
        """Yield (t, point, kind, segment index) over all stored samples."""
        for i, seg in enumerate(self.segments):
            for t, p in zip(seg.times, seg.points):
                yield t, p, seg.kind, i

    def position_at(self, t, domain=None):
        """Linear interpolation of the stored trace at time t."""
        for seg in self.segments:
            if seg.times and seg.t_start - 1e-12 <= t <= seg.t_end + 1e-12:
                times = seg.times
                i = max(1, min(len(times) - 1, bisect_right(times, t)))
                t0, t1 = times[i - 1], times[i]
                a, b = seg.points[i - 1], seg.points[i]
                w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
                if domain is not None:
                    dx, dy = domain.displacement(a, b)
                    return domain.canonical((a[0] + w * dx, a[1] + w * dy))
                return (a[0] + w * (b[0] - a[0]), a[1] + w * (b[1] - a[1]))
        return self.end_point()

    def to_json_dict(self):
        return {
            "schema": "filippov.orbit/1",
            "initial": list(self.initial_point),
            "direction": self.direction,
            "horizon": self.horizon,
            "duration": self.duration(),
            "terminal": self.terminal,
            "policy": self.policy,
            "segments": [s.to_dict() for s in self.segments],
            "branch_record": [c.to_dict() for c in self.choices],
        }

    def serialize(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def write_csv(self, fh):
        fh.write("t,x,y,segment_kind,segment_index\n")
        for t, p, kind, i in self.samples():
            fh.write(f"{t!r},{p[0]!r},{p[1]!r},{kind},{i}\n")


# --------------------------------------------------------------------------- #
# regular arcs
# --------------------------------------------------------------------------- #

_THETAS = (0.25, 0.5, 0.75)


@dataclass(eq=False)  # targets are told apart by identity
class CaptureTarget:
    point: tuple[float, float]
    radius: float
    curve_id: int


def _make_rhs(sys, planar):
    fx, fy = planar.raw_pair()
    scale = sys.velocity_scale
    if scale is None:
        return lambda x, y: (fx(x, y), fy(x, y))
    canonical = sys.domain.canonical

    def rhs(x, y):
        g = scale(canonical((x, y)))
        return (g * fx(x, y), g * fy(x, y))

    return rhs


def _refine_sign_change(h, step, th_a, th_b, v_a, v_b):
    """Bisection/secant hybrid on the dense output; guaranteed bracket."""
    for _ in range(80):
        if v_a != v_b:
            th_m = th_a - v_a * (th_b - th_a) / (v_b - v_a)
            if not (th_a < th_m < th_b):
                th_m = 0.5 * (th_a + th_b)
        else:
            th_m = 0.5 * (th_a + th_b)
        p = step.at(th_m)
        v_m = h(p[0], p[1])
        if abs(v_m) <= EVENT_H_TOL * 0.5 or (th_b - th_a) < 1e-16:
            return th_m
        if v_a * v_m <= 0:
            th_b, v_b = th_m, v_m
        else:
            th_a, v_a = th_m, v_m
    return 0.5 * (th_a + th_b)


def integrate_regular(sys, p, region_id, t_max, opts=None, entry_curve=None, captures=()):
    """Integrate the region's smooth field until an event.

    Returns (OrbitSegment, hit) with hit one of
    ('curve', id, point) | ('t_max', point) | ('left_domain', point) |
    ('capture', target, point).
    """
    opts = opts or IntegratorOptions()
    max_step, spacing = opts.resolved(sys.domain)
    domain = sys.domain
    p = domain.canonical(p)
    rhs = _make_rhs(sys, sys.region(region_id).field)
    stepper = _Stepper(rhs, p, opts, max_step)
    h_fns = [(c.id, c.h.raw()) for c in sys.curves]
    armed = {}
    sign = {}
    for cid, h in h_fns:
        v = h(p[0], p[1])
        armed[cid] = abs(v) >= ESCAPE_BAND and cid != entry_curve
        sign[cid] = 1.0 if v > 0 else (-1.0 if v < 0 else 0.0)
    times = [0.0]
    pts = [p]

    def emit(step, th_end, t_end, end_point=None):
        # subdivide [previous sample, step end] so spacing stays bounded
        t0 = times[-1]
        t1 = step.t0 + th_end * step.dt
        a = pts[-1]
        b = end_point if end_point is not None else domain.canonical(step.at(th_end))
        dist = domain.distance(a, b)
        n = max(1, int(math.ceil(dist / spacing)))
        for j in range(1, n):
            th = ((t0 + (t1 - t0) * j / n) - step.t0) / step.dt
            if th <= 0:
                continue
            times.append(t0 + (t1 - t0) * j / n)
            pts.append(domain.canonical(step.at(th)))
        times.append(t_end)
        pts.append(b)

    while True:
        if stepper.t >= t_max - 1e-14:
            seg = OrbitSegment("regular_arc", 0.0, times[-1], times, pts, region_id=region_id)
            return seg, ("t_max", pts[-1])
        step = stepper.propose(t_max - stepper.t)
        # sample h on the dense grid, look for the earliest event
        theta_grid = (0.0,) + _THETAS + (1.0,)
        grid_pts = [step.at(th) for th in theta_grid]
        best = None  # (theta, kind, payload)

        for cid, h in h_fns:
            vals = [h(q[0], q[1]) for q in grid_pts]
            arm_index = 0
            if not armed[cid]:
                arm_index = None
                for i, v in enumerate(vals):
                    if abs(v) >= ESCAPE_BAND:
                        armed[cid] = True
                        sign[cid] = 1.0 if v > 0 else -1.0
                        arm_index = i
                        break
                if arm_index is None:
                    continue
            s0 = sign[cid]
            for i in range(arm_index, len(vals) - 1):
                va = vals[i] if vals[i] != 0 else s0 * 1e-300
                vb = vals[i + 1]
                if va * vb < 0:
                    th = _refine_sign_change(h, step, theta_grid[i], theta_grid[i + 1], va, vb)
                    if best is None or th < best[0]:
                        best = (th, "curve", cid)
                    break

        if domain.kind == "plane_rect":
            for th, q in zip(theta_grid, grid_pts):
                if not domain.contains(q):
                    th_exit = _refine_exit(domain, step, th)
                    if best is None or th_exit < best[0]:
                        best = (th_exit, "left_domain", None)
                    break

        for target in captures:
            hit_th = _capture_theta(domain, step, theta_grid, grid_pts, target)
            if hit_th is not None and (best is None or hit_th < best[0]):
                best = (hit_th, "capture", target)

        if best is None:
            emit(step, 1.0, step.t0 + step.dt)
            continue

        th, kind, payload = best
        t_event = step.t0 + th * step.dt
        if kind == "curve":
            point = domain.canonical(sys.curve(payload).project(step.at(th), 3, POLISH_H_TOL))
        else:
            point = domain.canonical(step.at(th))
        emit(step, th, t_event, point)
        seg = OrbitSegment("regular_arc", 0.0, t_event, times, pts, region_id=region_id)
        return seg, ((kind, point) if kind == "left_domain" else (kind, payload, point))


def _refine_exit(domain, step, th_hint):
    lo, hi = 0.0, th_hint if th_hint > 0 else 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if domain.contains(step.at(mid)):
            lo = mid
        else:
            hi = mid
    return lo


def _capture_theta(domain, step, theta_grid, grid_pts, target):
    dists = [domain.distance(q, target.point) for q in grid_pts]
    best_i = min(range(len(dists)), key=lambda i: dists[i])
    # coarse gate: the dense grid spacing bounds how far the true minimum
    # can hide between grid points
    spacing = domain.distance(grid_pts[0], grid_pts[-1]) / max(1, len(grid_pts) - 1)
    if dists[best_i] > max(target.radius * 4.0, spacing, 1e-3):
        return None
    lo = theta_grid[max(0, best_i - 1)]
    hi = theta_grid[min(len(theta_grid) - 1, best_i + 1)]
    for _ in range(70):  # golden-section on the (locally convex) distance
        m1 = lo + 0.381966 * (hi - lo)
        m2 = hi - 0.381966 * (hi - lo)
        if domain.distance(step.at(m1), target.point) <= domain.distance(step.at(m2), target.point):
            hi = m2
        else:
            lo = m1
    th = 0.5 * (lo + hi)
    if domain.distance(step.at(th), target.point) <= target.radius:
        return th
    return None


# --------------------------------------------------------------------------- #
# sliding arcs
# --------------------------------------------------------------------------- #


def _make_sliding_rhs(sys, curve_id):
    curve = sys.curve(curve_id)
    y1, y2 = sys.side_fields(curve_id)
    f1x, f1y = y1.raw_pair()
    f2x, f2y = y2.raw_pair()
    gxf, gyf = curve.grad[0].raw(), curve.grad[1].raw()
    scale = sys.velocity_scale
    canonical = sys.domain.canonical

    def rhs(x, y):
        v1 = (f1x(x, y), f1y(x, y))
        v2 = (f2x(x, y), f2y(x, y))
        l1, l2 = lie_pair((gxf(x, y), gyf(x, y)), v1, v2)
        zx, zy = filippov_combination(l1, l2, v1, v2, curve_id, (x, y))
        if scale is not None:
            g = scale(canonical((x, y)))
            zx *= g
            zy *= g
        return (zx, zy)

    return rhs


def integrate_sliding(sys, curve_id, p, t_max, opts=None, allow_escaping=False):
    """Slide along the Filippov field constrained to the curve.

    Returns (OrbitSegment, exit) with exit one of
    ('tangency', point, side) | ('pseudo_eq', point) | ('t_max', point) |
    ('left_domain', point).
    """
    opts = opts or IntegratorOptions()
    max_step, spacing = opts.resolved(sys.domain)
    domain = sys.domain
    curve = sys.curve(curve_id)
    gxf, gyf = curve.grad[0].raw(), curve.grad[1].raw()
    y1, y2 = sys.side_fields(curve_id)
    f1x, f1y = y1.raw_pair()
    f2x, f2y = y2.raw_pair()
    p = domain.canonical(curve.project(domain.canonical(p), 3, POLISH_H_TOL))

    cls = classify_point(sys, curve_id, p)
    if cls.point_class is PointClass.TANGENCY_REGULAR:
        # arc boundary: step along the sliding flow into the arc proper
        p = _nudge_into_arc(sys, curve_id, p)
        cls = classify_point(sys, curve_id, p)
    if cls.point_class not in (
        PointClass.SLIDING, PointClass.ESCAPING, PointClass.PSEUDO_EQUILIBRIUM,
    ):
        raise UndefinedSlidingError(f"cannot slide from a {cls.point_class.value} point")
    if cls.point_class is PointClass.ESCAPING and not allow_escaping:
        raise UndefinedSlidingError("escaping point reached integrate_sliding without policy")

    rhs = _make_sliding_rhs(sys, curve_id)
    stepper = _Stepper(rhs, p, opts, max_step)

    def project(q):
        return curve.project(q, 2)

    def lies(q):
        x, y = q
        l1, l2 = lie_pair((gxf(x, y), gyf(x, y)), (f1x(x, y), f1y(x, y)), (f2x(x, y), f2y(x, y)))
        if sys.velocity_scale is not None:
            g = sys.velocity_scale(domain.canonical(q))
            l1 *= g
            l2 *= g
        return l1, l2

    l1_0, l2_0 = lies(p)
    s1_0 = 1.0 if l1_0 > 0 else -1.0
    s2_0 = 1.0 if l2_0 > 0 else -1.0
    times = [0.0]
    pts = [p]

    def emit_to(q, t):
        a = pts[-1]
        b = domain.canonical(q)
        dist = domain.distance(a, b)
        n = max(1, int(math.ceil(dist / spacing)))
        t0 = times[-1]
        dx, dy = domain.displacement(a, b)
        for j in range(1, n):
            w = j / n
            times.append(t0 + (t - t0) * w)
            pts.append(domain.canonical((a[0] + w * dx, a[1] + w * dy)))
        times.append(t)
        pts.append(b)

    while True:
        if stepper.t >= t_max - 1e-14:
            seg = OrbitSegment("sliding_arc", 0.0, times[-1], times, pts, curve_id=curve_id)
            return seg, ("t_max", pts[-1])
        step = stepper.propose(t_max - stepper.t)
        q = project((stepper.x, stepper.y))
        stepper.restart_from(stepper.t, q)

        if domain.kind == "plane_rect" and not domain.contains(q):
            emit_to(q, stepper.t)
            seg = OrbitSegment("sliding_arc", 0.0, times[-1], times, pts, curve_id=curve_id)
            return seg, ("left_domain", pts[-1])

        l1, l2 = lies(q)
        if l1 * s1_0 < 0 or l2 * s2_0 < 0 or abs(l1) <= TAU_CLASS or abs(l2) <= TAU_CLASS:
            flipped = "positive" if (l1 * s1_0 < 0 or abs(l1) <= TAU_CLASS) else "negative"
            th, point = _locate_slide_tangency(step, project, lies, flipped, s1_0, s2_0)
            t_ev = step.t0 + th * step.dt
            emit_to(point, t_ev)
            seg = OrbitSegment("sliding_arc", 0.0, times[-1], times, pts, curve_id=curve_id)
            return seg, ("tangency", pts[-1], flipped)

        zx, zy = stepper.k1  # rhs(q), evaluated by restart_from
        znorm = math.hypot(zx, zy)
        if znorm <= PE_NORM_TOL or znorm * stepper.dt < 1e-14:
            emit_to(q, stepper.t)
            seg = OrbitSegment("sliding_arc", 0.0, times[-1], times, pts, curve_id=curve_id)
            return seg, ("pseudo_eq", pts[-1])

        emit_to(q, stepper.t)


def _locate_slide_tangency(step, project, lies, flipped, s1_0, s2_0):
    idx = 0 if flipped == "positive" else 1
    ref = s1_0 if flipped == "positive" else s2_0

    def value(th):
        return lies(project(step.at(th)))[idx] * ref

    lo, hi = 0.0, 1.0
    v_lo = value(lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        v_mid = value(mid)
        if abs(v_mid) <= 1e-12:
            lo = hi = mid
            break
        if v_lo * v_mid <= 0:
            hi = mid
        else:
            lo, v_lo = mid, v_mid
        if hi - lo < 1e-16:
            break
    th = 0.5 * (lo + hi)
    return th, project(step.at(th))


# --------------------------------------------------------------------------- #
# sigma-event handling and the orbit driver
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class _EnterRegion:
    region_id: int
    marker: str | None = None  # crossing_event | escape_departure | None
    side: str | None = None
    choice: BranchChoice | None = None


@dataclass(frozen=True)
class _EnterSliding:
    curve_id: int
    allow_escaping: bool = False
    dwell: float | None = None
    exit_side: str | None = None
    choice: BranchChoice | None = None


@dataclass(frozen=True)
class _Stop:
    reason: str
    choice: BranchChoice | None = None


def _side_region(curve, side):
    return curve.positive_region if side == "positive" else curve.negative_region


def _off_sigma(side, lie):
    """Does a field on the given side move linearly off the manifold?"""
    return lie > TAU_CLASS if side == "positive" else lie < -TAU_CLASS


def _tangency_action(sys, curve_id, cls, p):
    """Continuation at a regular tangency.

    Preference order: the non-tangent field if it departs linearly; else the
    tangent field if its fold is visible (quadratic departure); else the
    point bounds a sliding arc and the orbit continues along the manifold.
    """
    curve = sys.curve(curve_id)
    tangent_side = cls.tangent_side
    other_side = "negative" if tangent_side == "positive" else "positive"
    lie_other = cls.lie_negative if tangent_side == "positive" else cls.lie_positive
    if _off_sigma(other_side, lie_other):
        return _EnterRegion(_side_region(curve, other_side))
    second = second_lie_value(sys, curve_id, tangent_side, p)
    visible = second > TAU_CLASS if tangent_side == "positive" else second < -TAU_CLASS
    if visible:
        return _EnterRegion(_side_region(curve, tangent_side))
    if abs(second) <= TAU_CLASS:
        return _Stop("degenerate_tangency")
    return _EnterSliding(curve_id)


def _escape_action(sys, curve_id, p, t, cursor):
    policy = cursor.next_escape()
    if policy.kind in ("exit_immediately_up", "exit_immediately_down"):
        side = "positive" if policy.kind == "exit_immediately_up" else "negative"
        choice = BranchChoice(t, p, "escape_exit", side=side, dwell=0.0)
        return _EnterRegion(
            _side_region(sys.curve(curve_id), side),
            marker="escape_departure", side=side, choice=choice,
        )
    if policy.kind == "dwell_then_exit":
        choice = BranchChoice(t, p, "escape_exit", side=policy.side, dwell=policy.dwell)
        return _EnterSliding(
            curve_id, allow_escaping=True, dwell=policy.dwell,
            exit_side=policy.side, choice=choice,
        )
    choice = BranchChoice(t, p, "escape_exit", side=None, dwell=None)
    return _EnterSliding(curve_id, allow_escaping=True, choice=choice)


def handle_sigma_event(sys, curve_id, p, cursor, t=0.0):
    """Decide the continuation after the orbit touches a switching curve."""
    cls = classify_point(sys, curve_id, p)
    if cls.point_class is PointClass.CROSSING:
        side = "positive" if cls.lie_positive > 0 else "negative"
        return _EnterRegion(_side_region(sys.curve(curve_id), side), marker="crossing_event")
    if cls.point_class is PointClass.SLIDING:
        return _EnterSliding(curve_id)
    if cls.point_class is PointClass.ESCAPING:
        return _escape_action(sys, curve_id, p, t, cursor)
    if cls.point_class is PointClass.PSEUDO_EQUILIBRIUM:
        if cls.lie_positive < 0:  # rest point of the sliding flow
            return _Stop("pseudo_equilibrium")
        return _escape_action(sys, curve_id, p, t, cursor)
    if cls.point_class is PointClass.TANGENCY_DOUBLE:
        choice = BranchChoice(t, p, "double_tangency_stop")
        return _Stop("double_tangency", choice=choice)
    return _tangency_action(sys, curve_id, cls, p)


def _nudge_into_arc(sys, curve_id, p, step=1e-5):
    """Displace a tangency point slightly along Z_s so it classifies cleanly."""
    zx, zy = sliding_vector_field(sys, curve_id, p)
    norm = math.hypot(zx, zy)
    if norm == 0.0:
        return p
    q = (p[0] + step * zx / norm, p[1] + step * zy / norm)
    return sys.domain.canonical(sys.curve(curve_id).project(q, 3, POLISH_H_TOL))


class _Run:
    """The state of one orbit between two driver steps.

    ``mode`` is the next step (``_region``, ``_sigma``, ``_capture``, ``_escape``,
    ``_action``) with its arguments, None at the end; each step counts against
    ``max_segments``.  A step consults the cursor at most once, before it
    changes anything, so one interrupted by ``_Fork`` can re-run on a ``fork``.
    """

    def __init__(self, sys, p0, horizon, direction, cursor, opts, ride_targets):
        if horizon <= 0:
            raise IntegrationError("horizon must be positive")
        self.sys = sys if direction == "forward" else sys.reversed()
        self.direction, self.horizon, self.cursor = direction, horizon, cursor
        self.opts = opts or IntegratorOptions()
        self.p0 = self.p = self.sys.domain.canonical(p0)
        self.t = 0.0
        # replaced, never changed in place, so forks may share it
        self.captures = [
            CaptureTarget(tp.position, self.opts.capture_radius, cid) for tp, cid in ride_targets
        ]
        where = self.sys.region_of(self.p)
        self.mode = ("sigma", where.curve_id) if isinstance(where, OnSigma) else ("region", where, None)
        self.segments, self.choices = [], []
        self.terminal = None
        self.steps = 0

    def fork(self, entry):
        """A copy of this state whose cursor scripts the pending choice as ``entry``."""
        child = copy.copy(self)
        child.segments, child.choices = list(self.segments), list(self.choices)
        child.cursor = copy.copy(self.cursor)
        child.cursor.script = self.cursor.script + [entry]
        return child

    def run(self):
        while self.mode is not None and self.t < self.horizon - 1e-12:
            if self.steps >= self.opts.max_segments:
                self.terminal = "segment_budget"
                break
            getattr(self, "_" + self.mode[0])(*self.mode[1:])
            self.steps += 1
        return Orbit(
            self.p0, self.direction, self.horizon, self.segments, self.choices, self.terminal,
            policy=self.cursor.describe(), script=list(self.cursor.script),
        )

    def _add_marker(self, kind, detail):
        self.segments.append(OrbitSegment(kind, self.t, self.t, [self.t], [self.p], detail=detail))

    def _add_segment(self, seg):
        seg.t_start += self.t
        seg.t_end += self.t
        seg.times = [tt + self.t for tt in seg.times]
        self.t = seg.t_end
        self.p = seg.end_point
        self.segments.append(seg)

    def _stop(self, reason):
        self._add_marker("terminal", {"reason": reason})
        self.terminal = reason
        self.mode = None

    def _region(self, region_id, entry_curve):
        domain = self.sys.domain
        # a target we are departing from must not instantly re-capture
        arc_captures = [
            c for c in self.captures if domain.distance(self.p, c.point) > 4.0 * c.radius
        ]
        seg, hit = integrate_regular(
            self.sys, self.p, region_id, self.horizon - self.t, self.opts,
            entry_curve=entry_curve, captures=arc_captures,
        )
        self._add_segment(seg)
        if hit[0] == "t_max":
            self.mode = None
        elif hit[0] == "left_domain":
            self._stop("left_domain")
        elif hit[0] == "curve":
            self.mode = ("sigma", hit[1])
        else:
            self.mode = ("capture", hit[1], ("region", region_id, None))

    def _sigma(self, curve_id):
        distance = self.sys.domain.distance
        near = next((c for c in self.captures if distance(self.p, c.point) <= c.radius), None)
        if near is not None:
            self.mode = ("capture", near, ("sigma", curve_id))
            return
        action = handle_sigma_event(self.sys, curve_id, self.p, self.cursor, t=self.t)
        self.mode = ("action", action, curve_id)

    def _capture(self, target, on_pass):
        # the policy may route the orbit onto the escaping arc that starts at the target
        decision = self.cursor.next_ride()
        self.captures = [c for c in self.captures if c is not target]
        self.mode = on_pass
        if decision == "ride":
            cid = target.curve_id
            q = self.sys.domain.canonical(self.sys.curve(cid).project(self.p, 3, POLISH_H_TOL))
            q = _nudge_into_arc(self.sys, cid, q)
            entered = classify_point(self.sys, cid, q).point_class
            if entered in (PointClass.ESCAPING, PointClass.PSEUDO_EQUILIBRIUM):
                self.p = q
                self.choices.append(BranchChoice(self.t, q, "enter_escaping"))
                self.mode = ("escape", cid)

    def _escape(self, curve_id):
        action = _escape_action(self.sys, curve_id, self.p, self.t, self.cursor)
        self.mode = ("action", action, curve_id)

    def _action(self, action, curve_id):
        if action.choice is not None:
            self.choices.append(action.choice)
        if isinstance(action, _Stop):
            self._stop(action.reason)
            return
        if isinstance(action, _EnterRegion):
            if action.marker:
                detail = {"side": action.side} if action.side else {}
                detail["curve"] = curve_id
                self._add_marker(action.marker, detail)
            self.mode = ("region", action.region_id, curve_id)
            return
        remaining = self.horizon - self.t
        seg, exit_info = integrate_sliding(
            self.sys, curve_id, self.p,
            remaining if action.dwell is None else min(action.dwell, remaining),
            self.opts, allow_escaping=action.allow_escaping,
        )
        seg.detail["escaping"] = action.allow_escaping
        self._add_segment(seg)
        if exit_info[0] == "t_max":
            self.mode = None
            if action.dwell is not None and self.t < self.horizon - 1e-12:
                # dwell elapsed: leave to the chosen side
                side = action.exit_side or "positive"
                self._add_marker("escape_departure", {"side": side, "curve": curve_id})
                self.mode = ("region", _side_region(self.sys.curve(curve_id), side), curve_id)
        elif exit_info[0] in ("pseudo_eq", "left_domain"):
            self._stop("pseudo_equilibrium" if exit_info[0] == "pseudo_eq" else "left_domain")
        else:
            # tangency exit: hand back to the event logic at the fold point
            self.choices.append(
                BranchChoice(self.t, self.p, "sliding_exit_at_tangency", side=exit_info[2])
            )
            self.mode = ("sigma", curve_id)


@evaluation_boundary
def integrate_filippov(
    sys: FilippovSystem,
    p0,
    horizon: float,
    direction: str = "forward",
    policy=None,
    opts: IntegratorOptions | None = None,
    script=None,
    ride_targets=(),
):
    """Produce one Filippov orbit under a deterministic branch policy.

    ``ride_targets`` is a sequence of (TangencyPoint, curve_id) pairs; when a
    regular arc passes within the capture radius of one of them, the policy
    cursor decides 'pass' (keep flying) or 'ride' (enter the manifold there,
    which is how an orbit enters an escaping region through its tangency).
    """
    cursor = policy if isinstance(policy, PolicyCursor) else PolicyCursor(policy, script)
    return _Run(sys, p0, horizon, direction, cursor, opts, ride_targets).run()


@evaluation_boundary
def enumerate_branches(
    sys,
    p0,
    horizon,
    budget: int,
    dwell_grid=(0.0,),
    direction="forward",
    opts=None,
    ride_targets=(),
):
    """Depth-limited deterministic enumeration of the branch tree.

    At each escaping encounter the orbit forks over (dwell x side) plus
    slide-until-tangency; at each graze capture it forks over pass/ride.
    Forks resume from a copy of the state at the choice, so each arc of the
    tree is integrated once and orbits share the segments of their common
    prefix.  Past 8 scripted choices an orbit continues on the defaults.
    Returns at most ``budget`` orbits in breadth-first script order; each
    equals ``integrate_filippov`` under ``PolicyCursor(BranchPolicy.slide_on(),
    orbit.script)``.
    """
    if budget < 1:
        raise IntegrationError("budget must be >= 1")
    escape_options = [
        BranchPolicy.dwell_exit(d, side) if d > 0 else (
            BranchPolicy.exit_up() if side == "positive" else BranchPolicy.exit_down()
        )
        for d in dwell_grid
        for side in ("positive", "negative")
    ]
    escape_options.append(BranchPolicy.slide_on())
    cursor = _ForkingCursor(BranchPolicy.slide_on())
    queue = deque([_Run(sys, p0, horizon, direction, cursor, opts, ride_targets)])
    orbits = []
    while queue and len(orbits) < budget:
        run = queue.popleft()
        try:
            orbits.append(run.run())
        except _Fork as fork:
            options = escape_options if fork.args[0] == "escape" else ("pass", "ride")
            queue.extend(run.fork(option) for option in options)
    return orbits
