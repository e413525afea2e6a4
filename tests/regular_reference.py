"""The regular-arc and sliding-arc step loops as they ran before they were generated.

``reference_integrate_regular`` is ``integrate_regular`` as it was when each
step made one call each to the stepper, the five-point event grid, the h scan,
the rectangle test, the capture test and the sample emission.
``reference_integrate_sliding`` is ``integrate_sliding`` as it was when each
step was a ``propose`` of the stepper, followed by the projection and a
``restart_from``, with its own sliding field ``reference_sliding_rhs``, which
the generated ``sliding`` piece must match bit for bit.  Its side fields come
from ``FilippovSystem.raw_pair``, which scales each component by the velocity
scale, if any, before the Lie pair is formed; the regular-arc reference
``reference_rhs`` applies the scale with its own arithmetic.  Both step with
``ReferenceStepper``, whose Runge-Kutta step and dense output are the tableau
loops ``reference_rk_step`` and ``reference_at``, which the generated kernels
unroll.  The event location they share with the program (``sigma.bracket``,
``integrate._exit_theta``, ``integrate._locate_slide_tangency``) has its own
references in ``tests/test_bracket.py``.
"""

import math

from filippov.errors import IntegrationError, UndefinedSlidingError
from filippov.integrate import (
    _A, _E, _P, _THETA_GRID, CAPTURE_RADIUS, ESCAPE_BAND, EVENT_H_TOL,
    IntegratorOptions, OrbitSegment, _exit_theta, _locate_slide_tangency,
)
from filippov.sigma import (
    PE_NORM_TOL, TAU_CLASS, PointClass, bracket, classify_point, filippov_combination, lie_pair,
    nudge_into_arc,
)

POLISH_H_TOL = EVENT_H_TOL * 1e-3  # the Newton polish of an event point onto its curve


def reference_at(step, theta):
    x = 0.0
    y = 0.0
    for k, p in zip(step.ks, _P):
        q = theta * (p[0] + theta * (p[1] + theta * (p[2] + theta * p[3])))
        x += k[0] * q
        y += k[1] * q
    return (step.x0 + step.dt * x, step.y0 + step.dt * y)


def reference_rk_step(f, x, y, k1, dt):
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


def reference_rhs(sys, planar):
    """The region's field as one (x, y) -> (vx, vy) function, velocity scale applied."""
    fx, fy = planar.raw_pair()
    scale = sys.velocity_scale
    if scale is None:
        return lambda x, y: (fx(x, y), fy(x, y))
    canonical = sys.domain.canonical

    def rhs(x, y):
        g = scale(canonical((x, y)))
        return (g * fx(x, y), g * fy(x, y))

    return rhs


class ReferenceStep:
    """One accepted step: its dense output and its event grid."""

    def __init__(self, t0, dt, x0, y0, ks):
        self.t0 = t0
        self.dt = dt
        self.x0 = x0
        self.y0 = y0
        self.ks = ks

    def at(self, theta):
        return reference_at(self, theta)

    def grid(self):
        return [(self.x0, self.y0)] + [self.at(th) for th in _THETA_GRID[1:]]


class ReferenceStepper:
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
        """Advance one accepted step of size <= dt_cap; returns a ReferenceStep."""
        dt = min(self.dt, dt_cap, self.max_step)
        for _ in range(60):
            x1, y1, ks, ex, ey = reference_rk_step(self.f, self.x, self.y, self.k1, dt)
            if not (math.isfinite(x1) and math.isfinite(y1)):
                dt *= 0.25
                continue
            sx = self.atol + self.rtol * max(abs(self.x), abs(x1))
            sy = self.atol + self.rtol * max(abs(self.y), abs(y1))
            err = math.sqrt(0.5 * ((ex / sx) ** 2 + (ey / sy) ** 2))
            if err <= 1.0:
                step = ReferenceStep(self.t, dt, self.x, self.y, ks)
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


def reference_capture_theta(domain, step, grid_pts, target):
    dists = [domain.distance(q, target.point) for q in grid_pts]
    best_i = min(range(len(dists)), key=lambda i: dists[i])
    spacing = domain.distance(grid_pts[0], grid_pts[-1]) / max(1, len(grid_pts) - 1)
    if dists[best_i] > max(CAPTURE_RADIUS * 4.0, spacing, 1e-3):
        return None
    lo = _THETA_GRID[max(0, best_i - 1)]
    hi = _THETA_GRID[min(len(_THETA_GRID) - 1, best_i + 1)]
    for _ in range(70):
        m1 = lo + 0.381966 * (hi - lo)
        m2 = hi - 0.381966 * (hi - lo)
        if domain.distance(step.at(m1), target.point) <= domain.distance(step.at(m2), target.point):
            hi = m2
        else:
            lo = m1
    th = 0.5 * (lo + hi)
    if domain.distance(step.at(th), target.point) <= CAPTURE_RADIUS:
        return th
    return None


def reference_integrate_regular(sys, p, region_id, t_max, opts=None, entry_curve=None, captures=()):
    opts = opts or IntegratorOptions()
    max_step, spacing = opts.resolved(sys.domain)
    domain = sys.domain
    p = domain.canonical(p)
    torus = domain.kind == "flat_torus"
    canonical = domain.canonical if torus else (lambda q: q)
    x_min, x_max, y_min, y_max = domain.x_min, domain.x_max, domain.y_min, domain.y_max
    width, height = domain.width, domain.height
    stepper = ReferenceStepper(reference_rhs(sys, sys.region(region_id).field), p, opts, max_step)
    h_fns = [(c.id, c.h.raw()) for c in sys.curves]
    armed = {}
    sign = {}
    for cid, h in h_fns:
        v = h(p[0], p[1])
        armed[cid] = abs(v) >= ESCAPE_BAND and cid != entry_curve
        sign[cid] = 1.0 if v > 0 else (-1.0 if v < 0 else 0.0)
    times = [0.0]
    pts = [p]

    def emit(step, th_end, b):
        t0 = times[-1]
        t1 = step.t0 + th_end * step.dt
        a = pts[-1]
        dx = b[0] - a[0]
        dy = b[1] - a[1]
        if torus:
            dx -= round(dx / width) * width
            dy -= round(dy / height) * height
        n = max(1, int(math.ceil(math.hypot(dx, dy) / spacing)))
        for j in range(1, n):
            th = ((t0 + (t1 - t0) * j / n) - step.t0) / step.dt
            if th <= 0:
                continue
            times.append(t0 + (t1 - t0) * j / n)
            pts.append(canonical(step.at(th)))
        times.append(t1)
        pts.append(b)

    while True:
        if stepper.t >= t_max - 1e-14:
            seg = OrbitSegment("regular_arc", times, pts, region_id=region_id)
            return seg, ("t_max", pts[-1])
        step = stepper.propose(t_max - stepper.t)
        grid_pts = step.grid()
        end = grid_pts[-1]
        best = None

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
                    lo, hi = bracket(
                        lambda th: h(*step.at(th)), _THETA_GRID[i], _THETA_GRID[i + 1],
                        va, vb, tol=EVENT_H_TOL / 2, width=1e-16, secant=True,
                    )
                    th = 0.5 * (lo + hi)
                    if best is None or th < best[0]:
                        best = (th, "curve", cid)
                    break

        if not torus:
            for th, (qx, qy) in zip(_THETA_GRID, grid_pts):
                if not (x_min <= qx <= x_max and y_min <= qy <= y_max):
                    th_exit = _exit_theta(domain, step.at, th if th > 0 else 1.0)
                    if best is None or th_exit < best[0]:
                        best = (th_exit, "left_domain", None)
                    break

        for target in captures:
            hit_th = reference_capture_theta(domain, step, grid_pts, target)
            if hit_th is not None and (best is None or hit_th < best[0]):
                best = (hit_th, "capture", target)

        if best is None:
            emit(step, 1.0, canonical(end))
            continue

        th, kind, payload = best
        if kind == "curve":
            point = canonical(sys.curve(payload).project(step.at(th), 3, POLISH_H_TOL))
        else:
            point = canonical(step.at(th))
        emit(step, th, point)
        seg = OrbitSegment("regular_arc", times, pts, region_id=region_id)
        return seg, ((kind, point) if kind == "left_domain" else (kind, payload, point))


def reference_sliding_rhs(sys, curve_id):
    """(x, y) -> (Z_s, L1, L2): the sliding field and the Lie pair it is made from.

    ``sigma.lie_pair`` and ``filippov_combination`` on the side fields that
    ``FilippovSystem.raw_pair`` hands out: the arithmetic the generated
    ``sliding`` piece of ``integrate._kernels`` writes inline.
    """
    curve = sys.curve(curve_id)
    f1x, f1y = sys.raw_pair(curve.positive_region)
    f2x, f2y = sys.raw_pair(curve.negative_region)
    gxf, gyf = curve.grad[0].raw(), curve.grad[1].raw()

    def rhs(x, y):
        v1 = (f1x(x, y), f1y(x, y))
        v2 = (f2x(x, y), f2y(x, y))
        l1, l2 = lie_pair((gxf(x, y), gyf(x, y)), v1, v2)
        zx, zy = filippov_combination(l1, l2, v1, v2, curve_id, (x, y))
        return (zx, zy, l1, l2)

    return rhs


def reference_integrate_sliding(sys, curve_id, p, t_max, opts=None, allow_escaping=False):
    opts = opts or IntegratorOptions()
    max_step, spacing = opts.resolved(sys.domain)
    domain = sys.domain
    curve = sys.curve(curve_id)
    p = domain.canonical(curve.project(domain.canonical(p), 3, POLISH_H_TOL))

    cls = classify_point(sys, curve_id, p)
    if cls.point_class is PointClass.TANGENCY_REGULAR:
        p = nudge_into_arc(sys, curve_id, p)
        cls = classify_point(sys, curve_id, p)
    if cls.point_class not in (
        PointClass.SLIDING, PointClass.ESCAPING, PointClass.PSEUDO_EQUILIBRIUM,
    ):
        raise UndefinedSlidingError(f"cannot slide from a {cls.point_class.value} point")
    if cls.point_class is PointClass.ESCAPING and not allow_escaping:
        raise UndefinedSlidingError("escaping point reached integrate_sliding without policy")

    stepper = ReferenceStepper(reference_sliding_rhs(sys, curve_id), p, opts, max_step)
    l1_0, l2_0 = stepper.k1[2:]
    s1_0 = 1.0 if l1_0 > 0 else -1.0
    s2_0 = 1.0 if l2_0 > 0 else -1.0
    times = [0.0]
    pts = [p]

    def emit_to(q, t):
        a = pts[-1]
        b = domain.canonical(q)
        dx, dy = domain.displacement(a, b)
        n = max(1, int(math.ceil(math.hypot(dx, dy) / spacing)))
        t0 = times[-1]
        for j in range(1, n):
            w = j / n
            times.append(t0 + (t - t0) * w)
            pts.append(domain.canonical((a[0] + w * dx, a[1] + w * dy)))
        times.append(t)
        pts.append(b)

    while True:
        if stepper.t >= t_max - 1e-14:
            seg = OrbitSegment("sliding_arc", times, pts, curve_id=curve_id)
            return seg, ("t_max", pts[-1])
        step = stepper.propose(t_max - stepper.t)
        q = curve.project((stepper.x, stepper.y), 2)
        stepper.restart_from(stepper.t, q)
        zx, zy, l1, l2 = stepper.k1

        if domain.kind == "plane_rect" and not domain.contains(q):
            on_curve = lambda th: curve.project(step.at(th), 2)
            th = _exit_theta(domain, on_curve, 1.0)
            emit_to(on_curve(th), step.t0 + th * step.dt)
            seg = OrbitSegment("sliding_arc", times, pts, curve_id=curve_id)
            return seg, ("left_domain", pts[-1])

        if l1 * s1_0 < 0 or l2 * s2_0 < 0 or abs(l1) <= TAU_CLASS or abs(l2) <= TAU_CLASS:
            flipped = "positive" if (l1 * s1_0 < 0 or abs(l1) <= TAU_CLASS) else "negative"
            th, point = _locate_slide_tangency(step, curve, stepper.f, flipped, s1_0, s2_0)
            emit_to(point, step.t0 + th * step.dt)
            seg = OrbitSegment("sliding_arc", times, pts, curve_id=curve_id)
            return seg, ("tangency", pts[-1], flipped)

        znorm = math.hypot(zx, zy)
        if znorm <= PE_NORM_TOL or znorm * stepper.dt < 1e-14:
            emit_to(q, stepper.t)
            seg = OrbitSegment("sliding_arc", times, pts, curve_id=curve_id)
            return seg, ("pseudo_eq", pts[-1])

        emit_to(q, stepper.t)
