"""Classification of switching-manifold points and scans along curves.

Every operation is a pure function over an immutable system; scans over
distinct curves can run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    ConfigurationError,
    NonIsolatedTangencyError,
    UndefinedSlidingError,
    evaluation_boundary,
)
from .expr import Binary, ScalarField, fold
from .system import EPS_SIGMA, GRAD_MIN, FilippovSystem

TAU_CLASS = 1e-9  # sign deadband for Lie derivatives
PE_NORM_TOL = 1e-10  # sliding-field norm below which a point is a pseudo-equilibrium
ROOT_L_TOL = 1e-12  # bisection target for Lie-derivative roots along a curve
DEDUP_DIST = 1e-8


class PointClass(Enum):
    CROSSING = "crossing"
    SLIDING = "sliding"
    ESCAPING = "escaping"
    TANGENCY_REGULAR = "tangency_regular"
    TANGENCY_DOUBLE = "tangency_double"
    PSEUDO_EQUILIBRIUM = "pseudo_equilibrium"


@dataclass(frozen=True)
class Classification:
    point_class: PointClass
    lie_positive: float  # Y1 h at p, field on the h>0 side
    lie_negative: float  # Y2 h at p, field on the h<0 side
    tangent_side: str | None = None  # 'positive' | 'negative' | 'both'
    sliding_velocity: tuple[float, float] | None = None

    @property
    def witnesses(self):
        return (self.lie_positive, self.lie_negative)


@dataclass(frozen=True)
class TangencyPoint:
    position: tuple[float, float]
    curve_id: int
    side: str  # which field is tangent: 'positive' | 'negative' | 'both'
    second_lie: float  # Y(Yh) of the tangent field (positive side's if both)
    fold: str  # 'visible' | 'invisible' | 'degenerate'
    kind: str  # 'regular' | 'double'
    component: int = 0
    param: float = 0.0

    def to_dict(self):
        return {
            "position": list(self.position),
            "curve": self.curve_id,
            "side": self.side,
            "second_lie": self.second_lie,
            "fold": self.fold,
            "kind": self.kind,
            "component": self.component,
            "param": self.param,
        }


def lie_pair(grad, v1, v2):
    """(L1, L2) = (grad h . Y1, grad h . Y2) from evaluated gradient and fields."""
    gx, gy = grad
    return gx * v1[0] + gy * v1[1], gx * v2[0] + gy * v2[1]


def _sliding_denominator(l1, l2, curve_id, p):
    den = l2 - l1
    if abs(den) <= TAU_CLASS:
        raise UndefinedSlidingError(
            f"sliding field undefined on curve {curve_id} at {p}: |L2 - L1| <= {TAU_CLASS}"
        )
    return den


def filippov_combination(l1, l2, v1, v2, curve_id, p):
    """Z_s = (L2 Y1 - L1 Y2) / (L2 - L1) from evaluated Lie pair and fields."""
    den = _sliding_denominator(l1, l2, curve_id, p)
    return ((l2 * v1[0] - l1 * v2[0]) / den, (l2 * v1[1] - l1 * v2[1]) / den)


def _side_values(sys, curve_id, p):
    """Checked grad h, Y1 and Y2 at p, with the system's velocity scale."""
    y1, y2 = sys.side_fields(curve_id)
    return sys.curve(curve_id).gradient_at(p), sys.field_value(y1, p), sys.field_value(y2, p)


def classify_point(sys: FilippovSystem, curve_id: int, p) -> Classification:
    """Classify a manifold point per the five-way sign table.

    The deadband TAU_CLASS on each Lie derivative separates tangencies from
    the open classes; within the open classes only the signs matter.
    """
    p = sys.domain.canonical(p)
    curve = sys.curve(curve_id)
    if abs(curve.h(p[0], p[1])) > EPS_SIGMA:
        raise ConfigurationError(f"point {p} is not on curve {curve_id}")
    grad, v1, v2 = _side_values(sys, curve_id, p)
    l1, l2 = lie_pair(grad, v1, v2)
    t1, t2 = abs(l1) <= TAU_CLASS, abs(l2) <= TAU_CLASS
    if t1 and t2:
        return Classification(PointClass.TANGENCY_DOUBLE, l1, l2, tangent_side="both")
    if t1 or t2:
        return Classification(
            PointClass.TANGENCY_REGULAR, l1, l2, tangent_side="positive" if t1 else "negative"
        )
    if l1 * l2 > 0.0:
        return Classification(PointClass.CROSSING, l1, l2)
    zs = filippov_combination(l1, l2, v1, v2, curve_id, p)
    point_class = PointClass.SLIDING if l1 < 0.0 else PointClass.ESCAPING
    if math.hypot(*zs) <= PE_NORM_TOL:
        point_class = PointClass.PSEUDO_EQUILIBRIUM
    return Classification(point_class, l1, l2, sliding_velocity=zs)


def sliding_vector_field(sys: FilippovSystem, curve_id: int, p) -> tuple[float, float]:
    """Filippov convex combination Z_s(p) on a sliding or escaping point."""
    p = sys.domain.canonical(p)
    grad, v1, v2 = _side_values(sys, curve_id, p)
    l1, l2 = lie_pair(grad, v1, v2)
    return filippov_combination(l1, l2, v1, v2, curve_id, p)


def convex_weight(sys: FilippovSystem, curve_id: int, p) -> float:
    """The weight lambda with Z_s = lambda Y1 + (1 - lambda) Y2."""
    p = sys.domain.canonical(p)
    l1, l2 = lie_pair(*_side_values(sys, curve_id, p))
    return l2 / _sliding_denominator(l1, l2, curve_id, p)


def lie_scalar_field(h: ScalarField, planar) -> ScalarField:
    """Symbolic Lie derivative Yh = dh/dx * Yx + dh/dy * Yy."""
    gx = h.derivative("x").expression
    gy = h.derivative("y").expression
    expr = fold(
        Binary(
            "+",
            Binary("*", gx, planar.component_x.expression),
            Binary("*", gy, planar.component_y.expression),
        )
    )
    return ScalarField(expr, parameters=h.parameters)


def second_lie_field(h: ScalarField, planar) -> ScalarField:
    """Symbolic second Lie derivative Y(Yh)."""
    return lie_scalar_field(lie_scalar_field(h, planar), planar)


def second_lie_value(sys: FilippovSystem, curve_id: int, side: str, p) -> float:
    """Y(Yh) at p for the side's field, compiled once per system and side.

    For a velocity-scaled system g Z the value picks up a g^2 factor away
    from the scale's zero set, which leaves the fold sign unchanged.
    """
    key = (curve_id, side)
    fn = sys.second_lie_fields.get(key)
    if fn is None:
        planar = sys.side_fields(curve_id)[0 if side == "positive" else 1]
        fn = sys.second_lie_fields[key] = second_lie_field(sys.curve(curve_id).h, planar)
    value = fn(p[0], p[1])
    if sys.velocity_scale is not None:
        value *= sys.velocity_scale(p) ** 2
    return value


# --------------------------------------------------------------------------- #
# curve tracing
# --------------------------------------------------------------------------- #


@dataclass
class CurveComponent:
    curve_id: int
    index: int
    points: list  # canonical sample points, evenly spaced in arclength
    params: list  # cumulative arclength of each sample
    closed: bool
    length: float
    domain: object = None  # wrap-aware interpolation on the torus

    def point_at(self, s):
        """Linear interpolation along the polyline at arclength s."""
        pts, prm = self.points, self.params
        if self.closed:
            s = s % self.length
        s = min(max(s, 0.0), prm[-1])
        lo, hi = 0, len(prm) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if prm[mid] <= s:
                lo = mid
            else:
                hi = mid
        span = prm[hi] - prm[lo]
        w = 0.0 if span == 0.0 else (s - prm[lo]) / span
        a, b = pts[lo], pts[hi]
        if self.domain is not None:
            dx, dy = self.domain.displacement(a, b)
            return self.domain.canonical((a[0] + w * dx, a[1] + w * dy))
        return (a[0] + w * (b[0] - a[0]), a[1] + w * (b[1] - a[1]))


def _curve_seeds(sys, curve):
    """Zero crossings of h along the lines of a 96 x 96 cell grid, projected onto the curve."""
    d = sys.domain
    grid = 96
    h = curve.h.raw()
    seeds = []
    xs = [d.x_min + i * d.width / grid for i in range(grid + 1)]
    ys = [d.y_min + j * d.height / grid for j in range(grid + 1)]
    values = [[h(x, y) for y in ys] for x in xs]

    def refine(p0, p1, v0, v1):
        for _ in range(40):
            xm = (0.5 * (p0[0] + p1[0]), 0.5 * (p0[1] + p1[1]))
            vm = h(xm[0], xm[1])
            if v0 * vm <= 0:
                p1, v1 = xm, vm
            else:
                p0, v0 = xm, vm
        return curve.project(xm, 3)

    for i in range(grid + 1):
        for j in range(grid + 1):
            v = values[i][j]
            if v == 0.0:  # curve passes exactly through a grid node
                seeds.append(curve.project((xs[i], ys[j]), 3))
                continue
            if i < grid and v * values[i + 1][j] < 0:
                seeds.append(refine((xs[i], ys[j]), (xs[i + 1], ys[j]), v, values[i + 1][j]))
            if j < grid and v * values[i][j + 1] < 0:
                seeds.append(refine((xs[i], ys[j]), (xs[i], ys[j + 1]), v, values[i][j + 1]))
    return seeds


def _trace_one(sys, curve, start, ds, direction=1.0):
    """Predictor-corrector walk along h = 0; returns (points, closed)."""
    d = sys.domain
    gx_fn, gy_fn = curve.grad[0].raw(), curve.grad[1].raw()
    p = curve.project(start, 3)
    points = [d.canonical(p)]
    prev_dir = None
    travelled = 0.0
    for _ in range(200_000):
        gx, gy = gx_fn(p[0], p[1]), gy_fn(p[0], p[1])
        norm = math.hypot(gx, gy)
        if norm < GRAD_MIN:
            raise ConfigurationError(f"curve {curve.id}: gradient vanishes near {p}")
        tx, ty = -gy / norm, gx / norm
        if prev_dir is None:
            tx, ty = tx * direction, ty * direction
        elif tx * prev_dir[0] + ty * prev_dir[1] < 0:
            tx, ty = -tx, -ty
        prev_dir = (tx, ty)
        q = (p[0] + ds * tx, p[1] + ds * ty)
        if d.kind == "plane_rect" and not d.contains(q):
            clipped = _clip_to_rect(p, q, d)
            if clipped is not None:
                points.append(d.canonical(clipped))
            return points, False
        q = curve.project(q, 3)
        travelled += ds
        points.append(d.canonical(q))
        p = q
        if travelled > 3 * ds and d.distance(points[0], d.canonical(p)) < 0.8 * ds:
            points.append(points[0])
            return points, True
    raise ConfigurationError(f"curve {curve.id}: tracing did not terminate")


def _clip_to_rect(p, q, d):
    best = None
    for bound, axis in ((d.x_min, 0), (d.x_max, 0), (d.y_min, 1), (d.y_max, 1)):
        denom = q[axis] - p[axis]
        if denom == 0:
            continue
        t = (bound - p[axis]) / denom
        if 0.0 <= t <= 1.0:
            cand = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
            if best is None or t < best[0]:
                best = (t, cand)
    return best[1] if best else None


def trace_curve(sys: FilippovSystem, curve_id: int, resolution: int) -> list[CurveComponent]:
    """All components of the curve, resampled to ``resolution`` arclength steps."""
    if resolution < 2:
        raise ConfigurationError("resolution must be >= 2")
    curve = sys.curve(curve_id)
    d = sys.domain
    ds = min(d.width, d.height) / 256.0
    seeds = _curve_seeds(sys, curve)
    components = []
    used = []
    for seed in seeds:
        if any(d.distance(seed, q) < 2.0 * ds for q in used):
            continue
        points, closed = _trace_one(sys, curve, seed, ds)
        if not closed:
            back, _ = _trace_one(sys, curve, seed, ds, direction=-1.0)
            points = list(reversed(back[1:])) + points
        used.extend(points)
        comp = _resample(sys, curve, points, closed, resolution, len(components))
        components.append(comp)
    return components


def _resample(sys, curve, points, closed, resolution, index):
    d = sys.domain
    cum = [0.0]
    for a, b in zip(points, points[1:]):
        cum.append(cum[-1] + d.distance(a, b))
    length = cum[-1]
    if length <= 0:
        raise ConfigurationError(f"curve {curve.id}: degenerate component")
    n = resolution if closed else resolution + 1
    targets = [length * k / resolution for k in range(n)]
    out_pts, out_par = [], []
    j = 0
    for s in targets:
        while j < len(cum) - 2 and cum[j + 1] < s:
            j += 1
        span = cum[j + 1] - cum[j]
        w = 0.0 if span == 0 else (s - cum[j]) / span
        a, b = points[j], points[j + 1]
        dx, dy = d.displacement(a, b)
        q = d.canonical((a[0] + w * dx, a[1] + w * dy))
        q = d.canonical(curve.project(q, 3))
        out_pts.append(q)
        out_par.append(s)
    if closed:
        out_pts.append(out_pts[0])
        out_par.append(length)
    return CurveComponent(curve.id, index, out_pts, out_par, closed, length, domain=d)


# --------------------------------------------------------------------------- #
# tangency points, pseudo-equilibria, decomposition
# --------------------------------------------------------------------------- #


def _lie_samples(sys, curve_id, components):
    """Per component, the lists of L1 and L2 at its sample points."""
    y1, y2 = sys.side_fields(curve_id)
    out = []
    for component in components:
        l1s = [sys.lie_derivative(y1, curve_id, p) for p in component.points]
        l2s = [sys.lie_derivative(y2, curve_id, p) for p in component.points]
        out.append((l1s, l2s))
    return out


def _check_isolated(values, label, curve_id):
    run = 0
    for v in values:
        run = run + 1 if abs(v) <= TAU_CLASS else 0
        if run >= 3:
            raise NonIsolatedTangencyError(
                f"curve {curve_id}: {label} stays within the deadband over an arc "
                "(tangency not isolated)"
            )


def _bisect_on_arc(component, fn, s_lo, s_hi, target=ROOT_L_TOL):
    f_lo = fn(component.point_at(s_lo))
    f_hi = fn(component.point_at(s_hi))
    if f_lo == 0.0:
        return s_lo
    if f_hi == 0.0:
        return s_hi
    if f_lo * f_hi > 0:
        return None
    for _ in range(80):
        s_mid = 0.5 * (s_lo + s_hi)
        f_mid = fn(component.point_at(s_mid))
        if abs(f_mid) <= target:
            return s_mid
        if f_lo * f_mid <= 0:
            s_hi, f_hi = s_mid, f_mid
        else:
            s_lo, f_lo = s_mid, f_mid
    return 0.5 * (s_lo + s_hi)


def find_tangency_points(sys: FilippovSystem, curve_id: int, resolution: int) -> list[TangencyPoint]:
    """Scan-and-bisect: roots of either Lie derivative along the curve."""
    components = trace_curve(sys, curve_id, resolution)
    return _scan_tangencies(sys, curve_id, components, _lie_samples(sys, curve_id, components))


def _scan_tangencies(sys, curve_id, components, lies):
    curve = sys.curve(curve_id)
    y1, y2 = sys.side_fields(curve_id)
    found = []
    for component, pair in zip(components, lies):
        for side, planar, values in (("positive", y1, pair[0]), ("negative", y2, pair[1])):
            _check_isolated(values, f"L({side})", curve_id)
            fn = lambda p, _pl=planar: sys.lie_derivative(_pl, curve_id, p)
            for k in range(len(values) - 1):
                s = None
                if values[k] * values[k + 1] < 0:
                    s = _bisect_on_arc(component, fn,
                                       component.params[k], component.params[k + 1])
                elif abs(values[k]) <= TAU_CLASS:
                    # sample already inside the deadband (touch without crossing)
                    s = component.params[k]
                if s is None:
                    continue
                pos = sys.domain.canonical(curve.project(component.point_at(s), 3))
                found.append((pos, side, component.index, s))
    merged: list[TangencyPoint] = []
    for pos, side, comp_idx, s in found:
        hit = next((i for i, t in enumerate(merged)
                    if sys.domain.distance(pos, t.position) < DEDUP_DIST), None)
        if hit is None:
            merged.append(_make_tangency(sys, pos, curve_id, side, comp_idx, s))
        elif merged[hit].side != side:
            merged[hit] = _make_tangency(sys, pos, curve_id, "both", comp_idx, s)
    merged.sort(key=lambda t: (t.component, t.param))
    return merged


def _make_tangency(sys, pos, curve_id, side, comp_idx, s):
    lookup_side = "positive" if side in ("positive", "both") else "negative"
    val = second_lie_value(sys, curve_id, lookup_side, pos)
    if abs(val) <= TAU_CLASS:
        fold_kind = "degenerate"
    else:
        # visible when the tangent field curves back into its own side
        outward = val if lookup_side == "positive" else -val
        fold_kind = "visible" if outward > 0 else "invisible"
    return TangencyPoint(
        position=pos, curve_id=curve_id, side=side, second_lie=val,
        fold=fold_kind, kind="double" if side == "both" else "regular",
        component=comp_idx, param=s,
    )


def _tangent_at(sys, curve_id, p):
    gx, gy = sys.curve(curve_id).gradient_at(p)
    norm = math.hypot(gx, gy)
    return (-gy / norm, gx / norm)


def find_pseudo_equilibria(sys: FilippovSystem, curve_id: int, resolution: int) -> list[tuple[float, float]]:
    """Roots of Z_s . tangent on sliding/escaping sub-arcs of the curve."""
    components = trace_curve(sys, curve_id, resolution)
    return _scan_pseudo_equilibria(sys, curve_id, components,
                                   _lie_samples(sys, curve_id, components))


def _scan_pseudo_equilibria(sys, curve_id, components, lies):
    curve = sys.curve(curve_id)

    def sigma_dot(p):
        tx, ty = _tangent_at(sys, curve_id, p)
        zx, zy = sliding_vector_field(sys, curve_id, p)
        return zx * tx + zy * ty

    points = []
    for component, (l1s, l2s) in zip(components, lies):
        values = []
        for k, p in enumerate(component.points):
            on_arc = (
                abs(l1s[k]) > TAU_CLASS
                and abs(l2s[k]) > TAU_CLASS
                and l1s[k] * l2s[k] < 0
            )
            values.append(sigma_dot(p) if on_arc else None)
        _check_isolated([v for v in values if v is not None] or [1.0], "Z_s . t", curve_id)
        roots = []
        for k, v in enumerate(values):
            if v is not None and abs(v) <= ROOT_L_TOL:
                roots.append(component.params[k])
        for k in range(len(values) - 1):
            a, b = values[k], values[k + 1]
            if a is None or b is None or a * b >= 0:
                continue
            s = _bisect_on_arc(component, sigma_dot,
                               component.params[k], component.params[k + 1])
            if s is not None:
                roots.append(s)
        for s in roots:
            pos = sys.domain.canonical(curve.project(component.point_at(s), 3))
            if all(sys.domain.distance(pos, q) >= DEDUP_DIST for q in points):
                points.append(pos)
    return points


@dataclass
class SigmaArc:
    curve_id: int
    component: int
    point_class: PointClass
    s_start: float
    s_end: float
    start_point: tuple[float, float]
    end_point: tuple[float, float]
    samples: list = field(default_factory=list)
    start_tangency: TangencyPoint | None = None
    end_tangency: TangencyPoint | None = None

    @property
    def length(self):
        return self.s_end - self.s_start

    def to_dict(self):
        return {
            "class": self.point_class.value,
            "component": self.component,
            "s_start": self.s_start,
            "s_end": self.s_end,
            "start": list(self.start_point),
            "end": list(self.end_point),
            "n_samples": len(self.samples),
        }


@dataclass
class SigmaDecomposition:
    curve_id: int
    components: list
    arcs: list
    tangencies: list
    pseudo_equilibria: list

    def arcs_of_class(self, *classes):
        wanted = set(classes)
        return [a for a in self.arcs if a.point_class in wanted]

    def component_obj(self, arc):
        return self.components[arc.component]

    def to_dict(self):
        return {
            "schema": "filippov.sigma/1",
            "curve": self.curve_id,
            "components": [
                {"index": c.index, "closed": c.closed, "length": c.length}
                for c in self.components
            ],
            "arcs": [a.to_dict() for a in self.arcs],
            "tangencies": [t.to_dict() for t in self.tangencies],
            "pseudo_equilibria": [list(p) for p in self.pseudo_equilibria],
        }


def _class_of_open_point(sys, curve_id, p):
    cls = classify_point(sys, curve_id, p)
    if cls.point_class is PointClass.PSEUDO_EQUILIBRIUM:
        return PointClass.SLIDING if cls.lie_positive < 0 else PointClass.ESCAPING
    return cls.point_class


@evaluation_boundary
def sigma_decomposition(sys: FilippovSystem, curve_id: int, resolution: int) -> SigmaDecomposition:
    """Maximal constant-class arcs with tangency points as separators.

    The curve is traced and L1, L2 are sampled along it once; the tangency
    and pseudo-equilibrium scans both read those samples.
    """
    components = trace_curve(sys, curve_id, resolution)
    lies = _lie_samples(sys, curve_id, components)
    tangencies = _scan_tangencies(sys, curve_id, components, lies)
    pes = _scan_pseudo_equilibria(sys, curve_id, components, lies)
    arcs = []
    for component in components:
        t_here = sorted(
            [t for t in tangencies if t.component == component.index], key=lambda t: t.param
        )
        if not t_here:
            mid = component.point_at(0.5 * component.length)
            cls = _class_of_open_point(sys, curve_id, mid)
            arcs.append(
                SigmaArc(
                    curve_id, component.index, cls, 0.0, component.length,
                    component.points[0], component.points[-1],
                    samples=list(component.points),
                )
            )
            continue
        bounds = []
        if component.closed:
            for i, t in enumerate(t_here):
                nxt = t_here[(i + 1) % len(t_here)]
                s_end = nxt.param if i + 1 < len(t_here) else nxt.param + component.length
                bounds.append((t.param, s_end, t, nxt))
        else:
            cuts = [0.0] + [t.param for t in t_here] + [component.length]
            tps = [None] + list(t_here) + [None]
            for i in range(len(cuts) - 1):
                bounds.append((cuts[i], cuts[i + 1], tps[i], tps[i + 1]))
        for s0, s1, t0, t1 in bounds:
            if s1 - s0 < DEDUP_DIST:
                continue
            mid = component.point_at(0.5 * (s0 + s1))
            cls = _class_of_open_point(sys, curve_id, mid)
            samples = [
                component.point_at(s0 + (s1 - s0) * k / 32.0) for k in range(33)
            ]
            arcs.append(
                SigmaArc(
                    curve_id, component.index, cls, s0, s1,
                    component.point_at(s0 % component.length if component.closed else s0),
                    component.point_at(s1 % component.length if component.closed else s1),
                    samples=samples, start_tangency=t0, end_tangency=t1,
                )
            )
    return SigmaDecomposition(curve_id, components, arcs, tangencies, pes)
