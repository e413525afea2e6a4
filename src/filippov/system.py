"""Piecewise-smooth planar systems: domain, switching curves, regions.

A :class:`FilippovSystem` is immutable after load; every operation here is
read-only and safe for concurrent use.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .errors import ConfigurationError, OutsideDomainError, evaluation_boundary
from .expr import PlanarField, ScalarField

EPS_SIGMA = 1e-9  # |h| band that counts as "on the switching manifold"
GRAD_MIN = 1e-8  # regular-value floor for ||grad h|| on the manifold
DISJOINT_EPS = 1e-6  # band used by the load-time curve-disjointness check


@dataclass(frozen=True)
class OnSigma:
    """Marker returned by region_of / field_at for points on a curve."""

    curve_id: int


@dataclass(frozen=True)
class Domain:
    """Rectangle in the plane or a flat torus with the quotient metric."""

    kind: str  # 'plane_rect' | 'flat_torus'
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if self.kind not in ("plane_rect", "flat_torus"):
            raise ConfigurationError(f"unknown domain kind {self.kind!r}")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ConfigurationError("domain bounds must have positive extent")

    @property
    def width(self):
        return self.x_max - self.x_min

    @property
    def height(self):
        return self.y_max - self.y_min

    def canonical(self, p):
        """Map a point to canonical coordinates (wrap on the torus)."""
        x, y = p
        if self.kind == "plane_rect":
            return (x, y)
        x = x - math.floor((x - self.x_min) / self.width) * self.width
        y = y - math.floor((y - self.y_min) / self.height) * self.height
        # floor roundoff can land exactly on the upper edge
        if x >= self.x_max:
            x -= self.width
        if y >= self.y_max:
            y -= self.height
        return (x, y)

    def contains(self, p):
        if self.kind == "flat_torus":
            return True
        x, y = p
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def displacement(self, a, b):
        """Shortest vector from a to b (wrap-aware on the torus)."""
        dx = b[0] - a[0]
        dy = b[1] - a[1]
        if self.kind == "flat_torus":
            dx -= round(dx / self.width) * self.width
            dy -= round(dy / self.height) * self.height
        return (dx, dy)

    def distance(self, a, b):
        dx, dy = self.displacement(a, b)
        return math.hypot(dx, dy)

    def diameter(self):
        if self.kind == "flat_torus":
            return math.hypot(self.width / 2.0, self.height / 2.0)
        return math.hypot(self.width, self.height)


class SwitchingCurve:
    """One switching curve: the zero set of h with its side assignment."""

    def __init__(self, curve_id: int, h: ScalarField, positive_region: int, negative_region: int):
        if positive_region == negative_region:
            raise ConfigurationError(f"curve {curve_id}: side regions must be distinct")
        self.id = curve_id
        self.h = h
        self.grad = (h.derivative("x"), h.derivative("y"))
        self.positive_region = positive_region
        self.negative_region = negative_region

    def gradient_at(self, p):
        return (self.grad[0](p[0], p[1]), self.grad[1](p[0], p[1]))

    def project(self, p, iterations, stop_below=None,
                message="gradient of h degenerate near ({x:.6g}, {y:.6g})"):
        """Newton projection of p onto h = 0 along grad h.

        Takes ``iterations`` steps, or fewer once |h| <= ``stop_below``.  A
        gradient with ||grad h|| < GRAD_MIN raises ConfigurationError with
        ``message`` formatted at the current (x, y).
        """
        h = self.h.raw()
        gxf, gyf = self.grad[0].raw(), self.grad[1].raw()
        x, y = p
        for _ in range(iterations):
            hv = h(x, y)
            if stop_below is not None and abs(hv) <= stop_below:
                break
            gx, gy = gxf(x, y), gyf(x, y)
            g2 = gx * gx + gy * gy
            if g2 < GRAD_MIN * GRAD_MIN:
                raise ConfigurationError(message.format(x=x, y=y))
            x -= hv * gx / g2
            y -= hv * gy / g2
        return (x, y)


class RegionSpec:
    """A smooth region: its vector field plus signed membership conditions."""

    def __init__(self, region_id: int, field: PlanarField, conditions):
        self.id = region_id
        self.field = field
        self.conditions = [(int(cid), int(sign)) for cid, sign in conditions]
        if not self.conditions:
            raise ConfigurationError(f"region {region_id}: needs at least one membership condition")


class FilippovSystem:
    """Domain + switching curves + per-region fields: the object Z.

    ``velocity_scale`` is an optional positive scalar multiplier g(p) applied
    to every evaluated field vector (used by the tangency-freezing rescale);
    ``frozen_tangencies`` lists the tangency points that scale turns into
    equilibria.  ``second_lie_fields`` caches the compiled Y(Yh) per
    (curve id, side) for ``sigma.second_lie_value``.
    """

    def __init__(self, domain, curves, regions, parameters=None, velocity_scale=None, validate=True):
        self.domain = domain
        self.curves = list(curves)
        self.regions = list(regions)
        self.parameters = dict(parameters or {})
        self.velocity_scale = velocity_scale
        self.frozen_tangencies = ()
        self.second_lie_fields = {}
        self._regions_by_id = {r.id: r for r in self.regions}
        self._curves_by_id = {c.id: c for c in self.curves}
        if len(self._regions_by_id) != len(self.regions):
            raise ConfigurationError("duplicate region ids")
        if len(self._curves_by_id) != len(self.curves):
            raise ConfigurationError("duplicate curve ids")
        for c in self.curves:
            for rid in (c.positive_region, c.negative_region):
                if rid not in self._regions_by_id:
                    raise ConfigurationError(f"curve {c.id}: unknown side region {rid}")
        if validate:
            self.validate()

    def curve(self, curve_id) -> SwitchingCurve:
        try:
            return self._curves_by_id[curve_id]
        except KeyError:
            raise ConfigurationError(f"unknown curve id {curve_id}") from None

    def region(self, region_id) -> RegionSpec:
        try:
            return self._regions_by_id[region_id]
        except KeyError:
            raise ConfigurationError(f"unknown region id {region_id}") from None

    # -- geometric primitives ------------------------------------------------

    def region_of(self, p):
        """Region id of p, or OnSigma(curve id) within the EPS_SIGMA band."""
        p = self.domain.canonical(p)
        if not self.domain.contains(p):
            raise OutsideDomainError(f"point {p} left the domain")
        for c in self.curves:
            if abs(c.h(p[0], p[1])) <= EPS_SIGMA:
                return OnSigma(c.id)
        matches = []
        for r in self.regions:
            ok = True
            for cid, sign in r.conditions:
                if sign * self._curves_by_id[cid].h(p[0], p[1]) <= 0:
                    ok = False
                    break
            if ok:
                matches.append(r.id)
        if len(matches) != 1:
            raise ConfigurationError(f"point {p} matches regions {matches}: inconsistent model")
        return matches[0]

    def lie_derivative(self, planar_field, curve_id, p):
        """grad h (p) . Y(p), with the symbolic gradient of h."""
        p = self.domain.canonical(p)
        gx, gy = self.curve(curve_id).gradient_at(p)
        vx, vy = self.field_value(planar_field, p)
        return gx * vx + gy * vy

    def side_fields(self, curve_id):
        """(Y1, Y2): fields on the h>0 and h<0 sides of the curve."""
        c = self.curve(curve_id)
        return (self.region(c.positive_region).field, self.region(c.negative_region).field)

    def field_value(self, planar_field, p):
        """Evaluate a planar field with the system's velocity scale applied."""
        vx, vy = planar_field(p[0], p[1])
        if self.velocity_scale is not None:
            g = self.velocity_scale(p)
            vx *= g
            vy *= g
        return (vx, vy)

    def field_at(self, p):
        """Z(p) off the manifold; OnSigma marker on it (caller must classify)."""
        where = self.region_of(p)
        if isinstance(where, OnSigma):
            return where
        return self.field_value(self.region(where).field, self.domain.canonical(p))

    # -- derived systems -------------------------------------------------------

    def reversed(self) -> "FilippovSystem":
        """Time-reversed system: all fields negated (sliding <-> escaping)."""
        regions = [RegionSpec(r.id, r.field.negated(), r.conditions) for r in self.regions]
        rev = FilippovSystem(
            self.domain, self.curves, regions, self.parameters,
            velocity_scale=self.velocity_scale, validate=False,
        )
        rev.frozen_tangencies = self.frozen_tangencies
        return rev

    def with_velocity_scale(self, g) -> "FilippovSystem":
        """The system with every field multiplied by g(p); frozen tangencies carry over."""
        scale = g
        if self.velocity_scale is not None:
            old = self.velocity_scale
            scale = lambda p, _old=old, _g=g: _old(p) * _g(p)  # noqa: E731
        scaled = FilippovSystem(
            self.domain, self.curves, self.regions, self.parameters,
            velocity_scale=scale, validate=False,
        )
        scaled.frozen_tangencies = self.frozen_tangencies
        return scaled

    # -- load-time validation --------------------------------------------------

    def _sample_points(self):
        """A 256 x 256 cell-centre grid, then 10,000 seeded random points."""
        d = self.domain
        rng = random.Random(0)
        for i in range(256):
            x = d.x_min + (i + 0.5) * d.width / 256
            for j in range(256):
                yield (x, d.y_min + (j + 0.5) * d.height / 256)
        for _ in range(10_000):
            yield (d.x_min + rng.random() * d.width, d.y_min + rng.random() * d.height)

    @evaluation_boundary
    def validate(self):
        """Sampled disjointness / membership / regularity / periodicity checks.

        Samples that fall near a curve are projected onto it before the
        disjointness and regular-value checks, so even hairline overlaps
        between curves are caught.
        """
        if self.domain.kind == "flat_torus":
            self._check_periodicity()
        h_fns = [(c.id, c.h.raw()) for c in self.curves]
        region_conds = [
            (r.id, [(self._curves_by_id[cid].h.raw(), sign) for cid, sign in r.conditions])
            for r in self.regions
        ]
        near_band = 1e-3 * max(self.domain.width, self.domain.height)
        seen_nonempty = {r.id: False for r in self.regions}
        for x, y in self._sample_points():
            values = [(cid, fn(x, y)) for cid, fn in h_fns]
            near = [cid for cid, v in values if abs(v) < near_band]
            for cid in near:
                self._check_on_curve(cid, (x, y), h_fns)
            if any(abs(v) < DISJOINT_EPS for _, v in values):
                continue  # too close to the manifold for a region call
            owners = []
            for rid, conds in region_conds:
                if all(sign * fn(x, y) > 0 for fn, sign in conds):
                    owners.append(rid)
            if len(owners) != 1:
                raise ConfigurationError(
                    f"point ({x:.6g}, {y:.6g}) belongs to regions {owners}; expected exactly one"
                )
            seen_nonempty[owners[0]] = True
        empty = [rid for rid, seen in seen_nonempty.items() if not seen]
        if empty:
            raise ConfigurationError(f"regions {empty} are empty on the domain")

    def _check_on_curve(self, cid, p, h_fns):
        curve = self._curves_by_id[cid]
        message = f"curve {cid}: 0 is not a regular value of h near ({{x:.6g}}, {{y:.6g}})"
        x, y = curve.project(p, 4, message=message)
        if abs(curve.h.raw()(x, y)) > DISJOINT_EPS:
            return  # the nearby sample did not actually belong to this curve
        gx, gy = curve.gradient_at((x, y))
        if math.hypot(gx, gy) < GRAD_MIN:
            raise ConfigurationError(message.format(x=x, y=y))
        clashing = [
            other for other, fn in h_fns
            if other != cid and abs(fn(x, y)) < DISJOINT_EPS
        ]
        if clashing:
            raise ConfigurationError(
                f"curves {sorted([cid] + clashing)} are not disjoint near ({x:.6g}, {y:.6g})"
            )

    def _check_periodicity(self):
        """h and the fields repeat across both periods at 64 seeded random points."""
        d = self.domain
        fns = [(f"curve {c.id} h", c.h.raw()) for c in self.curves]
        for r in self.regions:
            fns.append((f"region {r.id} field x", r.field.component_x.raw()))
            fns.append((f"region {r.id} field y", r.field.component_y.raw()))
        rng = random.Random(1)
        for _ in range(64):
            x = d.x_min + rng.random() * d.width
            y = d.y_min + rng.random() * d.height
            for name, fn in fns:
                v = fn(x, y)
                scale = 1.0 + abs(v)
                if abs(fn(x + d.width, y) - v) > 1e-9 * scale or abs(fn(x, y + d.height) - v) > 1e-9 * scale:
                    raise ConfigurationError(
                        f"{name} is not periodic on the flat torus (checked at ({x:.6g}, {y:.6g}))"
                    )
