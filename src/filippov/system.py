"""Piecewise-smooth planar systems: domain, switching curves, regions.

A :class:`FilippovSystem` is immutable after load; every operation here is
read-only and safe for concurrent use.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field

from .errors import ConfigurationError, OutsideDomainError, evaluation_boundary
from .expr import FUNCTIONS, LoopText, PlanarField, ScalarField

EPS_SIGMA = 1e-9  # |h| band that counts as "on the switching manifold"
GRAD_MIN = 1e-8  # regular-value floor for ||grad h|| on the manifold
DISJOINT_EPS = 1e-6  # band used by the load-time curve-disjointness check
DEGENERATE_GRADIENT = "gradient of h degenerate near ({x:.6g}, {y:.6g})"  # ``SwitchingCurve.project``'s error


@dataclass(frozen=True)
class OnSigma:
    """Marker returned by region_of for points on a curve."""

    curve_id: int


def check_extent(x_min, x_max, y_min, y_max, name="domain bounds"):
    """Raise a ConfigurationError led by ``name`` unless the bounds have positive, finite extent."""
    if not (x_max > x_min and y_max > y_min):
        raise ConfigurationError(f"{name} must have positive extent")
    width, height = x_max - x_min, y_max - y_min
    if not (math.isfinite(width) and math.isfinite(height)):  # finite bounds can be inf apart
        raise ConfigurationError(f"{name} must have finite extent, got width {width!r}, height {height!r}")


DOMAIN_KINDS = ("plane_rect", "flat_torus")


@dataclass(frozen=True)
class Domain:
    """Rectangle in the plane or a flat torus with the quotient metric."""

    kind: str  # 'plane_rect' | 'flat_torus'
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    width: float = field(init=False, repr=False, compare=False)
    height: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in DOMAIN_KINDS:
            raise ConfigurationError(f"unknown domain kind {self.kind!r}")
        check_extent(self.x_min, self.x_max, self.y_min, self.y_max)
        object.__setattr__(self, "width", self.x_max - self.x_min)
        object.__setattr__(self, "height", self.y_max - self.y_min)

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

    def along(self, params, points, s):
        """Wrap-aware linear interpolation at s of ``points`` sampled at ascending ``params``.

        The end chords extend past either end; at a stored parameter other than the last,
        the stored point itself is returned.
        """
        i = max(1, min(len(params) - 1, bisect_right(params, s)))
        s0, s1 = params[i - 1], params[i]
        w = 0.0 if s1 == s0 else (s - s0) / (s1 - s0)
        a = points[i - 1]
        dx, dy = self.displacement(a, points[i])
        return self.canonical((a[0] + w * dx, a[1] + w * dy))

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

    def project(self, p, iterations, stop_below=None, message=DEGENERATE_GRADIENT):
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

    ``velocity_scale`` is an optional positive scalar multiplier g(p) (used by
    the tangency-freezing rescale).  The system applies it where it hands out
    fields, to every component before anything is formed from them:
    ``field_value`` evaluates a field times g, ``raw_pair`` gives a region's
    raw components times g, and ``stage`` writes the text of regions' fields
    times g for the generated arc loops, so that no caller of these knows a
    system can be scaled.  ``second_lie_fields`` caches the compiled Y(Yh) per
    (curve id, side) for ``sigma.second_lie_value``.
    """

    def __init__(self, domain, curves, regions, *, velocity_scale=None, validate=True):
        self.domain = domain
        self.curves = list(curves)
        self.regions = list(regions)
        self.velocity_scale = velocity_scale
        self.second_lie_fields = {}
        self._reversed = None
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
        for r in self.regions:
            for cid, _ in r.conditions:
                if cid not in self._curves_by_id:
                    raise ConfigurationError(f"region {r.id}: condition on unknown curve {cid}")
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

    def raw_pair(self, region_id):
        """The region's two raw field components, each times the velocity scale g at (x, y) if there is one."""
        fx, fy = self.region(region_id).field.raw_pair()
        scale = self.velocity_scale
        if scale is None:
            return fx, fy
        canonical = self.domain.canonical
        return (lambda x, y: scale(canonical((x, y))) * fx(x, y),
                lambda x, y: scale(canonical((x, y))) * fy(x, y))

    def stage(self, region_ids, px, py, names, component, bind):
        """Source lines that set ``names`` to the regions' field components at (px, py), scale applied.

        ``names`` holds one (x name, y name) pair per region id;
        ``component(field, px, py)`` gives the text of one ``ScalarField`` at
        the point, and ``bind(value)`` a name for a value the lines read.  A
        scaled system evaluates g once at the point, into ``gs``, and
        multiplies each component by it: the arithmetic of ``raw_pair``'s
        callables, which call g per component.
        """
        texts = []
        for rid, (vx, vy) in zip(region_ids, names):
            field = self.region(rid).field
            texts += [(vx, component(field.component_x, px, py)), (vy, component(field.component_y, px, py))]
        if self.velocity_scale is None:
            return [f"{name} = {text}" for name, text in texts]
        g = f"{bind(self.velocity_scale)}({bind(self.domain.canonical)}(({px}, {py})))"
        return [f"gs = {g}"] + [f"{name} = gs * {text}" for name, text in texts]

    # -- derived systems -------------------------------------------------------

    def reversed(self) -> "FilippovSystem":
        """Time-reversed system: all fields negated (sliding <-> escaping).

        Built on the first call and returned by later ones: a system does not
        change once built.
        """
        if self._reversed is None:
            regions = [RegionSpec(r.id, r.field.negated(), r.conditions) for r in self.regions]
            self._reversed = FilippovSystem(
                self.domain, self.curves, regions,
                velocity_scale=self.velocity_scale, validate=False,
            )
        return self._reversed

    def with_velocity_scale(self, g) -> "FilippovSystem":
        """The system with every field multiplied by g(p)."""
        scale = g
        if self.velocity_scale is not None:
            old = self.velocity_scale
            scale = lambda p, _old=old, _g=g: _old(p) * _g(p)  # noqa: E731
        return FilippovSystem(
            self.domain, self.curves, self.regions,
            velocity_scale=scale, validate=False,
        )

    # -- load-time validation --------------------------------------------------

    def _sample_points(self):
        """A 256 x 256 cell-centre grid, then 10,000 seeded random points.

        Yields (xs, ys) blocks of at most 256 samples: one per grid row, then
        the random points 256 at a time, each point's x drawn before its y.
        """
        d = self.domain
        ys = [d.y_min + (j + 0.5) * d.height / 256 for j in range(256)]
        for i in range(256):
            yield [d.x_min + (i + 0.5) * d.width / 256] * 256, ys
        rng = random.Random(0)
        for start in range(0, 10_000, 256):
            xs, ys = [], []
            for _ in range(min(256, 10_000 - start)):
                xs.append(d.x_min + rng.random() * d.width)
                ys.append(d.y_min + rng.random() * d.height)
            yield xs, ys

    def _sample_check(self):
        """The generated validation pass, ``check_block``, and the values its text binds.

        ``check_block(bound, xs, ys, near, seen)`` walks one block of samples
        and evaluates each curve's h once per sample, inline, as the text
        ``LoopText.component`` gives.  It appends (k, x, y) to ``near`` for
        the h of each curve k with |h| < 1e-3 of the domain's larger side, in
        curve order, and then skips a sample within ``DISJOINT_EPS`` of a curve.
        Any other sample must lie in exactly one region: the conditions
        ``sign * h > 0`` are written as ``h > 0.0`` or ``h < 0.0``, which
        agree on NaN and signed zeros.  The first sample in no region or in
        several returns (x, y, its h values); a sample that one region owns
        sets that region's flag, and the flags go back into ``seen`` once
        the block has passed.  An arithmetic error of some h at a sample
        propagates with every earlier sample checked.
        """
        text = LoopText()
        hs = [f"h{k}" for k in range(len(self.curves))]
        flags = [f"s{k}" for k in range(len(self.regions))]
        name = {c.id: h for c, h in zip(self.curves, hs)}
        near_band = 1e-3 * max(self.domain.width, self.domain.height)

        def holds(cid, sign):  # sign * h > 0
            return f"{name[cid]} > 0.0" if sign > 0 else f"{name[cid]} < 0.0" if sign < 0 else "False"

        owns = [" and ".join(holds(cid, sign) for cid, sign in r.conditions) for r in self.regions]
        fail = "return x, y, ({})".format("".join(f"{h}, " for h in hs))
        body = [f"{h} = {text.component(c.h, 'x', 'y')}" for c, h in zip(self.curves, hs)]
        for k, h in enumerate(hs):
            body += [f"if {-near_band!r} < {h} < {near_band!r}:", f"    near.append(({k}, x, y))"]
        if hs:
            body += ["if {}:".format(" or ".join(f"{-DISJOINT_EPS!r} < {h} < {DISJOINT_EPS!r}" for h in hs)),
                     "    continue"]
        for r, (flag, own) in enumerate(zip(flags, owns)):
            others = owns[r + 1:]
            body += [f"{'elif' if r else 'if'} {own}:"]
            body += [f"    if {' or '.join(f'({o})' for o in others)}:", f"        {fail}"] if others else []
            body += [f"    {flag} = True"]
        body += ["else:", f"    {fail}"] if owns else [fail]
        unpack = "[{}]".format(", ".join(flags))
        source = "\n".join([
            "def check_block(bound, xs, ys, near, seen):",
            f"    {unpack} = seen",
            "    for x, y in zip(xs, ys):",
            *[f"        {line}" for line in body],
            f"    seen[:] = {unpack}",
        ]) + "\n"
        env = {**FUNCTIONS, "__builtins__": {}, "zip": zip}
        exec(source, env)  # noqa: S102 - generated from the curves' field text
        return env["check_block"], tuple(text.bound)

    @evaluation_boundary
    def validate(self):
        """Sampled disjointness / membership / regularity / periodicity checks.

        Samples that fall near a curve are projected onto it before the
        disjointness and regular-value checks, so even hairline overlaps
        between curves are caught.  The first failing sample, in grid-then-
        random order, is the one reported.  The samples are checked in the
        generated pass of ``_sample_check``, block by block; the near-curve
        checks of a block follow its pass, and come before the pass's own
        failure, as they come first sample by sample.
        """
        if self.domain.kind == "flat_torus":
            self._check_periodicity()
        h_fns = [(c.id, c.h.raw()) for c in self.curves]
        check_block, bound = self._sample_check()
        seen = [False] * len(self.regions)
        for xs, ys in self._sample_points():
            near = []
            try:
                failure = check_block(bound, xs, ys, near, seen)
            finally:  # also when some h raised: the samples before it were checked
                for k, x, y in near:
                    self._check_on_curve(h_fns[k][0], (x, y), h_fns)
            if failure is not None:
                x, y, values = failure
                column = {c.id: v for c, v in zip(self.curves, values)}
                found = [r.id for r in self.regions
                         if all(sign * column[cid] > 0 for cid, sign in r.conditions)]
                raise ConfigurationError(
                    f"point ({x:.6g}, {y:.6g}) belongs to regions {found}; expected exactly one"
                )
        empty = [r.id for r, flag in zip(self.regions, seen) if not flag]
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

