"""Event-driven integration of Filippov orbits.

Regular and sliding arcs step with one hand-rolled Dormand-Prince 5(4) pair
with the classical quartic dense output.  Its step control, dense output and
the regular-arc and sliding-arc loops are straight-line code that
``_kernels`` generates at import from the tableau ``_A``, ``_E``, ``_P``; they
return the bits of the tableau loops, which ``tests/test_dormand_prince.py``
keeps as the reference.  The regular-arc loop runs whole accepted steps with
its state in locals: the seven stages, which call the region's ``fx`` and
``fy``, error control, the five-point event grid with every curve's h on it,
and the samples.  The loop hands a step back to ``integrate_regular`` only
when its grid may hold an event: a sign change of an armed curve, an unarmed
curve leaving ``ESCAPE_BAND``, a grid point outside the rectangle or a
capture target inside the coarse gate.  It may hand back more steps than have
events, never fewer; ``tests/test_regular_loop.py`` checks it bit for bit
against the step loop it replaced.  Events (sign changes of any h_i, domain
exit, graze captures) are located on the dense output and polished onto the
curve with Newton steps.

Sliding arcs integrate the Filippov convex combination Z_s = (L2 Y1 - L1 Y2) /
(L2 - L1), constrained to the curve, in the generated sliding-arc loop.  Its
state is in locals too: each stage calls the side fields' components and the
curve's raw grad h and forms the Lie pair and Z_s inline; each accepted step
is projected onto the curve by two Newton steps on the raw h, and the next
step restarts there.  The loop runs the exit tests at each restart (the
rectangle, a Lie derivative that flips sign or enters the ``TAU_CLASS`` band,
a pseudo-equilibrium) and emits every other step; it returns only at
``t_max`` or with the step that ends at an exit, which ``integrate_sliding``
locates.  ``sliding_rhs``, compiled from the same piece, gives an arc's first
stage and its tangency search's Lie pairs.  ``tests/test_sliding_loop.py``
checks the arcs bit for bit, errors included, against the stepper loop they
replaced.

Every field component comes from ``FilippovSystem.raw_pair``, which applies
the system's velocity scale, if it has one; nothing here knows of the scale.
Every generated loop and emitter wraps torus points with the arithmetic of
``Domain.canonical``, inline.  Curve crossings (a guarded bisection/secant
hybrid), domain exits and the tangencies and domain exits of sliding arcs are
all located by the one bracket kernel ``sigma.bracket``.  An arc that takes
``MAX_ARC_STEPS`` accepted steps more than it needs at ``max_step`` fails with
``IntegrationError``: its steps have shrunk to nothing, as past a finite-time
blow-up.

One orbit is computed sequentially; distinct orbits may be computed
concurrently against the shared system.
"""

from __future__ import annotations

import copy
import json
import math
from collections import deque
from dataclasses import dataclass, field

from .errors import (
    ConfigurationError, IntegrationError, UndefinedSlidingError, evaluation_boundary,
)
from .sigma import (
    PE_NORM_TOL,
    PointClass,
    TAU_CLASS,
    bracket,
    classify_point,
    nudge_into_arc,
    onto_curve,
    second_lie_value,
    sliding_undefined,
)
from .system import DEGENERATE_GRADIENT, GRAD_MIN, FilippovSystem, OnSigma

EVENT_H_TOL = 1e-10  # |h| at located non-sliding event endpoints
ESCAPE_BAND = 1e-8  # hysteresis band: a curve re-arms once |h| leaves it
CAPTURE_RADIUS = 1e-6  # a regular arc captured by a ride target passes this close to it
# accepted steps one arc may take beyond the t_max / max_step it needs at full step size
MAX_ARC_STEPS = 100_000
MAX_SEGMENTS = 200_000  # driver steps of one orbit; an orbit that reaches it ends "segment_budget"


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
_THETA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)  # event sampling points of each step
_UNDERFLOW = "step size underflow (degenerate point?)"


def _arc_step_limit(t_max, max_step):
    """The accepted steps an arc to ``t_max`` may take: an arc past it creeps, as past a blow-up."""
    return MAX_ARC_STEPS + t_max / max_step


def _creeping(steps, t, t_max):
    return IntegrationError(f"arc took {steps} accepted steps and reached only t = {t!r} of {t_max!r}")


def _degenerate_gradient(x, y):
    """``SwitchingCurve.project``'s error at (x, y)."""
    return ConfigurationError(DEGENERATE_GRADIENT.format(x=x, y=y))


@dataclass
class IntegratorOptions:
    rtol: float = 1e-10
    atol: float = 1e-12
    max_step: float | None = None  # default: min domain extent / 16
    sample_spacing: float | None = None  # default: min domain extent / 64

    def resolved(self, domain):
        extent = min(domain.width, domain.height)
        max_step = self.max_step if self.max_step is not None else extent / 16.0
        spacing = self.sample_spacing if self.sample_spacing is not None else extent / 64.0
        return max_step, spacing


def _kernels():
    """``_DenseStep.at``, the regular- and sliding-arc loops, their emitters and ``sliding_rhs``, in straight lines.

    The source is written out from ``_A``, ``_E`` and ``_P`` and compiled in a
    closed namespace, as ``expr.compile_expression`` compiles fields.  Each sum
    keeps the operation order of the tableau loop it unrolls: ``x + dt * a * k``
    associates left, the error and dense-output sums start at ``0.0 +``, and
    zero coefficients stay, so the kernels return the loops' bits.  The step
    control is one piece, ``accepted_step``, that both loops inline, and the
    torus wrap is one piece, ``canonical``, that does ``Domain.canonical``'s
    arithmetic wherever a loop or emitter wraps a point.  The regular-arc loop
    calls the region's two components; the sliding-arc loop calls the side
    fields' components and the curve's raw h and grad h in one piece,
    ``sliding``, that ``sliding_rhs`` wraps as ``emit_to`` wraps ``chord``.
    Every function but ``at`` and ``sliding_rhs``, which know no domain, comes
    in a plane and a torus form; all are compiled here, once.
    """
    ks = ", ".join(f"k{j}" for j in range(1, 8))
    kx = [f"k{j}x" for j in range(1, 8)]
    ky = [f"k{j}y" for j in range(1, 8)]
    unpack = [f"{k} = k{j}[{i}]" for j, pair in enumerate(zip(kx, ky), 1) for i, k in enumerate(pair)]
    qs = [f"q{j}" for j in range(1, 8)]

    def dot(coefficients, components):
        return "".join(f" + {c} * {k}" for c, k in zip(coefficients, components))

    def horner(theta, p):
        return f"{theta} * ({p[0]!r} + {theta} * ({p[1]!r} + {theta} * ({p[2]!r} + {theta} * {p[3]!r})))"

    def coordinate(origin, weights, k):
        return f"{origin} + dt * (0.0{dot(k, weights)})"

    def point(weights, kx, ky):
        return f"({coordinate('x0', weights, kx)}, {coordinate('y0', weights, ky)})"

    def indent(lines, depth=1):
        return ["    " * depth + line for line in lines]

    def stages(rhs):
        """Stages 2 to 7 from x, y, k1 and dt; ``rhs(j)`` evaluates k_j at (ax, ay)."""
        lines = []
        for i in range(1, 7):
            lines += [
                f"ax = x{dot([f'dt * {a!r}' for a in _A[i]], kx)}",
                f"ay = y{dot([f'dt * {a!r}' for a in _A[i]], ky)}",
            ] + rhs(i + 1)
        return lines

    def accepted_step(rhs):
        """One accepted step: error control, accept or reject and the step-size update.

        Hairer–Nørsett–Wanner, *Solving ODEs I*, §II.4.  The step starts at (x, y)
        at t with first stage (k1x, k1y) and tries ``dt_next`` capped by
        ``t_max - t`` and ``max_step``.  It leaves the start in t0, x0, y0, the
        size in dt, the end in t, x, y, the stages in k1x ... k7y and the next
        trial step in dt_next.
        """
        return [
            "dt = dt_next",  # min(dt_next, t_max - t, max_step)
            "if t_max - t < dt:",
            "    dt = t_max - t",
            "if max_step < dt:",
            "    dt = max_step",
            "for _ in range(60):",
            *indent(stages(rhs) + [
                "if not (isfinite(ax) and isfinite(ay)):",
                "    dt *= 0.25",
                "    continue",
                # max(u, v) is u unless v > u: the builtins' choices, spelt inline
                "ux = abs(x)",
                "vx = abs(ax)",
                "uy = abs(y)",
                "vy = abs(ay)",
                "sx = atol + rtol * (vx if vx > ux else ux)",
                "sy = atol + rtol * (vy if vy > uy else uy)",
                f"ex = (0.0{dot(map(repr, _E), kx)}) * dt",
                f"ey = (0.0{dot(map(repr, _E), ky)}) * dt",
                "err = sqrt(0.5 * ((ex / sx) ** 2 + (ey / sy) ** 2))",
                "if err <= 1.0:",
                "    break",
                "dt *= max(0.2, 0.9 * err ** -0.2)",
                "if dt < 1e-15:",
                f"    raise IntegrationError({_UNDERFLOW!r})",
            ]),
            "else:",
            f"    raise IntegrationError({_UNDERFLOW!r})",
            "t0 = t",
            "x0 = x",
            "y0 = y",
            "t = t0 + dt",
            "x = ax",
            "y = ay",
            # min(max_step, dt * (5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))))
            "factor = 5.0",
            "if err != 0.0:",
            "    factor = 0.9 * err ** -0.2",
            "    if not factor > 0.2:",
            "        factor = 0.2",
            "    if not factor < 5.0:",
            "        factor = 5.0",
            "dt_next = dt * factor",
            "if not dt_next < max_step:",
            "    dt_next = max_step",
        ]

    pairs = ", ".join(f"({a}, {b})" for a, b in zip(kx, ky))  # the stages as _DenseStep.ks
    dense_step = f"_DenseStep(t0, dt, x0, y0, ({pairs}))"

    def head(step):
        return [f"{ks} = {step}.ks", f"x0 = {step}.x0", f"y0 = {step}.y0", f"dt = {step}.dt"]

    at = ["def at(self, theta):"] + indent(
        head("self") + [f"{q} = {horner('theta', p)}" for q, p in zip(qs, _P)]
        + [f"return {point(qs, [f'k{j}[0]' for j in range(1, 8)], [f'k{j}[1]' for j in range(1, 8)])}"])

    # the event grid's weights q_j(theta), once, by the Horner expression ``at`` evaluates
    weights = [[repr(eval(horner(repr(th), p), {"__builtins__": {}})) for p in _P]  # noqa: S307
               for th in _THETA_GRID[1:]]
    grid = [(f"g{i}x", f"g{i}y") for i in range(1, 5)]
    points = [("x0", "y0")] + grid

    def wrap(dx, dy, torus):
        """``Domain.displacement``'s wrap of the vector (dx, dy) on the torus."""
        return [f"{dx} -= round({dx} / width) * width", f"{dy} -= round({dy} / height) * height"] if torus else []

    def canonical(px, py, torus):
        """``Domain.canonical`` of the point (px, py) in place on the torus: x - floor((x - x_min) / width)
        * width, then the fix for floor roundoff that lands on the upper edge."""
        return [
            f"{px} = {px} - floor(({px} - x_min) / width) * width",
            f"{py} = {py} - floor(({py} - y_min) / height) * height",
            f"if {px} >= x_max:",
            f"    {px} -= width",
            f"if {py} >= y_max:",
            f"    {py} -= height",
        ] if torus else []

    bounds = [f"{b} = domain.{b}" for b in ("x_min", "x_max", "y_min", "y_max")]
    torus_geometry = bounds + ["width = domain.width", "height = domain.height"]

    def emission(th_end, torus):
        """Samples from the last one to ``b``, the point at ``th_end``: the chord is cut so spacing stays bounded."""
        if torus:
            sample = [f"        cx = {coordinate('x0', qs, kx)}", f"        cy = {coordinate('y0', qs, ky)}",
                      *indent(canonical("cx", "cy", torus), 2), "        pts.append((cx, cy))"]
        else:
            sample = [f"        pts.append({point(qs, kx, ky)})"]
        return [
            f"t1 = t0 + {th_end} * dt",
            "ta = times[-1]",
            "a = pts[-1]",
            "dx = b[0] - a[0]",
            "dy = b[1] - a[1]",
            *wrap("dx", "dy", torus),
            "n = ceil(hypot(dx, dy) / spacing)",  # the chord's pieces: no cut below two
            "if n > 1:",
            "    for j in range(1, n):",
            "        tj = ta + (t1 - ta) * j / n",
            "        th = (tj - t0) / dt",
            "        if th <= 0:",
            "            continue",
            "        times.append(tj)",
            *[f"        {q} = {horner('th', p)}" for q, p in zip(qs, _P)],
            *sample,
            "times.append(t1)",
            "pts.append(b)",
        ]

    def emit_source(torus):
        """``emit``: the samples of ``step`` up to ``b``, its point at ``th_end``."""
        return ["def emit(step, th_end, b, times, pts, spacing, domain):"] + indent(
            ["t0 = step.t0"] + head("step") + unpack
            + (torus_geometry if torus else []) + emission("th_end", torus))

    def regular_source(torus):
        """``regular_steps``: a generator over the accepted steps of one regular arc.

        The arc starts at (x, y) at t = 0 with first stage (k1x, k1y) and first
        trial step ``dt_next``, and ends at ``t_max``.  A step whose grid cannot
        hold an event is emitted into ``times`` and ``pts``; any other step is
        yielded as (``_DenseStep``, its five grid points, each curve's five h
        values on them), and the caller emits it.  ``signs[i]`` is the sign of
        ``hs[i]`` where that curve armed, 0.0 while it is unarmed; the caller
        arms curves.  ``targets`` holds the points of the capture targets.
        """
        screen = [
            "vals = []",
            "cand = False",
            "for h, s0 in zip(hs, signs):",
            *[f"    v{i} = h({px}, {py})" for i, (px, py) in enumerate(points)],
            "    vals.append((v0, v1, v2, v3, v4))",
            "    if s0:",
            "        if ({}):".format(" or ".join(
                f"(v{i} if v{i} != 0 else s0 * 1e-300) * v{i + 1} < 0" for i in range(4))),
            "            cand = True",
            "    elif {}:".format(" or ".join(f"abs(v{i}) >= {ESCAPE_BAND!r}" for i in range(5))),
            "        cand = True",
        ]
        if not torus:
            screen += [
                "if not ({}):".format(" and ".join(
                    f"x_min <= {px} <= x_max and y_min <= {py} <= y_max" for px, py in points)),
                "    cand = True",
            ]
        screen += [
            "if targets:",
            "    dx = g4x - x0",
            "    dy = g4y - y0",
            *indent(wrap("dx", "dy", torus)),
            f"    gate = max({CAPTURE_RADIUS * 4.0!r}, hypot(dx, dy) / 4, 1e-3)",
            "    for px, py in targets:",
            "        for qx, qy in ({}):".format(", ".join(f"({a}, {b})" for a, b in points)),
            "            dx = px - qx",
            "            dy = py - qy",
            *indent(wrap("dx", "dy", torus), 3),
            "            if not hypot(dx, dy) > gate:",
            "                cand = True",
        ]
        return [
            "def regular_steps(fx, fy, hs, signs, targets, domain, rtol, atol, max_step,",
            "                  spacing, t_max, x, y, k1x, k1y, dt_next, times, pts):",
        ] + indent((torus_geometry if torus else bounds) + [
            "t = 0.0",
            "t_end = t_max - 1e-14",
            "limit = arc_step_limit(t_max, max_step)",
            "steps = 0",
            "while True:",
            "    if t >= t_end:",
            "        return",
            "    if steps >= limit:",
            "        raise creeping(steps, t, t_max)",
            "    steps += 1",
            *indent(accepted_step(lambda j: [f"k{j}x = fx(ax, ay)", f"k{j}y = fy(ax, ay)"])),
            *[f"    {g} = {coordinate(o, w, k)}"
              for (gx, gy), w in zip(grid, weights) for g, o, k in ((gx, "x0", kx), (gy, "y0", ky))],
            *indent(screen),
            "    if cand:",
            f"        yield ({dense_step},",
            "               [{}], vals)".format(", ".join(f"({a}, {b})" for a, b in points)),
            "    else:",
            *indent(canonical("g4x", "g4y", torus), 2),
            "        b = (g4x, g4y)",
            *indent(emission("1.0", torus), 2),
            "    k1x = k7x",
            "    k1y = k7y",
        ])

    def sliding(px, py, zx, zy):
        """The sliding field (zx, zy) at (px, py) and its Lie pair (l1, l2), with the arithmetic of
        ``sigma.lie_pair`` and ``filippov_combination``."""
        return [
            f"v1x = f1x({px}, {py})",
            f"v1y = f1y({px}, {py})",
            f"v2x = f2x({px}, {py})",
            f"v2y = f2y({px}, {py})",
            f"nx = gxf({px}, {py})",
            f"ny = gyf({px}, {py})",
            "l1 = nx * v1x + ny * v1y",
            "l2 = nx * v2x + ny * v2y",
            "den = l2 - l1",
            f"if abs(den) <= {TAU_CLASS!r}:",
            f"    raise sliding_undefined(curve_id, ({px}, {py}))",
            f"{zx} = (l2 * v1x - l1 * v2x) / den",
            f"{zy} = (l2 * v1y - l1 * v2y) / den",
        ]

    def chord(qx, qy, t_q, torus):
        """``emit_to`` the point (qx, qy) at t_q: the chord from the last sample, cut so spacing stays bounded."""
        return [
            "a = pts[-1]",
            f"bx = {qx}",
            f"by = {qy}",
            *canonical("bx", "by", torus),
            "dx = bx - a[0]",
            "dy = by - a[1]",
            *wrap("dx", "dy", torus),
            "n = ceil(hypot(dx, dy) / spacing)",
            "ta = times[-1]",
            "for j in range(1, n):",
            "    w = j / n",
            f"    times.append(ta + ({t_q} - ta) * w)",
            "    cx = a[0] + w * dx",
            "    cy = a[1] + w * dy",
            *indent(canonical("cx", "cy", torus)),
            "    pts.append((cx, cy))",
            f"times.append({t_q})",
            "pts.append((bx, by))",
        ]

    def chord_source(torus):
        """``emit_to``: the chord to the point (x, y) at t_q."""
        return ["def emit_to(x, y, t_q, times, pts, spacing, domain):"] + indent(
            (torus_geometry if torus else []) + chord("x", "y", "t_q", torus))

    # ``sliding_rhs``: (Z_s, L1, L2) at (x, y), the piece each restart of ``sliding_steps`` inlines
    sliding_rhs = ["def sliding_rhs(f1x, f1y, f2x, f2y, gxf, gyf, curve_id, x, y):"] + indent(
        sliding("x", "y", "zx", "zy") + ["return zx, zy, l1, l2"])

    def sliding_source(torus):
        """``sliding_steps``: the accepted steps of one sliding arc, each projected onto the curve.

        The arc starts on the curve at (x, y) at t = 0 with first stage
        (k1x, k1y), first trial step ``dt_next`` and the signs s1_0, s2_0 of its
        Lie pair, and ends at ``t_max``.  Each step is projected onto h = 0 by
        ``SwitchingCurve.project(end, 2)``'s two Newton steps, and the next step
        starts there with the stage and Lie pair evaluated there.  A step whose
        end leaves the rectangle returns ('left_domain', its ``_DenseStep``,
        None), and one whose end flips a Lie derivative or puts it in the
        ``TAU_CLASS`` band returns ('tangency', its ``_DenseStep``, the side of
        that derivative); any other step is emitted into ``times`` and ``pts``
        by ``emit_to``'s chord, and one at a pseudo-equilibrium returns
        ('pseudo_eq', None, None) after.
        The arc's end returns ('t_max', None, None).
        """
        project = []
        for _ in range(2):
            project += [
                "hv = h(x, y)",
                "nx = gxf(x, y)",
                "ny = gyf(x, y)",
                "g2 = nx * nx + ny * ny",
                f"if g2 < {GRAD_MIN * GRAD_MIN!r}:",
                "    raise degenerate_gradient(x, y)",
                "x -= hv * nx / g2",
                "y -= hv * ny / g2",
            ]
        flipped = f"l1 * s1_0 < 0 or abs(l1) <= {TAU_CLASS!r}"
        return [
            "def sliding_steps(f1x, f1y, f2x, f2y, gxf, gyf, curve_id, domain, h, rtol, atol,",
            "                  max_step, spacing, t_max, x, y, k1x, k1y, s1_0, s2_0, dt_next, times, pts):",
        ] + indent((torus_geometry if torus else bounds) + [
            "t = 0.0",
            "t_end = t_max - 1e-14",
            "limit = arc_step_limit(t_max, max_step)",
            "steps = 0",
            "while True:",
            "    if t >= t_end:",
            "        return 't_max', None, None",
            "    if steps >= limit:",
            "        raise creeping(steps, t, t_max)",
            "    steps += 1",
            *indent(accepted_step(lambda j: sliding("ax", "ay", f"k{j}x", f"k{j}y"))),
            *indent(project),
            # the restart stage goes to (zx, zy): (k1x, k1y) is the step's first stage until it is packed
            *indent(sliding("x", "y", "zx", "zy")),
            *(["    if not (x_min <= x <= x_max and y_min <= y <= y_max):",
               f"        return 'left_domain', {dense_step}, None"] if not torus else []),
            f"    if {flipped} or l2 * s2_0 < 0 or abs(l2) <= {TAU_CLASS!r}:",
            f"        return 'tangency', {dense_step}, 'positive' if ({flipped}) else 'negative'",
            *indent(chord("x", "y", "t", torus)),
            "    znorm = hypot(zx, zy)",
            f"    if znorm <= {PE_NORM_TOL!r} or znorm * dt_next < 1e-14:",
            "        return 'pseudo_eq', None, None",
            "    k1x = zx",
            "    k1y = zy",
        ])

    namespace = {
        "__builtins__": {}, "abs": abs, "max": max, "range": range, "round": round,
        "zip": zip, "ceil": math.ceil, "floor": math.floor, "hypot": math.hypot,
        "isfinite": math.isfinite, "sqrt": math.sqrt, "IntegrationError": IntegrationError,
        "_DenseStep": _DenseStep, "arc_step_limit": _arc_step_limit, "creeping": _creeping,
        "sliding_undefined": sliding_undefined, "degenerate_gradient": _degenerate_gradient,
    }

    def compiled(lines, name):
        env = dict(namespace)
        exec("\n".join(lines) + "\n", env)  # noqa: S102 - generated from the tableau
        return env[name]

    regular = {torus: compiled(regular_source(torus), "regular_steps") for torus in (False, True)}
    emits = {torus: compiled(emit_source(torus), "emit") for torus in (False, True)}
    slides = {torus: compiled(sliding_source(torus), "sliding_steps") for torus in (False, True)}
    chords = {torus: compiled(chord_source(torus), "emit_to") for torus in (False, True)}
    return compiled(at, "at"), regular, emits, slides, compiled(sliding_rhs, "sliding_rhs"), chords


class _DenseStep:
    """One accepted RK step with its quartic interpolant; ``at(theta)`` is the point at ``t0 + theta * dt``."""

    __slots__ = ("t0", "dt", "x0", "y0", "ks")

    def __init__(self, t0, dt, x0, y0, ks):
        self.t0 = t0
        self.dt = dt
        self.x0 = x0
        self.y0 = y0
        self.ks = ks


# ``_REGULAR_STEPS[torus]``, ``_EMIT[torus]``: see ``integrate_regular``; ``_SLIDING_STEPS[torus]``,
# ``_SLIDING_RHS``, ``_EMIT_TO[torus]``: see ``integrate_sliding``
_DenseStep.at, _REGULAR_STEPS, _EMIT, _SLIDING_STEPS, _SLIDING_RHS, _EMIT_TO = _kernels()


# --------------------------------------------------------------------------- #
# orbit data model
# --------------------------------------------------------------------------- #


@dataclass
class OrbitSegment:
    kind: str  # regular_arc | sliding_arc | crossing_event | escape_departure | terminal
    times: list
    points: list
    region_id: int | None = None
    curve_id: int | None = None
    detail: dict = field(default_factory=dict)

    @property
    def t_start(self):
        return self.times[0]

    @property
    def t_end(self):
        return self.times[-1]

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

    kind: str  # one of KINDS
    dwell: float = 0.0
    side: str = "positive"

    KINDS = ("exit_immediately_up", "exit_immediately_down", "slide_until_tangency", "dwell_then_exit")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigurationError(f"unknown branch policy kind {self.kind!r}, expected one of {self.KINDS}")
        if self.side not in ("positive", "negative"):
            raise ConfigurationError(f"branch policy side must be 'positive' or 'negative', got {self.side!r}")
        if not 0.0 <= self.dwell < math.inf:
            raise ConfigurationError(f"dwell must be a finite number >= 0, got {self.dwell!r}")

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

    fork_depth = 0  # an unscripted choice raises _Fork while the script is shorter

    def __init__(self, policy=None, script=None):
        self.default = policy if policy is not None else BranchPolicy.slide_on()
        self.script = list(script or [])
        self.index = 0

    def next_escape(self):
        return self._next("escape", self.default, lambda e: isinstance(e, BranchPolicy),
                          "a BranchPolicy")

    def next_ride(self):
        return self._next("ride", "pass", lambda e: e in ("ride", "pass"), "'ride' or 'pass'")

    def _next(self, kind, default, fits, expected):
        if self.index == len(self.script) < self.fork_depth:
            raise _Fork(kind)
        if self.index == len(self.script):
            return default
        entry = self.script[self.index]
        self.index += 1
        if not fits(entry):
            raise IntegrationError(f"policy script mismatch: expected {expected}")
        return entry

    def describe(self):
        parts = [e.describe() if isinstance(e, BranchPolicy) else e for e in self.script]
        return {"default": self.default.describe(), "script": parts}


class _Fork(Exception):
    """A cursor with a ``fork_depth`` met an unscripted choice; ``args[0]`` is 'escape' or 'ride'."""


_MAX_FORK_DEPTH = 8  # scripts this long continue on the default policy


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
    goal_entries: tuple = ()  # per goal disk, the time of its first entry or None

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

    def position_at(self, t, domain):
        """Wrap-aware linear interpolation of the stored trace at time t.

        Marker segments carry no interval and are skipped.
        """
        for seg in self.segments:
            times = seg.times
            if len(times) > 1 and times[0] - 1e-12 <= t <= times[-1] + 1e-12:
                return domain.along(times, seg.points, t)
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

@dataclass(eq=False)  # targets are told apart by identity
class CaptureTarget:
    point: tuple[float, float]
    curve_id: int


def integrate_regular(sys, p, region_id, t_max, opts=None, entry_curve=None, captures=()):
    """Integrate the region's smooth field until an event.

    The steps run in the generated loop ``_REGULAR_STEPS``; each step it hands
    back is searched here for its earliest event.  Returns (OrbitSegment, hit)
    with hit one of ('curve', id, point) | ('t_max', point) |
    ('left_domain', point) | ('capture', target, point).
    """
    opts = opts or IntegratorOptions()
    max_step, spacing = opts.resolved(sys.domain)
    domain = sys.domain
    p = domain.canonical(p)
    x, y = p
    torus = domain.kind == "flat_torus"
    fx, fy = sys.raw_pair(region_id)
    k1x, k1y = fx(x, y), fy(x, y)
    h_fns = [(c.id, c.h.raw()) for c in sys.curves]
    signs = []  # per curve: the sign of h where the curve armed, 0.0 while it is unarmed
    for cid, h in h_fns:
        v = h(x, y)
        armed = abs(v) >= ESCAPE_BAND and cid != entry_curve
        signs.append((1.0 if v > 0 else -1.0) if armed else 0.0)
    times = [0.0]
    pts = [p]
    emit = _EMIT[torus]
    steps = _REGULAR_STEPS[torus](
        fx, fy, [h for _, h in h_fns], signs, [c.point for c in captures], domain,
        opts.rtol, opts.atol, max_step, spacing, t_max, x, y, k1x, k1y, min(max_step, 1e-3),
        times, pts,
    )
    for step, grid_pts, vals in steps:  # the steps whose grid may hold an event
        best = None  # (theta, kind, payload)
        for k, (cid, h) in enumerate(h_fns):
            hv = vals[k]
            arm_index = 0
            if not signs[k]:
                arm_index = next((i for i, v in enumerate(hv) if abs(v) >= ESCAPE_BAND), None)
                if arm_index is None:
                    continue
                signs[k] = 1.0 if hv[arm_index] > 0 else -1.0
            s0 = signs[k]
            for i in range(arm_index, len(hv) - 1):
                va = hv[i] if hv[i] != 0 else s0 * 1e-300
                vb = hv[i + 1]
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
            for th, q in zip(_THETA_GRID, grid_pts):
                if not domain.contains(q):
                    th_exit = _exit_theta(domain, step.at, th if th > 0 else 1.0)
                    if best is None or th_exit < best[0]:
                        best = (th_exit, "left_domain", None)
                    break

        for target in captures:
            hit_th = _capture_theta(domain, step, grid_pts, target)
            if hit_th is not None and (best is None or hit_th < best[0]):
                best = (hit_th, "capture", target)

        if best is None:
            emit(step, 1.0, domain.canonical(grid_pts[-1]), times, pts, spacing, domain)
            continue

        th, kind, payload = best
        if kind == "curve":
            point = onto_curve(sys, payload, step.at(th))
        else:
            point = domain.canonical(step.at(th))
        emit(step, th, point, times, pts, spacing, domain)
        seg = OrbitSegment("regular_arc", times, pts, region_id=region_id)
        return seg, ((kind, point) if kind == "left_domain" else (kind, payload, point))
    return OrbitSegment("regular_arc", times, pts, region_id=region_id), ("t_max", pts[-1])


def _exit_theta(domain, point_at, hi):
    """The last theta in [0, hi] that bisection finds with point_at(theta) in the rectangle."""
    inside = lambda th: 1.0 if domain.contains(point_at(th)) else -1.0
    return bracket(inside, 0.0, hi, 1.0)[0]


def _capture_theta(domain, step, grid_pts, target):
    distance = domain.distance
    dists = [distance(q, target.point) for q in grid_pts]
    best_i = min(range(len(dists)), key=lambda i: dists[i])
    # coarse gate: the dense grid spacing bounds how far the true minimum
    # can hide between grid points
    spacing = distance(grid_pts[0], grid_pts[-1]) / max(1, len(grid_pts) - 1)
    if dists[best_i] > max(CAPTURE_RADIUS * 4.0, spacing, 1e-3):
        return None
    lo = _THETA_GRID[max(0, best_i - 1)]
    hi = _THETA_GRID[min(len(_THETA_GRID) - 1, best_i + 1)]
    for _ in range(70):  # golden-section on the (locally convex) distance
        m1 = lo + 0.381966 * (hi - lo)
        m2 = hi - 0.381966 * (hi - lo)
        if distance(step.at(m1), target.point) <= distance(step.at(m2), target.point):
            hi = m2
        else:
            lo = m1
    th = 0.5 * (lo + hi)
    if distance(step.at(th), target.point) <= CAPTURE_RADIUS:
        return th
    return None


# --------------------------------------------------------------------------- #
# sliding arcs
# --------------------------------------------------------------------------- #


def integrate_sliding(sys, curve_id, p, t_max, opts=None, allow_escaping=False):
    """Slide along the Filippov field constrained to the curve.

    The steps run in the generated loop ``_SLIDING_STEPS``, the first stage in
    ``_SLIDING_RHS`` on the same arguments; the step the loop hands back at an
    exit is searched here for the exit point, which ``_EMIT_TO`` emits.
    Returns (OrbitSegment, exit) with exit one of
    ('tangency', point, side) | ('pseudo_eq', point) | ('t_max', point) |
    ('left_domain', point).
    """
    opts = opts or IntegratorOptions()
    max_step, spacing = opts.resolved(sys.domain)
    domain = sys.domain
    curve = sys.curve(curve_id)
    p = onto_curve(sys, curve_id, domain.canonical(p))

    cls = classify_point(sys, curve_id, p)
    if cls.point_class is PointClass.TANGENCY_REGULAR:
        # arc boundary: step along the sliding flow into the arc proper
        p = nudge_into_arc(sys, curve_id, p)
        cls = classify_point(sys, curve_id, p)
    if cls.point_class not in (
        PointClass.SLIDING, PointClass.ESCAPING, PointClass.PSEUDO_EQUILIBRIUM,
    ):
        raise UndefinedSlidingError(f"cannot slide from a {cls.point_class.value} point")
    if cls.point_class is PointClass.ESCAPING and not allow_escaping:
        raise UndefinedSlidingError("escaping point reached integrate_sliding without policy")

    torus = domain.kind == "flat_torus"
    args = (*sys.raw_pair(curve.positive_region), *sys.raw_pair(curve.negative_region),
            curve.grad[0].raw(), curve.grad[1].raw(), curve_id)
    rhs = lambda x, y: _SLIDING_RHS(*args, x, y)
    x, y = p
    zx, zy, l1_0, l2_0 = rhs(x, y)  # the first stage and the Lie pair at p
    s1_0 = 1.0 if l1_0 > 0 else -1.0
    s2_0 = 1.0 if l2_0 > 0 else -1.0
    times = [0.0]
    pts = [p]
    kind, step, flipped = _SLIDING_STEPS[torus](
        *args, domain, curve.h.raw(), opts.rtol, opts.atol, max_step, spacing, t_max,
        x, y, zx, zy, s1_0, s2_0, min(max_step, 1e-3), times, pts,
    )
    emit_to = _EMIT_TO[torus]
    if kind == "left_domain":
        on_curve = lambda th: curve.project(step.at(th), 2)
        th = _exit_theta(domain, on_curve, 1.0)
        emit_to(*on_curve(th), step.t0 + th * step.dt, times, pts, spacing, domain)
    elif kind == "tangency":
        th, point = _locate_slide_tangency(step, curve, rhs, flipped, s1_0, s2_0)
        emit_to(*point, step.t0 + th * step.dt, times, pts, spacing, domain)
    seg = OrbitSegment("sliding_arc", times, pts, curve_id=curve_id)
    return seg, ((kind, pts[-1], flipped) if kind == "tangency" else (kind, pts[-1]))


def _locate_slide_tangency(step, curve, rhs, flipped, s1_0, s2_0):
    idx = 2 if flipped == "positive" else 3  # L1 or L2 in the sliding kernel's output
    ref = s1_0 if flipped == "positive" else s2_0

    def value(th):
        try:
            return rhs(*curve.project(step.at(th), 2))[idx] * ref
        except UndefinedSlidingError:  # |L2 - L1| <= TAU_CLASS: a two-fold, taken as the root
            return 0.0

    lo, hi = bracket(value, 0.0, 1.0, value(0.0), tol=1e-12, width=1e-16)
    th = 0.5 * (lo + hi)
    return th, curve.project(step.at(th), 2)


# --------------------------------------------------------------------------- #
# the orbit driver
# --------------------------------------------------------------------------- #


def first_entry(domain, segments, disk):
    """Time of the first stored sample of ``segments`` in the closed disk, else None.

    ``disk`` has a ``center`` and a ``radius``; a sample on the rim is inside.
    """
    distance, center, radius = domain.distance, disk.center, disk.radius
    for seg in segments:
        for t, p in zip(seg.times, seg.points):
            if distance(p, center) <= radius:
                return t
    return None


class _Run:
    """The state of one orbit between two driver steps.

    ``mode`` is the next step with its arguments, None at the end: ``_region``
    flies a regular arc, ``_sigma`` classifies a point of Σ and applies its
    continuation (one step per Σ event), ``_capture`` offers a ride at a graze
    target and ``_escape`` applies the branch policy after a ride.  Each step
    counts against ``MAX_SEGMENTS`` and consults the cursor at most once, before
    it changes anything, so one interrupted by ``_Fork`` can re-run on a ``fork``.
    ``entries`` holds, per disk of ``goal``, the time of its first entry or
    None while it is pending (see ``enumerate_branches``).
    """

    def __init__(self, sys, p0, horizon, direction, cursor, opts, ride_targets, goal=()):
        if not 0 < horizon < math.inf:
            raise IntegrationError(f"horizon must be positive and finite, got {horizon!r}")
        self.sys = sys if direction == "forward" else sys.reversed()
        self.direction, self.horizon, self.cursor = direction, horizon, cursor
        self.opts = opts or IntegratorOptions()
        self.p0 = self.p = self.sys.domain.canonical(p0)
        self.t = 0.0
        # replaced, never changed in place, so forks may share it
        self.captures = [CaptureTarget(tp.position, cid) for tp, cid in ride_targets]
        where = self.sys.region_of(self.p)
        self.mode = ("sigma", where.curve_id) if isinstance(where, OnSigma) else ("region", where, None)
        self.segments, self.choices = [], []
        self.terminal, self.steps = None, 0
        self.goal = tuple(goal)
        self.entries = (None,) * len(self.goal)  # replaced, never changed in place, so forks may share it

    def fork(self, entry):
        """A copy of this state whose cursor scripts the pending choice as ``entry``."""
        child = copy.copy(self)
        child.segments, child.choices = list(self.segments), list(self.choices)
        child.cursor = copy.copy(self.cursor)
        child.cursor.script = self.cursor.script + [entry]
        return child

    def run(self):
        while self.mode is not None and self.t < self.horizon - 1e-12:
            if self.steps >= MAX_SEGMENTS:
                self.terminal = "segment_budget"
                break
            done = len(self.segments)
            getattr(self, "_" + self.mode[0])(*self.mode[1:])
            self.steps += 1
            if None in self.entries:
                self._meet_goal(self.segments[done:])
        return Orbit(
            self.p0, self.direction, self.horizon, self.segments, self.choices, self.terminal,
            policy=self.cursor.describe(), script=list(self.cursor.script),
            goal_entries=self.entries,
        )

    def _meet_goal(self, segments):
        """Record the pending goal disks' first entries in ``segments``; end the run when all are met."""
        domain = self.sys.domain
        self.entries = tuple(first_entry(domain, segments, disk) if t is None else t
                             for t, disk in zip(self.entries, self.goal))
        if None not in self.entries:
            self.mode = None
            self.terminal = self.terminal or "goal_reached"

    def _add_marker(self, kind, detail):
        self.segments.append(OrbitSegment(kind, [self.t], [self.p], detail=detail))

    def _add_segment(self, seg):
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
            c for c in self.captures if domain.distance(self.p, c.point) > 4.0 * CAPTURE_RADIUS
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
        near = next((c for c in self.captures if distance(self.p, c.point) <= CAPTURE_RADIUS), None)
        if near is not None:
            self.mode = ("capture", near, ("sigma", curve_id))
            return
        cls = classify_point(self.sys, curve_id, self.p)
        kind = cls.point_class
        if kind is PointClass.PSEUDO_EQUILIBRIUM and cls.lie_positive < 0:  # sliding flow at rest
            self._stop("pseudo_equilibrium")
        elif kind is PointClass.CROSSING:
            side = "positive" if cls.lie_positive > 0 else "negative"
            self._enter(curve_id, side, "crossing_event")
        elif kind is PointClass.SLIDING:
            self._slide(curve_id)
        elif kind in (PointClass.ESCAPING, PointClass.PSEUDO_EQUILIBRIUM):
            self._escape(curve_id)
        elif kind is PointClass.TANGENCY_DOUBLE:
            self.choices.append(BranchChoice(self.t, self.p, "double_tangency_stop"))
            self._stop("double_tangency")
        else:
            self._tangency(curve_id, cls)

    def _tangency(self, curve_id, cls):
        """Continue from a regular tangency.

        Preference order: the non-tangent field if it departs linearly; else the
        tangent field if its fold is visible (quadratic departure); else the
        point bounds a sliding arc and the orbit continues along the manifold.
        """
        tangent = cls.tangent_side
        if tangent == "positive":
            other, departs, s = "negative", -cls.lie_negative, 1.0
        else:
            other, departs, s = "positive", cls.lie_positive, -1.0
        if departs > TAU_CLASS:
            self._enter(curve_id, other)
            return
        second = s * second_lie_value(self.sys, curve_id, tangent, self.p)
        if second > TAU_CLASS:
            self._enter(curve_id, tangent)
        elif abs(second) <= TAU_CLASS:
            self._stop("degenerate_tangency")
        else:
            self._slide(curve_id)

    def _capture(self, target, on_pass):
        # the policy may route the orbit onto the escaping arc that starts at the target
        decision = self.cursor.next_ride()
        self.captures = [c for c in self.captures if c is not target]
        self.mode = on_pass
        if decision == "ride":
            cid = target.curve_id
            q = nudge_into_arc(self.sys, cid, onto_curve(self.sys, cid, self.p))
            entered = classify_point(self.sys, cid, q).point_class
            if entered in (PointClass.ESCAPING, PointClass.PSEUDO_EQUILIBRIUM):
                self.p = q
                self.choices.append(BranchChoice(self.t, q, "enter_escaping"))
                self.mode = ("escape", cid)

    def _escape(self, curve_id):
        """Resolve the escaping-region freedom by the cursor's next policy."""
        policy = self.cursor.next_escape()
        if policy.kind in ("exit_immediately_up", "exit_immediately_down"):
            side = "positive" if policy.kind == "exit_immediately_up" else "negative"
            self.choices.append(BranchChoice(self.t, self.p, "escape_exit", side=side, dwell=0.0))
            self._enter(curve_id, side, "escape_departure")
        elif policy.kind == "dwell_then_exit":
            side, dwell = policy.side, policy.dwell
            self.choices.append(BranchChoice(self.t, self.p, "escape_exit", side, dwell))
            self._slide(curve_id, escaping=True, dwell=dwell, exit_side=side)
        else:
            self.choices.append(BranchChoice(self.t, self.p, "escape_exit"))
            self._slide(curve_id, escaping=True)

    def _enter(self, curve_id, side, marker=None):
        """Leave the curve into the region on ``side``, after a marker segment if one is named."""
        if marker == "crossing_event":
            self._add_marker(marker, {"curve": curve_id})
        elif marker == "escape_departure":
            self._add_marker(marker, {"side": side, "curve": curve_id})
        curve = self.sys.curve(curve_id)
        region = curve.positive_region if side == "positive" else curve.negative_region
        self.mode = ("region", region, curve_id)

    def _slide(self, curve_id, escaping=False, dwell=None, exit_side=None):
        """Slide along the curve; after a ``dwell`` the orbit leaves to ``exit_side``."""
        remaining = self.horizon - self.t
        seg, exit_info = integrate_sliding(
            self.sys, curve_id, self.p, remaining if dwell is None else min(dwell, remaining),
            self.opts, allow_escaping=escaping,
        )
        seg.detail["escaping"] = escaping
        self._add_segment(seg)
        if exit_info[0] == "t_max":
            self.mode = None
            if dwell is not None and self.t < self.horizon - 1e-12:
                self._enter(curve_id, exit_side or "positive", "escape_departure")
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
    ride_targets=(),
):
    """Produce one Filippov orbit under a deterministic branch policy.

    ``ride_targets`` is a sequence of (TangencyPoint, curve_id) pairs; when a
    regular arc passes within the capture radius of one of them, the policy
    cursor decides 'pass' (keep flying) or 'ride' (enter the manifold there,
    which is how an orbit enters an escaping region through its tangency).
    """
    cursor = policy if isinstance(policy, PolicyCursor) else PolicyCursor(policy)
    return _Run(sys, p0, horizon, direction, cursor, opts, ride_targets).run()


@evaluation_boundary
def enumerate_branches(
    sys,
    p0,
    horizon,
    budget: int,
    dwell_grid=(0.0,),
    opts=None,
    ride_targets=(),
    goal=(),
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

    ``goal`` is a sequence of disks (each with a ``center`` and a ``radius``).
    Each orbit's ``goal_entries`` holds, per disk, the ``first_entry`` time of
    its stored samples, or None where it has none.  With a goal, an orbit ends
    "goal_reached" after the driver step in which it has had a sample in every
    disk (a terminal the step set stays); it then equals the first segments of
    that fresh run, and forks no further.
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
    cursor = PolicyCursor(BranchPolicy.slide_on())
    cursor.fork_depth = _MAX_FORK_DEPTH  # forks copy the cursor, and with it the depth
    queue = deque([_Run(sys, p0, horizon, "forward", cursor, opts, ride_targets, goal)])
    orbits = []
    while queue and len(orbits) < budget:
        run = queue.popleft()
        try:
            orbits.append(run.run())
        except _Fork as fork:
            options = escape_options if fork.args[0] == "escape" else ("pass", "ride")
            queue.extend(run.fork(option) for option in options)
    return orbits
