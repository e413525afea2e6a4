"""Event-driven integration of Filippov orbits.

Regular and sliding arcs step with one hand-rolled Dormand-Prince 5(4) pair
with the classical quartic dense output.  Its step control, dense output and
the regular-arc and sliding-arc loops are straight-line code that
``_kernels`` writes from the tableau ``_A``, ``_E``, ``_P``; they return the
bits of the tableau loops, which ``tests/test_dormand_prince.py`` keeps as
the reference.  The arc loops are written once per field text: a stage
writes each field component as the text of its compiled expression at the
stage point (``ScalarField.text``, the body of the lambda ``raw()`` hands
out), so it does the lambda's operations without a call.  A system's loops
are written on their first use and compiled through a cache keyed by source
text (``_loop``), so equal texts share one loop and a command that
integrates nothing compiles none; only ``_DenseStep.at``, the emitters and
``sliding_rhs`` are compiled at import.

The regular-arc loop runs whole accepted steps with its state in locals: the
seven stages of the region's field, error control, the five-point event grid
with every curve's h on it, and the samples.  The loop hands a step back to
``integrate_regular`` only when its grid may hold an event: a sign change of
an armed curve, an unarmed curve leaving ``ESCAPE_BAND``, a grid point outside
the rectangle or a capture target inside the coarse gate.  It may hand back
more steps than have events, never fewer; ``tests/test_regular_loop.py``
checks it bit for bit against the step loop it replaced.  Most steps hold
no event, so the loop does a step's arithmetic as cheaply as it can with the
same bits (see ``_kernels``): an armed curve whose five grid values all have
its strict sign is passed after five comparisons, and on the torus a grid
coordinate inside the step that no curve's h reads is computed only for a
step that is handed back or tested against capture targets.  Events (sign
changes of any h_i, domain exit, graze captures) are located on the dense
output and polished onto the curve with Newton steps.

Sliding arcs integrate the Filippov convex combination Z_s = (L2 Y1 - L1 Y2) /
(L2 - L1), constrained to the curve, in the generated sliding-arc loop.  Its
state is in locals too: each stage writes the side fields' components and the
curve's grad h and forms the Lie pair and Z_s inline; each accepted step is
projected onto the curve by two Newton steps on h, and the next step restarts
there.  The loop runs the exit tests at each restart (the rectangle, a Lie
derivative that flips sign or enters the ``TAU_CLASS`` band, a
pseudo-equilibrium) and emits every other step; it returns only at ``t_max``
or with the step that ends at an exit, which ``integrate_sliding`` locates.
``sliding_rhs``, compiled from the same piece on called components, gives an
arc's first stage and its tangency search's Lie pairs.
``tests/test_sliding_loop.py`` checks the arcs bit for bit, errors included,
against the stepper loop they replaced.

Every field component comes from the system: a loop's stages from the text
``FilippovSystem.stage`` writes, an arc's first stage from
``FilippovSystem.raw_pair``; both apply the system's velocity scale, if it
has one, and nothing here knows of the scale.  Every generated loop and
emitter wraps torus points with the arithmetic of ``Domain.canonical``,
inline.  Curve crossings (a guarded bisection/secant hybrid), domain exits
and the tangencies and domain exits of sliding arcs are all located by the
one bracket kernel ``sigma.bracket``.  An arc that takes ``MAX_ARC_STEPS``
accepted steps more than it needs at ``max_step`` fails with
``IntegrationError``: its steps have shrunk to nothing, as past a
finite-time blow-up.  The arcs of one orbit share ``MAX_ORBIT_STEPS``
accepted steps, whatever its horizon; an orbit past them fails with an
``IntegrationError`` that names ``--horizon`` and ``integrator.max_step``.
They share ``MAX_ORBIT_SAMPLES`` stored samples too, tested where a chord is
cut; an orbit past them fails with one that names
``integrator.sample_spacing`` and ``--horizon``.

One orbit is computed sequentially; distinct orbits may be computed
concurrently against the shared system.
"""

from __future__ import annotations

import copy
import functools
import math
import weakref
from collections import deque
from dataclasses import dataclass, field

from .errors import (
    ConfigurationError, IntegrationError, UndefinedSlidingError, evaluation_boundary,
)
from .expr import FUNCTIONS, LoopText
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
MAX_ORBIT_STEPS = 1_000_000  # accepted steps of all arcs of one orbit, whatever its horizon
MAX_ORBIT_SAMPLES = 2_000_000  # samples stored by all arcs of one orbit, whatever its horizon and spacing
MAX_SEGMENTS = 200_000  # driver steps of one orbit; an orbit that reaches it ends "segment_budget"
LOOP_CACHE_SIZE = 64  # compiled arc loops kept, by source text


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


def _step_limit(steps, t, t_max, max_step):
    """The error of an arc that took ``steps`` accepted steps, the lesser of its own limit and the
    orbit's remaining budget: the orbit's, if its arcs have spent ``MAX_ORBIT_STEPS``."""
    if steps < _arc_step_limit(t_max, max_step):
        return IntegrationError(
            f"orbit took {MAX_ORBIT_STEPS} accepted steps, its bound: use a shorter --horizon "
            "or a larger integrator.max_step")
    return IntegrationError(f"arc took {steps} accepted steps and reached only t = {t!r} of {t_max!r}")


def _sample_limit():
    """The error of an orbit whose arcs would store more than ``MAX_ORBIT_SAMPLES`` samples."""
    return IntegrationError(
        f"orbit stores more than {MAX_ORBIT_SAMPLES} samples, its bound: use a larger "
        "integrator.sample_spacing or a shorter --horizon")


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
    """``_DenseStep.at``, the emitters, ``sliding_rhs`` and the writers of the arc loops, in straight lines.

    The source is written out from ``_A``, ``_E`` and ``_P`` and compiled in a
    closed namespace, as ``expr.compile_expression`` compiles fields.  Each sum
    keeps the operation order of the tableau loop it unrolls: ``x + dt * a * k``
    associates left, as ``x + (dt * a) * k``, so a stage forms each product
    ``dt * a`` once for both coordinates; the error and dense-output sums start
    at ``0.0 +``.  So the kernels return the loops' bits.  A zero coefficient
    stays in ``at``, ``emit``, ``emit_to`` and ``sliding_rhs``, which may meet
    a stage that is not finite (0.0 * inf is nan), and in stage 7, where
    ``dt * 0.0 * k2`` turns a non-finite k2 into a rejected trial.  The arc
    loops drop the other zero terms, from the error sums, the event grid and
    the inline emission: a sum that starts at ``0.0 +`` is never -0.0, and a
    term 0.0 * k with k finite adds nothing to it (see ``nonzero``).  The step
    control spells ``abs`` and ``isfinite`` with comparisons, and is one
    piece, ``accepted_step``, that both loops inline; the event screen of
    ``regular_source`` passes an armed curve whose grid values all have its
    strict sign on comparisons alone, and on the torus leaves the grid
    coordinates that no h reads to the steps it hands back or tests for
    capture.  The
    torus wrap is one piece, ``canonical``, that does ``Domain.canonical``'s
    arithmetic wherever a loop or emitter wraps a point.  ``at``, ``emit``,
    ``emit_to`` and ``sliding_rhs`` are compiled here, once; every function
    but ``at`` and ``sliding_rhs``, which know no domain, comes in a plane and
    a torus form.  The arc loops are not compiled here: ``regular_source``
    and ``sliding_source`` write the text of one loop for the field texts
    they are given (see ``expr.LoopText``), which ``compiled`` compiles on first
    use (``_loop``).  Their stage pieces, the stages of ``accepted_step``,
    the event screen, ``sliding`` and the two-step projection, write each
    field component as that text at the stage point, so a stage calls no
    field; ``sliding_rhs`` wraps the same ``sliding`` piece on called
    components, as ``emit_to`` wraps ``chord``.
    """
    ks = ", ".join(f"k{j}" for j in range(1, 8))
    kx = [f"k{j}x" for j in range(1, 8)]
    ky = [f"k{j}y" for j in range(1, 8)]
    unpack = [f"{k} = k{j}[{i}]" for j, pair in enumerate(zip(kx, ky), 1) for i, k in enumerate(pair)]
    qs = [f"q{j}" for j in range(1, 8)]

    def dot(coefficients, components):
        return "".join(f" + {c} * {k}" for c, k in zip(coefficients, components))

    def nonzero(coefficients, components):
        """The terms of a sum whose coefficient is not zero, as (coefficient texts, components).

        A sum that starts at ``0.0 +`` is never -0.0, so a term 0.0 * k adds
        nothing to it while k is finite.  The loops drop such terms from the
        error sums, whose stage 7 has already rejected a non-finite k2 through
        ``dt * 0.0 * k2``, and from the event grid and the inline emission,
        which see only accepted steps, whose stages are all finite.
        """
        terms = [(repr(c), k) for c, k in zip(coefficients, components) if c != 0.0]
        return [c for c, _ in terms], [k for _, k in terms]

    def horner(theta, p):
        return f"{theta} * ({p[0]!r} + {theta} * ({p[1]!r} + {theta} * ({p[2]!r} + {theta} * {p[3]!r})))"

    def coordinate(origin, weights, k):
        return f"{origin} + dt * (0.0{dot(k, weights)})"

    def point(weights, kx, ky):
        return f"({coordinate('x0', weights, kx)}, {coordinate('y0', weights, ky)})"

    def indent(lines, depth=1):
        return ["    " * depth + line for line in lines]

    def stages(rhs):
        """Stages 2 to 7 from x, y, k1 and dt; ``rhs(j)`` evaluates k_j at (ax, ay).

        Stage i forms each product ``dt * a_ij`` once, as ``c{i}{j}``, for both
        coordinates: ``x + dt * a * k`` parses as ``x + (dt * a) * k``.
        """
        lines = []
        for i in range(1, 7):
            cs = [f"c{i + 1}{j}" for j in range(1, i + 1)]
            lines += [f"{c} = dt * {a!r}" for c, a in zip(cs, _A[i])]
            lines += [f"ax = x{dot(cs, kx)}", f"ay = y{dot(cs, ky)}"] + rhs(i + 1)
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
                "if ax - ax != 0.0 or ay - ay != 0.0:",  # not (isfinite(ax) and isfinite(ay))
                "    dt *= 0.25",
                "    continue",
                # max(abs(u), abs(v)) is abs(u) unless abs(v) > abs(u): the builtins' choices, spelt
                # inline; a zero's sign is lost in atol + rtol * 0.0, or division by it raises either way
                "ux = -x if x < 0.0 else x",
                "vx = -ax if ax < 0.0 else ax",
                "uy = -y if y < 0.0 else y",
                "vy = -ay if ay < 0.0 else ay",
                "sx = atol + rtol * (vx if vx > ux else ux)",
                "sy = atol + rtol * (vy if vy > uy else uy)",
                f"ex = (0.0{dot(*nonzero(_E, kx))}) * dt",
                f"ey = (0.0{dot(*nonzero(_E, ky))}) * dt",
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
    weights = [[eval(horner(repr(th), p), {"__builtins__": {}}) for p in _P]  # noqa: S307
               for th in _THETA_GRID[1:]]
    grid = [(f"g{i}x", f"g{i}y") for i in range(1, 5)]
    points = [("x0", "y0")] + grid
    dense_rows = [j for j, p in enumerate(_P) if any(p)]  # the stages the dense output weighs

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

    def emission(t1, bx, by, end, torus, rows):
        """Samples after the last one up to ``end``, the point (bx, by) at ``t1``: the chord is cut so
        spacing stays bounded.  A cut's point is the dense output over the stages ``rows``; a cut
        that would leave more than ``room`` samples in ``times`` raises ``sample_limit``'s error."""
        cut = [coordinate(o, [qs[j] for j in rows], [k[j] for j in rows]) for o, k in (("x0", kx), ("y0", ky))]
        if torus:
            sample = [f"        cx = {cut[0]}", f"        cy = {cut[1]}",
                      *indent(canonical("cx", "cy", torus), 2), "        pts.append((cx, cy))"]
        else:
            sample = [f"        pts.append(({cut[0]}, {cut[1]}))"]
        return [
            "lx, ly = pts[-1]",
            f"dx = {bx} - lx",
            f"dy = {by} - ly",
            *wrap("dx", "dy", torus),
            "n = ceil(hypot(dx, dy) / spacing)",  # the chord's pieces: no cut below two
            "if n > 1:",
            "    if len(times) + n > room:",
            "        raise sample_limit()",
            "    ta = times[-1]",
            "    for j in range(1, n):",
            f"        tj = ta + ({t1} - ta) * j / n",
            "        th = (tj - t0) / dt",
            "        if th <= 0:",
            "            continue",
            "        times.append(tj)",
            *[f"        {qs[j]} = {horner('th', _P[j])}" for j in rows],
            *sample,
            f"times.append({t1})",
            f"pts.append({end})",
        ]

    def emit_source(torus):
        """``emit``: the samples of ``step`` up to ``b``, its point at ``th_end``."""
        return ["def emit(step, th_end, b, times, pts, spacing, room, domain):"] + indent(
            ["t0 = step.t0"] + head("step") + unpack + (torus_geometry if torus else [])
            + ["t1 = t0 + th_end * dt"] + emission("t1", "b[0]", "b[1]", "b", torus, range(len(_P))))

    def regular_source(torus, stage, hs):
        """``regular_steps``: a generator over the accepted steps of one regular arc.

        ``stage(px, py, vx, vy)`` gives the lines that set vx, vy to the field
        at (px, py), and ``hs`` holds, per curve, its h's text at (px, py).
        The arc starts at (x, y) at t = 0 with first stage (k1x, k1y) and first
        trial step ``dt_next``, and ends at ``t_max``; past ``limit`` accepted
        steps it raises ``step_limit``'s error, and past ``room`` samples
        ``emission``'s.  A step whose grid cannot
        hold an event is emitted into ``times`` and ``pts``; any other step is
        yielded as (``_DenseStep``, its five grid points, each curve's five h
        values on them), and the caller emits it.  ``taken[0]`` is set to the
        accepted steps whenever the loop yields or returns.  ``signs[i]`` is
        the sign of curve i's h where that curve armed, 0.0 while it is
        unarmed; the caller arms curves.  ``targets`` holds the points of the
        capture targets, and ``bound`` the values the field texts name.

        An armed curve whose five values all have its strict sign holds no
        sign change, and the screen reads no more of it.  On the torus, a grid
        coordinate inside the step that no h text names is computed only for
        a step the loop yields or a capture test.
        """
        texts = [[h(px, py) for px, py in points] for h in hs]
        lazy = [g for pair in grid[:-1] for g in pair if torus and not any(g in text for row in texts for text in row)]
        coordinates = [(g, coordinate(o, *nonzero(w, k)))
                       for (gx, gy), w in zip(grid, weights) for g, o, k in ((gx, "x0", kx), (gy, "y0", ky))]
        screen = ["cand = False"]
        values = []
        for i, row in enumerate(texts):
            vs = [f"v{i}_{j}" for j in range(len(points))]
            values.append("({})".format(", ".join(vs)))
            screen += [f"{v} = {text}" for v, text in zip(vs, row)] + [f"s0 = signs[{i}]"]
            for branch, strict, tiny in (("if", ">", "1e-300"), ("elif", "<", "-1e-300")):  # s0 = 1.0, -1.0
                screen += [f"{branch} s0 {strict} 0.0:", "    if not ({}) and ({}):".format(
                    " and ".join(f"{v} {strict} 0.0" for v in vs),
                    " or ".join(f"({a} if {a} != 0 else {tiny}) * {b} < 0" for a, b in zip(vs, vs[1:]))),
                    "        cand = True"]
            screen += ["elif {}:".format(" or ".join(f"abs({v}) >= {ESCAPE_BAND!r}" for v in vs)), "    cand = True"]
        if not torus:
            screen += [
                "if not ({}):".format(" and ".join(
                    f"x_min <= {px} <= x_max and y_min <= {py} <= y_max" for px, py in points)),
                "    cand = True",
            ]
        capture = [
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
        late = [f"{g} = {text}" for g, text in coordinates if g in lazy]
        screen += ["if targets or cand:", *indent(late + capture)] if late else capture
        return source([
            "def regular_steps(bound, signs, targets, domain, rtol, atol, max_step,",
            "                  spacing, t_max, limit, room, x, y, k1x, k1y, dt_next, times, pts, taken):",
        ] + indent((torus_geometry if torus else bounds) + [
            "t = 0.0",
            "t_end = t_max - 1e-14",
            "steps = 0",
            "while True:",
            "    if t >= t_end:",
            "        taken[0] = steps",
            "        return",
            "    if steps >= limit:",
            "        raise step_limit(steps, t, t_max, max_step)",
            "    steps += 1",
            *indent(accepted_step(lambda j: stage("ax", "ay", f"k{j}x", f"k{j}y"))),
            *[f"    {g} = {text}" for g, text in coordinates if g not in lazy],
            *indent(screen),
            "    if cand:",
            "        taken[0] = steps",
            f"        yield ({dense_step},",
            "               [{}], [{}])".format(", ".join(f"({a}, {b})" for a, b in points), ", ".join(values)),
            "    else:",
            *indent(canonical("g4x", "g4y", torus), 2),
            *indent(emission("t", "g4x", "g4y", "(g4x, g4y)", torus, dense_rows), 2),
            "    k1x = k7x",
            "    k1y = k7y",
        ]))

    def sliding(px, py, zx, zy, sides, gradient):
        """The sliding field (zx, zy) at (px, py) and its Lie pair (l1, l2), with the arithmetic of
        ``sigma.lie_pair`` and ``filippov_combination``.

        ``sides(px, py)`` gives the lines that set v1x, v1y and v2x, v2y to
        the side fields at the point, and ``gradient(px, py)`` the texts of
        grad h there.
        """
        nx, ny = gradient(px, py)
        return [
            *sides(px, py),
            f"nx = {nx}",
            f"ny = {ny}",
            "l1 = nx * v1x + ny * v1y",
            "l2 = nx * v2x + ny * v2y",
            "den = l2 - l1",
            f"if abs(den) <= {TAU_CLASS!r}:",
            f"    raise sliding_undefined(curve_id, ({px}, {py}))",
            f"{zx} = (l2 * v1x - l1 * v2x) / den",
            f"{zy} = (l2 * v1y - l1 * v2y) / den",
        ]

    def chord(qx, qy, t_q, torus):
        """``emit_to`` the point (qx, qy) at t_q: the chord from the last sample, cut so spacing stays bounded,
        within ``room`` samples as in ``emission``."""
        return [
            "a = pts[-1]",
            f"bx = {qx}",
            f"by = {qy}",
            *canonical("bx", "by", torus),
            "dx = bx - a[0]",
            "dy = by - a[1]",
            *wrap("dx", "dy", torus),
            "n = ceil(hypot(dx, dy) / spacing)",
            "if n > 1:",
            "    if len(times) + n > room:",
            "        raise sample_limit()",
            "    ta = times[-1]",
            "    for j in range(1, n):",
            "        w = j / n",
            f"        times.append(ta + ({t_q} - ta) * w)",
            "        cx = a[0] + w * dx",
            "        cy = a[1] + w * dy",
            *indent(canonical("cx", "cy", torus), 2),
            "        pts.append((cx, cy))",
            f"times.append({t_q})",
            "pts.append((bx, by))",
        ]

    def chord_source(torus):
        """``emit_to``: the chord to the point (x, y) at t_q."""
        return ["def emit_to(x, y, t_q, times, pts, spacing, room, domain):"] + indent(
            (torus_geometry if torus else []) + chord("x", "y", "t_q", torus))

    # ``sliding_rhs``: (Z_s, L1, L2) at (x, y) from called components, the piece each sliding-arc stage inlines
    calls = lambda px, py: [f"{v} = {f}({px}, {py})" for v, f in zip(("v1x", "v1y", "v2x", "v2y"),
                                                                    ("f1x", "f1y", "f2x", "f2y"))]
    sliding_rhs = ["def sliding_rhs(f1x, f1y, f2x, f2y, gxf, gyf, curve_id, x, y):"] + indent(
        sliding("x", "y", "zx", "zy", calls, lambda px, py: (f"gxf({px}, {py})", f"gyf({px}, {py})"))
        + ["return zx, zy, l1, l2"])

    def sliding_source(torus, sides, gradient, h):
        """``sliding_steps``: the accepted steps of one sliding arc, each projected onto the curve.

        ``sides`` and ``gradient`` write the fields at a point as for
        ``sliding``, and ``h(px, py)`` the curve's h there.  The arc starts on
        the curve at (x, y) at t = 0 with first stage (k1x, k1y), first trial
        step ``dt_next`` and the signs s1_0, s2_0 of its Lie pair, and ends at
        ``t_max``.  Each step is projected onto h = 0 by
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
        gx, gy = gradient("x", "y")
        project = []
        for _ in range(2):
            project += [
                f"hv = {h('x', 'y')}",
                f"nx = {gx}",
                f"ny = {gy}",
                "g2 = nx * nx + ny * ny",
                f"if g2 < {GRAD_MIN * GRAD_MIN!r}:",
                "    raise degenerate_gradient(x, y)",
                "x -= hv * nx / g2",
                "y -= hv * ny / g2",
            ]
        flipped = f"l1 * s1_0 < 0 or abs(l1) <= {TAU_CLASS!r}"
        return source([
            "def sliding_steps(bound, curve_id, domain, rtol, atol, max_step, spacing, t_max, limit, room,",
            "                  x, y, k1x, k1y, s1_0, s2_0, dt_next, times, pts, taken):",
        ] + indent((torus_geometry if torus else bounds) + [
            "t = 0.0",
            "t_end = t_max - 1e-14",
            "steps = 0",
            "while True:",
            "    if t >= t_end:",
            "        taken[0] = steps",
            "        return 't_max', None, None",
            "    if steps >= limit:",
            "        raise step_limit(steps, t, t_max, max_step)",
            "    steps += 1",
            *indent(accepted_step(lambda j: sliding("ax", "ay", f"k{j}x", f"k{j}y", sides, gradient))),
            *indent(project),
            # the restart stage goes to (zx, zy): (k1x, k1y) is the step's first stage until it is packed
            *indent(sliding("x", "y", "zx", "zy", sides, gradient)),
            *(["    if not (x_min <= x <= x_max and y_min <= y <= y_max):",
               "        taken[0] = steps",
               f"        return 'left_domain', {dense_step}, None"] if not torus else []),
            f"    if {flipped} or l2 * s2_0 < 0 or abs(l2) <= {TAU_CLASS!r}:",
            "        taken[0] = steps",
            f"        return 'tangency', {dense_step}, 'positive' if ({flipped}) else 'negative'",
            *indent(chord("x", "y", "t", torus)),
            "    znorm = hypot(zx, zy)",
            f"    if znorm <= {PE_NORM_TOL!r} or znorm * dt_next < 1e-14:",
            "        taken[0] = steps",
            "        return 'pseudo_eq', None, None",
            "    k1x = zx",
            "    k1y = zy",
        ]))

    namespace = {
        **FUNCTIONS, "__builtins__": {}, "abs": abs, "len": len, "max": max, "range": range, "round": round,
        "zip": zip, "ceil": math.ceil, "floor": math.floor, "hypot": math.hypot,
        "IntegrationError": IntegrationError,
        "_DenseStep": _DenseStep, "step_limit": _step_limit, "sample_limit": _sample_limit,
        "sliding_undefined": sliding_undefined, "degenerate_gradient": _degenerate_gradient,
    }

    def source(lines):
        return "\n".join(lines) + "\n"

    def compiled(text, name):
        """The function ``name`` that the source ``text`` defines, compiled in the closed namespace."""
        env = dict(namespace)
        exec(text, env)  # noqa: S102 - generated from the tableau and expr's field text
        return env[name]

    emits = {torus: compiled(source(emit_source(torus)), "emit") for torus in (False, True)}
    chords = {torus: compiled(source(chord_source(torus)), "emit_to") for torus in (False, True)}
    return (compiled(source(at), "at"), emits, chords, compiled(source(sliding_rhs), "sliding_rhs"),
            regular_source, sliding_source, compiled)


class _DenseStep:
    """One accepted RK step with its quartic interpolant; ``at(theta)`` is the point at ``t0 + theta * dt``."""

    __slots__ = ("t0", "dt", "x0", "y0", "ks")

    def __init__(self, t0, dt, x0, y0, ks):
        self.t0 = t0
        self.dt = dt
        self.x0 = x0
        self.y0 = y0
        self.ks = ks


# ``_EMIT[torus]``: see ``integrate_regular``; ``_SLIDING_RHS``, ``_EMIT_TO[torus]``: see ``integrate_sliding``;
# ``_REGULAR_SOURCE``, ``_SLIDING_SOURCE``: see ``_regular_loop`` and ``_sliding_loop``
_DenseStep.at, _EMIT, _EMIT_TO, _SLIDING_RHS, _REGULAR_SOURCE, _SLIDING_SOURCE, _compiled = _kernels()
_loop = functools.lru_cache(maxsize=LOOP_CACHE_SIZE)(_compiled)  # the compiled arc loops, by source text
_LOOPS = weakref.WeakKeyDictionary()  # system -> {("regular", region id) | ("sliding", curve id): (loop, bound)}


def _arc_loop(sys, key, write):
    """The loop ``write(text)`` writes for ``sys`` under ``key``, compiled, and the values it binds.

    A system writes each of its loops once, held as long as the system lives:
    writing one costs more than integrating a typical arc.  Equal texts share
    one compiled loop through ``_loop``, across regions and systems.
    """
    loops = _LOOPS.setdefault(sys, {})
    if key not in loops:
        text = LoopText()
        source, name = write(text)
        loops[key] = (_loop(source, name), tuple(text.bound))
    return loops[key]


def _regular_loop(sys, region_id):
    """``regular_steps`` for the region's field and the system's curves: see ``_REGULAR_SOURCE``."""
    def write(text):
        stage = lambda px, py, vx, vy: sys.stage((region_id,), px, py, ((vx, vy),), text.component, text.bind)
        hs = [functools.partial(text.component, c.h) for c in sys.curves]
        return _REGULAR_SOURCE(sys.domain.kind == "flat_torus", stage, hs), "regular_steps"
    return _arc_loop(sys, ("regular", region_id), write)


def _sliding_loop(sys, curve_id):
    """``sliding_steps`` for the curve's side fields, grad h and h: see ``_SLIDING_SOURCE``."""
    curve = sys.curve(curve_id)

    def write(text):
        regions = (curve.positive_region, curve.negative_region)
        sides = lambda px, py: sys.stage(regions, px, py, (("v1x", "v1y"), ("v2x", "v2y")),
                                         text.component, text.bind)
        gradient = lambda px, py: tuple(text.component(g, px, py) for g in curve.grad)
        source = _SLIDING_SOURCE(sys.domain.kind == "flat_torus", sides, gradient,
                                 functools.partial(text.component, curve.h))
        return source, "sliding_steps"
    return _arc_loop(sys, ("sliding", curve_id), write)


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
    steps: int = 0  # accepted steps of an arc

    @property
    def t_start(self):
        return self.times[0]

    @property
    def t_end(self):
        return self.times[-1]

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


def integrate_regular(sys, p, region_id, t_max, opts=None, entry_curve=None, captures=(), budget=math.inf,
                      room=math.inf):
    """Integrate the region's smooth field until an event.

    The steps run in the region's generated loop (``_regular_loop``); each
    step it hands back is searched here for its earliest event.  The arc
    takes at most ``budget`` accepted steps, and at most ``_arc_step_limit``'s;
    a chord cut past ``room`` stored samples raises ``_sample_limit``'s error.
    Returns (OrbitSegment, hit) with hit one of ('curve', id, point) |
    ('t_max', point) | ('left_domain', point) | ('capture', target, point).
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
    taken = [0]
    regular_steps, bound = _regular_loop(sys, region_id)
    steps = regular_steps(
        bound, signs, [c.point for c in captures], domain, opts.rtol, opts.atol, max_step, spacing,
        t_max, min(budget, _arc_step_limit(t_max, max_step)), room, x, y, k1x, k1y, min(max_step, 1e-3),
        times, pts, taken,
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
            emit(step, 1.0, domain.canonical(grid_pts[-1]), times, pts, spacing, room, domain)
            continue

        th, kind, payload = best
        if kind == "curve":
            point = onto_curve(sys, payload, step.at(th))
        else:
            point = domain.canonical(step.at(th))
        emit(step, th, point, times, pts, spacing, room, domain)
        seg = OrbitSegment("regular_arc", times, pts, region_id=region_id, steps=taken[0])
        return seg, ((kind, point) if kind == "left_domain" else (kind, payload, point))
    return OrbitSegment("regular_arc", times, pts, region_id=region_id, steps=taken[0]), ("t_max", pts[-1])


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


def integrate_sliding(sys, curve_id, p, t_max, opts=None, allow_escaping=False, budget=math.inf, room=math.inf):
    """Slide along the Filippov field constrained to the curve.

    The steps run in the curve's generated loop (``_sliding_loop``), the first
    stage in ``_SLIDING_RHS`` on the raw side fields; the step the loop hands
    back at an exit is searched here for the exit point, which ``_EMIT_TO`` emits.
    The arc takes at most ``budget`` accepted steps, and at most ``_arc_step_limit``'s,
    and stores at most ``room`` samples, as ``integrate_regular``.
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
    taken = [0]
    sliding_steps, bound = _sliding_loop(sys, curve_id)
    kind, step, flipped = sliding_steps(
        bound, curve_id, domain, opts.rtol, opts.atol, max_step, spacing, t_max,
        min(budget, _arc_step_limit(t_max, max_step)), room, x, y, zx, zy, s1_0, s2_0, min(max_step, 1e-3),
        times, pts, taken,
    )
    emit_to = _EMIT_TO[torus]
    if kind == "left_domain":
        on_curve = lambda th: curve.project(step.at(th), 2)
        th = _exit_theta(domain, on_curve, 1.0)
        emit_to(*on_curve(th), step.t0 + th * step.dt, times, pts, spacing, room, domain)
    elif kind == "tangency":
        th, point = _locate_slide_tangency(step, curve, rhs, flipped, s1_0, s2_0)
        emit_to(*point, step.t0 + th * step.dt, times, pts, spacing, room, domain)
    seg = OrbitSegment("sliding_arc", times, pts, curve_id=curve_id, steps=taken[0])
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
    The loop runs once per sample of every probe orbit, so it inlines
    ``Domain.distance``'s arithmetic.
    """
    (cx, cy), radius = disk.center, disk.radius
    torus, width, height = domain.kind == "flat_torus", domain.width, domain.height
    hypot = math.hypot
    for seg in segments:
        for t, (px, py) in zip(seg.times, seg.points):
            dx, dy = cx - px, cy - py
            if torus:
                dx -= round(dx / width) * width
                dy -= round(dy / height) * height
            if hypot(dx, dy) <= radius:
                return t
    return None


class _Run:
    """The state of one orbit between two driver steps.

    ``mode`` is the next step with its arguments, None at the end.  The step is
    an unbound method, called with the run, because a ``fork`` copies the run
    and a bound one would keep stepping the original: ``_region`` flies a
    regular arc, ``_sigma`` classifies a point of Σ and applies its
    continuation (one step per Σ event), ``_capture`` offers a ride at a graze
    target and ``_escape`` applies the branch policy after a ride.  Each step
    counts against ``MAX_SEGMENTS`` and consults the cursor at most once, before
    it changes anything, so one interrupted by ``_Fork`` can re-run on a ``fork``.
    ``steps_left`` is what remains of the orbit's ``MAX_ORBIT_STEPS``: each arc
    may take that many accepted steps at most, and takes its steps from it.
    ``samples_left`` is, in the same way, what remains of ``MAX_ORBIT_SAMPLES``
    for the samples the arcs store.
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
        self.captures = [CaptureTarget(tp.position, tp.curve_id) for tp in ride_targets]
        where = self.sys.region_of(self.p)
        on_sigma = isinstance(where, OnSigma)
        self.mode = (_Run._sigma, where.curve_id) if on_sigma else (_Run._region, where, None)
        self.segments, self.choices = [], []
        self.terminal, self.steps = None, 0
        self.steps_left, self.samples_left = MAX_ORBIT_STEPS, MAX_ORBIT_SAMPLES
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
            step, *args = self.mode
            step(self, *args)
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
        self.steps_left -= seg.steps
        self.samples_left -= len(seg.times)
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
            entry_curve=entry_curve, captures=arc_captures, budget=self.steps_left, room=self.samples_left,
        )
        self._add_segment(seg)
        if hit[0] == "t_max":
            self.mode = None
        elif hit[0] == "left_domain":
            self._stop("left_domain")
        elif hit[0] == "curve":
            self.mode = (_Run._sigma, hit[1])
        else:
            self.mode = (_Run._capture, hit[1], (_Run._region, region_id, None))

    def _sigma(self, curve_id):
        distance = self.sys.domain.distance
        near = next((c for c in self.captures if distance(self.p, c.point) <= CAPTURE_RADIUS), None)
        if near is not None:
            self.mode = (_Run._capture, near, (_Run._sigma, curve_id))
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
                self.mode = (_Run._escape, cid)

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
        self.mode = (_Run._region, region, curve_id)

    def _slide(self, curve_id, escaping=False, dwell=None, exit_side=None):
        """Slide along the curve; after a ``dwell`` the orbit leaves to ``exit_side``."""
        remaining = self.horizon - self.t
        seg, exit_info = integrate_sliding(
            self.sys, curve_id, self.p, remaining if dwell is None else min(dwell, remaining),
            self.opts, allow_escaping=escaping, budget=self.steps_left, room=self.samples_left,
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
            self.mode = (_Run._sigma, curve_id)


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

    ``ride_targets`` is a sequence of ``TangencyPoint``s; when a regular arc
    passes within the capture radius of one of them, the policy cursor decides
    'pass' (keep flying) or 'ride' (enter the manifold at its curve, which is
    how an orbit enters an escaping region through its tangency).
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
    slide-until-tangency; at each graze capture of one of the ``ride_targets``
    (``TangencyPoint``s, as for ``integrate_filippov``) it forks over pass/ride.
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
