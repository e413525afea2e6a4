"""The callers of ``sigma.bracket`` against the five root finders it replaced.

The reference finders below are the loops that ``integrate`` and ``sigma``
ran before the one bracket kernel: the crossing refinement, the domain-exit
bisection, the sliding-tangency bisection, the bisection along a Sigma arc and
the grid-line bisection of the curve seeds.  On random brackets of odd
polynomials (degree 1, 3 and 5, scales 1e-6 to 1e3, and some steeper ones),
including brackets that exhaust the iterations and brackets next to
theta = 1, where adjacent floats are 1.1e-16 apart, each rewritten caller must
return exactly their bits.
"""

import math
import random

import pytest

from filippov import integrate, sigma
from filippov.errors import UndefinedSlidingError
from filippov.integrate import EVENT_H_TOL, _THETA_GRID, integrate_filippov
from filippov.scenario import list_shipped, load_shipped
from filippov.sigma import ROOT_L_TOL, bracket
from filippov.system import Domain

BRACKETS = 2000  # random brackets per caller


# --------------------------------------------------------------------------- #
# reference finders, as they were before the bracket kernel
# --------------------------------------------------------------------------- #


def reference_refine_sign_change(h, step, th_a, th_b, v_a, v_b):
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


def reference_refine_exit(domain, step, th_hint):
    lo, hi = 0.0, th_hint if th_hint > 0 else 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if domain.contains(step.at(mid)):
            lo = mid
        else:
            hi = mid
    return lo


def reference_locate_slide_tangency(step, curve, rhs, flipped, s1_0, s2_0):
    idx = 2 if flipped == "positive" else 3  # L1 or L2 in the sliding kernel's output
    ref = s1_0 if flipped == "positive" else s2_0

    def value(th):
        try:
            return rhs(*curve.project(step.at(th), 2))[idx] * ref
        except UndefinedSlidingError:  # |L2 - L1| <= TAU_CLASS: a two-fold, taken as the root
            return 0.0

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
    return th, curve.project(step.at(th), 2)


def reference_bisect_on_arc(component, fn, s_lo, s_hi, target=ROOT_L_TOL):
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


def reference_curve_seeds(sys, curve):
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


# --------------------------------------------------------------------------- #
# random odd polynomials and brackets
# --------------------------------------------------------------------------- #


class _Line:
    """A stand-in dense step (and curve) whose point at theta is (theta, 0)."""

    @staticmethod
    def at(theta):
        return (theta, 0.0)

    @staticmethod
    def point_at(s):
        return (s, 0.0)

    @staticmethod
    def project(p, iterations):
        return p


class _Path:
    """A stand-in dense step whose point at theta is (x(theta), 0)."""

    def __init__(self, x):
        self.x = x

    def at(self, theta):
        return (self.x(theta), 0.0)


def odd_polynomial(rng, root):
    """x -> scale * (u + c3 u^3 + c5 u^5), u = x - root - shift; degree 1, 3 or 5.

    The shift of up to one float spacing usually puts the zero between two
    floats, so a bisection cannot land on it.  One polynomial in four is
    steeper than 1e3, so that |f| stays above the stopping tolerances at
    adjacent floats and the width rule or the iteration limit ends the search.
    """
    degree = rng.choice((1, 3, 5))
    exponent = rng.uniform(-6.0, 3.0) if rng.random() < 0.75 else rng.uniform(3.0, 12.0)
    scale = rng.choice((-1.0, 1.0)) * 10.0 ** exponent
    coeffs = [rng.uniform(0.1, 2.0) for _ in range(degree // 2)]
    shift = rng.random() * math.ulp(root)

    def f(x):
        u = (x - root) - shift
        return scale * (u + sum(c * u ** (2 * k + 3) for k, c in enumerate(coeffs)))

    return f


def theta_bracket(rng):
    """A dense-grid cell, or a bracket a few floats wide just below theta = 1 or 0.3."""
    kind = rng.random()
    if kind < 0.6:
        i = rng.randrange(len(_THETA_GRID) - 1)
        a, b = _THETA_GRID[i], _THETA_GRID[i + 1]
    else:
        b = 1.0 if kind < 0.8 else 0.3
        a = b - rng.randint(1, 64) * 2.0 ** -53
    return a, b, a + rng.random() * (b - a)


def sign_change_cases(rng, count):
    """(g, a, b, g(a), g(b)) with a strict sign change, for the crossing refinement."""
    cases = []
    while len(cases) < count:
        a, b, root = theta_bracket(rng)
        g = odd_polynomial(rng, root)
        va, vb = g(a), g(b)
        if va * vb < 0:
            cases.append((g, a, b, va, vb))
    return cases


# --------------------------------------------------------------------------- #
# each caller against its reference
# --------------------------------------------------------------------------- #


def test_crossing_rule_matches_reference():
    for g, a, b, va, vb in sign_change_cases(random.Random(1), BRACKETS):
        lo, hi = bracket(g, a, b, va, vb, tol=EVENT_H_TOL / 2, width=1e-16, secant=True)
        expected = reference_refine_sign_change(lambda x, y: g(x), _Line, a, b, va, vb)
        assert 0.5 * (lo + hi) == expected


def test_crossing_call_site_matches_reference(monkeypatch):
    # every crossing integrate_regular refines on the shipped scenarios, replayed
    calls = []

    def recording(fn, lo, hi, f_lo, f_hi=None, **rule):
        result = bracket(fn, lo, hi, f_lo, f_hi, **rule)
        if rule.get("secant"):
            calls.append((fn, lo, hi, f_lo, f_hi, 0.5 * (result[0] + result[1])))
        return result

    monkeypatch.setattr(integrate, "bracket", recording)
    for name, start in (("fold_demo_plane", (-1.2, 0.7)), ("chaotic_torus", (0.3, 0.5)),
                        ("sliding_belt_torus", (0.3, 0.2))):
        integrate_filippov(load_shipped(name).build_system(), start, 3.0)
    assert len(calls) >= 5
    for fn, lo, hi, f_lo, f_hi, th in calls:
        assert th == reference_refine_sign_change(lambda x, y: fn(x), _Line, lo, hi, f_lo, f_hi)


def test_domain_exit_matches_reference():
    rng = random.Random(2)
    domain = Domain("plane_rect", -2.0, 2.0, -1.0, 1.0)
    for _ in range(BRACKETS):
        _, _, root = theta_bracket(rng)
        g = odd_polynomial(rng, root)
        step = _Path(lambda th, g=g: 2.0 + g(th))  # crosses x_max = 2 at the root
        hint = rng.choice(_THETA_GRID)  # hints inside the rectangle included
        expected = reference_refine_exit(domain, step, hint)
        assert integrate._exit_theta(domain, step.at, hint if hint > 0 else 1.0) == expected


def test_slide_tangency_matches_reference():
    rng = random.Random(3)
    for n in range(BRACKETS):
        _, _, root = theta_bracket(rng)
        g = odd_polynomial(rng, root)
        ref = -1.0 if g(0.0) < 0 else 1.0
        two_fold = root + rng.uniform(-1e-3, 1e-3) if n % 4 == 0 else None

        def rhs(x, y, g=g, two_fold=two_fold):
            if two_fold is not None and x >= two_fold:
                raise UndefinedSlidingError("two-fold")
            return (0.0, 0.0, g(x), -g(x))

        flipped = rng.choice(("positive", "negative"))
        expected = reference_locate_slide_tangency(_Line, _Line, rhs, flipped, ref, -ref)
        got = integrate._locate_slide_tangency(_Line, _Line, rhs, flipped, ref, -ref)
        assert got == expected


def test_arc_bisection_matches_reference():
    rng = random.Random(4)
    for n in range(BRACKETS):
        s_lo = rng.uniform(0.0, 100.0)
        s_hi = s_lo + 10.0 ** rng.uniform(-3.0, 1.0)
        root = s_lo + rng.random() * (s_hi - s_lo)
        if n % 10 == 0:
            root = rng.choice((s_lo, s_hi, s_hi + 1.0))  # zero at an end, or no sign change
        g = odd_polynomial(rng, root)
        fn = lambda p, g=g: g(p[0])
        expected = reference_bisect_on_arc(_Line, fn, s_lo, s_hi)
        assert sigma._bisect_on_arc(_Line, fn, s_lo, s_hi) == expected


def test_arc_bisection_exhausts_iterations_like_reference():
    # a steep root between two floats: |f| never drops to ROOT_L_TOL
    calls = []
    fn = lambda p: calls.append(p) or 1e3 * (p[0] - 64.1) - 5e-12
    s = sigma._bisect_on_arc(_Line, fn, 64.0, 64.5)
    assert len(calls) == 2 + 80
    assert s == reference_bisect_on_arc(_Line, fn, 64.0, 64.5)


@pytest.mark.parametrize("name", [n[:-5] for n in list_shipped()])
def test_curve_seeds_match_reference(name):
    system = load_shipped(name).build_system()
    for curve in system.curves:
        assert sigma._curve_seeds(system, curve) == reference_curve_seeds(system, curve)
