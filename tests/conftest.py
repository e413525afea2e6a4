import contextlib
import math
import signal
import weakref
from pathlib import Path

import pytest

from filippov import integrate, scenario, sigma
from filippov.expr import LoopText, PlanarField, ScalarField
from filippov.system import Domain, FilippovSystem, RegionSpec, SwitchingCurve


def build_plane_system(fields_pos, fields_neg, bounds=(-2, 2, -1, 1), h="y", validate=False):
    """h-split plane with one curve; fields given as (fx, fy) source pairs."""
    domain = Domain("plane_rect", *bounds)
    curve = SwitchingCurve(0, ScalarField(h), 1, 2)
    regions = [
        RegionSpec(1, PlanarField(*fields_pos), [(0, +1)]),
        RegionSpec(2, PlanarField(*fields_neg), [(0, -1)]),
    ]
    return FilippovSystem(domain, [curve], regions, validate=validate)


def list_shipped():
    """File names of the scenarios the package ships, sorted."""
    return sorted(p.name for p in (Path(scenario.__file__).parent / "scenarios").glob("*.json"))


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once ``seconds`` of wall time have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def decompose(system, resolution=512):
    """One sigma decomposition per curve, as build_segment_graph takes them."""
    return [sigma.sigma_decomposition(system, c.id, resolution) for c in system.curves]


def count_trace_calls(monkeypatch):
    """List that records the curve id of every later sigma.trace_curve call."""
    calls = []
    original = sigma.trace_curve

    def counting(system, curve_id, resolution):
        calls.append(curve_id)
        return original(system, curve_id, resolution)

    monkeypatch.setattr(sigma, "trace_curve", counting)
    return calls


def count_arc_calls(monkeypatch):
    """List that records the name of every later integrate_regular/integrate_sliding call."""
    calls = []
    for name in ("integrate_regular", "integrate_sliding"):
        original = getattr(integrate, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(integrate, name, counting)
    return calls


def observe_loop_reads(monkeypatch, observer):
    """Have the generated loops call ``observer(field)(x, y)`` as they read a field component at (x, y).

    The arc loops and the validation pass inline a field's text through
    ``LoopText.component``; this hook wraps that text as
    ``(observer(field)(x, y), text)[1]``, with the observer bound in the loop.
    The observer runs first, so it sees a read whose text then fails, and the
    loop still computes the text's own bits.  The systems' written arc loops
    are forgotten, so each is written anew; the validation pass is written
    anew at every ``validate``.
    """
    inline = LoopText.component

    def component(text, field, px, py):
        return f"({text.bind(observer(field))}({px}, {py}), {inline(field, px, py)})[1]"

    monkeypatch.setattr(LoopText, "component", component)
    monkeypatch.setattr(integrate, "_LOOPS", weakref.WeakKeyDictionary())


@pytest.fixture
def calls(monkeypatch):
    """Evaluation counts per field: calls of every raw callable ``ScalarField.raw`` hands out, and
    the generated loops' reads of each field component (see ``observe_loop_reads``)."""
    counts = {}
    raw = ScalarField.raw

    def count(field):
        counts[id(field)] = counts.get(id(field), 0) + 1

    def counting_raw(field):
        fn = raw(field)

        def counted(x, y):
            count(field)
            return fn(x, y)

        return counted

    monkeypatch.setattr(ScalarField, "raw", counting_raw)
    observe_loop_reads(monkeypatch, lambda field: lambda x, y: count(field))
    return counts


@pytest.fixture
def flat_system():
    """h = y, sliding everywhere: Y1 = (1,-1) above, Y2 = (1,1) below."""
    return build_plane_system(("1", "-1"), ("1", "1"))


@pytest.fixture
def fold_system():
    """h = y, Y1 = (1, x): sliding for x<0, fold at the origin, crossing x>0."""
    return build_plane_system(("1", "x"), ("1", "1"))


@pytest.fixture
def pe_system():
    """h = y, anti-parallel fields with a pseudo-equilibrium at the origin."""
    return build_plane_system(("-x", "-1"), ("-x", "1"))


@pytest.fixture
def belt_system():
    """Flat torus with a sliding belt at y=0 and an escaping belt at y=0.5."""
    domain = Domain("flat_torus", 0, 1, 0, 1)
    curve = SwitchingCurve(0, ScalarField("sin(2*pi*y)"), 1, 2)
    regions = [
        RegionSpec(1, PlanarField("1", "-1"), [(0, +1)]),
        RegionSpec(2, PlanarField("1", "1"), [(0, -1)]),
    ]
    return FilippovSystem(domain, [curve], regions, validate=False)


@pytest.fixture
def circle_system():
    """Rotation field with a switching curve the circular orbit never meets."""
    domain = Domain("plane_rect", -2, 2, -2, 2)
    curve = SwitchingCurve(0, ScalarField("y + 1.9"), 1, 2)
    regions = [
        RegionSpec(1, PlanarField("-y", "x"), [(0, +1)]),
        RegionSpec(2, PlanarField("1", "0"), [(0, -1)]),
    ]
    return FilippovSystem(domain, [curve], regions, validate=False)
