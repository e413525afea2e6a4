import math

import pytest
from hypothesis import given, settings, strategies as st

from filippov.errors import ConfigurationError, OutsideDomainError
from filippov.expr import PlanarField, ScalarField
from filippov.system import Domain, FilippovSystem, OnSigma, RegionSpec, SwitchingCurve

from conftest import build_plane_system


def test_region_of_above_and_below(flat_system):
    assert flat_system.region_of((0.3, 0.5)) == 1
    assert flat_system.region_of((0.3, -0.5)) == 2


def test_region_of_on_sigma(flat_system):
    assert flat_system.region_of((0.3, 0.0)) == OnSigma(0)
    # within the tolerance band
    assert flat_system.region_of((0.3, -1e-12)) == OnSigma(0)


def test_lie_derivative_examples():
    s = build_plane_system(("2", "3"), ("1", "1"))
    # h = y: grad (0,1), so the Lie derivative is the y-component
    assert s.lie_derivative(s.region(1).field, 0, (0.2, 0.0)) == 3.0

    dom = Domain("plane_rect", -2, 2, -2, 2)
    curve = SwitchingCurve(0, ScalarField("x^2 + y^2 - 1"), 1, 2)
    regions = [
        RegionSpec(1, PlanarField("-y", "x"), [(0, +1)]),
        RegionSpec(2, PlanarField("1", "0"), [(0, -1)]),
    ]
    s2 = FilippovSystem(dom, [curve], regions, validate=False)
    # rotational field is tangent to the circle
    assert s2.lie_derivative(s2.region(1).field, 0, (1.0, 0.0)) == 0.0
    assert s2.lie_derivative(s2.region(2).field, 0, (1.0, 0.0)) == 2.0


def test_field_at(flat_system):
    assert flat_system.field_at((0.0, 1.0)) == (1.0, -1.0)
    assert flat_system.field_at((0.0, 0.0)) == OnSigma(0)
    with pytest.raises(OutsideDomainError):
        flat_system.field_at((10.0, 0.5))


def test_field_at_matches_expression_off_sigma(flat_system):
    # no smoothing or averaging off the manifold
    for p in [(0.1, 0.2), (-1.5, 0.9), (1.0, -0.3)]:
        expected = flat_system.region(flat_system.region_of(p)).field(*p)
        assert flat_system.field_at(p) == expected


def _make_belt():
    domain = Domain("flat_torus", 0, 1, 0, 1)
    curve = SwitchingCurve(0, ScalarField("sin(2*pi*y)"), 1, 2)
    regions = [
        RegionSpec(1, PlanarField("1", "-1"), [(0, +1)]),
        RegionSpec(2, PlanarField("1", "1"), [(0, -1)]),
    ]
    return FilippovSystem(domain, [curve], regions, validate=False)


_TORUS = _make_belt()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-2, max_value=2),
)
def test_torus_periodicity_exact_on_dyadic_points(i, j, kx, ky):
    # dyadic coordinates make the wrap arithmetic exact in floating point
    p = (i / 64.0, j / 64.0)
    q = (p[0] + kx, p[1] + ky)
    assert _TORUS.region_of(p) == _TORUS.region_of(q)
    y1 = _TORUS.region(1).field
    assert _TORUS.lie_derivative(y1, 0, p) == _TORUS.lie_derivative(y1, 0, q)


def test_torus_periodicity_approximate_in_general():
    p = (0.137, 0.291)
    q = (p[0] + 1.0, p[1] - 1.0)
    y1 = _TORUS.region(1).field
    assert _TORUS.lie_derivative(y1, 0, p) == pytest.approx(
        _TORUS.lie_derivative(y1, 0, q), abs=1e-12
    )


def test_torus_distance_is_quotient_metric():
    d = Domain("flat_torus", 0, 1, 0, 1)
    assert d.distance((0.05, 0.5), (0.95, 0.5)) == pytest.approx(0.1)
    assert d.diameter() == pytest.approx(math.hypot(0.5, 0.5))


def test_validation_rejects_overlapping_curves():
    dom = Domain("plane_rect", -1, 1, -1, 1)
    c0 = SwitchingCurve(0, ScalarField("y"), 1, 2)
    c1 = SwitchingCurve(1, ScalarField("y - 1e-7"), 1, 2)
    regions = [
        RegionSpec(1, PlanarField("1", "0"), [(0, +1), (1, +1)]),
        RegionSpec(2, PlanarField("1", "0"), [(0, -1), (1, -1)]),
    ]
    with pytest.raises(ConfigurationError, match=r"curves \[0, 1\] are not disjoint"):
        FilippovSystem(dom, [c0, c1], regions)


def test_validation_rejects_empty_region():
    dom = Domain("plane_rect", -1, 1, -1, 1)
    c0 = SwitchingCurve(0, ScalarField("y - 5"), 1, 2)  # curve outside the domain
    regions = [
        RegionSpec(1, PlanarField("1", "0"), [(0, +1)]),  # y > 5: empty here
        RegionSpec(2, PlanarField("1", "0"), [(0, -1)]),
    ]
    with pytest.raises(ConfigurationError, match=r"regions \[1\] are empty"):
        FilippovSystem(dom, [c0], regions)


def test_validation_rejects_nonperiodic_torus_fields():
    dom = Domain("flat_torus", 0, 1, 0, 1)
    c0 = SwitchingCurve(0, ScalarField("y - 0.5"), 1, 2)
    regions = [
        RegionSpec(1, PlanarField("1", "0"), [(0, +1)]),
        RegionSpec(2, PlanarField("1", "0"), [(0, -1)]),
    ]
    with pytest.raises(ConfigurationError, match="not periodic"):
        FilippovSystem(dom, [c0], regions)


def test_validation_ambiguous_membership():
    dom = Domain("plane_rect", -1, 1, -1, 1)
    c0 = SwitchingCurve(0, ScalarField("y"), 1, 2)
    regions = [
        RegionSpec(1, PlanarField("1", "0"), [(0, +1)]),
        RegionSpec(2, PlanarField("1", "0"), [(0, +1)]),  # same condition: overlap
    ]
    with pytest.raises(ConfigurationError):
        FilippovSystem(dom, [c0], regions)


def test_curve_side_regions_must_differ():
    with pytest.raises(ConfigurationError):
        SwitchingCurve(0, ScalarField("y"), 1, 1)


def test_reversed_negates_fields(flat_system):
    rev = flat_system.reversed()
    assert rev.field_at((0.0, 0.5)) == (-1.0, 1.0)
    # sliding of the original becomes escaping of the reversal
    from filippov.sigma import PointClass, classify_point

    assert classify_point(flat_system, 0, (0.0, 0.0)).point_class is PointClass.SLIDING
    assert classify_point(rev, 0, (0.0, 0.0)).point_class is PointClass.ESCAPING


def test_velocity_scale_multiplies_field(flat_system):
    scaled = flat_system.with_velocity_scale(lambda p: 0.5)
    assert scaled.field_at((0.0, 1.0)) == (0.5, -0.5)


def test_project_onto_unit_circle():
    curve = SwitchingCurve(0, ScalarField("x^2 + y^2 - 1"), 1, 2)
    h = curve.h.raw()
    for start in [(2.0, 0.5), (0.3, 0.4), (-0.9, -1.2), (0.0, -0.2), (1.0, 1.0)]:
        x, y = curve.project(start, 8)
        assert abs(h(x, y)) <= 1e-12
    with pytest.raises(ConfigurationError):
        curve.project((0.0, 0.0), 3)


def test_project_stops_below_tolerance():
    curve = SwitchingCurve(0, ScalarField("x^2 + y^2 - 1"), 1, 2)
    assert curve.project((1.0, 0.0), 3, stop_below=0.0) == (1.0, 0.0)
    # one Newton step from radius 2 gives radius 1.25, |h| = 0.5625
    assert curve.project((2.0, 0.0), 3, stop_below=0.6) == (1.25, 0.0)
