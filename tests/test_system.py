import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from filippov.errors import (
    ConfigurationError, EvaluationError, FilippovError, OutsideDomainError, evaluation_boundary,
)
from filippov.expr import PlanarField, ScalarField
from filippov.scenario import load_shipped
from filippov.sigma import lie_pair_at
from filippov.system import (
    DISJOINT_EPS, Domain, FilippovSystem, OnSigma, RegionSpec, SwitchingCurve,
)

from conftest import build_plane_system, observe_loop_reads


def field_at(system, p):
    """Z(p) off the manifold, the OnSigma marker on it."""
    where = system.region_of(p)
    if isinstance(where, OnSigma):
        return where
    return system.field_value(system.region(where).field, system.domain.canonical(p))


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
    assert lie_pair_at(s, 0, (0.2, 0.0))[0] == 3.0

    dom = Domain("plane_rect", -2, 2, -2, 2)
    curve = SwitchingCurve(0, ScalarField("x^2 + y^2 - 1"), 1, 2)
    regions = [
        RegionSpec(1, PlanarField("-y", "x"), [(0, +1)]),
        RegionSpec(2, PlanarField("1", "0"), [(0, -1)]),
    ]
    s2 = FilippovSystem(dom, [curve], regions, validate=False)
    # rotational field (region 1, the h > 0 side) is tangent to the circle
    assert lie_pair_at(s2, 0, (1.0, 0.0)) == (0.0, 2.0)


def test_field_at(flat_system):
    assert field_at(flat_system, (0.0, 1.0)) == (1.0, -1.0)
    assert field_at(flat_system, (0.0, 0.0)) == OnSigma(0)
    with pytest.raises(OutsideDomainError):
        field_at(flat_system, (10.0, 0.5))


def test_field_at_matches_expression_off_sigma(flat_system):
    # no smoothing or averaging off the manifold
    for p in [(0.1, 0.2), (-1.5, 0.9), (1.0, -0.3)]:
        expected = flat_system.region(flat_system.region_of(p)).field(*p)
        assert field_at(flat_system, p) == expected


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
    # L1 is the Lie derivative of region 1's field, the h > 0 side
    assert lie_pair_at(_TORUS, 0, p)[0] == lie_pair_at(_TORUS, 0, q)[0]


def test_torus_periodicity_approximate_in_general():
    p = (0.137, 0.291)
    q = (p[0] + 1.0, p[1] - 1.0)
    assert lie_pair_at(_TORUS, 0, p)[0] == pytest.approx(lie_pair_at(_TORUS, 0, q)[0], abs=1e-12)


def test_torus_distance_is_quotient_metric():
    d = Domain("flat_torus", 0, 1, 0, 1)
    assert d.distance((0.05, 0.5), (0.95, 0.5)) == pytest.approx(0.1)
    assert d.diameter() == pytest.approx(math.hypot(0.5, 0.5))


@pytest.mark.parametrize("source", ["y * a^2", "y - x/a"], ids=["h", "grad_h"])
def test_a_curve_with_a_failing_constant_fails_when_it_is_built(source):
    # a = 1e200 is inlined, so a^2 in h, or in dh/dx = -(a / a^2) where h itself builds,
    # would overflow at every evaluation
    with pytest.raises(EvaluationError, match=re.escape("(34, 'Numerical result out of range')")):
        SwitchingCurve(0, ScalarField(source, {"a": 1e200}), 1, 2)
    if source == "y - x/a":  # h itself builds; its gradient fails
        ScalarField(source, {"a": 1e200})


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


def test_region_needs_a_membership_condition():
    # a scenario file reports this at ``regions[i].where``; a region built directly, here
    with pytest.raises(ConfigurationError, match=r"^region 1: needs at least one membership condition$"):
        RegionSpec(1, PlanarField("1", "0"), [])


@pytest.mark.parametrize("kind", ["plane_rect", "flat_torus"])
def test_domain_extent_must_be_finite(kind):
    # each bound is finite, but x_max - x_min overflows to inf
    with pytest.raises(ConfigurationError,
                       match=r"^domain bounds must have finite extent, got width inf, height 2\.0$"):
        Domain(kind, -1e308, 1e308, -1.0, 1.0)
    with pytest.raises(ConfigurationError, match=r"height inf$"):
        Domain(kind, -1, 1, -1.5e308, 1.5e308)
    assert Domain(kind, -1e307, 1e307, -1, 1).width == 2e307


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


@pytest.mark.parametrize("validate", [True, False])
def test_region_condition_on_unknown_curve_is_rejected(validate):
    # without the check, validate() or region_of() met it as a bare KeyError
    dom = Domain("plane_rect", -1, 1, -1, 1)
    c0 = SwitchingCurve(0, ScalarField("y"), 1, 2)
    regions = [
        RegionSpec(1, PlanarField("1", "0"), [(0, +1), (5, +1)]),
        RegionSpec(2, PlanarField("1", "0"), [(0, -1)]),
    ]
    with pytest.raises(ConfigurationError, match="region 1: condition on unknown curve 5"):
        FilippovSystem(dom, [c0], regions, validate=validate)


def test_curve_side_regions_must_differ():
    with pytest.raises(ConfigurationError):
        SwitchingCurve(0, ScalarField("y"), 1, 1)


def test_reversed_negates_fields(flat_system):
    rev = flat_system.reversed()
    assert field_at(rev, (0.0, 0.5)) == (-1.0, 1.0)
    # sliding of the original becomes escaping of the reversal
    from filippov.sigma import PointClass, classify_point

    assert classify_point(flat_system, 0, (0.0, 0.0)).point_class is PointClass.SLIDING
    assert classify_point(rev, 0, (0.0, 0.0)).point_class is PointClass.ESCAPING


def test_velocity_scale_multiplies_field(flat_system):
    scaled = flat_system.with_velocity_scale(lambda p: 0.5)
    assert field_at(scaled, (0.0, 1.0)) == (0.5, -0.5)


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


# -- validate: the block pass against the sample-by-sample reference ----------


def _reference_points(domain):
    """The validation samples one at a time: 256 x 256 cell centres, then 10,000 seeded points."""
    rng = random.Random(0)
    for i in range(256):
        x = domain.x_min + (i + 0.5) * domain.width / 256
        for j in range(256):
            yield (x, domain.y_min + (j + 0.5) * domain.height / 256)
    for _ in range(10_000):
        yield (domain.x_min + rng.random() * domain.width,
               domain.y_min + rng.random() * domain.height)


@evaluation_boundary
def validate(system):
    """``FilippovSystem.validate`` as a per-sample loop: the reference for the block pass.

    Named ``validate`` so that its EvaluationError message reads like the block pass's.
    """
    if system.domain.kind == "flat_torus":
        system._check_periodicity()
    h_fns = [(c.id, c.h.raw()) for c in system.curves]
    curves = {c.id: c for c in system.curves}
    region_conds = [
        (r.id, [(curves[cid].h.raw(), sign) for cid, sign in r.conditions])
        for r in system.regions
    ]
    near_band = 1e-3 * max(system.domain.width, system.domain.height)
    seen_nonempty = {r.id: False for r in system.regions}
    for x, y in _reference_points(system.domain):
        values = [(cid, fn(x, y)) for cid, fn in h_fns]
        near = [cid for cid, v in values if abs(v) < near_band]
        for cid in near:
            system._check_on_curve(cid, (x, y), h_fns)
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


def _outcome(check):
    """(exception type, message) of ``check()``, or None when it passes."""
    try:
        check()
    except FilippovError as exc:
        return type(exc), str(exc)
    return None


def _system(kind, hs, sides, conditions, fields):
    """Unvalidated system on [-1, 1]^2 (plane) or [0, 1]^2 (torus); region ids count from 1."""
    domain = Domain(kind, *((-1, 1, -1, 1) if kind == "plane_rect" else (0, 1, 0, 1)))
    curves = [SwitchingCurve(i, ScalarField(h), *side) for i, (h, side) in enumerate(zip(hs, sides))]
    regions = [RegionSpec(i + 1, PlanarField(*f), conds)
               for i, (conds, f) in enumerate(zip(conditions, fields))]
    return FilippovSystem(domain, curves, regions, validate=False)


SPLIT = {1: [[(0, +1)], [(0, -1)]],
         2: [[(0, +1), (1, +1)], [(0, +1), (1, -1)], [(0, -1), (1, +1)], [(0, -1), (1, -1)]]}
PLANE_H = [
    "y", "x - 0.25", "x^2 + y^2 - 0.25", "y - x^2", "y - 0.75",
    "(y - 0.00390625)^2",  # degenerate gradient, zero at a grid point
    "x*y",  # degenerate gradient where the two lines cross
    "y - 5",  # no curve in the domain: one side is empty
    "y - 1e-7",  # touches y
    "sqrt(x + 0.5) - 0.5",  # ValueError at the first sample
    "1/(y - 0.00390625)",  # ZeroDivisionError at the 129th sample of every row
    "exp(800*y) - 1",  # OverflowError late in every row
]
TORUS_H = [
    "sin(2*pi*y)", "cos(2*pi*x)", "sin(2*pi*y) - 0.5*cos(2*pi*x)", "sin(2*pi*(x + y))",
    "sin(2*pi*(y - 0.001953125))^2",  # degenerate gradient, zero at a grid point
    "cos(2*pi*y) + 2",  # empty negative side
    "sin(2*pi*y) - 1e-7",  # touches sin(2*pi*y)
    "y - 0.5",  # not periodic
]
PLANE_FIELDS = ["1", "-1", "x", "y", "x - y"]
TORUS_FIELDS = ["1", "-1", "sin(2*pi*y)", "cos(2*pi*x)", "x"]  # x is not periodic


@st.composite
def _systems(draw):
    kind = draw(st.sampled_from(["plane_rect", "flat_torus"]))
    pool, field_pool = (PLANE_H, PLANE_FIELDS) if kind == "plane_rect" else (TORUS_H, TORUS_FIELDS)
    hs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True))
    if draw(st.booleans()):
        conditions = SPLIT[len(hs)]
    else:  # any nonempty sign pattern per region: overlaps, gaps and empty regions
        condition = st.lists(st.tuples(st.integers(0, len(hs) - 1), st.sampled_from([1, -1])),
                             min_size=1, max_size=len(hs), unique_by=lambda c: c[0])
        conditions = draw(st.lists(condition, min_size=2, max_size=4))
    ids = range(1, len(conditions) + 1)
    sides = [draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True))
             for _ in hs]
    field = st.tuples(st.sampled_from(field_pool), st.sampled_from(field_pool))
    fields = [draw(field) for _ in conditions]
    return _system(kind, hs, sides, conditions, fields)


_EXAMPLES = [
    _system("plane_rect", ["y - 0.75", "x^2 + y^2 - 0.25"], [(1, 2), (2, 3)],
            [[(0, +1)], [(0, -1), (1, +1)], [(1, -1)]], [("1", "0")] * 3),
    _system("plane_rect", ["y"], [(1, 2)], [[(0, +1)], [(0, +1)]], [("1", "0")] * 2),
    _system("plane_rect", ["y", "y - 1e-7"], [(1, 2), (1, 2)], SPLIT[2][::3], [("1", "0")] * 2),
    _system("plane_rect", ["(y - 0.00390625)^2"], [(1, 2)], SPLIT[1], [("1", "0")] * 2),
    _system("plane_rect", ["y - 5"], [(1, 2)], SPLIT[1], [("1", "0")] * 2),
    # a membership failure at sample 0 comes before the ZeroDivisionError at sample 128
    _system("plane_rect", ["x", "1/(y - 0.00390625)"], [(1, 2), (1, 2)],
            [[(0, +1)], [(1, +1)]], [("1", "0")] * 2),
    _system("plane_rect", ["exp(800*y) - 1"], [(1, 2)], SPLIT[1], [("1", "0")] * 2),
    # at sample 0 the clash of two near curves comes before its membership failure
    _system("plane_rect", ["x + y + 1.9911875", "x + y + 1.991188"], [(1, 2), (1, 2)],
            [[(0, +1)], [(1, +1)]], [("1", "0")] * 2),
    # region 1 holds only samples within DISJOINT_EPS of the curve: it counts as empty
    _system("plane_rect", ["1e-7 - y^2"], [(1, 2)], SPLIT[1], [("1", "0")] * 2),
    _system("flat_torus", ["sin(2*pi*y)"], [(1, 2)], SPLIT[1], [("x", "1"), ("1", "1")]),
    _system("flat_torus", ["sin(2*pi*y)", "cos(2*pi*x)"], [(1, 2), (3, 4)], SPLIT[2],
            [("1", "1")] * 4),
]


@settings(max_examples=40, deadline=None)
@given(_systems())
def test_block_validation_matches_the_per_sample_reference(system):
    assert _outcome(system.validate) == _outcome(lambda: validate(system))


@pytest.mark.parametrize("index", range(len(_EXAMPLES)))
def test_block_validation_matches_the_reference_on_chosen_cases(index):
    system = _EXAMPLES[index]
    assert _outcome(system.validate) == _outcome(lambda: validate(system))


@pytest.mark.parametrize("name", ["chaotic_torus", "fold_demo_plane", "rotation_plane",
                                  "sliding_belt_torus"])
def test_shipped_systems_pass_both_validations(name):
    system = load_shipped(name).build_system()
    assert _outcome(system.validate) is None
    assert _outcome(lambda: validate(system)) is None


def test_a_system_without_curves_fails_at_its_first_sample():
    # the loader accepts empty curve and region lists; the pass then has no h to write
    system = FilippovSystem(Domain("plane_rect", 0, 1, 0, 1), [], [], validate=False)
    assert _outcome(system.validate) == _outcome(lambda: validate(system)) == (
        ConfigurationError, "point (0.00195312, 0.00195312) belongs to regions []; expected exactly one")


def test_sample_blocks_hold_the_reference_points_in_order():
    for domain in (Domain("plane_rect", -1, 3, -2, 0.5), Domain("flat_torus", 0, 1, 0, 2)):
        system = FilippovSystem(domain, [SwitchingCurve(0, ScalarField("y"), 1, 2)],
                                [RegionSpec(1, PlanarField("1", "0"), [(0, 1)]),
                                 RegionSpec(2, PlanarField("1", "0"), [(0, -1)])],
                                validate=False)
        blocks = list(system._sample_points())
        assert all(len(xs) == len(ys) <= 256 for xs, ys in blocks)
        points = [p for xs, ys in blocks for p in zip(xs, ys)]
        assert points == list(_reference_points(domain))


def test_each_h_is_evaluated_once_per_sample(monkeypatch):
    system = _EXAMPLES[0]
    reads, calls = {}, {}
    depth = [0]
    raw = ScalarField.raw

    def counting_raw(field):
        fn = raw(field)

        def counted(x, y):
            key = (id(field), depth[0] > 0)
            calls[key] = calls.get(key, 0) + 1
            return fn(x, y)

        return counted

    def reading(field):
        def read(x, y):
            reads[id(field)] = reads.get(id(field), 0) + 1

        return read

    check_on_curve = FilippovSystem._check_on_curve

    def projecting(self, *args):
        depth[0] += 1
        try:
            return check_on_curve(self, *args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ScalarField, "raw", counting_raw)
    monkeypatch.setattr(FilippovSystem, "_check_on_curve", projecting)
    observe_loop_reads(monkeypatch, reading)  # the pass inlines each h: its reads come through the text hook
    system.validate()
    samples = 256 * 256 + 10_000
    for curve in system.curves:
        assert reads[id(curve.h)] == samples
        assert (id(curve.h), False) not in calls  # the pass calls no h
        assert calls[(id(curve.h), True)] > 0  # near-curve projections
