import re
import xml.etree.ElementTree as ET

import pytest

from filippov.errors import ConfigurationError
from filippov.integrate import integrate_filippov
from filippov.portrait import PortraitData, PortraitSpec, render_portrait
from filippov.sigma import sigma_decomposition

from conftest import build_plane_system


def _parse(svg_text):
    return ET.fromstring(svg_text)


NS = "{http://www.w3.org/2000/svg}"


def test_svg_root_attributes(fold_system):
    svg = render_portrait(PortraitSpec(), PortraitData(fold_system.domain))
    root = _parse(svg)
    assert root.tag == f"{NS}svg"
    assert root.attrib["version"] == "1.1"
    assert root.attrib["width"] == "640"
    assert root.attrib["viewBox"] == "0 0 640 640"


def test_empty_data_gives_legend_only(fold_system):
    svg = render_portrait(PortraitSpec(), PortraitData(fold_system.domain))
    root = _parse(svg)
    texts = root.findall(f"{NS}text")
    assert texts  # legend present
    polylines = root.findall(f"{NS}polyline")
    assert len(polylines) == 1  # just the domain frame


def test_single_arc_affine_mapping():
    s = build_plane_system(("1", "0"), ("1", "1"), bounds=(-2, 2, -1, 1))
    orbit = integrate_filippov(s, (-2.0, 0.5), 3.8)
    spec = PortraitSpec(width=440, height=240)
    svg = render_portrait(spec, PortraitData(s.domain, orbits=[orbit]))
    root = _parse(svg)
    lines = [e for e in root.findall(f"{NS}polyline") if e.attrib.get("class", "").startswith("orbit")]
    assert len(lines) == 1
    coords = lines[0].attrib["points"].split()
    x0, y0 = (float(v) for v in coords[0].split(","))
    x1, y1 = (float(v) for v in coords[-1].split(","))
    # inside the 40-pixel margin, 90 pixels per unit across and 80 up: (-2, 0.5) maps to the
    # left edge at 3/4 height, (1.8, 0.5) near the right
    assert (x0, y0) == pytest.approx((40.0, 80.0), abs=0.5)
    assert (x1, y1) == pytest.approx((382.0, 80.0), abs=0.5)


def test_decomposition_styling_counts(fold_system):
    dec = sigma_decomposition(fold_system, 0, 400)
    svg = render_portrait(PortraitSpec(), PortraitData(fold_system.domain, [dec]))
    root = _parse(svg)
    sliding = [e for e in root.findall(f"{NS}polyline") if e.attrib.get("class") == "arc-sliding"]
    crossing = [e for e in root.findall(f"{NS}polyline") if e.attrib.get("class") == "arc-crossing"]
    tangency = [e for e in root.findall(f"{NS}circle") if e.attrib.get("class") == "tangency"]
    assert len(sliding) == 1
    assert len(crossing) == 1
    assert len(tangency) == 1
    assert float(sliding[0].attrib["stroke-width"]) > float(crossing[0].attrib["stroke-width"])


def test_escaping_arcs_dashed(belt_system):
    dec = sigma_decomposition(belt_system, 0, 300)
    svg = render_portrait(PortraitSpec(), PortraitData(belt_system.domain, [dec]))
    root = _parse(svg)
    escaping = [e for e in root.findall(f"{NS}polyline") if e.attrib.get("class") == "arc-escaping"]
    assert escaping
    assert all("stroke-dasharray" in e.attrib for e in escaping)


def test_pseudo_equilibrium_marker(pe_system):
    dec = sigma_decomposition(pe_system, 0, 400)
    svg = render_portrait(PortraitSpec(), PortraitData(pe_system.domain, [dec]))
    root = _parse(svg)
    dots = [e for e in root.findall(f"{NS}circle") if e.attrib.get("class") == "pseudo-equilibrium"]
    assert len(dots) == 1
    assert dots[0].attrib["fill"] != "none"


def test_torus_orbit_split_at_wraps(belt_system):
    orbit = integrate_filippov(belt_system, (0.6, 0.0), 1.0)  # wraps x once
    svg = render_portrait(PortraitSpec(), PortraitData(belt_system.domain, orbits=[orbit]))
    root = _parse(svg)
    pieces = [e for e in root.findall(f"{NS}polyline")
              if e.attrib.get("class", "").startswith("orbit")]
    assert len(pieces) >= 2  # split at the seam, no spurious cross-canvas strokes


def test_render_is_deterministic(fold_system):
    dec = sigma_decomposition(fold_system, 0, 300)
    data = PortraitData(fold_system.domain, [dec])
    assert render_portrait(PortraitSpec(), data) == render_portrait(PortraitSpec(), data)


@pytest.mark.parametrize("width, height", [(60, 60), (80, 80), (640, 80), (80, 640)])
def test_spec_rejects_a_side_within_the_margins(width, height):
    # a 60 px side drew the frame mirrored (x from 40 back to 20), an 80 px side a point
    with pytest.raises(ConfigurationError, match=rf"^portrait: expected each side above 80 px, "
                       rf"the two 40 px margins, got {width}x{height}$"):
        PortraitSpec(width=width, height=height)


def test_spec_takes_a_side_just_above_the_margins(fold_system):
    root = _parse(render_portrait(PortraitSpec(width=81, height=81), PortraitData(fold_system.domain)))
    frame = root.findall(f"{NS}polyline")[0].attrib["points"]
    assert frame == "40,41 41,41 41,40 40,40 40,41"  # x runs left to right, y upwards
