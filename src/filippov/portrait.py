"""Deterministic SVG phase portraits.

Rendering conventions: sliding arcs solid-thick, escaping arcs dashed-thick,
crossing arcs thin, tangency points as open circles, pseudo-equilibria as
filled dots; orbits are polylines split at torus wraps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigurationError
from .sigma import PointClass

ARC_STYLE = {
    PointClass.SLIDING: ("#b40426", 3.0, None),
    PointClass.ESCAPING: ("#b40426", 3.0, "8 5"),
    PointClass.CROSSING: ("#555555", 1.0, None),
}
ORBIT_COLORS = ("#1f77b4", "#2ca02c", "#9467bd", "#e377c2", "#17becf", "#bcbd22")
MARGIN = 40  # pixels between the canvas edge and the domain frame


@dataclass
class PortraitSpec:
    width: int = 640
    height: int = 640
    title: str | None = None

    def __post_init__(self):
        if not min(self.width, self.height) > 2 * MARGIN:  # the frame would be mirrored or a point
            raise ConfigurationError(f"portrait: expected each side above {2 * MARGIN} px, the two "
                                     f"{MARGIN} px margins, got {self.width}x{self.height}")


@dataclass
class PortraitData:
    domain: object
    decompositions: list = field(default_factory=list)
    orbits: list = field(default_factory=list)


def _fmt(v):
    return f"{v:.3f}".rstrip("0").rstrip(".")


class _Canvas:
    def __init__(self, spec, domain):
        self.spec = spec
        self.domain = domain
        self.parts = []
        inner_w = spec.width - 2 * MARGIN
        inner_h = spec.height - 2 * MARGIN
        self.sx = inner_w / domain.width
        self.sy = inner_h / domain.height

    def map(self, p):
        x = MARGIN + (p[0] - self.domain.x_min) * self.sx
        y = self.spec.height - MARGIN - (p[1] - self.domain.y_min) * self.sy
        return (x, y)

    def polyline(self, points, color, width, dash=None, cls="arc"):
        if len(points) < 2:
            return
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (self.map(p) for p in points))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<polyline class="{cls}" points="{coords}" fill="none" '
            f'stroke="{color}" stroke-width="{_fmt(width)}"{dash_attr}/>'
        )

    def circle(self, p, r, fill, stroke, cls):
        x, y = self.map(p)
        self.parts.append(
            f'<circle class="{cls}" cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="1"/>'
        )

    def text(self, x, y, content, size=12):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'font-family="sans-serif">{content}</text>'
        )


def _split_wraps(domain, points):
    """Break a trace into pieces at torus wrap jumps."""
    if domain.kind != "flat_torus" or len(points) < 2:
        yield points
        return
    piece = [points[0]]
    for p in points[1:]:
        prev = piece[-1]
        if (abs(p[0] - prev[0]) > domain.width / 2
                or abs(p[1] - prev[1]) > domain.height / 2):
            yield piece
            piece = [p]
        else:
            piece.append(p)
    yield piece


def render_portrait(spec: PortraitSpec, data: PortraitData) -> str:
    """Render to an SVG 1.1 document string (deterministic output)."""
    canvas = _Canvas(spec, data.domain)
    d = data.domain
    frame = [
        (d.x_min, d.y_min), (d.x_max, d.y_min),
        (d.x_max, d.y_max), (d.x_min, d.y_max), (d.x_min, d.y_min),
    ]
    canvas.polyline(frame, "#000000", 1.0, cls="frame")

    for dec in data.decompositions:
        for arc in dec.arcs:
            color, width, dash = ARC_STYLE.get(arc.point_class, ("#555555", 1.0, None))
            for piece in _split_wraps(d, arc.samples):
                canvas.polyline(piece, color, width, dash, cls=f"arc-{arc.point_class.value}")
        for tp in dec.tangencies:
            canvas.circle(tp.position, 5.0, "none", "#000000", cls="tangency")
        for pe in dec.pseudo_equilibria:
            canvas.circle(pe, 4.0, "#000000", "#000000", cls="pseudo-equilibrium")

    for i, orbit in enumerate(data.orbits):
        color = ORBIT_COLORS[i % len(ORBIT_COLORS)]
        for seg in orbit.segments:
            if seg.kind not in ("regular_arc", "sliding_arc"):
                continue
            width = 2.2 if seg.kind == "sliding_arc" else 1.2
            for piece in _split_wraps(d, seg.points):
                canvas.polyline(piece, color, width, cls=f"orbit-{seg.kind}")

    y0 = 16
    if spec.title:
        canvas.text(MARGIN, y0, spec.title, size=14)
        y0 += 16
    canvas.text(MARGIN, y0,
                "sliding: thick solid | escaping: thick dashed | crossing: thin | "
                "tangency: circle | pseudo-equilibrium: dot", size=10)

    body = "\n".join(canvas.parts)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width}" height="{spec.height}" '
        f'viewBox="0 0 {spec.width} {spec.height}">\n'
        f"{body}\n</svg>\n"
    )
