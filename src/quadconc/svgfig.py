"""Deterministic SVG drawings of a configuration.

Presentation only: nothing downstream ever reads these files back.  All
geometry stays rational until the final formatting step, which renders
each coordinate with 12 significant digits through :mod:`decimal`, so
output bytes are identical for identical inputs on any platform.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Optional

from .configuration import DIAGONAL_PAIRS, E_LINE_PAIRS, Configuration
from .kernel import Point

RENDER_DIGITS = 12
VIEW = 640
MARGIN = Fraction(1, 12)

LAYERS = ("sides", "diagonals", "seven", "fg", "inner", "labels")

_STYLE = {
    "sides": 'stroke="#1a1a1a" stroke-width="1.6"',
    "diagonals": 'stroke="#7a7a7a" stroke-width="0.9" stroke-dasharray="6 4"',
    "seven": 'stroke="#c23b22" stroke-width="1.1"',
    "fg": 'fill="#1159a6"',
    "inner": 'stroke="#2d8632" stroke-width="1.1" fill="none"',
}


def _fmt(value: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = RENDER_DIGITS
        out = Decimal(value.numerator) / Decimal(value.denominator)
    return format(out, "f") if -1e15 < out < 1e15 else str(out)


class _Canvas:
    def __init__(self, points: list[tuple[Fraction, Fraction]]):
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        min_x, max_x = min(xs), max(xs)
        min_y, max_y = min(ys), max(ys)
        span = max(max_x - min_x, max_y - min_y, Fraction(1))
        pad = span * MARGIN
        self.min_x = min_x - pad
        self.min_y = min_y - pad
        self.scale = Fraction(VIEW) / (span + 2 * pad)

    def map(self, pt: Point) -> tuple[str, str]:
        x, y = pt.affine()
        sx = (x - self.min_x) * self.scale
        sy = VIEW - (y - self.min_y) * self.scale
        return _fmt(sx), _fmt(sy)


def _segment(canvas: _Canvas, a: Point, b: Point, style: str) -> str:
    x1, y1 = canvas.map(a)
    x2, y2 = canvas.map(b)
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {style} />'


def _marker(canvas: _Canvas, pt: Point, style: str, radius: str = "3") -> str:
    cx, cy = canvas.map(pt)
    return f'<circle cx="{cx}" cy="{cy}" r="{radius}" {style} />'


def _label(canvas: _Canvas, pt: Point, text: str) -> str:
    cx, cy = canvas.map(pt)
    return (
        f'<text x="{cx}" y="{cy}" dx="5" dy="-5" '
        f'font-family="monospace" font-size="12">{text}</text>'
    )


def _finite(pt: Optional[Point]) -> Optional[Point]:
    if pt is None or pt.is_ideal:
        return None
    return pt


def render_svg(cfg: Configuration, layers: Iterable[str] | None = None) -> str:
    """One self-contained SVG document for the configuration."""
    active = tuple(layers) if layers is not None else LAYERS
    unknown = sorted(set(active) - set(LAYERS))
    if unknown:
        raise ValueError(f"unknown layers: {', '.join(unknown)}")

    quad = cfg.quad
    anchor_names = ["A", "B", "C", "D", "M", "N", "P", "Q"]
    extra_names = ["O", "E", "F1", "G1", "F2", "G2", "M1", "N1", "P1", "Q1"]
    anchors = [cfg.point(n) for n in anchor_names]
    extras = [_finite(cfg.point(n)) for n in extra_names]
    canvas = _Canvas([pt.affine() for pt in anchors + [p for p in extras if p is not None]])

    body: list[str] = []

    def seg(layer: str, a: Optional[Point], b: Optional[Point]) -> None:
        a, b = _finite(a), _finite(b)
        if a is not None and b is not None and a != b:
            body.append(_segment(canvas, a, b, _STYLE[layer]))

    if "sides" in active:
        seg("sides", quad.A, quad.B)
        seg("sides", quad.B, quad.C)
        seg("sides", quad.C, quad.D)
        seg("sides", quad.D, quad.A)
    if "diagonals" in active:
        seg("diagonals", quad.A, quad.C)
        seg("diagonals", quad.B, quad.D)
    if "seven" in active:
        # at product one F1 = F2 and G1 = G2, so F1G1 is the seventh line
        fg = DIAGONAL_PAIRS[:1] if cfg.ratios.gamma == 1 else DIAGONAL_PAIRS
        for u, v in E_LINE_PAIRS + fg:
            seg("seven", cfg.point(u), cfg.point(v))
    if "fg" in active:
        for name in ("F1", "G1", "F2", "G2"):
            pt = _finite(cfg.point(name))
            if pt is not None:
                body.append(_marker(canvas, pt, _STYLE["fg"]))
                if "labels" in active:
                    body.append(_label(canvas, pt, name))
    if "inner" in active:
        inner = [_finite(cfg.point(n)) for n in ("M1", "N1", "P1", "Q1")]
        if all(p is not None for p in inner):
            pts = " ".join(",".join(canvas.map(p)) for p in inner)  # type: ignore[arg-type]
            body.append(f'<polygon points="{pts}" {_STYLE["inner"]} />')
        e = _finite(cfg.point("E"))
        if e is not None:
            body.append(_marker(canvas, e, 'fill="#c23b22"', radius="4"))
            if "labels" in active:
                body.append(_label(canvas, e, "E"))
    if "labels" in active:
        for name in ("A", "B", "C", "D", "M", "N", "P", "Q"):
            body.append(_label(canvas, cfg.point(name), name))

    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW}" height="{VIEW}" '
        f'viewBox="0 0 {VIEW} {VIEW}">\n'
        f'<rect width="{VIEW}" height="{VIEW}" fill="#ffffff" />\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"
