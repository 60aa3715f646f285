"""Deterministic SVG drawings of a configuration.

Presentation only: nothing downstream ever reads these files back.  All
geometry stays rational until the final formatting step, which renders
each coordinate with 12 significant digits through :mod:`decimal`, so
output bytes are identical for identical inputs on any platform.  Each
finite drawn point is mapped and formatted once per render.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable

from .configuration import DIAGONAL_PAIRS, E_LINE_PAIRS, Configuration

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

# the points that frame the view; the seven layer also draws to A1 B1 C1 D1,
# which may lie far outside it
_FRAME = ("A", "B", "C", "D", "M", "N", "P", "Q", "O", "E",
          "F1", "G1", "F2", "G2", "M1", "N1", "P1", "Q1")
_DRAWN = _FRAME + ("A1", "B1", "C1", "D1")
_INNER = ("M1", "N1", "P1", "Q1")


def _fmt(value: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = RENDER_DIGITS
        out = Decimal(value.numerator) / Decimal(value.denominator)
    return format(out, "f") if -1e15 < out < 1e15 else str(out)


def _screen(cfg: Configuration) -> dict[str, tuple[str, str]]:
    """The SVG coordinate strings of every finite drawn point, by name."""
    affine: dict[str, tuple[Fraction, Fraction]] = {}
    for name in _DRAWN:
        pt = cfg.point(name)
        if pt is not None and pt.is_finite:
            affine[name] = pt.affine()
    xs = [affine[n][0] for n in _FRAME if n in affine]
    ys = [affine[n][1] for n in _FRAME if n in affine]
    lo_x, lo_y = min(xs), min(ys)
    span = max(max(xs) - lo_x, max(ys) - lo_y, Fraction(1))
    pad = span * MARGIN
    min_x, min_y = lo_x - pad, lo_y - pad
    scale = Fraction(VIEW) / (span + 2 * pad)
    return {name: (_fmt((x - min_x) * scale), _fmt(VIEW - (y - min_y) * scale))
            for name, (x, y) in affine.items()}


def render_svg(cfg: Configuration, layers: Iterable[str] | None = None) -> str:
    """One self-contained SVG document for the configuration."""
    active = tuple(layers) if layers is not None else LAYERS
    unknown = sorted(set(active) - set(LAYERS))
    if unknown:
        raise ValueError(f"unknown layers: {', '.join(unknown)}")

    xy = _screen(cfg)
    labels = "labels" in active
    body: list[str] = []

    def line(layer: str, u: str, v: str) -> None:
        if u in xy and v in xy and cfg.point(u) != cfg.point(v):
            (x1, y1), (x2, y2) = xy[u], xy[v]
            body.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {_STYLE[layer]} />')

    def label(name: str) -> None:
        x, y = xy[name]
        body.append(f'<text x="{x}" y="{y}" dx="5" dy="-5" '
                    f'font-family="monospace" font-size="12">{name}</text>')

    def dot(name: str, style: str, radius: str) -> None:
        if name in xy:
            cx, cy = xy[name]
            body.append(f'<circle cx="{cx}" cy="{cy}" r="{radius}" {style} />')
            if labels:
                label(name)

    if "sides" in active:
        for u, v in ("AB", "BC", "CD", "DA"):
            line("sides", u, v)
    if "diagonals" in active:
        for u, v in ("AC", "BD"):
            line("diagonals", u, v)
    if "seven" in active:
        # at product one F1 = F2 and G1 = G2, so F1G1 is the seventh line
        fg = DIAGONAL_PAIRS[:1] if cfg.ratios.gamma == 1 else DIAGONAL_PAIRS
        for u, v in E_LINE_PAIRS + fg:
            line("seven", u, v)
    if "fg" in active:
        for name in ("F1", "G1", "F2", "G2"):
            dot(name, _STYLE["fg"], "3")
    if "inner" in active:
        if all(name in xy for name in _INNER):
            pts = " ".join(",".join(xy[name]) for name in _INNER)
            body.append(f'<polygon points="{pts}" {_STYLE["inner"]} />')
        dot("E", 'fill="#c23b22"', "4")
    if labels:
        for name in "ABCDMNPQ":
            label(name)

    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW}" height="{VIEW}" '
        f'viewBox="0 0 {VIEW} {VIEW}">\n'
        f'<rect width="{VIEW}" height="{VIEW}" fill="#ffffff" />\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"
