"""Deterministic SVG drawings of a configuration.

Presentation only: nothing downstream ever reads these files back.  The
map to the view works on the canonical integer triples: every finite
drawn point is put over one common weight, and each SVG coordinate is one
integer quotient ``num / den``.  The final formatting step rounds it
once to 12 significant digits, half to even, in integer arithmetic, so
output bytes are identical for identical inputs on any platform.
Each distinct finite drawn triple is mapped and formatted once per
render, read from the configuration's slot triples without making a
point.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable

from .configuration import DIAGONAL_PAIRS, E_LINE_PAIRS, SLOT, Configuration, construction_plan
from .errors import select

RENDER_DIGITS = 12
VIEW = 640

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
_DRAWN_SLOTS = tuple((name, SLOT[name]) for name in _DRAWN)
# the construction plan of the drawn points, which ``figure`` builds: it
# leaves out X Z Y T and R, whose flags and r no figure writes
DRAWN_PLAN = construction_plan(_DRAWN)
_INNER = ("M1", "N1", "P1", "Q1")


# 10**k for every k below _POWERS, as _fmt needs them for figure
# coordinates; a larger power is made on use
_POWERS = 32
_POW10 = tuple(10**k for k in range(_POWERS))
_LIMIT = 10**RENDER_DIGITS


def _fmt(num: int, den: int) -> str:
    """``num / den`` (``den > 0``) to ``RENDER_DIGITS`` significant digits,
    half to even, in the bytes of ``decimal``'s division at that precision:
    fixed point below ``1e15``, else ``d.dddE+n``; an exact quotient keeps
    no trailing zero after the point."""
    a = abs(num)
    if a == 0:
        return "0"
    # e, the exponent of the last kept digit, starts at or below its value:
    # log10(a / den) > y*log10(2), and 1233/4096 < log10(2) < 1234/4096
    y = a.bit_length() - den.bit_length() - 1
    e = (y * (1233 if y >= 0 else 1234) >> 12) + 1 - RENDER_DIGITS
    if e < 0:
        d = den
        q, r = divmod(a * (_POW10[-e] if -e < _POWERS else 10**-e), d)
    else:
        d = den * (_POW10[e] if e < _POWERS else 10**e)
        q, r = divmod(a, d)
    while q >= _LIMIT:  # one digit too many: move it into r
        q, last = divmod(q, 10)
        r += last * d
        d *= 10
        e += 1
    if 2 * r > d or (2 * r == d and q & 1):
        q += 1
        if q == _LIMIT:
            q, e = q // 10, e + 1
    while r == 0 and e < 0 and q % 10 == 0:
        q, e = q // 10, e + 1
    digits, sign = str(q), "-" if num < 0 else ""
    if e < 0:
        return f"{sign}{digits[:e] or '0'}.{digits[e:].rjust(-e, '0')}"
    adjusted = e + len(digits) - 1
    if adjusted >= 15:  # e > 0, so all RENDER_DIGITS digits are kept
        return f"{sign}{digits[0]}.{digits[1:]}E+{adjusted}"
    return sign + digits + "0" * e


def _screen(cfg: Configuration) -> dict[str, tuple[str, str]]:
    """The SVG coordinate strings of every finite drawn point, by name.
    Points that coincide (at product one E, M1, N1, P1 and Q1 do) share one
    triple, which is mapped and formatted once."""
    t = cfg.triples
    triples = {name: t[slot] for name, slot in _DRAWN_SLOTS if t[slot] is not None and t[slot][2]}
    distinct = set(triples.values())
    weight = lcm(*(w for _, _, w in distinct))
    xy = {p: (p[0] * (weight // p[2]), p[1] * (weight // p[2])) for p in distinct}
    xs = [xy[triples[n]][0] for n in _FRAME if n in triples]
    ys = [xy[triples[n]][1] for n in _FRAME if n in triples]
    lo_x, lo_y = min(xs), min(ys)
    # the framed span s (at least 1) plus a margin of s/12 on each side fills
    # VIEW: x' = (x - lo_x + s/12) * VIEW / (14s/12) = (3840x + 320(s - 12 lo_x)) / (7s),
    # and y' = VIEW - the same in y = (VIEW 7s - 320(s - 12 lo_y) - 3840y) / (7s); over
    # the common weight every term is an integer, and s is at least the weight.  Each
    # axis's offset is made once per render.
    s = max(max(xs) - lo_x, max(ys) - lo_y, weight)
    den = 7 * s
    x0, y0 = 320 * (s - 12 * lo_x), VIEW * den - 320 * (s - 12 * lo_y)
    screen = {p: (_fmt(3840 * x + x0, den), _fmt(y0 - 3840 * y, den))
              for p, (x, y) in xy.items()}
    return {name: screen[p] for name, p in triples.items()}


def select_layers(layers: Iterable[str] | None = None) -> tuple[str, ...]:
    """The layers ``layers`` selects (all by default), once each and in the
    fixed order; an unknown name raises ``InstanceFormatError``."""
    return select(LAYERS, layers, "layers")


def render_svg(cfg: Configuration, layers: Iterable[str] | None = None) -> str:
    """One self-contained SVG document for the configuration, drawing the
    layers ``select_layers(layers)`` names."""
    active = select_layers(layers)
    xy = _screen(cfg)
    t = cfg.triples
    labels = "labels" in active
    body: list[str] = []

    def line(layer: str, u: str, v: str) -> None:
        if u in xy and v in xy and t[SLOT[u]] != t[SLOT[v]]:
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
        G, H = cfg.ratios.gamma
        fg = DIAGONAL_PAIRS[:1] if G == H else DIAGONAL_PAIRS
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
