"""Construction of the full named-point configuration of a quadrilateral.

Given vertices ``A B C D`` and one point per side (``M`` on ``AB``, ``N``
on ``BC``, ``P`` on ``CD``, ``Q`` on ``DA``), this module derives every
named intersection the verifiers consume: the diagonal meet ``O``, the
four cross meets ``X Y Z T``, the cevian meets ``A1 B1 C1 D1``, the
diagonal division points ``F1 G1 F2 G2``, the transversal crossing ``E``,
the quadruple-concurrence points ``M1 N1 P1 Q1``, and the trace ``R`` of
``NQ`` on line ``AB`` together with its unsigned ratio ``r``.

Only points are canonical.  Each line is the unreduced ``cross3`` of the
triples of its two points, a transient triple that only feeds meets, and
each meet is one ``reduce3`` of the cross product of two lines; the
kernel's ``Line``, ``line_through`` and ``meet`` are public API, not this
path.  Coincidences the construction can survive are recorded as named
degeneracy flags instead of raising; a point is stored as ``None`` only
when one of its defining lines collapses entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from ._purekernel import cross3, reduce3
from .errors import DegenerateQuadrilateral, InstanceFormatError, UndefinedPoint
from .kernel import (
    CONVEX,
    DEGENERATE,
    Point,
    RatLike,
    Shape,
    as_rat,
    classify_quadrilateral,
    collinear,
    directed_ratio,
    point_dividing,
)

# every constructed point as the meet of two lines, each through two
# earlier points, in construction order: the first row whose two lines
# coincide names the UndefinedPoint
CONSTRUCTION: tuple[tuple[str, tuple[str, str], tuple[str, str]], ...] = (
    ("O", ("A", "C"), ("B", "D")),
    ("X", ("A", "N"), ("B", "Q")),
    ("Z", ("D", "N"), ("C", "Q")),
    ("Y", ("C", "M"), ("B", "P")),
    ("T", ("A", "P"), ("D", "M")),
    ("A1", ("B", "P"), ("D", "N")),
    ("B1", ("A", "P"), ("C", "Q")),
    ("C1", ("B", "Q"), ("D", "M")),
    ("D1", ("A", "N"), ("C", "M")),
    ("F1", ("B", "D1"), ("A", "C")),
    ("G1", ("C", "A1"), ("B", "D")),
    ("F2", ("D", "B1"), ("A", "C")),
    ("G2", ("A", "C1"), ("B", "D")),
    ("E", ("M", "P"), ("N", "Q")),
    ("M1", ("A", "A1"), ("D", "D1")),
    ("N1", ("A", "A1"), ("B", "B1")),
    ("P1", ("B", "B1"), ("C", "C1")),
    ("Q1", ("C", "C1"), ("D", "D1")),
    ("R", ("N", "Q"), ("A", "B")),
)

# the point pairs spanning the six lines that pass through E at ratio
# product one; the seventh is the line F1G1
E_LINE_PAIRS = (("A", "A1"), ("B", "B1"), ("C", "C1"), ("D", "D1"), ("M", "P"), ("N", "Q"))

# the point pairs whose coincidence collapses one of the four lines
# joining consecutive diagonal division points
DIAGONAL_PAIRS = (
    ("F1", "G1"),
    ("G1", "F2"),
    ("F2", "G2"),
    ("G2", "F1"),
)

class Quadrilateral(NamedTuple):
    """Four labeled finite vertices plus their shape class."""

    A: Point
    B: Point
    C: Point
    D: Point
    shape: Shape

    @classmethod
    def of(cls, a: Point, b: Point, c: Point, d: Point) -> "Quadrilateral":
        return cls(a, b, c, d, classify_quadrilateral(a, b, c, d))

    @property
    def vertices(self) -> tuple[Point, Point, Point, Point]:
        return self[:4]


@dataclass(frozen=True)
class SideRatios:
    """The tuple ``(m, n, p, q)`` of side division ratios and their product."""

    m: Fraction
    n: Fraction
    p: Fraction
    q: Fraction
    gamma: Fraction = field(init=False)

    def __post_init__(self) -> None:
        m, n, p, q = self.as_tuple
        # mnpq as one Fraction: the numerator product over the denominator product
        object.__setattr__(self, "gamma", Fraction(
            m.numerator * n.numerator * p.numerator * q.numerator,
            m.denominator * n.denominator * p.denominator * q.denominator))

    @classmethod
    def of(cls, m: RatLike, n: RatLike, p: RatLike, q: RatLike) -> "SideRatios":
        return cls(as_rat(m), as_rat(n), as_rat(p), as_rat(q))

    @property
    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.m, self.n, self.p, self.q)


@dataclass(frozen=True)
class Configuration:
    """All named points derived from a quadrilateral and its side points."""

    quad: Quadrilateral
    ratios: SideRatios
    # read-only name -> point; None where a defining line is undefined.
    # Left out of the hash, which a mapping proxy does not support.
    _points: Mapping[str, Optional[Point]] = field(hash=False)
    r_ratio: Fraction
    degeneracies: frozenset[str]

    def point(self, name: str) -> Optional[Point]:
        return self._points[name]

    def named_points(self) -> dict[str, Optional[Point]]:
        return dict(self._points)


def _construct(quad: Quadrilateral, ratios: SideRatios) -> Configuration:
    A, B, C, D = quad.vertices
    side_points = (
        point_dividing(A, B, ratios.m),
        point_dividing(B, C, ratios.n),
        point_dividing(C, D, ratios.p),
        point_dividing(D, A, ratios.q),
    )
    points: dict[str, Optional[Point]] = dict(zip("ABCDMNPQ", quad.vertices + side_points))
    triples: dict[str, Optional[tuple[int, int, int]]] = {
        name: pt.triple() for name, pt in points.items()}
    # each line as the unreduced cross product of its two point triples, or
    # None where an end is undefined, the ends are equal (0, 0, 0) or both
    # ideal (0, 0, c); lines shared by several rows are built once
    lines: dict[tuple[str, str], Optional[tuple[int, int, int]]] = {}
    flags: set[str] = set()
    for name, uv, st in CONSTRUCTION:
        for u, v in (uv, st):
            if (u, v) not in lines:
                tu, tv = triples[u], triples[v]
                c = cross3(tu, tv) if tu is not None and tv is not None else (0, 0, 0)
                lines[u, v] = c if c[0] or c[1] else None
        l1, l2 = lines[uv], lines[st]
        if l1 is None or l2 is None:
            flags.add(f"{name}_UNDEFINED")
            points[name] = triples[name] = None
            continue
        c = cross3(l1, l2)
        if c == (0, 0, 0):
            raise UndefinedPoint(name)
        t = triples[name] = reduce3(*c)
        points[name] = Point._wrap(t)
        # R ideal is an in-convention case (its ratio is defined to be 1),
        # so it does not count as a degeneracy
        if t[2] == 0 and name != "R":
            flags.add(f"{name}_IDEAL")

    R = points["R"]
    r_ratio = Fraction(1)
    if R is not None and not R.is_ideal:
        if R == B:
            # the unsigned ratio AR/RB is infinite
            flags.add("R_RATIO_UNDEFINED")
        else:
            r_ratio = abs(directed_ratio(A, R, B))

    for u, v in DIAGONAL_PAIRS:
        pu, pv = points[u], points[v]
        if pu is not None and pv is not None and pu == pv:
            flags.add(f"{u}_EQ_{v}")

    return Configuration(quad, ratios, MappingProxyType(points), r_ratio, frozenset(flags))


def build_from_ratios(quad: Quadrilateral, ratios: SideRatios) -> Configuration:
    """Place the side points at the given positive ratios and derive everything."""
    if quad.shape == DEGENERATE:
        raise DegenerateQuadrilateral("cannot build on a degenerate quadrilateral")
    if any(r <= 0 for r in ratios.as_tuple):
        raise InstanceFormatError("side ratios must be positive")
    return _construct(quad, ratios)


def build_from_points(quad: Quadrilateral, M: Point, N: Point, P: Point, Q: Point) -> Configuration:
    """Recover the side ratios from explicit side points, then construct.

    Each point must lie on the line of its side and differ from the
    side's endpoints; for convex quadrilaterals it must additionally lie
    strictly inside the open segment.
    """
    if quad.shape == DEGENERATE:
        raise DegenerateQuadrilateral("cannot build on a degenerate quadrilateral")
    A, B, C, D = quad.vertices
    sides = (("M", M, A, B), ("N", N, B, C), ("P", P, C, D), ("Q", Q, D, A))
    ratios = []
    for name, pt, u, v in sides:
        if pt.is_ideal:
            raise InstanceFormatError(f"{name} must be a finite point")
        if pt == u or pt == v:
            raise InstanceFormatError(f"{name} coincides with a vertex")
        if not collinear(u, pt, v):
            raise InstanceFormatError(f"point {name} does not lie on its side")
        ratio = directed_ratio(u, pt, v)
        if quad.shape == CONVEX and ratio < 0:
            raise InstanceFormatError(f"{name} is outside its open side")
        ratios.append(ratio)
    # point_dividing inverts directed_ratio exactly: the built side points are M N P Q
    return _construct(quad, SideRatios(*ratios))

