"""Seeded generation of random quadrilaterals and side-ratio tuples.

The generator is a plain splitmix64 stream so that any implementation,
in any language, can reproduce the exact same instances from the same
64-bit seed.  All constants are spelled out below and the stream keying
is a pure function of ``(seed, index, tag)``:

* state advance: ``state = (state + 0x9E3779B97F4A7C15) mod 2**64``
* output mix:    ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
  z *= 0x94D049BB133111EB; z ^= z >> 31`` (all mod 2**64)
* stream seed:   ``mix64(seed) XOR mix64(index * 0x9E3779B97F4A7C15 + tag)``
* bounded draw:  ``lo + next_u64() mod (hi - lo + 1)``

Rational draws take a numerator and a denominator from the bounded draw,
so coordinates and ratios stay within the configured magnitude bounds.
Instances are produced by rejection sampling with a hard cap of 1000
attempts per instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .configuration import Quadrilateral, SideRatios
from .errors import GenerationExhausted, InstanceFormatError
from ._purekernel import det3, reduce3
from .kernel import (CONCAVE, CONVEX, CROSSED, DEGENERATE, Point, Shape, dividing_terms,
                     point_from_terms)

# accepted by the generator only; never a classification result
ANY_SHAPE: Shape = "any"

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

TAG_QUAD = 0x71
TAG_RATIOS = 0x72

REJECTION_CAP = 1000


def mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
    return z ^ (z >> 31)


class Stream:
    """splitmix64 over a 64-bit state."""

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        return mix64(self.state)

    def next_int(self, lo: int, hi: int) -> int:
        return lo + self.next_u64() % (hi - lo + 1)

    def next_positive(self, bound: int) -> Fraction:
        return Fraction(self.next_int(1, bound), self.next_int(1, bound))


def instance_stream(seed: int, index: int, tag: int) -> Stream:
    return Stream(mix64(seed) ^ mix64((index * _GOLDEN + tag) & _MASK))


@dataclass(frozen=True)
class GenSpec:
    """Parameters of a deterministic instance stream; bad ones raise InstanceFormatError."""

    seed: int = 0
    shape: Shape = CONVEX
    coordinate_bound: int = 10
    ratio_bound: int = 8
    force_gamma_one: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= _MASK:
            raise InstanceFormatError("seed must fit in 64 bits")
        if self.shape not in (CONVEX, CONCAVE, CROSSED, ANY_SHAPE):
            raise InstanceFormatError(f"unknown shape {self.shape!r}")
        if self.coordinate_bound < 4:
            raise InstanceFormatError("coordinate_bound must be at least 4")
        if self.ratio_bound < 1:
            raise InstanceFormatError("ratio_bound must be at least 1")


def _ccw_about_centroid(points: list[Point]) -> list[Point]:
    # affine coordinates scaled by the (positive) product of the weights,
    # and offsets from the centroid scaled by n on top: integers with the
    # signs of the true offsets, so the order is the affine one
    triples = [p.triple() for p in points]
    scale = 1
    for _, _, w in triples:
        scale *= w
    coords = [(x * (scale // w), y * (scale // w)) for x, y, w in triples]
    n = len(coords)
    sx = sum(c[0] for c in coords)
    sy = sum(c[1] for c in coords)
    # counterclockwise from the positive x direction: the half plane first
    # (0 for angles in [0, pi), else 1), then the cross product; a stable
    # insertion keeps equal directions in input order
    ordered: list[tuple[int, int, int, Point]] = []
    for (u, v), p in zip(coords, points):
        dx, dy = n * u - sx, n * v - sy
        half = 0 if dy > 0 or (dy == 0 and dx > 0) else 1
        i = len(ordered)
        while i:
            h, ex, ey, _ = ordered[i - 1]
            if h < half or (h == half and ex * dy - ey * dx >= 0):
                break
            i -= 1
        ordered.insert(i, (half, dx, dy, p))
    return [item[3] for item in ordered]


def _draw_point(rng: Stream, bound: int) -> Point:
    xn, xd = rng.next_int(-bound, bound), rng.next_int(1, bound)
    yn, yd = rng.next_int(-bound, bound), rng.next_int(1, bound)
    return point_from_terms(xn, xd, yn, yd)


def _try_convex(rng: Stream, bound: int) -> Quadrilateral | None:
    pts = [_draw_point(rng, bound) for _ in range(4)]
    ordered = _ccw_about_centroid(pts)
    quad = Quadrilateral.of(*ordered)
    return quad if quad.shape == CONVEX else None


def _try_concave(rng: Stream, bound: int) -> Quadrilateral | None:
    a, b, c = (_draw_point(rng, bound) for _ in range(3))
    i, j, k = (rng.next_int(1, bound) for _ in range(3))
    ta, tb, tc = a.triple(), b.triple(), c.triple()
    sign = det3(ta, tb, tc)
    if sign == 0:
        return None
    if sign < 0:
        b, c = c, b
        tb, tc = tc, tb
    # interior point of the triangle, strictly inside by construction:
    # (k*a + i*b + j*c) / (i + j + k), the point dividing a -> (i*b + j*c)/(i + j);
    # the points are finite and distinct and the ratios positive
    bc = reduce3(*dividing_terms(tb, tc, j, i))
    x = Point._wrap(reduce3(*dividing_terms(ta, bc, i + j, k)))
    quad = Quadrilateral.of(a, b, x, c)
    return quad if quad.shape == CONCAVE else None


def _try_crossed(rng: Stream, bound: int) -> Quadrilateral | None:
    convex = _try_convex(rng, bound)
    if convex is None:
        return None
    # a strictly convex ABCD has four orientation signs [ABC] [BCD] [CDA]
    # [DAB] of one sign, say +; in BACD they are [BAC] = -[ABC], [ACD] =
    # [CDA], [CDB] = [BCD] and [DBA] = -[DAB], so - + + -: two differ, and
    # none is zero, which is crossed without a second classification
    return Quadrilateral(convex.B, convex.A, convex.C, convex.D, CROSSED)


def _try_any(rng: Stream, bound: int) -> Quadrilateral | None:
    pts = [_draw_point(rng, bound) for _ in range(4)]
    quad = Quadrilateral.of(*pts)
    return quad if quad.shape != DEGENERATE else None


_DRAWERS = {
    CONVEX: _try_convex,
    CONCAVE: _try_concave,
    CROSSED: _try_crossed,
    ANY_SHAPE: _try_any,
}


def gen_quadrilateral(spec: GenSpec, index: int) -> Quadrilateral:
    """The quadrilateral of instance ``index``; bitwise-reproducible."""
    rng = instance_stream(spec.seed, index, TAG_QUAD)
    draw = _DRAWERS[spec.shape]
    for _ in range(REJECTION_CAP):
        quad = draw(rng, spec.coordinate_bound)
        if quad is not None:
            return quad
    raise GenerationExhausted(
        f"no {spec.shape} quadrilateral in {REJECTION_CAP} attempts (seed={spec.seed}, index={index})"
    )


def gen_ratios(spec: GenSpec, index: int) -> SideRatios:
    """The side-ratio tuple of instance ``index``; bitwise-reproducible."""
    rng = instance_stream(spec.seed, index, TAG_RATIOS)
    m = rng.next_positive(spec.ratio_bound)
    n = rng.next_positive(spec.ratio_bound)
    p = rng.next_positive(spec.ratio_bound)
    q = rng.next_positive(spec.ratio_bound)
    if spec.force_gamma_one:
        q = 1 / (m * n * p)
    return SideRatios(m, n, p, q)
