"""Seeded generation of random quadrilaterals and side-ratio tuples.

The generator is a plain splitmix64 stream so that any implementation,
in any language, can reproduce the exact same instances from the same
64-bit seed.  All constants are spelled out below and the stream keying
is a pure function of ``(seed, index, tag)``:

* state advance: ``state = (state + 0x9E3779B97F4A7C15) mod 2**64``
* output mix:    ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
  z *= 0x94D049BB133111EB; z ^= z >> 31`` (all mod 2**64)
* stream seed:   ``mix64(seed) XOR mix64(index * 0x9E3779B97F4A7C15 + tag)``
* bounded draw:  ``lo + u mod (hi - lo + 1)``, ``u`` the next output

Rational draws take a numerator and a denominator from the bounded draw,
so coordinates and ratios stay within the configured magnitude bounds.
A ratio is handed to :class:`SideRatios` as that integer pair, which
reduces it.
Instances are produced by rejection sampling with a hard cap of 1000
attempts per instance.

Each candidate is drawn on bare integers.  ``Stream.ints`` makes all of
an attempt's bounded draws in one pass and holds the only copy of the
advance; ``_mix`` holds the only copy of the mix, which ``Stream.ints``
applies to its packed lanes and ``mix64`` to one 64-bit value.  The pass is
packed: each value's 64-bit state sits in its own 128-bit slot of one
integer, every slot is masked to 64 bits before each multiply so no
product reaches the next slot, and one ``struct`` unpack reads the
outputs.

The convex and crossed drawers decide convex position before any sort,
from the four orientation signs of the drawn points' unreduced triples
``(xn*yd, yn*xd, xd*yd)``, expanded over the six 2x2 minors of their x and
y columns: the four points are in strictly convex position exactly when the
coefficients ``[bcd], -[acd], [abd], -[abc]`` of their affine dependence
are nonzero and split two-two.  Equal signs mark opposite vertices and
the sign of ``[abc]`` picks the counterclockwise cycle, read from a table
of the six two-two splits built at import.  An accepted candidate is then
ordered from its unreduced draws with products only.  Scaled by four times
the product of the four weights, a point's offset from the centroid is
four times its unreduced ``x`` and ``y`` times the product of the other
three weights, less the sum of those products over the four points; and
direct comparisons pick the start vertex, the one that a counterclockwise
sort about the centroid puts first.  Only the four output triples are
reduced, in their final order, so a rejected candidate is never reduced.
The spans of a four-point draw are built once per bound.  The concave and
any-shape drawers reduce each point (``kernel.triple_from_terms``); the
any-shape drawer classifies them (``kernel.classify_triples``).  The
concave and crossed drawers build their shape, so a sign argument in the
code stands in for their classification.  A :class:`Quadrilateral` holds
the four canonical triples as they are.  The seed's mix is computed once
per seed, not once per stream.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .configuration import Quadrilateral, SideRatios
from .errors import GenerationExhausted, InstanceFormatError
from ._purekernel import det3, reduce3
from .kernel import (CONCAVE, CONVEX, CROSSED, DEGENERATE, Shape, classify_triples,
                     dividing_terms, triple_from_terms)

# accepted by the generator only; never a classification result
ANY_SHAPE: Shape = "any"

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

TAG_QUAD = 0x71
TAG_RATIOS = 0x72

REJECTION_CAP = 1000

@lru_cache(maxsize=8)
def _lanes(n: int):
    """The constants of an ``n``-value pass, one 128-bit slot per value: a
    1 and the value's ``(k + 1) * 0x9E3779B97F4A7C15`` in each slot, the
    low-64-bit mask of each slot, and the unpacker of the low 64 bits."""
    ones = sum(1 << (128 * k) for k in range(n))
    steps = sum((k + 1) * _GOLDEN << (128 * k) for k in range(n))
    return ones, steps, ones * _MASK, struct.Struct("<" + "Q8x" * n).unpack


def _mix(z: int, lanes: int) -> int:
    """The output mix of each 64-bit lane of ``z``, ``lanes`` the mask of
    its lanes; one lane is a plain 64-bit value, masked by ``_MASK``."""
    z = ((z ^ (z >> 30)) & lanes) * _MIX_A & lanes
    z = ((z ^ (z >> 27)) & lanes) * _MIX_B & lanes
    return z ^ (z >> 31)


def mix64(z: int) -> int:
    """The output mix of ``z``: the draw of the stream whose next state is ``z``."""
    return _mix(z & _MASK, _MASK)


class Stream:
    """splitmix64 over a 64-bit state."""

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & _MASK

    def ints(self, spans) -> list[int]:
        """One bounded draw ``lo + u mod size`` per ``(lo, size)`` of
        ``spans``, in order, advancing the state once per value and mixing
        it into the output ``u``."""
        n = len(spans)
        ones, steps, lanes, unpack = _lanes(n)
        s = self.state
        self.state = (s + n * _GOLDEN) & _MASK
        # lane k holds the state after k + 1 advances; each multiply takes
        # 64-bit lanes, so a product stays inside its 128-bit slot
        z = _mix((s * ones + steps) & lanes, lanes)
        return [lo + u % size
                for (lo, size), u in zip(spans, unpack(z.to_bytes(16 * n, "little")))]


# a campaign mixes one seed for every instance's two streams
_seed_mix = lru_cache(maxsize=4)(mix64)


def instance_stream(seed: int, index: int, tag: int) -> Stream:
    return Stream(_seed_mix(seed) ^ mix64((index * _GOLDEN + tag) & _MASK))


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


def _point_spans(bound: int) -> tuple[tuple[int, int], ...]:
    """The spans of one point's draws: ``xn, xd, yn, yd`` with each numerator
    in ``[-bound, bound]`` and each denominator in ``[1, bound]``."""
    return ((-bound, 2 * bound + 1), (1, bound)) * 2


@lru_cache(maxsize=8)
def _four_point_spans(bound: int) -> tuple[tuple[int, int], ...]:
    """The spans of a four-point draw, built once per bound."""
    return _point_spans(bound) * 4


def _triples(values: list[int]) -> list[tuple[int, int, int]]:
    """The canonical triples of the points drawn as ``xn, xd, yn, yd`` in turn."""
    it = iter(values)
    return [triple_from_terms(xn, xd, yn, yd) for xn, xd, yn, yd in zip(it, it, it, it)]


def _ring_table() -> dict[tuple[bool, ...], tuple[int, int, int, int]]:
    """The counterclockwise cycle of the drawn points ``0 1 2 3`` for each
    two-two split of the signs of ``[bcd], -[acd], [abd], -[abc]``: ``0 1 2``
    in counterclockwise order (the sign of ``[abc]``), then ``3`` in the gap
    after the vertex that follows the one opposite it (the one whose sign
    equals its own).  A 3-1 or 4-0 split has no entry."""
    table = {}
    for signs in product((False, True), repeat=4):
        if sum(signs) == 2:
            ring = [0, 2, 1] if signs[3] else [0, 1, 2]
            ring.insert((ring.index(signs.index(signs[3])) + 2) % 3, 3)
            table[signs] = tuple(ring)
    return table


_RINGS = _ring_table()


def _convex_triples(rng: Stream, bound: int) -> list[tuple[int, int, int]] | None:
    """The four drawn points, if they are in strictly convex position, as
    canonical triples counterclockwise about their centroid from the
    positive x direction."""
    (axn, axd, ayn, ayd, bxn, bxd, byn, byd,
     cxn, cxd, cyn, cyd, dxn, dxd, dyn, dyd) = rng.ints(_four_point_spans(bound))
    # unreduced triples: their weights are positive, so each determinant
    # has the sign of the affine orientation
    a = ax, ay, aw = axn * ayd, ayn * axd, axd * ayd
    b = bx, by, bw = bxn * byd, byn * bxd, bxd * byd
    c = cx, cy, cw = cxn * cyd, cyn * cxd, cxd * cyd
    d = dx, dy, dw = dxn * dyd, dyn * dxd, dxd * dyd
    # the four determinants [abc] [abd] [acd] [bcd], each expanded along its
    # weights over the six 2x2 minors of the x and y columns
    xy_ab = ax * by - ay * bx
    xy_ac = ax * cy - ay * cx
    xy_ad = ax * dy - ay * dx
    xy_bc = bx * cy - by * cx
    xy_bd = bx * dy - by * dx
    xy_cd = cx * dy - cy * dx
    abc = aw * xy_bc - bw * xy_ac + cw * xy_ab
    abd = aw * xy_bd - bw * xy_ad + dw * xy_ab
    acd = aw * xy_cd - cw * xy_ad + dw * xy_ac
    bcd = bw * xy_cd - cw * xy_bd + dw * xy_bc
    if not (abc and abd and acd and bcd):
        return None
    # bcd*a - acd*b + abd*c - abc*d = 0: the points whose coefficients
    # share a sign are opposite vertices exactly when the signs split
    # two-two, and a 3-1 split puts one point inside the other three
    ring = _RINGS.get((bcd > 0, acd < 0, abd > 0, abc < 0))
    if ring is None:
        return None
    # a point's offset from the centroid, scaled by four times the product
    # of the weights, which is positive, so its signs are the affine ones:
    # four times its x and y times the product of the other three weights,
    # less the sum of those products over the four points
    ab, cd = aw * bw, cw * dw
    ka, kb, kc, kd = bw * cd, aw * cd, ab * dw, ab * cw
    ax *= ka
    ay *= ka
    bx *= kb
    by *= kb
    cx *= kc
    cy *= kc
    dx *= kd
    dy *= kd
    sx = ax + bx + cx + dx
    sy = ay + by + cy + dy
    # whether each point lies in half plane 0 about the centroid (angles in
    # [0, pi))
    upper = (4 * ay > sy or 4 * ay == sy and 4 * ax > sx,
             4 * by > sy or 4 * by == sy and 4 * bx > sx,
             4 * cy > sy or 4 * cy == sy and 4 * cx > sx,
             4 * dy > sy or 4 * dy == sy and 4 * dx > sx)
    # the first vertex is the one in half plane 0 after one in half plane 1
    i, j, k, l = ring
    if upper[i] and not upper[l]:
        pass
    elif upper[j] and not upper[i]:
        i, j, k, l = j, k, l, i
    elif upper[k] and not upper[j]:
        i, j, k, l = k, l, i, j
    else:
        i, j, k, l = l, i, j, k
    drawn = a, b, c, d
    return [reduce3(*drawn[i]), reduce3(*drawn[j]), reduce3(*drawn[k]), reduce3(*drawn[l])]


def _try_convex(rng: Stream, bound: int) -> Quadrilateral | None:
    ordered = _convex_triples(rng, bound)
    return None if ordered is None else Quadrilateral(*ordered, CONVEX)


def _try_concave(rng: Stream, bound: int) -> Quadrilateral | None:
    values = rng.ints(_point_spans(bound) * 3 + ((1, bound),) * 3)
    ta, tb, tc = _triples(values[:12])
    i, j, k = values[12:]
    sign = det3(ta, tb, tc)
    if sign == 0:
        return None
    if sign < 0:
        tb, tc = tc, tb
    # interior point of the triangle, strictly inside by construction:
    # (k*a + i*b + j*c) / (i + j + k), the point dividing a -> (i*b + j*c)/(i + j);
    # the points are finite and distinct and the ratios positive
    bc = reduce3(*dividing_terms(tb, tc, j, i))
    tx = reduce3(*dividing_terms(ta, bc, i + j, k))
    # concave without a classification: a b c is counterclockwise and x
    # strictly inside, so x is strictly left of ab, bc and ca, and the
    # orientation signs [abx] [bxc] [xca] [cab] of ABCD = a b x c are
    # + - + +: [bxc] = -[bcx] and [xca] = [cax], [cab] = [abc]; one sign
    # differs and none is zero
    return Quadrilateral(ta, tb, tx, tc, CONCAVE)


def _try_crossed(rng: Stream, bound: int) -> Quadrilateral | None:
    ordered = _convex_triples(rng, bound)
    if ordered is None:
        return None
    # a strictly convex ABCD has four orientation signs [ABC] [BCD] [CDA]
    # [DAB] of one sign, say +; in BACD they are [BAC] = -[ABC], [ACD] =
    # [CDA], [CDB] = [BCD] and [DBA] = -[DAB], so - + + -: two differ, and
    # none is zero, which is crossed without a second classification
    ta, tb, tc, td = ordered
    return Quadrilateral(tb, ta, tc, td, CROSSED)


def _try_any(rng: Stream, bound: int) -> Quadrilateral | None:
    drawn = _triples(rng.ints(_four_point_spans(bound)))
    shape = classify_triples(*drawn)
    return None if shape == DEGENERATE else Quadrilateral(*drawn, shape)


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
    ma, mb, na, nb, pa, pb, qa, qb = rng.ints(((1, spec.ratio_bound),) * 8)
    if spec.force_gamma_one:
        # q = 1/(mnp), which SideRatios reduces; the drawn q is not used
        qa, qb = mb * nb * pb, ma * na * pa
    return SideRatios((ma, mb), (na, nb), (pa, pb), (qa, qb))
