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
A ratio is handed to :class:`SideRatios` as that integer pair, which
reduces it.
Instances are produced by rejection sampling with a hard cap of 1000
attempts per instance.

Each candidate is drawn on bare integers.  ``Stream.ints`` makes all of
an attempt's bounded draws in one pass and holds the only copy of the
advance and the mix; ``next_u64``, ``next_int`` and ``mix64`` are its
one-value forms.  A drawer reduces each point to its canonical triple,
sorts and classifies the triples (``kernel.classify_triples``), and makes
a :class:`Point` only for the four vertices of an accepted quadrilateral.
The concave and crossed drawers build their shape, so a sign argument in
the code stands in for their classification.  The seed's mix is computed
once per seed, not once per stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .configuration import Quadrilateral, SideRatios
from .errors import GenerationExhausted, InstanceFormatError
from ._purekernel import det3, reduce3
from .kernel import (CONCAVE, CONVEX, CROSSED, DEGENERATE, Point, Shape, classify_triples,
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

# the span of a raw 64-bit output
_U64 = ((0, 1 << 64),)


def mix64(z: int) -> int:
    """The output mix of ``z``: the draw of the stream whose next state is ``z``."""
    return Stream(z - _GOLDEN).ints(_U64)[0]


class Stream:
    """splitmix64 over a 64-bit state."""

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & _MASK

    def ints(self, spans) -> list[int]:
        """One bounded draw ``lo + next_u64() mod size`` per ``(lo, size)`` of
        ``spans``, in order, advancing the state once per value."""
        s = self.state
        out = []
        for lo, size in spans:
            s = (s + _GOLDEN) & _MASK
            z = ((s ^ (s >> 30)) * _MIX_A) & _MASK
            z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
            out.append(lo + (z ^ (z >> 31)) % size)
        self.state = s
        return out

    def next_u64(self) -> int:
        return self.ints(_U64)[0]

    def next_int(self, lo: int, hi: int) -> int:
        return self.ints(((lo, hi - lo + 1),))[0]


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


def _triples(values: list[int]) -> list[tuple[int, int, int]]:
    """The canonical triples of the points drawn as ``xn, xd, yn, yd`` in turn."""
    it = iter(values)
    return [triple_from_terms(xn, xd, yn, yd) for xn, xd, yn, yd in zip(it, it, it, it)]


def _ccw_about_centroid(triples: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """Finite canonical triples, counterclockwise about their centroid."""
    # affine coordinates scaled by the (positive) product of the weights,
    # and offsets from the centroid scaled by n on top: integers with the
    # signs of the true offsets, so the order is the affine one
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
    ordered: list[tuple[int, int, int, tuple[int, int, int]]] = []
    for (u, v), t in zip(coords, triples):
        dx, dy = n * u - sx, n * v - sy
        half = 0 if dy > 0 or (dy == 0 and dx > 0) else 1
        i = len(ordered)
        while i:
            h, ex, ey, _ = ordered[i - 1]
            if h < half or (h == half and ex * dy - ey * dx >= 0):
                break
            i -= 1
        ordered.insert(i, (half, dx, dy, t))
    return [item[3] for item in ordered]


def _quadrilateral(ta, tb, tc, td, shape: Shape) -> Quadrilateral:
    wrap = Point._wrap
    return Quadrilateral(wrap(ta), wrap(tb), wrap(tc), wrap(td), shape)


def _convex_triples(rng: Stream, bound: int) -> list[tuple[int, int, int]] | None:
    """Four drawn points sorted about their centroid, if that order is convex."""
    ordered = _ccw_about_centroid(_triples(rng.ints(_point_spans(bound) * 4)))
    return ordered if classify_triples(*ordered) == CONVEX else None


def _try_convex(rng: Stream, bound: int) -> Quadrilateral | None:
    ordered = _convex_triples(rng, bound)
    return None if ordered is None else _quadrilateral(*ordered, CONVEX)


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
    return _quadrilateral(ta, tb, tx, tc, CONCAVE)


def _try_crossed(rng: Stream, bound: int) -> Quadrilateral | None:
    ordered = _convex_triples(rng, bound)
    if ordered is None:
        return None
    # a strictly convex ABCD has four orientation signs [ABC] [BCD] [CDA]
    # [DAB] of one sign, say +; in BACD they are [BAC] = -[ABC], [ACD] =
    # [CDA], [CDB] = [BCD] and [DBA] = -[DAB], so - + + -: two differ, and
    # none is zero, which is crossed without a second classification
    ta, tb, tc, td = ordered
    return _quadrilateral(tb, ta, tc, td, CROSSED)


def _try_any(rng: Stream, bound: int) -> Quadrilateral | None:
    drawn = _triples(rng.ints(_point_spans(bound) * 4))
    shape = classify_triples(*drawn)
    return None if shape == DEGENERATE else _quadrilateral(*drawn, shape)


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
