"""Exact plane geometry over the rationals, in homogeneous coordinates.

Conventions
-----------
* A :class:`Point` stores a canonical integer triple ``(x, y, w)``
  proportional to the rational triple it was built from.  ``w != 0``
  marks a finite point (affine coordinates ``x/w, y/w``); ``w == 0``
  marks a direction, i.e. a point at infinity.  Meets of parallel lines
  are therefore total: they return ideal points instead of failing.
* A :class:`Line` is the locus ``a*x + b*y + c*w = 0`` with
  ``(a, b) != (0, 0)``, the join of two points; the line at infinity is
  deliberately not representable.
* Points and lines share one equality, of canonical triples: it is
  projective, agrees with hashing, and never makes a point equal a line.
* A rational is an integer ``(num, den)`` pair, ``den != 0``, and
  ``lowest_terms`` its canonical form; ``rational_text`` writes it, in the
  bytes ``str(Fraction(num, den))`` writes, and ``reduced_text`` writes a
  pair already in that form without reducing it again.  The package makes
  and reads no ``Fraction``.
* A point is its canonical triple: ``triple_from_terms`` reduces one from
  affine terms, and the commands hold no other kind.  A :class:`Point`
  wraps a canonical triple: ``meet`` and ``point_dividing`` reduce one,
  and ``Point._wrap`` takes one that is already canonical.  It is public
  API, not a command path; ``point_text`` writes its ``Point(...)`` text
  from the bare triple.
* ``affine_parameter(a, b, x)`` is the ``lam`` with ``x = a + lam*(b - a)``
  and ``directed_ratio(a, p, b)`` is ``lam / (1 - lam)`` for ``p``: positive
  exactly when ``p`` lies strictly between ``a`` and ``b``, negative outside
  the segment, ``0`` at ``a``, and undefined at ``b``.  Both are unreduced
  pairs with ``den`` of either sign.  ``point_dividing`` is the exact
  inverse of ``directed_ratio`` and takes its ratio as a pair.
* All three are computed on the integer triples without leaving them.  With
  ``a = (a0, a1, aw)`` and likewise ``b`` and ``x``, the parameter of
  ``x`` on ``a -> b`` is ``lam = num / den`` where, on the x components,
  ``num = (x0*aw - a0*xw)*bw`` and ``den = (b0*aw - a0*bw)*xw``; the y
  components stand in when ``b0*aw == a0*bw`` (a vertical segment).
  Then ``directed_ratio = num / (den - num)``, and the point dividing
  ``a -> b`` in ratio ``tn/td`` is
  ``(td*bw*a0 + tn*aw*b0, td*bw*a1 + tn*aw*b1, (td + tn)*aw*bw)``:
  ``dividing_terms`` returns that unreduced triple, and ``point_dividing``
  checks its inputs, then reduces it.
* ``parameter_pair`` is that parameter on bare triples: the ``(num, den)``
  pair, or ``None`` where a triple is ideal, the ends coincide or the
  point is off the line.  ``parameter_pairs``, its carrier form, forms the
  direction ``(d0, d1)`` of ``b - a`` once for several points.  The ends
  coincide where it is ``(0, 0)``, and with ``(e0, e1)`` the offset
  ``x - a``, ``x`` is off the line where ``e0*d1 - e1*d0``, which is
  ``-aw*det3(a, b, x)``, is not 0.
  ``parameter_error`` writes why it is ``None``, the text of the
  ``GeometryError`` that ``affine_parameter`` raises on three points.
* ``classify_triples`` classifies four canonical finite triples by the
  signs of four ``det3``, which are the affine orientation signs because
  canonical finite triples have ``w > 0``.
* The construction, the verifiers and the figures work on canonical
  triples with ``det3``, tuple equality, ``w == 0`` and
  ``parameter_pair``, and make no :class:`Point`.

Everything here is an immutable value and every function is pure.
"""

from __future__ import annotations

from math import gcd

from ._purekernel import cross3, det3, reduce3
from .errors import GeometryError

Pair = tuple[int, int]

Shape = str
CONVEX: Shape = "convex"
CONCAVE: Shape = "concave"
CROSSED: Shape = "crossed"
DEGENERATE: Shape = "degenerate"


def lowest_terms(num: int, den: int) -> Pair:
    """``num/den`` in lowest terms with a positive denominator, with one gcd;
    ``den`` is a nonzero integer of either sign."""
    if den == 0:
        raise ZeroDivisionError(f"rational {num}/0")
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def rational_text(num: int, den: int) -> str:
    """``num/den`` as exact text, the bytes ``str(Fraction(num, den))``
    writes: ``"n/d"`` in lowest terms with ``d > 1``, else ``"n"``.  It
    reduces as ``lowest_terms`` does, inline, so a text is one call."""
    if den == 0:
        raise ZeroDivisionError(f"rational {num}/0")
    g = gcd(num, den)
    if den < 0:
        g = -g
    if g == den:
        return str(num // g)
    return f"{num // g}/{den // g}"


def reduced_text(num: int, den: int) -> str:
    """``rational_text(num, den)`` for a pair already in ``lowest_terms``,
    as ``SideRatios`` and ``r`` are stored: written as it is, with no gcd."""
    return str(num) if den == 1 else f"{num}/{den}"


def triple_text(t: tuple[int, int, int]) -> list[str]:
    """The coordinates of the point with canonical triple ``t = (x, y, w)``
    as exact text: a finite point's affine pair ``rational_text(c, w)`` for
    each component ``c``, an integer point's without a gcd, and an ideal
    point's integer triple ``[x, y, "0"]``.  Each text is ASCII digits,
    ``-`` and ``/``, which JSON writes without escapes."""
    x, y, w = t
    if w == 1:
        return [str(x), str(y)]
    if w == 0:
        return [str(x), str(y), "0"]
    return [rational_text(x, w), rational_text(y, w)]


class _Canonical:
    """A canonical integer triple wrapped as a value: equal to, and hashed
    with, a wrapper of the same class on the same triple."""

    __slots__ = ("_t",)

    @classmethod
    def _wrap(cls, triple: tuple[int, int, int]):
        obj = object.__new__(cls)
        obj._t = triple
        return obj

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._t == other._t

    def __hash__(self) -> int:
        return hash((type(self), self._t))


class Point(_Canonical):
    """A projective point; finite when its weight component is nonzero."""

    __slots__ = ()

    def triple(self) -> tuple[int, int, int]:
        """The canonical integer representative of this point."""
        return self._t

    @property
    def is_ideal(self) -> bool:
        return self._t[2] == 0

    def __repr__(self) -> str:
        return point_text(self._t)


def point_text(t: tuple[int, int, int]) -> str:
    """``Point(...)``, the text of the point with canonical triple ``t``,
    its ``triple_text`` joined by ``", "``."""
    return f"Point({', '.join(triple_text(t))})"


def triple_from_terms(xn: int, xd: int, yn: int, yd: int) -> tuple[int, int, int]:
    """The canonical triple of the finite point ``(xn/xd, yn/yd)``; each
    denominator is a nonzero integer of either sign."""
    return reduce3(xn * yd, yn * xd, xd * yd)


class Line(_Canonical):
    """The locus ``a*x + b*y + c*w = 0`` with ``(a, b) != (0, 0)``; made
    only by :func:`line_through`."""

    __slots__ = ()

    def __repr__(self) -> str:
        a, b, c = self._t
        return f"Line({a}, {b}, {c})"


def line_through(p: Point, q: Point) -> Line:
    """The unique line incident to two distinct points."""
    c = cross3(p._t, q._t)
    if c == (0, 0, 0):
        raise GeometryError(f"no unique line through {p!r} twice")
    if c[0] == 0 and c[1] == 0:
        raise GeometryError("both points are ideal; their join is the line at infinity")
    return Line._wrap(reduce3(*c))


def meet(l1: Line, l2: Line) -> Point:
    """The common point of two distinct lines; ideal when they are parallel."""
    c = cross3(l1._t, l2._t)
    if c == (0, 0, 0):
        raise GeometryError(f"{l1!r} and {l2!r} are the same line")
    return Point._wrap(reduce3(*c))


def collinear(p: Point, q: Point, r: Point) -> bool:
    """Exact incidence test: the 3x3 coordinate determinant vanishes."""
    return det3(p._t, q._t, r._t) == 0


def classify_triples(ta, tb, tc, td) -> Shape:
    """Shape class of the vertex sequence ``ta tb tc td``, four canonical
    finite triples.

    Counts the minority sign among the four consecutive orientation
    triples: none differing is convex, one is concave, two is crossed,
    and any zero (three collinear or repeated vertices) is degenerate.
    """
    # canonical finite triples have positive w, so each determinant's sign
    # is the affine orientation sign
    d1, d2, d3, d4 = det3(ta, tb, tc), det3(tb, tc, td), det3(tc, td, ta), det3(td, ta, tb)
    if not (d1 and d2 and d3 and d4):
        return DEGENERATE
    negatives = (d1 < 0) + (d2 < 0) + (d3 < 0) + (d4 < 0)
    if negatives in (0, 4):
        return CONVEX
    if negatives in (1, 3):
        return CONCAVE
    return CROSSED


def parameter_pair(ta, tb, tx):
    """``(num, den)`` with ``num / den`` the parameter of the triple ``tx`` on
    ``ta -> tb``, or ``None`` where :func:`affine_parameter` raises: an ideal
    triple, coincident ends, or ``tx`` off the line.  Only ``+``, ``-``,
    ``*`` and truthiness touch the triples, so any ring whose zero is falsy
    can stand in for the integers."""
    return parameter_pairs(ta, tb, (tx,))[0]


def parameter_pairs(ta, tb, txs) -> list:
    """``parameter_pair(ta, tb, tx)`` for each triple ``tx`` of ``txs``, and
    ``None`` for each ``None``, with the direction ``ta -> tb`` formed once."""
    (a0, a1, aw), (b0, b1, bw) = ta, tb
    d0, d1 = b0 * aw - a0 * bw, b1 * aw - a1 * bw
    if not (aw and bw and (d0 or d1)):
        return [None] * len(txs)
    pairs = []
    for tx in txs:
        pair = None
        if tx is not None and tx[2]:
            x0, x1, xw = tx
            e0, e1 = x0 * aw - a0 * xw, x1 * aw - a1 * xw
            if not e0 * d1 - e1 * d0:
                pair = (e0 * bw, d0 * xw) if d0 else (e1 * bw, d1 * xw)
        pairs.append(pair)
    return pairs


def parameter_error(ta, tb, tx) -> str:
    """Why ``parameter_pair(ta, tb, tx)`` is ``None``, for canonical
    triples: the first of an ideal triple, ``ta == tb`` and ``tx`` off the
    line."""
    if not (ta[2] and tb[2] and tx[2]):
        return "affine parameters are defined for finite points only"
    if ta == tb:
        return "segment endpoints coincide"
    return f"{point_text(tx)} is not on the line through {point_text(ta)} and {point_text(tb)}"


def affine_parameter(a: Point, b: Point, x: Point) -> Pair:
    """``(num, den)`` with ``x = a + (num/den)*(b - a)`` for collinear finite
    points; ``den`` is nonzero and of either sign."""
    pair = parameter_pair(a._t, b._t, x._t)
    if pair is None:
        raise GeometryError(parameter_error(a._t, b._t, x._t))
    return pair


def directed_ratio(a: Point, p: Point, b: Point) -> Pair:
    """``(num, den)``, the exact division ratio in which ``p`` splits
    ``a -> b``; ``den`` is nonzero and of either sign."""
    num, den = affine_parameter(a, b, p)
    if num == den:
        raise GeometryError("division point coincides with the second endpoint")
    return num, den - num


def dividing_terms(ta: tuple[int, int, int], tb: tuple[int, int, int],
                   tn: int, td: int) -> tuple[int, int, int]:
    """The unreduced triple of the point dividing ``ta -> tb`` in ratio
    ``tn/td``: the arithmetic of :func:`point_dividing` without its checks,
    so the caller guarantees finite, distinct ends, ``td != 0`` and
    ``tn != -td``."""
    a0, a1, aw = ta
    b0, b1, bw = tb
    u, v = td * bw, tn * aw
    return (u * a0 + v * b0, u * a1 + v * b1, (td + tn) * aw * bw)


def point_dividing(a: Point, b: Point, ratio: Pair) -> Point:
    """The finite point with ``directed_ratio(a, ., b)`` equal to ``tn/td``,
    for ``ratio = (tn, td)``; ``td`` is a nonzero integer of either sign."""
    tn, td = ratio
    if td == 0:
        raise ZeroDivisionError(f"rational {tn}/0")
    for p in (a, b):
        if p.is_ideal:
            raise GeometryError("division endpoints must be finite")
    if a == b:
        raise GeometryError("division endpoints coincide")
    if tn + td == 0:
        raise GeometryError("ratio -1 corresponds to the point at infinity")
    return Point._wrap(reduce3(*dividing_terms(a._t, b._t, tn, td)))
