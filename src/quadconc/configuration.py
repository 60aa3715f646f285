"""Construction of the full named-point configuration of a quadrilateral.

Given vertices ``A B C D`` and one point per side (``M`` on ``AB``, ``N``
on ``BC``, ``P`` on ``CD``, ``Q`` on ``DA``), this module derives every
named intersection the verifiers consume: the diagonal meet ``O``, the
four cross meets ``X Y Z T``, the cevian meets ``A1 B1 C1 D1``, the
diagonal division points ``F1 G1 F2 G2``, the transversal crossing ``E``,
the quadruple-concurrence points ``M1 N1 P1 Q1``, and the trace ``R`` of
``NQ`` on line ``AB`` together with its unsigned ratio ``r``.

Every point is a canonical integer triple ``(x, y, w)``: the vertices of a
:class:`Quadrilateral`, the side points ``build_from_points`` takes and
every constructed point.  ``construction_plan`` compiles ``CONSTRUCTION``
into the slot plan of a read set: the inputs ``A B C D M N P Q`` take slots
0-7, row *i* takes slot 8 + *i*, each distinct line has one index and is
built at the first row of the plan that uses it, and the plan holds the rows
the named points need, transitively, and the rows that can collapse.
``FULL_PLAN``, compiled at import, holds every row; ``verify`` builds
with it, ``figure`` with the plan of the points it draws
(``svgfig.DRAWN_PLAN``), ``counterexample`` with the plan of its target's
read set, and ``fuzz`` with the plan of its instance's claims on a convex
instance with ratio product other than one, else with ``FULL_PLAN``.  That
plan leaves out ``O X Z Y T``, which set no flag there: with the side points
inside their sides of a strictly convex quadrilateral, each is the crossing
of two chords (``AC·BD``, ``AN·BQ``, ``DN·CQ``, ``CM·BP``, ``AP·DM``).  A
row left out of a plan holds ``None`` and sets no flag, and without ``R``
the ratio ``r`` is ``None``.  ``construct_triples`` runs any plan on bare
triples with the reduction as a parameter (``reduce3`` here).  Each line is
the unreduced cross product of the triples of its two points, a transient
triple that only feeds meets, and each meet is one reduction of the cross
product of two lines; the kernel's ``Line``, ``line_through`` and ``meet``
are public API, not this path.  The side points come from the kernel's
``dividing_terms`` and ``r`` from the ``parameter_pair`` of the ``R``
triple; ``build_from_points`` checks each given side point with ``w == 0``
and tuple ``==`` and reads its ratio from ``parameter_pair``, which is
``None`` off the side's line.  Coincidences the construction can survive are
recorded as named degeneracy flags (``DIAGONAL_FLAGS`` names those of
``DIAGONAL_PAIRS``) instead of raising; a built point is stored as ``None``
only when one of its defining lines collapses entirely.

A :class:`Configuration` holds the plan's result as one tuple,
``triples``: the canonical triple of every named point in
``POINT_NAMES`` order, ``None`` where undefined or not built, and
``SLOT`` maps a name to its place.  The verifiers and the figures read these triples
directly, and no command makes a :class:`Point`; ``cfg.named_points()``
wraps the triples in points for the benchmark's kernel timings.
:class:`SideRatios` and :class:`Configuration` are named tuples, copied
with ``_replace``.  Every ratio, ``r`` included, is a ``(num, den)`` pair
in ``kernel.lowest_terms``, which :class:`SideRatios` applies.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional

from ._purekernel import reduce3
from .errors import DegenerateQuadrilateral, GeometryError, InstanceFormatError, UndefinedPoint
from .kernel import (
    CONVEX,
    DEGENERATE,
    Pair,
    Point,
    Shape,
    classify_triples,
    dividing_terms,
    lowest_terms,
    parameter_pair,
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
# the degeneracy flag of each pair of DIAGONAL_PAIRS, set when it coincides
DIAGONAL_FLAGS = tuple(f"{u}_EQ_{v}" for u, v in DIAGONAL_PAIRS)

Triple = tuple[int, int, int]

# every named point's slot in the construction plan: the eight inputs take
# slots 0-7 and CONSTRUCTION row i takes slot 8 + i
POINT_NAMES = ("A", "B", "C", "D", "M", "N", "P", "Q") + tuple(row[0] for row in CONSTRUCTION)
SLOT: Mapping[str, int] = MappingProxyType({name: i for i, name in enumerate(POINT_NAMES)})
_R_SLOT = SLOT["R"]


# each distinct point pair of CONSTRUCTION, in order of first use, and its
# line index; every plan shares the indices
_LINE_INDEX = {pair: i for i, pair in enumerate(dict.fromkeys(
    pair for _, uv, st in CONSTRUCTION for pair in (uv, st)))}
_UNBUILT = (None,) * len(CONSTRUCTION)

# the rows whose two lines can coincide: every plan runs them, so a partial
# build raises UndefinedPoint exactly where the full build does, with the
# same text.  On a nondegenerate quadrilateral with its side points off the
# vertices, the two lines of every other row are distinct.
_COLLAPSING = ("E", "M1", "N1", "P1", "Q1")


class Plan(NamedTuple):
    """A compiled construction plan.  ``steps`` holds, per row it builds, in
    ``CONSTRUCTION`` order, the row's slot and name, the lines it builds
    first as ``(line index, slot, slot)`` and the indices of its two lines;
    ``builds_r`` tells whether ``R``, and so ``r``, is among the rows."""

    steps: tuple[tuple[int, str, tuple[tuple[int, int, int], ...], int, int], ...]
    builds_r: bool


def construction_plan(names: Iterable[str]) -> Plan:
    """The plan that builds the points ``names``, the rows they need,
    transitively, and the rows that can collapse; each line is built at the
    first row of the plan that uses it."""
    wanted = set(names).union(_COLLAPSING)
    # a row joins only earlier points, so one pass backwards closes the set
    for name, uv, st in reversed(CONSTRUCTION):
        if name in wanted:
            wanted.update(uv + st)
    built: set[tuple[str, str]] = set()
    steps = []
    for name, uv, st in CONSTRUCTION:
        if name not in wanted:
            continue
        new = tuple((_LINE_INDEX[pair], SLOT[pair[0]], SLOT[pair[1]])
                    for pair in (uv, st) if pair not in built)
        built.update((uv, st))
        steps.append((SLOT[name], name, new, _LINE_INDEX[uv], _LINE_INDEX[st]))
    return Plan(tuple(steps), "R" in wanted)


# the plan of every row, which verify and fuzz build
FULL_PLAN = construction_plan(POINT_NAMES)
_DIAGONAL_SLOTS = tuple((SLOT[u], SLOT[v], flag)
                        for (u, v), flag in zip(DIAGONAL_PAIRS, DIAGONAL_FLAGS))

# r where AR/RB is no finite ratio (R ideal, undefined or on B), by convention
_R_DEFAULT = (1, 1)


def construct_triples(inputs, reduce, plan: Plan = FULL_PLAN):
    """The triple of every slot, from the triples of ``A B C D M N P Q``,
    with ``None`` at each row ``plan`` leaves out.

    Each line is the unreduced cross product of its two point triples, a
    transient triple that only feeds meets.  It is ``None`` where an end is
    undefined, the ends are equal (``(0, 0, 0)``) or both ideal
    (``(0, 0, c)``), and a row with a ``None`` line is ``None`` itself.
    Each meet is ``reduce(x, y, w)`` of the cross product of its two lines.
    Raises :class:`UndefinedPoint` for the first row whose lines coincide.
    Only ``+``, ``-``, ``*`` and ``reduce`` touch the coordinates, so any
    ring whose zero is falsy can stand in for the integers.
    """
    pts = [*inputs, *_UNBUILT]
    lines = [None] * len(_LINE_INDEX)
    for slot, name, new, i1, i2 in plan.steps:
        for li, u, v in new:
            tu, tv = pts[u], pts[v]
            if tu is not None and tv is not None:
                ux, uy, uw = tu
                vx, vy, vw = tv
                a, b = uy * vw - uw * vy, uw * vx - ux * vw
                if a or b:
                    lines[li] = (a, b, ux * vy - uy * vx)
        l1, l2 = lines[i1], lines[i2]
        if l1 is None or l2 is None:
            continue
        a1, b1, c1 = l1
        a2, b2, c2 = l2
        x, y, w = b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2
        if not (x or y or w):
            raise UndefinedPoint(name)
        pts[slot] = reduce(x, y, w)
    return pts


class Quadrilateral(NamedTuple):
    """Four labeled finite vertices, as canonical triples, plus their shape
    class."""

    A: Triple
    B: Triple
    C: Triple
    D: Triple
    shape: Shape

    @classmethod
    def of(cls, a: Triple, b: Triple, c: Triple, d: Triple) -> "Quadrilateral":
        if not (a[2] and b[2] and c[2] and d[2]):
            raise GeometryError("orientation is defined for finite points only")
        return cls(a, b, c, d, classify_triples(a, b, c, d))

    @property
    def vertices(self) -> tuple[Triple, Triple, Triple, Triple]:
        return self[:4]


class _SideRatioFields(NamedTuple):
    m: Pair
    n: Pair
    p: Pair
    q: Pair
    gamma: Pair


class SideRatios(_SideRatioFields):
    """The tuple ``(m, n, p, q)`` of side division ratios and their product.

    Each is made from a ``(num, den)`` pair, ``den`` nonzero of either sign,
    and stored in lowest terms with ``den > 0``; so is the derived ``gamma``.
    ``_replace`` copies fields as given and does not derive ``gamma`` again.
    """

    __slots__ = ()

    def __new__(cls, m: Pair, n: Pair, p: Pair, q: Pair) -> "SideRatios":
        (ma, mb), (na, nb), (pa, pb), (qa, qb) = m, n, p, q
        return tuple.__new__(cls, (lowest_terms(ma, mb), lowest_terms(na, nb),
                                   lowest_terms(pa, pb), lowest_terms(qa, qb),
                                   lowest_terms(ma * na * pa * qa, mb * nb * pb * qb)))

    def __getnewargs__(self) -> tuple[Pair, Pair, Pair, Pair]:
        return self[:4]

    @property
    def as_tuple(self) -> tuple[Pair, Pair, Pair, Pair]:
        return self[:4]


class Configuration(NamedTuple):
    """All named points derived from a quadrilateral and its side points."""

    quad: Quadrilateral
    ratios: SideRatios
    # the canonical triple of each point of POINT_NAMES, at its SLOT; None
    # where a defining line is undefined or the plan left the row out
    triples: tuple[Optional[Triple], ...]
    # None when the plan did not build R
    r_ratio: Optional[Pair]
    degeneracies: frozenset[str]

    def named_points(self) -> dict[str, Optional[Point]]:
        wrap = Point._wrap
        return {name: None if t is None else wrap(t)
                for name, t in zip(POINT_NAMES, self.triples)}


def _construct(quad: Quadrilateral, ratios: SideRatios, plan: Plan = FULL_PLAN) -> Configuration:
    ta, tb, tc, td = quad.vertices
    m, n, p, q = ratios.as_tuple
    # point_dividing's checks cannot fail here: both builders pass a
    # non-degenerate shape, so the vertices are finite and distinct, and
    # their ratios are positive or come from directed_ratio, never -1
    pts = construct_triples((
        ta, tb, tc, td,
        reduce3(*dividing_terms(ta, tb, *m)),
        reduce3(*dividing_terms(tb, tc, *n)),
        reduce3(*dividing_terms(tc, td, *p)),
        reduce3(*dividing_terms(td, ta, *q)),
    ), reduce3, plan)
    flags: set[str] = set()
    for step in plan.steps:
        t = pts[step[0]]
        if t is None:
            flags.add(f"{step[1]}_UNDEFINED")
        # R ideal is an in-convention case (its ratio is defined to be 1),
        # so it does not count as a degeneracy
        elif t[2] == 0 and step[1] != "R":
            flags.add(f"{step[1]}_IDEAL")

    r_ratio = _R_DEFAULT if plan.builds_r else None
    tr = pts[_R_SLOT]
    if tr is not None and tr[2]:
        # R is a finite point of line AB, whose ends are finite and distinct,
        # so its parameter is defined
        num, den = parameter_pair(ta, tb, tr)
        if num == den:
            # R is B: the unsigned ratio AR/RB is infinite
            flags.add("R_RATIO_UNDEFINED")
        else:
            r_ratio = lowest_terms(abs(num), abs(den - num))

    for u, v, flag in _DIAGONAL_SLOTS:
        tu = pts[u]
        if tu is not None and tu == pts[v]:
            flags.add(flag)

    return Configuration(quad, ratios, tuple(pts), r_ratio, frozenset(flags))


def build_from_ratios(quad: Quadrilateral, ratios: SideRatios,
                      plan: Plan = FULL_PLAN) -> Configuration:
    """Place the side points at the given positive ratios and derive the
    points ``plan`` builds, by default every one."""
    if quad.shape == DEGENERATE:
        raise DegenerateQuadrilateral("cannot build on a degenerate quadrilateral")
    # each denominator is positive, so a ratio's sign is its numerator's
    (m, _), (n, _), (p, _), (q, _), _ = ratios
    if m <= 0 or n <= 0 or p <= 0 or q <= 0:
        raise InstanceFormatError("side ratios must be positive")
    return _construct(quad, ratios, plan)


def build_from_points(quad: Quadrilateral, M: Triple, N: Triple, P: Triple,
                      Q: Triple, plan: Plan = FULL_PLAN) -> Configuration:
    """Recover the side ratios from explicit side points, given as canonical
    triples, then derive the points ``plan`` builds, by default every one.

    Each point must lie on the line of its side and differ from the
    side's endpoints; for convex quadrilaterals it must additionally lie
    strictly inside the open segment.
    """
    if quad.shape == DEGENERATE:
        raise DegenerateQuadrilateral("cannot build on a degenerate quadrilateral")
    A, B, C, D = quad.vertices
    sides = (("M", M, A, B), ("N", N, B, C), ("P", P, C, D), ("Q", Q, D, A))
    ratios = []
    for name, t, u, v in sides:
        if t[2] == 0:
            raise InstanceFormatError(f"{name} must be a finite point")
        if t == u or t == v:
            raise InstanceFormatError(f"{name} coincides with a vertex")
        # finite, distinct ends: None only off their line, and never 1, as t is not v
        pair = parameter_pair(u, v, t)
        if pair is None:
            raise InstanceFormatError(f"point {name} does not lie on its side")
        num, den = pair
        den -= num
        if quad.shape == CONVEX and num * den < 0:
            raise InstanceFormatError(f"{name} is outside its open side")
        ratios.append((num, den))
    # dividing_terms inverts this ratio exactly: the built side points are M N P Q
    return _construct(quad, SideRatios(*ratios), plan)

