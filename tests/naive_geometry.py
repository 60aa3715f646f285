"""Independent brute-force oracle used to cross-check the library.

Deliberately shares no code with the package kernel: plain affine
`Fraction` pairs, lines as coefficient triples, intersections by Cramer's
rule.  Distinct parallel lines meet in their :class:`Direction`, and a
line joins a finite point and a direction; coincident lines, and two
directions, yield ``None``.  If the homogeneous kernel and this module
ever disagree on a point, one of them is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

Pt = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class Direction:
    """A point at infinity, given by a direction vector (not normalised)."""

    dx: Fraction
    dy: Fraction


def line(p: Pt, q: Pt):
    (x1, y1), (x2, y2) = p, q
    a = y1 - y2
    b = x2 - x1
    c = x1 * y2 - x2 * y1
    if a == 0 and b == 0:
        return None
    return (a, b, c)


def meet(l1, l2):
    if l1 is None or l2 is None:
        return None
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    det = a1 * b2 - a2 * b1
    if det == 0:
        if a1 * c2 == a2 * c1 and b1 * c2 == b2 * c1:
            return None  # the same line
        return Direction(b1, -a1)
    return ((b1 * c2 - b2 * c1) / det, (c1 * a2 - c2 * a1) / det)


def divide(a: Pt, b: Pt, ratio: Fraction) -> Pt:
    lam = ratio / (1 + ratio)
    return (a[0] + lam * (b[0] - a[0]), a[1] + lam * (b[1] - a[1]))


def param(a: Pt, b: Pt, x: Pt) -> Fraction:
    if a[0] != b[0]:
        return (x[0] - a[0]) / (b[0] - a[0])
    return (x[1] - a[1]) / (b[1] - a[1])


def ratio(a: Pt, x: Pt, b: Pt) -> Fraction:
    lam = param(a, b, x)
    return lam / (1 - lam)


def build_all(vertices: tuple[Pt, Pt, Pt, Pt],
              mnpq: tuple[Fraction, Fraction, Fraction, Fraction]) -> dict[str, Pt | Direction | None]:
    """Every named point of the configuration: a pair, a :class:`Direction`
    where two lines are parallel, or ``None`` where a line degenerates."""
    A, B, C, D = vertices
    m, n, p, q = mnpq
    M = divide(A, B, m)
    N = divide(B, C, n)
    P = divide(C, D, p)
    Q = divide(D, A, q)
    pts: dict[str, Pt | Direction | None] = dict(A=A, B=B, C=C, D=D, M=M, N=N, P=P, Q=Q)

    def ln(u, v):
        if u is None or v is None or u == v:
            return None
        if isinstance(u, Direction):
            u, v = v, u
        if isinstance(u, Direction):
            return None  # two directions span the line at infinity
        if isinstance(v, Direction):
            return line(u, (u[0] + v.dx, u[1] + v.dy))
        return line(u, v)

    lAC, lBD = ln(A, C), ln(B, D)
    pts["O"] = meet(lAC, lBD)
    lAN, lBQ, lDN, lCQ = ln(A, N), ln(B, Q), ln(D, N), ln(C, Q)
    lCM, lBP, lAP, lDM = ln(C, M), ln(B, P), ln(A, P), ln(D, M)
    pts["X"] = meet(lAN, lBQ)
    pts["Z"] = meet(lDN, lCQ)
    pts["Y"] = meet(lCM, lBP)
    pts["T"] = meet(lAP, lDM)
    A1 = meet(lBP, lDN)
    B1 = meet(lAP, lCQ)
    C1 = meet(lBQ, lDM)
    D1 = meet(lAN, lCM)
    pts.update(A1=A1, B1=B1, C1=C1, D1=D1)
    pts["F1"] = meet(ln(B, D1), lAC)
    pts["G1"] = meet(ln(C, A1), lBD)
    pts["F2"] = meet(ln(D, B1), lAC)
    pts["G2"] = meet(ln(A, C1), lBD)
    lMP, lNQ = ln(M, P), ln(N, Q)
    pts["E"] = meet(lMP, lNQ)
    lAA1, lBB1, lCC1, lDD1 = ln(A, A1), ln(B, B1), ln(C, C1), ln(D, D1)
    pts["M1"] = meet(lAA1, lDD1)
    pts["N1"] = meet(lAA1, lBB1)
    pts["P1"] = meet(lBB1, lCC1)
    pts["Q1"] = meet(lCC1, lDD1)
    pts["R"] = meet(lNQ, ln(A, B))
    return pts


def ccw_about_centroid(pts: list[Pt]) -> list[int]:
    """Indices of ``pts`` counterclockwise about their centroid from the
    positive x direction, equal directions in input order: a ``sorted``
    with a comparison of half plane, then cross product.  A point on the
    centroid compares equal to every point of the lower half plane yet
    after every point of the upper one, so there the comparison is not a
    strict weak order and the result depends on the sorting algorithm."""
    n = len(pts)
    cx = sum(x for x, _ in pts) / n
    cy = sum(y for _, y in pts) / n
    offsets = [(x - cx, y - cy) for x, y in pts]

    def half(i: int) -> int:
        dx, dy = offsets[i]
        return 0 if dy > 0 or (dy == 0 and dx > 0) else 1

    def compare(i: int, j: int) -> int:
        if half(i) != half(j):
            return -1 if half(i) < half(j) else 1
        (xi, yi), (xj, yj) = offsets[i], offsets[j]
        cross = xi * yj - yi * xj
        return -1 if cross > 0 else 1 if cross < 0 else 0

    return sorted(range(n), key=cmp_to_key(compare))
