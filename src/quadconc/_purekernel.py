"""Pure-Python integer kernels for homogeneous-coordinate geometry.

Every meet, join and incidence test in the package reduces to the three
3-vector integer operations below: the canonical form, the cross product
and the determinant.

All functions take and return plain ``int`` triples.  Intermediate values
are unbounded Python integers, so results are exact at any magnitude.
"""

from math import gcd


def reduce3(x, y, z):
    """Canonical form of a nonzero integer triple.

    Divides by the gcd and flips the overall sign so that the last
    nonzero component is positive.  Proportional triples map to the same
    canonical form, which makes projective equality structural.
    """
    g = gcd(x, y, z)
    if g == 0:
        raise ValueError("zero triple has no canonical form")
    if g != 1:
        x //= g
        y //= g
        z //= g
    if z != 0:
        neg = z < 0
    elif y != 0:
        neg = y < 0
    else:
        neg = x < 0
    if neg:
        return (-x, -y, -z)
    return (x, y, z)


def cross3(u, v):
    """Cross product of two triples; the join/meet workhorse."""
    ux, uy, uw = u
    vx, vy, vw = v
    return (uy * vw - uw * vy, uw * vx - ux * vw, ux * vy - uy * vx)


def det3(p, q, r):
    """Determinant of three triples; zero exactly on incidence."""
    px, py, pw = p
    qx, qy, qw = q
    rx, ry, rw = r
    return (
        px * (qy * rw - qw * ry)
        - py * (qx * rw - qw * rx)
        + pw * (qx * ry - qy * rx)
    )
