"""Proofs of claims as identities of rational functions.

Every claim is invariant under affine maps, and an affine map takes any
quadrilateral with no three collinear vertices to ``A=(0,0) B=(1,0)
C=(a,b) D=(0,1)``.  The independent oracle ``naive_geometry.build_all``
runs unchanged on elements of the field ``QQ(a, b, m, n, p, q)``, so a
claim that holds there as an identity holds for every instance on which
its points are defined, convex or not.  The product-one claims are
checked with ``q = 1/(mnp)`` substituted.
"""

import pytest

pytest.importorskip("sympy")

from sympy import QQ  # noqa: E402
from sympy.polys.fields import field  # noqa: E402

import naive_geometry as naive  # noqa: E402

K, a, b, m, n, p, q = field("a,b,m,n,p,q", QQ)

# each inner point and the four lines through it (quadruple_concurrences),
# the first one through a diagonal division pair
QUADRUPLES = {
    "M1": (("F1", "G1"), ("D", "D1"), ("A", "A1"), ("M", "P")),
    "N1": (("G1", "F2"), ("A", "A1"), ("B", "B1"), ("N", "Q")),
    "P1": (("F2", "G2"), ("B", "B1"), ("C", "C1"), ("M", "P")),
    "Q1": (("G2", "F1"), ("C", "C1"), ("D", "D1"), ("N", "Q")),
}


def build(q_value):
    zero, one = K(0), K(1)
    return naive.build_all(((zero, zero), (one, zero), (a, b), (zero, one)), (m, n, p, q_value))


@pytest.fixture(scope="module")
def free():
    return build(q)


@pytest.fixture(scope="module")
def gamma_one():
    return build(1 / (m * n * p))


def collinear(u, v, x):
    return (v[0] - u[0]) * (x[1] - u[1]) == (v[1] - u[1]) * (x[0] - u[0])


def ratio_on_line(pts, u, x, v):
    """The directed ratio ``ux/xv``, after checking ``x`` is on line ``uv``."""
    assert collinear(pts[u], pts[x], pts[v]), (u, x, v)
    return naive.ratio(pts[u], pts[x], pts[v])


def test_every_named_point_is_finite(free, gamma_one):
    # at generic parameters no line degenerates and no two meeting lines are
    # parallel, so every identity below is about finite points
    for pts in (free, gamma_one):
        assert all(isinstance(pt, tuple) for pt in pts.values())


def test_quadruple_concurrences(free):
    for name, lines in QUADRUPLES.items():
        for u, v in lines:
            assert collinear(free[u], free[v], free[name]), (name, u + v)


def test_section_ratios(free):
    mm1_m1p = ratio_on_line(free, "M", "M1", "P")
    assert mm1_m1p == m * n * (p + 1) / (m + 1)
    assert ratio_on_line(free, "N", "N1", "Q") == n * p * (q + 1) / (n + 1)
    assert ratio_on_line(free, "P", "P1", "M") == p * q * (m + 1) / (p + 1)
    assert ratio_on_line(free, "Q", "Q1", "N") == q * m * (n + 1) / (q + 1)
    gamma = m * n * p * q
    assert mm1_m1p == gamma * (1 / q) * (1 / (m + 1)) + n * (m / (m + 1))


def test_division_ratio_of_m1(free):
    assert ratio_on_line(free, "F1", "M1", "G1") == m * (1 + n * p) / (1 + m * n)


def test_ratio_product(free):
    product = K(1)
    for name, ((u, v), *_) in QUADRUPLES.items():
        product *= ratio_on_line(free, u, name, v)
    assert product == m * n * p * q


def test_diagonal_division_points_merge(free, gamma_one):
    assert gamma_one["F1"] == gamma_one["F2"] and gamma_one["G1"] == gamma_one["G2"]
    # not an identity at a free product, so the comparison can tell
    assert free["F1"] != free["F2"] and free["G1"] != free["G2"]


def test_diagonal_collinearity(gamma_one):
    assert collinear(gamma_one["X"], gamma_one["O"], gamma_one["Z"])
    assert collinear(gamma_one["Y"], gamma_one["O"], gamma_one["T"])


def test_seven_lines(gamma_one):
    lines = (("A", "A1"), ("B", "B1"), ("C", "C1"), ("D", "D1"), ("M", "P"), ("N", "Q"),
             ("F1", "G1"))
    for u, v in lines:
        assert collinear(gamma_one[u], gamma_one[v], gamma_one["E"]), u + v


def test_crossing_ratios(gamma_one):
    qq = 1 / (m * n * p)
    assert ratio_on_line(gamma_one, "F1", "E", "G1") == m * (1 + n * p) / (1 + m * n)
    assert ratio_on_line(gamma_one, "M", "E", "P") == (1 / qq) * (1 / (m + 1)) + n * (m / (m + 1))
    assert ratio_on_line(gamma_one, "N", "E", "Q") == (1 / m) * (1 / (n + 1)) + p * (n / (n + 1))
