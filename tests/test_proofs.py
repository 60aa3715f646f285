"""Proofs of claims as identities of rational functions.

Every claim is invariant under affine maps, and an affine map takes any
quadrilateral with no three collinear vertices to ``A=(0,0) B=(1,0)
C=(a,b) D=(0,1)``.  The product-one claims are checked with
``q = 1/(mnp)`` substituted.  Two routes prove the claims there:

* the shipped code: ``construct_triples``, the side points of
  ``dividing_terms`` and each identity row's check of ``CLAIMS`` run
  unchanged on triples and ratio pairs of polynomials with integer
  coefficients, each ratio a free numerator over a free denominator, with
  the primitive part as the reduction.  Every equality such a check
  tests is then a polynomial identity, which holds on every instance on
  which its points are defined, convex or not.  ``diagonal_concurrence_iff``
  compares two incidences instead, and is proved by their determinants
  being one polynomial;
* the independent oracle ``naive_geometry.build_all``, which runs on
  elements of the field ``QQ(a, b, m, n, p, q)`` and states each claim
  in the paper's form, as the sampled tests' cross-check.
"""

import pytest

pytest.importorskip("sympy")

from sympy import QQ, ZZ  # noqa: E402
from sympy.polys.fields import field  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

import naive_geometry as naive  # noqa: E402
from quadconc._purekernel import det3  # noqa: E402
from quadconc.configuration import (  # noqa: E402
    SLOT, Configuration, Quadrilateral, SideRatios, construct_triples)
from quadconc.kernel import dividing_terms, parameter_pair  # noqa: E402
from quadconc.verifiers import CLAIMS, FAIL, PASS, _section_form, _trace_form  # noqa: E402

K, a, b, m, n, p, q = field("a,b,m,n,p,q", QQ)
# each side ratio m n p q is a pair of free numerator and free denominator,
# so a formula that swaps two numerators or two denominators shows
Z, za, zb, zm, zn, zp, zq, zmb, znb, zpb, zqb = ring("a,b,m,n,p,q,mb,nb,pb,qb", ZZ)

# the rows that state an identity: every row outside the sign claims'
# convex and nonconvex regimes
IDENTITY_ROWS = [row for row in CLAIMS if row[1] in ("gamma = 1", "any")]

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


def primitive(x, y, w):
    """``reduce3`` over the ring ``Z``: the triple divided by the gcd of its
    components, signed so that its last nonzero component has a positive
    leading coefficient.  Proportional triples map to one triple."""
    g = x.gcd(y).gcd(w)
    x, y, w = x.exquo(g), y.exquo(g), w.exquo(g)
    if (w or y or x).LC < 0:
        return -x, -y, -w
    return x, y, w


def shipped(q_pair):
    """The configuration of the frame through the shipped construction, with
    ``m n p`` free and ``q`` the pair ``q_pair``.  ``SideRatios._make``
    stores the pairs as given, since ``lowest_terms`` needs integers."""
    zero, one = Z(0), Z(1)
    A, B, C, D = (zero, zero, one), (one, zero, one), (za, zb, one), (zero, one, one)
    ratios = SideRatios._make(((zm, zmb), (zn, znb), (zp, zpb), q_pair,
                               (zm * zn * zp * q_pair[0], zmb * znb * zpb * q_pair[1])))
    sides = [primitive(*dividing_terms(u, v, *ratio))
             for u, v, ratio in ((A, B, ratios.m), (B, C, ratios.n), (C, D, ratios.p),
                                 (D, A, ratios.q))]
    triples = construct_triples((A, B, C, D, *sides), primitive)
    # the checks of the identity rows read no shape, no r and no flag
    quad = Quadrilateral(*triples[:4], shape=None)
    return Configuration(quad, ratios, tuple(triples), r_ratio=None, degeneracies=frozenset())


@pytest.fixture(scope="module")
def shipped_free():
    return shipped((zq, zqb))


@pytest.fixture(scope="module")
def shipped_gamma_one():
    return shipped((zmb * znb * zpb, zm * zn * zp))


@pytest.mark.parametrize("claim, regime, check",
                         [(claim, regime, check) for claim, regime, *_, check in IDENTITY_ROWS],
                         ids=[row[0] for row in IDENTITY_ROWS])
def test_shipped_check_passes_as_an_identity(claim, regime, check, request):
    cfg = request.getfixturevalue("shipped_gamma_one" if regime == "gamma = 1" else
                                  "shipped_free")
    assert all(t is not None for t in cfg.triples)
    verdict = check(claim, cfg)
    assert (verdict.status, verdict.detail) == (PASS, "")
    assert verdict.exact_values, claim


def test_diagonal_concurrence_iff_is_one_determinant(shipped_gamma_one):
    # the check passes above with both incidences false, which alone proves
    # no iff; the iff holds because the two determinants with line AC are
    # one polynomial, m(anp - b*nb*pb) in the frame
    t = shipped_gamma_one.triples
    A, C, E, C1 = (t[SLOT[name]] for name in ("A", "C", "E", "C1"))
    assert det3(A, C, E) == det3(A, C, C1) != 0


def test_trace_ratio_formula_holds_for_signed_r(shipped_free):
    """The paper's headline, its transversal theorem carried from triangles
    to quadrilaterals: the shipped ``crossing_ratio_formula`` check passes
    as an identity, so on every shape, once ``r`` is the signed ``-AR/RB``,
    and fails with ``+AR/RB``, so the test tells the sign.
    ``-AR/RB = [NQA]/[NQB]``, which is positive when ``A`` and ``B`` lie on
    one side of ``NQ``, as they do on a convex quadrilateral: there the
    signed and the stored unsigned ``r`` agree, which proves the convex row."""
    t = shipped_free.triples
    A, B, N, Q, R = (t[SLOT[name]] for name in ("A", "B", "N", "Q", "R"))
    num, den = parameter_pair(A, B, R)
    check = {claim: check for claim, *_, check in CLAIMS}["crossing_ratio_formula"]
    signed = check("crossing_ratio_formula", shipped_free._replace(r_ratio=(-num, den - num)))
    assert (signed.status, signed.detail) == (PASS, "")
    plus = check("crossing_ratio_formula", shipped_free._replace(r_ratio=(num, den - num)))
    assert (plus.status, plus.detail) == (FAIL, "ME_over_EP mismatch")
    # A and B have weight one, so their brackets with NQ are the determinants
    assert -num * det3(N, Q, B) == det3(N, Q, A) * (den - num)


def test_triangle_case():
    """``D`` tending to ``A`` sends ``Q`` and ``R`` to ``A`` and ``r`` to 0,
    where the trace form is the section form ``mn(p+1)/(m+1)``: the triangle
    theorem.  In ``ABC`` with ``M`` on ``AB``, ``N`` on ``BC`` and ``P`` on
    ``CA``, the transversal ``MP`` cuts the cevian ``AN`` at ``E`` with
    ``ME/EP = mn(p+1)/(m+1)``; a quadrilateral with ``D = A`` does not build,
    so the oracle proves it in a triangle frame."""
    m_pair, n_pair, p_pair = (zm, zmb), (zn, znb), (zp, zpb)
    trace = _trace_form(m_pair, n_pair, p_pair, (zq, zqb), (Z(0), Z(1)))
    section = _section_form(m_pair, n_pair, p_pair)
    assert trace[0] * section[1] == section[0] * trace[1] != 0
    zero, one = K(0), K(1)
    A, B, C = (zero, zero), (one, zero), (zero, one)
    M, N, P = naive.divide(A, B, m), naive.divide(B, C, n), naive.divide(C, A, p)
    E = naive.meet(naive.line(M, P), naive.line(A, N))
    assert naive.ratio(M, E, P) == m * n * (p + 1) / (m + 1)


def test_inner_orientation_identity(shipped_free):
    """The orientation of each three consecutive inner points is a positive
    multiple of one triangle of the outer quadrilateral, for positive
    ratios and ``gamma != 1``:

    ``[M1 N1 P1] S_m S_n S_p = (1 + p)(gamma - 1)^2 [A B P]``

    and its three cyclic companions, with ``S_m = 1 + m + mn + mnp``
    cyclically and each bracket the affine orientation, ``det3`` divided by
    the weights of its three points.  So ``M1 N1 P1 Q1`` is convex exactly
    when ``[ABP] [BCQ] [CDM] [DAN]`` are nonzero and share one sign."""
    fraction = Z.to_field()
    t = shipped_free.triples

    def bracket(*names):
        points = [t[SLOT[name]] for name in names]
        u, v, x = (fraction(w) for _, _, w in points)
        return fraction(det3(*points)) / (u * v * x)

    r = [fraction(num) / fraction(den) for num, den in shipped_free.ratios[:4]]
    gamma = r[0] * r[1] * r[2] * r[3]
    S = [1 + r[i] * (1 + r[(i + 1) % 4] * (1 + r[(i + 2) % 4])) for i in range(4)]
    inner, vertices, sides = ("M1", "N1", "P1", "Q1"), "ABCD", "MNPQ"
    for i in range(4):
        j, k = (i + 1) % 4, (i + 2) % 4
        lhs = bracket(inner[i], inner[j], inner[k]) * S[i] * S[j] * S[k]
        rhs = (1 + r[k]) * (gamma - 1) ** 2 * bracket(vertices[i], vertices[j], sides[k])
        assert lhs == rhs != 0, inner[i]
