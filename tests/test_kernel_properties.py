import json
from fractions import Fraction
from math import gcd, prod

import naive_geometry as naive
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadconc import (
    Quadrilateral,
    affine_parameter,
    collinear,
    directed_ratio,
    line_through,
    meet,
    point_dividing,
)
from quadconc import SideRatios
from quadconc._purekernel import det3
from quadconc.instancefile import parse_instance, serialize_instance
from quadconc.kernel import classify_triples, parameter_error, parameter_pair, parameter_pairs
from quadconc.errors import GeometryError
from rationals import affine, frac, pt, tri

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=50
)
points = st.builds(pt, rationals, rationals)
nonzero_rationals = rationals.filter(lambda f: f != 0)
ideal_points = st.tuples(rationals, rationals).filter(lambda xy: xy != (0, 0)).map(
    lambda xy: pt(*xy, 0))


def orientation(a, b, c) -> int:
    """The sign of the signed area of the triangle ``a b c`` of the
    canonical triples of finite points: of their ``det3``, since their
    weights are positive."""
    d = det3(a, b, c)
    return (d > 0) - (d < 0)


def xy(p) -> tuple[Fraction, Fraction]:
    """The affine coordinates of a finite :class:`Point`."""
    return affine(p.triple())


def incident(line, p) -> bool:
    """Whether ``p`` lies on ``line``: the inner product of the line's triple
    with the point's vanishes."""
    return sum(u * v for u, v in zip(line._t, p.triple())) == 0


@given(points, points, rationals)
def test_division_round_trip(a, b, t):
    assume(a != b)
    assume(t != -1)
    assert frac(directed_ratio(a, point_dividing(a, b, t.as_integer_ratio()), b)) == t


@given(points, points, points)
def test_incidence_of_joins(p, q, r):
    assume(not collinear(p, q, r))
    assert meet(line_through(p, q), line_through(p, r)) == p


@given(points, points, nonzero_rationals, nonzero_rationals)
def test_projective_scaling_changes_nothing(p, q, s1, s2):
    assume(p != q)
    ps = pt(*(s1 * c for c in p.triple()))
    qs = pt(*(s2 * c for c in q.triple()))
    assert ps == p
    assert qs == q
    assert line_through(ps, qs) == line_through(p, q)


@given(points, points, points)
def test_collinear_permutation_invariance(p, q, r):
    base = collinear(p, q, r)
    assert collinear(p, r, q) == base
    assert collinear(q, p, r) == base
    assert collinear(q, r, p) == base
    assert collinear(r, p, q) == base
    assert collinear(r, q, p) == base


@given(points, points)
def test_join_incidence(p, q):
    assume(p != q)
    line = line_through(p, q)
    assert incident(line, p)
    assert incident(line, q)


@given(points, points, points, points)
@settings(max_examples=50)
def test_meet_lies_on_both_lines(p1, q1, p2, q2):
    assume(p1 != q1 and p2 != q2)
    l1 = line_through(p1, q1)
    l2 = line_through(p2, q2)
    assume(l1 != l2)
    x = meet(l1, l2)
    assert incident(l1, x)
    assert incident(l2, x)


# The division kernels work on integer triples; the oracle works on affine
# Fraction pairs.  Large numerators, non-unit weights and vertical segments
# (which take the y branch) make the two computations differ as much as
# they can while meaning the same thing.
big_rationals = st.builds(
    Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**3)
)
weights = st.builds(
    Fraction, st.integers(-10**3, 10**3).filter(bool), st.integers(1, 10**3)
)


@st.composite
def weighted_points(draw, x=big_rationals):
    """The affine point ``(x, y)`` passed to ``Point`` as ``(x*w, y*w, w)``."""
    xv, yv, w = draw(x), draw(big_rationals), draw(weights)
    return pt(xv * w, yv * w, w)


@st.composite
def free_segments(draw):
    a, b = draw(weighted_points()), draw(weighted_points())
    assume(a != b)
    return a, b


@st.composite
def vertical_segments(draw):
    a = draw(weighted_points())
    b = draw(weighted_points(x=st.just(xy(a)[0])))
    assume(a != b)
    return a, b


segments = free_segments() | vertical_segments()
# parameters outside [0, 1]: the point lies beyond one endpoint
beyond = big_rationals.map(lambda t: abs(t) + Fraction(1, 10**3))
exterior = beyond.map(lambda t: -t) | beyond.map(lambda t: 1 + t)


def _at(a, b, lam):
    (ax, ay), (bx, by) = xy(a), xy(b)
    return pt(ax + lam * (bx - ax), ay + lam * (by - ay))


@given(segments, big_rationals | st.sampled_from([Fraction(0), Fraction(1)]))
@settings(max_examples=200)
def test_affine_parameter_and_ratio_match_oracle(seg, lam):
    a, b = seg
    x = _at(a, b, lam)
    assert frac(affine_parameter(a, b, x)) == naive.param(xy(a), xy(b), xy(x)) == lam
    if lam == 1:
        with pytest.raises(GeometryError, match="coincides with the second endpoint"):
            directed_ratio(a, x, b)
    else:
        assert frac(directed_ratio(a, x, b)) == naive.ratio(xy(a), xy(x), xy(b))


@given(segments, exterior)
def test_exterior_ratios_are_negative_and_match_oracle(seg, lam):
    a, b = seg
    x = _at(a, b, lam)
    r = frac(directed_ratio(a, x, b))
    assert r < 0
    assert r == naive.ratio(xy(a), xy(x), xy(b))


@given(segments, big_rationals)
@settings(max_examples=200)
def test_point_dividing_matches_oracle(seg, t):
    assume(t != -1)
    a, b = seg
    expected = pt(*naive.divide(xy(a), xy(b), t))
    assert point_dividing(a, b, t.as_integer_ratio()) == expected


@given(st.one_of(points, ideal_points), st.one_of(points, ideal_points),
       st.one_of(points, ideal_points), st.integers(-9, 9), st.integers(-9, 9))
def test_det3_decides_incidence_with_the_join(u, v, x, s, t):
    # the verifiers' concurrence test; besides a free x, s*u + t*v is on the line
    assume(u != v and not (u.is_ideal and v.is_ideal))
    line = line_through(u, v)
    on = tuple(s * a + t * b for a, b in zip(u.triple(), v.triple()))
    for p in (x, *([pt(*on)] if any(on) else [])):
        assert (det3(u.triple(), v.triple(), p.triple()) == 0) == incident(line, p)


# small coordinates make collinear and repeated vertices common
small_points = st.builds(pt, st.integers(-2, 2), st.integers(-2, 2))
triples = st.builds(tri, rationals, rationals)
small_triples = st.builds(tri, st.integers(-2, 2), st.integers(-2, 2))


@given(*[st.one_of(small_triples, triples)] * 4)
def test_classify_counts_orientation_signs(a, b, c, d):
    signs = [orientation(a, b, c), orientation(b, c, d), orientation(c, d, a),
             orientation(d, a, b)]
    expected = ("degenerate" if 0 in signs
                else ("convex", "concave", "crossed", "concave", "convex")[signs.count(-1)])
    assert classify_triples(a, b, c, d) == expected
    assert Quadrilateral.of(a, b, c, d) == (a, b, c, d, expected)


@given(triples, triples, triples, ideal_points, st.integers(0, 3))
def test_classify_rejects_an_ideal_vertex(a, b, c, ideal, i):
    vertices = [a, b, c]
    vertices.insert(i, ideal.triple())
    with pytest.raises(GeometryError, match="^orientation is defined for finite points only$"):
        Quadrilateral.of(*vertices)


# coordinates up to 10**30, where a collinearity test that lost precision
# would show
large_points = st.builds(pt, st.fractions(-10**30, 10**30, max_denominator=10**30),
                         st.fractions(-10**30, 10**30, max_denominator=10**30))


@given(*[st.one_of(small_points, ideal_points, large_points)] * 3, st.integers(-2, 2),
       st.integers(-2, 2))
@example(pt(1, 0, 0), pt(1, 0), pt(0, 0), 0, 0)  # ideal
@example(pt(1, 1), pt(2, 2, 2), pt(0, 0), 0, 0)  # coincident ends
@example(pt(0, 0), pt(1, 0), pt(0, 1), 0, 0)  # off the line
@example(pt(0, 0), pt(2, 0), pt(0, 0), 1, 1)  # on the line
@example(pt(10**30, 1), pt(-10**30, Fraction(1, 10**30)),  # the midpoint, on the line
         pt(0, Fraction(10**30 + 1, 2 * 10**30)), 1, 1)
def test_parameter_pair_is_none_exactly_where_parameter_terms_raises(a, b, x, s, t):
    # besides a free x, the combination s*a + t*b is on the line through a and b
    on = tuple(s * u + t * v for u, v in zip(a.triple(), b.triple()))
    tested = (x, *([pt(*on)] if any(on) else []))
    # the carrier form gives each point's pair, and None for an undefined one
    assert parameter_pairs(a.triple(), b.triple(), [p.triple() for p in tested] + [None]) == [
        parameter_pair(a.triple(), b.triple(), p.triple()) for p in tested] + [None]
    for p in tested:
        pair = parameter_pair(a.triple(), b.triple(), p.triple())
        try:
            terms = affine_parameter(a, b, p)
        except GeometryError as exc:
            assert pair is None
            assert str(exc) == parameter_error(a.triple(), b.triple(), p.triple())
            if a.is_ideal or b.is_ideal or p.is_ideal:
                assert str(exc) == "affine parameters are defined for finite points only"
            elif a == b:
                assert str(exc) == "segment endpoints coincide"
            else:
                assert not collinear(a, b, p)
                assert str(exc) == f"{p!r} is not on the line through {a!r} and {b!r}"
        else:
            assert pair == terms
            (ax, ay), (bx, by), (px, py) = xy(a), xy(b), xy(p)
            lam = Fraction(*pair)
            assert (ax + lam * (bx - ax), ay + lam * (by - ay)) == (px, py)


# One rational: an integer (num, den) pair.  SideRatios owns its canonical
# form, lowest terms with den > 0; point_dividing reads any pair.
nonzero_ints = st.integers(-10**12, 10**12).filter(bool)
factors = st.integers(-10**6, 10**6).filter(bool)
raw_pairs = st.tuples(st.integers(-10**12, 10**12), nonzero_ints)


@given(st.tuples(raw_pairs, raw_pairs, raw_pairs, raw_pairs), factors)
@example(((2, 4), (-3, -6), (0, -5), (6, -4)), -3)
def test_side_ratios_store_lowest_terms(pairs, k):
    ratios = SideRatios(*pairs)
    for num, den in ratios:
        assert den > 0 and gcd(num, den) == 1
    assert ratios.as_tuple == tuple(frac(p).as_integer_ratio() for p in pairs)
    assert ratios.gamma == prod(map(frac, pairs)).as_integer_ratio()
    assert SideRatios(*((k * num, k * den) for num, den in pairs)) == ratios
    assert SideRatios(*((-num, -den) for num, den in pairs)) == ratios


positive_pairs = st.tuples(st.integers(1, 10**9), st.integers(1, 10**9))


def _instance_text(pairs):
    return json.dumps({
        "vertices": {"A": ["0", "0"], "B": ["1", "0"], "C": ["1", "1"], "D": ["0", "1"]},
        "ratios": {key: f"{num}/{den}" for key, (num, den) in zip("mnpq", pairs)},
    })


@given(st.tuples(positive_pairs, positive_pairs, positive_pairs, positive_pairs),
       st.integers(1, 10**6))
def test_instance_ratios_read_as_one_rational(pairs, k):
    inst = parse_instance(_instance_text(pairs))
    assert inst.sides == SideRatios(*pairs)
    assert parse_instance(_instance_text([(k * num, k * den) for num, den in pairs])) == inst
    text = serialize_instance(inst)
    assert parse_instance(text) == inst
    assert serialize_instance(parse_instance(text)) == text
    assert json.loads(text)["ratios"] == {key: str(frac(p)) for key, p in zip("mnpq", pairs)}


def test_two_fourths_read_as_one_half():
    half = parse_instance(_instance_text([(1, 2)] * 4))
    assert parse_instance(_instance_text([(2, 4)] * 4)) == half
    assert half.sides.m == (1, 2)


grid_points = st.builds(pt, st.integers(-9, 9), st.integers(-9, 9))


@given(grid_points, grid_points, st.integers(-10**6, 10**6), nonzero_ints, factors)
def test_point_dividing_reads_any_pair_of_the_ratio(a, b, tn, td, k):
    assume(a != b)
    with pytest.raises(ZeroDivisionError):
        point_dividing(a, b, (1, 0))
    with pytest.raises(GeometryError, match="^ratio -1 corresponds to the point at infinity$"):
        point_dividing(a, b, (td, -td))
    assume(tn + td != 0)
    p = point_dividing(a, b, (tn, td))
    assert point_dividing(a, b, (-tn, -td)) == p == point_dividing(a, b, (k * tn, k * td))
    assert frac(directed_ratio(a, p, b)) == Fraction(tn, td)
