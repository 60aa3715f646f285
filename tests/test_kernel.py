from fractions import Fraction
from itertools import combinations

import pytest

from quadconc import (
    Quadrilateral,
    SideRatios,
    affine_parameter,
    collinear,
    directed_ratio,
    line_through,
    meet,
    point_dividing,
)
from quadconc.errors import GeometryError
from quadconc.kernel import Line, Point, classify_triples, lowest_terms
from rationals import affine, frac, pt, tri
from test_kernel_properties import incident, orientation

F = Fraction


class TestPoint:
    def test_projective_equality(self):
        assert pt(F(1, 2), F(1, 4)) == pt(2, 1, 4)
        assert pt(1, 2, 3) == pt(2, 4, 6)
        assert pt(1, 0, 0) != pt(0, 1, 0)
        # a non-point gets NotImplemented, so Python falls back to identity
        assert pt(1, 0).__eq__(1) is NotImplemented and (pt(1, 0) == 1) is False

    def test_a_point_and_a_line_on_one_triple_stay_apart(self):
        # Point and Line share one equality, which compares the class too
        t = (1, 2, 3)
        assert Point._wrap(t) != Line._wrap(t) and Line._wrap(t) != Point._wrap(t)
        assert Point._wrap(t).__eq__(Line._wrap(t)) is NotImplemented
        assert hash(Point._wrap(t)) == hash((Point, t))

    def test_scaling_by_negative(self):
        assert pt(1, 2, 1) == pt(-1, -2, -1)
        assert hash(pt(1, 2, 1)) == hash(pt(-1, -2, -1))

    def test_finiteness(self):
        assert not pt(3, 4).is_ideal
        assert pt(3, 4, 0).is_ideal
        assert affine(pt(F(2, 3), F(1, 2)).triple()) == (F(2, 3), F(1, 2))

    def test_zero_triple_rejected(self):
        with pytest.raises(ValueError):
            pt(0, 0, 0)

    def test_floats_rejected(self):
        # and text: instance files have their own, stricter reader
        a, b = pt(0, 0), pt(1, 0)
        for make in (lambda: point_dividing(a, b, 0.5), lambda: point_dividing(a, b, (0.5, 1)),
                     lambda: SideRatios((1, 2), ("1", 2), (1, 1), (1, 1))):
            with pytest.raises(TypeError):
                make()


class TestLine:
    def test_projective_equality(self):
        # x + 2y + 3 = 0, joined through two different pairs of its points
        assert line_through(pt(-3, 0), pt(1, -2)) == line_through(pt(-1, -1), pt(5, -4))
        assert line_through(pt(0, 0), pt(0, 1)) != line_through(pt(0, 0), pt(1, 0))
        # the join is symmetric and hashes by its canonical triple
        p, q = pt(F(1, 2), 3), pt(-2, F(5, 7))
        assert line_through(p, q) == line_through(q, p) != line_through(p, pt(0, 0))
        assert hash(line_through(p, q)) == hash(line_through(q, p))
        assert len({line_through(p, q), line_through(q, p), line_through(p, pt(0, 0))}) == 2
        assert line_through(p, q).__eq__(1) is NotImplemented and (line_through(p, q) == 1) is False


class TestLineThrough:
    def test_axis(self):
        assert repr(line_through(pt(0, 0), pt(1, 0))) == "Line(0, 1, 0)"

    def test_diagonal(self):
        # x - y = 0, stored with its last nonzero component positive
        assert repr(line_through(pt(0, 0), pt(1, 1))) == "Line(-1, 1, 0)"

    def test_coincident(self):
        with pytest.raises(GeometryError, match=r"no unique line through Point\(0, 0\) twice"):
            line_through(pt(0, 0), pt(0, 0))

    def test_two_ideal_points(self):
        with pytest.raises(GeometryError,
                           match="both points are ideal; their join is the line at infinity"):
            line_through(pt(1, 0, 0), pt(0, 1, 0))

    def test_through_one_ideal_point(self):
        # horizontal line through (0, 3) in direction (1, 0)
        line = line_through(pt(0, 3), pt(1, 0, 0))
        assert incident(line, pt(7, 3)) and not incident(line, pt(7, 4))


class TestMeet:
    def test_axes(self):
        y_axis = line_through(pt(0, 0), pt(0, 1))
        x_axis = line_through(pt(0, 0), pt(1, 0))
        assert meet(y_axis, x_axis) == pt(0, 0)

    def test_parallel_gives_ideal(self):
        # y = 0 and y = 1
        x = meet(line_through(pt(0, 0), pt(1, 0)), line_through(pt(0, 1), pt(1, 1)))
        assert x == pt(1, 0, 0)
        assert x.is_ideal

    def test_rational_meet(self):
        # x = 2/3 and y = 1/2, frozen from direct substitution
        l1 = line_through(pt(F(2, 3), 0), pt(F(2, 3), 1))
        l2 = line_through(pt(0, F(1, 2)), pt(1, F(1, 2)))
        assert meet(l1, l2) == pt(F(2, 3), F(1, 2))

    def test_coincident(self):
        with pytest.raises(GeometryError, match="are the same line"):
            meet(line_through(pt(0, 0), pt(0, 1)), line_through(pt(0, 2), pt(0, -3)))


class TestCollinear:
    def test_simple(self):
        assert collinear(pt(0, 0), pt(1, 1), pt(2, 2))
        assert not collinear(pt(0, 0), pt(1, 0), pt(0, 1))

    def test_unit_square_midline(self):
        # X, O, Z of the unit-square midpoint configuration, computed by
        # exact intersections in the oracle
        assert collinear(pt(F(1, 2), F(1, 4)), pt(F(1, 2), F(1, 2)), pt(F(1, 2), F(3, 4)))

    def test_with_ideal_point(self):
        # an ideal point is collinear with any two finite points of a
        # line having that direction
        assert collinear(pt(0, 0), pt(1, 0), pt(1, 0, 0))
        assert not collinear(pt(0, 0), pt(1, 0), pt(0, 1, 0))


class TestDividingAndRatio:
    def test_midpoint(self):
        assert point_dividing(pt(0, 0), pt(1, 0), (1, 1)) == pt(F(1, 2), 0)

    def test_ratio_two(self):
        # ratio 2 places the point twice as far from the first endpoint
        assert point_dividing(pt(0, 0), pt(1, 0), (2, 1)) == pt(F(2, 3), 0)

    def test_vertical_side(self):
        assert point_dividing(pt(0, 1), pt(0, 0), (2, 1)) == pt(0, F(1, 3))

    def test_ratio_examples(self):
        assert frac(directed_ratio(pt(0, 0), pt(F(1, 2), 0), pt(1, 0))) == 1
        assert frac(directed_ratio(pt(0, 0), pt(F(2, 3), 0), pt(1, 0))) == 2

    def test_exterior_point_negative_ratio(self):
        # R = (-2, 0) relative to A = (0,0), B = (1,0): lambda = -2
        assert frac(directed_ratio(pt(0, 0), pt(-2, 0), pt(1, 0))) == F(-2, 3)

    def test_errors(self):
        a, b = pt(0, 0), pt(1, 0)
        with pytest.raises(GeometryError, match="division endpoints coincide"):
            point_dividing(a, a, (1, 1))
        with pytest.raises(GeometryError, match="ratio -1 corresponds to the point at infinity"):
            point_dividing(a, b, (-1, 1))
        with pytest.raises(GeometryError, match="division endpoints must be finite"):
            point_dividing(a, pt(1, 0, 0), (1, 1))
        with pytest.raises(GeometryError, match="segment endpoints coincide"):
            directed_ratio(a, pt(F(1, 2), 0), a)
        with pytest.raises(GeometryError,
                           match="division point coincides with the second endpoint"):
            directed_ratio(a, b, b)
        with pytest.raises(GeometryError, match=r"Point\(1, 1\) is not on the line through"):
            directed_ratio(a, pt(1, 1), b)
        with pytest.raises(ZeroDivisionError, match="^rational 1/0$"):
            lowest_terms(1, 0)
        # the checks run in a fixed order: type, zero denominator, ideal,
        # coincident, ratio -1
        with pytest.raises(TypeError):
            point_dividing(a, b, 0.5)
        with pytest.raises(ZeroDivisionError):
            point_dividing(a, pt(1, 0, 0), (1, 0))
        with pytest.raises(GeometryError, match="division endpoints must be finite"):
            point_dividing(a, pt(1, 0, 0), (-1, 1))
        with pytest.raises(GeometryError, match="division endpoints coincide"):
            point_dividing(a, a, (-1, 1))
        with pytest.raises(GeometryError,
                           match="affine parameters are defined for finite points only"):
            affine_parameter(a, pt(1, 0, 0), a)

    def test_affine_parameter(self):
        assert frac(affine_parameter(pt(0, 0), pt(2, 0), pt(F(1, 2), 0))) == F(1, 4)
        assert frac(affine_parameter(pt(0, 0), pt(0, 2), pt(0, 3))) == F(3, 2)


class TestParameterTermsGuards:
    """The guards of ``affine_parameter``, which returns its ``(num, den)``
    pair unreduced."""

    a, b, ideal = pt(0, 0), pt(1, 0), pt(1, 0, 0)

    @pytest.mark.parametrize("args", [(ideal, b, a), (a, ideal, a), (a, b, ideal),
                                      (a, a, ideal), (ideal, ideal, ideal)])
    def test_ideal(self, args):
        # first of the three guards: an ideal point also beats coincident ends
        with pytest.raises(GeometryError,
                           match="^affine parameters are defined for finite points only$"):
            affine_parameter(*args)

    def test_coincident(self):
        # equal as points, made from different rational triples
        with pytest.raises(GeometryError, match="^segment endpoints coincide$"):
            affine_parameter(self.a, pt(0, 0, 2), pt(1, 1))

    def test_off_the_line(self):
        with pytest.raises(GeometryError) as info:
            affine_parameter(self.a, self.b, pt(1, F(1, 2)))
        assert str(info.value) == \
            "Point(1, 1/2) is not on the line through Point(0, 0) and Point(1, 0)"

    def test_on_the_line(self):
        assert affine_parameter(self.a, pt(2, 0, 2), pt(3, 0)) == (3, 1)


class TestOrientation:
    def test_signs(self):
        # canonical finite triples have w > 0, so det3's sign is the affine
        # orientation sign, whatever weight a point was written with
        assert orientation(tri(0, 0), tri(1, 0), tri(0, 1)) == 1
        assert orientation(tri(0, 0, -1), tri(-1, 0, -1), tri(0, -2, -2)) == 1
        assert orientation(tri(0, 0), tri(0, 1), tri(1, 0)) == -1
        assert orientation(tri(0, 0), tri(1, 1), tri(2, 2)) == 0

    def test_requires_finite(self):
        with pytest.raises(GeometryError, match="orientation is defined for finite points only"):
            Quadrilateral.of(tri(0, 0), tri(1, 0), tri(1, 0, 0), tri(0, 1))


def classify(*vertices):
    """The shape ``Quadrilateral.of`` gives four finite triples, which is
    ``classify_triples``'s."""
    shape = Quadrilateral.of(*vertices).shape
    assert shape == classify_triples(*vertices)
    return shape


class TestClassify:
    def test_square(self):
        assert classify(tri(0, 0), tri(1, 0), tri(1, 1), tri(0, 1)) == "convex"

    def test_clockwise_square(self):
        assert classify(tri(0, 1), tri(1, 1), tri(1, 0), tri(0, 0)) == "convex"

    def test_concave(self):
        # orientation signs (+, -, +, +), computed with the orientation
        # oracle above
        assert classify(tri(0, 0), tri(4, 0), tri(1, 1), tri(0, 4)) == "concave"

    def test_crossed(self):
        assert classify(tri(0, 0), tri(1, 1), tri(1, 0), tri(0, 1)) == "crossed"

    def test_degenerate(self):
        assert classify(tri(0, 0), tri(1, 0), tri(2, 0), tri(0, 1)) == "degenerate"
        # each of the six ways to repeat a vertex zeroes a consecutive orientation
        square = [tri(0, 0), tri(1, 0), tri(1, 1), tri(0, 1)]
        for i, j in combinations(range(4), 2):
            vertices = square.copy()
            vertices[j] = vertices[i]
            assert classify(*vertices) == "degenerate", (i, j)
