from fractions import Fraction

import pytest

from quadconc import Quadrilateral, build_from_points, build_from_ratios
from rationals import pt, side_ratios


@pytest.fixture
def unit_square():
    return Quadrilateral.of(pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1))


@pytest.fixture
def midpoint_config(unit_square):
    return build_from_ratios(unit_square, side_ratios(1, 1, 1, 1))


@pytest.fixture
def gamma_one_config(unit_square):
    # ratios (2, 1, 1/2, 1): product one without any symmetry
    return build_from_ratios(unit_square, side_ratios(2, 1, Fraction(1, 2), 1))


@pytest.fixture
def gamma_two_config(unit_square):
    # ratios (1, 1, 1, 2): the reference instance with E = (1/2, 5/12)
    return build_from_ratios(unit_square, side_ratios(1, 1, 1, 2))


@pytest.fixture
def two_point_config(unit_square):
    # M = (1/3, 0) and N = (1, 2/7) with the P and Q that the paper's
    # two-point completion gives (see test_configuration), so gamma = 1
    # and E lies on AC
    return build_from_points(unit_square, pt(Fraction(1, 3), 0), pt(1, Fraction(2, 7)),
                             pt(Fraction(2, 7), 1), pt(0, Fraction(1, 3)))


@pytest.fixture
def generic_gamma_two_config():
    quad = Quadrilateral.of(pt(0, 0), pt(4, 0), pt(5, 3), pt(1, 4))
    return build_from_ratios(quad, side_ratios(1, 2, 1, 1))


@pytest.fixture
def crossed_quad():
    return Quadrilateral.of(pt(0, 0), pt(1, 1), pt(1, 0), pt(0, 1))


@pytest.fixture
def concave_quad():
    return Quadrilateral.of(pt(0, 0), pt(4, 0), pt(1, 1), pt(0, 4))
