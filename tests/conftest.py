from fractions import Fraction

import pytest

from quadconc import Quadrilateral, build_from_points, build_from_ratios
from rationals import side_ratios, tri


@pytest.fixture
def unit_square():
    return Quadrilateral.of(tri(0, 0), tri(1, 0), tri(1, 1), tri(0, 1))


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
    return build_from_points(unit_square, tri(Fraction(1, 3), 0), tri(1, Fraction(2, 7)),
                             tri(Fraction(2, 7), 1), tri(0, Fraction(1, 3)))


@pytest.fixture
def generic_gamma_two_config():
    quad = Quadrilateral.of(tri(0, 0), tri(4, 0), tri(5, 3), tri(1, 4))
    return build_from_ratios(quad, side_ratios(1, 2, 1, 1))


@pytest.fixture
def crossed_quad():
    return Quadrilateral.of(tri(0, 0), tri(1, 1), tri(1, 0), tri(0, 1))


@pytest.fixture
def concave_quad():
    return Quadrilateral.of(tri(0, 0), tri(4, 0), tri(1, 1), tri(0, 4))
