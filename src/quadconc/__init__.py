"""Exact rational-arithmetic verification of cevian concurrences in quadrilaterals.

Construct the full named-point configuration of a quadrilateral with one
point on each side, then check every concurrence, collinearity and
division-ratio identity it satisfies, exactly over the rationals.
"""

from .configuration import (  # noqa: F401
    Configuration,
    Quadrilateral,
    SideRatios,
    build_from_points,
    build_from_ratios,
)
from .generators import GenSpec, gen_quadrilateral, gen_ratios  # noqa: F401
from .kernel import (  # noqa: F401
    Line,
    Point,
    affine_parameter,
    collinear,
    directed_ratio,
    line_through,
    meet,
    point_dividing,
)
from .verifiers import (  # noqa: F401
    CLAIM_IDS,
    Verdict,
    overall_status,
    verify_all,
)
