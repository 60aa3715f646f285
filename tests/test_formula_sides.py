"""The verifiers' formula sides and the printed coordinates, against the
paper's forms evaluated as chains of ``Fraction`` operations.

The verifiers evaluate each closed form as one integer expression in the
numerators and denominators of ``m n p q gamma r``.  The references below
keep the paper's form.  Ratios are signed and nonzero, since ``points``
input on a nonconvex quadrilateral gives negative ratios, and the
strategy reaches the vanishing denominators ``1 + mn = 0`` and
``gamma*r + m = 0``.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from quadconc import Quadrilateral, build_from_ratios
from quadconc.instancefile import InstanceFile, instance_document, instance_from_parts
from quadconc.kernel import point_text, rational_text, triple_text
from quadconc.report import report_document
from quadconc.verifiers import CLAIMS, FAIL, PASS, Verdict, verify_all
from rationals import frac, pt, side_ratios, tri, verdict_json

CHECKS = {claim: check for claim, *_, check in CLAIMS}

# the formula sides read only the ratios and r; the points are those of
# a built configuration, so every geometry side is defined
BASE = build_from_ratios(Quadrilateral.of(tri(0, 0), tri(4, 0), tri(5, 3), tri(1, 4)),
                         side_ratios(1, 2, 1, 1))

# a ratio no side point has is -1 (the point at infinity); 0 puts the
# point on a vertex
signed_ratios = st.fractions(min_value=-10**6, max_value=10**6,
                             max_denominator=10**4).filter(lambda f: f not in (0, -1))


def _or_none(form):
    try:
        return form()
    except ZeroDivisionError:
        return None


def reference_forms(m, n, p, q, gamma, r):
    """Each formula side's exact value by claim and key; ``None`` where the
    form divides by zero."""
    section = _or_none(lambda: m * (1 + n * p) / (1 + m * n))
    return {
        "section_ratios": {
            "MM1_over_M1P_formula": m * n * (p + 1) / (m + 1),
            "NN1_over_N1Q_formula": n * p * (q + 1) / (n + 1),
            "PP1_over_P1M_formula": p * q * (m + 1) / (p + 1),
            "QQ1_over_Q1N_formula": q * m * (n + 1) / (q + 1),
            "MM1_over_M1P_weighted": gamma * (1 / q) * (1 / (m + 1)) + n * (m / (m + 1)),
        },
        "quadruple_concurrences": {"F1M1_over_M1G1_formula": section},
        "seven_lines": {"FE_over_EG_formula": section},
        "crossing_ratios": {
            "ME_over_EP_formula": (1 / q) * (1 / (m + 1)) + n * (m / (m + 1)),
            "NE_over_EQ_formula": (1 / m) * (1 / (n + 1)) + p * (n / (n + 1)),
        },
        "crossing_ratio_formula": {
            "ME_over_EP_formula": _or_none(
                lambda: m * n * (p + 1) / (m + 1) * (r + m) / (gamma * r + m)),
        },
    }


@st.composite
def formula_inputs(draw):
    m, n, p, q, r = (draw(signed_ratios) for _ in range(5))
    if draw(st.booleans()):
        n = -1 / m  # 1 + mn = 0
    if draw(st.booleans()):
        r = -m / (m * n * p * q)  # gamma*r + m = 0
    assume(n != -1)
    return m, n, p, q, r


@given(formula_inputs())
@example((Fraction(2), Fraction(-1, 2), Fraction(3), Fraction(-5, 7), Fraction(1)))
@example((Fraction(-3, 2), Fraction(4), Fraction(1, 3), Fraction(2), Fraction(1, 4)))
def test_formula_sides_equal_the_papers_forms(inputs):
    m, n, p, q, r = inputs
    ratios = side_ratios(m, n, p, q)
    gamma = frac(ratios.gamma)
    assert gamma == m * n * p * q
    cfg = BASE._replace(ratios=ratios, r_ratio=r.as_integer_ratio())
    for claim, forms in reference_forms(m, n, p, q, gamma, r).items():
        verdict = CHECKS[claim](claim, cfg)
        written = verdict_json(verdict)["exact_values"]
        for key, expected in forms.items():
            if expected is None:
                assert key not in written
            else:
                assert written[key] == str(expected), (claim, key)
    if m * n == -1:
        assert "F1M1_over_M1G1_formula_UNDEFINED" in \
            CHECKS["quadruple_concurrences"]("quadruple_concurrences", cfg).detail
    if gamma * r + m == 0:
        assert CHECKS["crossing_ratio_formula"]("crossing_ratio_formula", cfg).detail \
            == "ME_over_EP_formula_UNDEFINED"


def test_formula_sides_read_gamma(generic_gamma_two_config):
    """A corrupted ``gamma`` must show: the weighted form, the product of
    the division ratios and the trace-ratio form all read it."""
    cfg = generic_gamma_two_config
    claims = ["ratio_product", "section_ratios", "crossing_ratio_formula"]
    assert [v.status for v in verify_all(cfg, claims)] == [PASS] * 3
    # _replace copies gamma as given instead of deriving it
    G, H = cfg.ratios.gamma
    cfg = cfg._replace(ratios=cfg.ratios._replace(gamma=(G + H, H)))
    product, section, crossing = verify_all(cfg, claims)
    assert section.status == FAIL and section.detail == "MM1_over_M1P_weighted mismatch"
    assert product.status == FAIL
    assert crossing.status == FAIL


@given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30), st.integers(1, 10**30))
@example(6, 3, 4)  # gcd(c, w) > 1 for the x component
@example(-9, 4, 6)  # negative c
@example(-7, 2, 1)  # w = 1
@example(0, -5, 3)
def test_point_text_equals_fraction_text(x, y, w):
    point = pt(x, y, w)
    t = c0, c1, cw = point.triple()
    expected = [str(Fraction(c0, cw)), str(Fraction(c1, cw))]
    assert triple_text(t) == expected
    assert repr(point) == point_text(t) == f"Point({expected[0]}, {expected[1]})"
    inst = InstanceFile(vertices=(t,) * 4, sides=(t,) * 4, checks=())
    doc = instance_document(inst)
    assert doc["vertices"]["A"] == expected and doc["points"]["Q"] == expected


@given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30).filter(bool))
@example(0, -5)
@example(12, 4)  # an integer after reduction
@example(6, -4)  # a negative denominator moves its sign to the numerator
@example(-6, -4)
@example(-7, 1)
def test_rational_text_equals_fraction_text(num, den):
    assert rational_text(num, den) == str(Fraction(num, den))


nonzero = st.integers(-10**30, 10**30).filter(bool)


@given(st.integers(-10**30, 10**30), nonzero, nonzero, nonzero)
@example(3, 4, -2, 5)  # denominators of both signs
def test_equal_pairs_have_one_text(num, den, k1, k2):
    # a geometric pair and its equal formula pair have one text; any two
    # equal pairs are multiples of one pair
    a, b, c, d = k1 * num, k1 * den, k2 * num, k2 * den
    assert a * d == c * b
    assert rational_text(a, b) == rational_text(c, d)


@pytest.mark.parametrize("num", [0, 1, -3, 10**30])
def test_rational_text_refuses_a_zero_denominator(num):
    with pytest.raises(ZeroDivisionError):
        rational_text(num, 0)


def test_ideal_point_text_is_its_triple():
    for point in (pt(-6, 4, 0), pt(Fraction(1, 2), Fraction(-1, 3), 0)):
        assert point.triple() == (-3, 2, 0)
        assert triple_text(point.triple()) == ["-3", "2", "0"]
        assert repr(point) == point_text(point.triple()) == "Point(-3, 2, 0)"
        verdict = Verdict("seven_lines", PASS, witness={"E": point.triple()})
        doc = report_document({}, [verdict], None, instance_from_parts(BASE.quad, BASE.ratios))
        assert doc["verdicts"][0]["witness"] == {"E": ["-3", "2", "0"]}
