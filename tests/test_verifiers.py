from dataclasses import replace
from fractions import Fraction
from types import MappingProxyType

import pytest

from quadconc import (
    GenSpec,
    Point,
    Quadrilateral,
    SideRatios,
    build_from_points,
    build_from_ratios,
    build_from_two_points,
    gen_quadrilateral,
    gen_ratios,
    overall_status,
    verify_all,
    verify_crossing_ratio_formula,
    verify_crossing_ratios,
    verify_diagonal_collinearity,
    verify_diagonal_concurrence_iff,
    verify_general_concurrences,
    verify_inner_quad_convexity,
    verify_inner_quadrilateral,
    verify_ratio_product,
    verify_section_ratios,
    verify_seven_lines,
)
from quadconc.errors import GammaNotOne, NonconvexRequired, ShapeNotConvex
from quadconc.verifiers import CLAIM_IDS, DEGENERATE, FAIL, PASS, SKIPPED

F = Fraction


class TestDiagonalCollinearity:
    def test_midpoints(self, midpoint_config):
        v = verify_diagonal_collinearity(midpoint_config)
        assert v.status == PASS
        assert midpoint_config.point("X") == Point(F(1, 2), F(1, 4))
        assert midpoint_config.point("Z") == Point(F(1, 2), F(3, 4))

    def test_gamma_one_asymmetric(self, gamma_one_config):
        assert verify_diagonal_collinearity(gamma_one_config).status == PASS

    def test_gamma_not_one_raises(self, gamma_two_config):
        with pytest.raises(GammaNotOne):
            verify_diagonal_collinearity(gamma_two_config)


class TestSevenLines:
    def test_midpoints_degenerate_f_equals_g(self, midpoint_config):
        # both diagonal division points land on the center, so the line
        # through them is undefined and only six lines are required
        v = verify_seven_lines(midpoint_config)
        assert v.status == DEGENERATE
        assert "F_EQ_G" in v.detail
        assert v.witness["E"] == Point(F(1, 2), F(1, 2))

    def test_gamma_one_asymmetric(self, gamma_one_config):
        v = verify_seven_lines(gamma_one_config)
        assert v.status == PASS
        assert v.witness["E"] == Point(F(2, 3), F(1, 2))
        assert v.exact_values["FE_over_EG"] == 1
        assert v.exact_values["FE_over_EG_formula"] == 1

    def test_two_point_completion_passes(self, unit_square):
        cfg = build_from_two_points(unit_square, Point(F(1, 3), 0), Point(1, F(2, 7)))
        assert verify_seven_lines(cfg).status == PASS

    def test_fe_over_eg_value(self, unit_square):
        # m=3, n=1/2, p=4, q=1/6 has product one; formula 3(1+2)/(1+3/2)
        cfg = build_from_ratios(unit_square, SideRatios.of(3, F(1, 2), 4, F(1, 6)))
        v = verify_seven_lines(cfg)
        assert v.status == PASS
        assert v.exact_values["FE_over_EG"] == F(18, 5)

    def test_gamma_not_one_raises(self, gamma_two_config):
        with pytest.raises(GammaNotOne):
            verify_seven_lines(gamma_two_config)


class TestCrossingRatios:
    def test_midpoints_bisect(self, midpoint_config):
        v = verify_crossing_ratios(midpoint_config)
        assert v.status == PASS
        assert v.exact_values["ME_over_EP"] == 1
        assert v.exact_values["NE_over_EQ"] == 1

    def test_gamma_one_asymmetric(self, gamma_one_config):
        v = verify_crossing_ratios(gamma_one_config)
        assert v.status == PASS
        assert v.exact_values["ME_over_EP"] == 1
        assert v.exact_values["NE_over_EQ"] == F(1, 2)

    def test_paired_ratios_give_constant(self, unit_square):
        # when the first and fourth ratios are reciprocal pairs of the
        # second and third, ME/EP equals the second ratio exactly
        for m, n in ((F(2), F(3)), (F(1, 5), F(7, 2))):
            cfg = build_from_ratios(unit_square, SideRatios.of(m, n, 1 / m, 1 / n))
            v = verify_crossing_ratios(cfg)
            assert v.status == PASS
            assert v.exact_values["ME_over_EP"] == n
            assert v.exact_values["NE_over_EQ"] == 1 / m


class TestDiagonalConcurrenceIff:
    def test_midpoints_both_true(self, midpoint_config):
        v = verify_diagonal_concurrence_iff(midpoint_config)
        assert v.status == PASS
        assert v.exact_values["MP_NQ_AC_concurrent"] == 1
        assert v.exact_values["DM_BQ_AC_concurrent"] == 1

    def test_asymmetric_both_false(self, gamma_one_config):
        v = verify_diagonal_concurrence_iff(gamma_one_config)
        assert v.status == PASS
        assert v.exact_values["MP_NQ_AC_concurrent"] == 0
        assert v.exact_values["DM_BQ_AC_concurrent"] == 0

    def test_two_point_completion_both_true(self, unit_square):
        cfg = build_from_two_points(unit_square, Point(F(1, 3), 0), Point(1, F(2, 7)))
        v = verify_diagonal_concurrence_iff(cfg)
        assert v.status == PASS
        assert v.exact_values["MP_NQ_AC_concurrent"] == 1
        assert v.exact_values["DM_BQ_AC_concurrent"] == 1


class TestGeneralConcurrences:
    def test_reference_gamma_two(self, gamma_two_config):
        v = verify_general_concurrences(gamma_two_config)
        assert v.status == DEGENERATE
        assert "F1_EQ_G1" in v.detail
        assert v.witness["M1"] == Point(F(1, 2), F(1, 2))

    def test_generic_gamma_two(self, generic_gamma_two_config):
        v = verify_general_concurrences(generic_gamma_two_config)
        assert v.status == PASS
        assert v.exact_values["F1M1_over_M1G1"] == v.exact_values["F1M1_over_M1G1_formula"]

    def test_gamma_one_collapse(self, gamma_one_config):
        v = verify_general_concurrences(gamma_one_config)
        assert v.status == PASS
        cfg = gamma_one_config
        assert len({cfg.point(n) for n in ("M1", "N1", "P1", "Q1", "E")}) == 1

    # a crossed quadrilateral whose explicit side points may lie outside
    # their sides, which makes their ratios negative
    CROSSED = (Point(0, 0), Point(0, 1), Point(1, 0), Point(1, 2))

    def test_line_through_two_ideal_points_is_undefined(self):
        quad = Quadrilateral.of(*self.CROSSED)
        cfg = build_from_points(quad, Point(0, F(1, 3)), Point(F(1, 2), F(1, 2)),
                                Point(1, F(2, 3)), Point(-1, -2))
        assert cfg.point("F2").is_ideal and cfg.point("G2").is_ideal
        v = verify_general_concurrences(cfg)
        assert v.status == DEGENERATE
        assert "F2G2_UNDEFINED" in v.detail.split("; ")

    def test_section_formula_undefined_when_mn_is_minus_one(self):
        quad = Quadrilateral.of(*self.CROSSED)
        cfg = build_from_points(quad, Point(0, F(1, 3)), Point(2, -1), Point(1, 1),
                                Point(F(1, 2), 1))
        assert cfg.ratios.m * cfg.ratios.n == -1
        v = verify_general_concurrences(cfg)
        assert v.status == DEGENERATE
        assert "F1M1_over_M1G1_formula_UNDEFINED" in v.detail.split("; ")


class TestConcurrenceDetail:
    """``detail`` is report bytes: pin it on the rare concurrence branches."""

    def test_undefined_lines_and_targets(self):
        # C1 lands on C here, so line CC1 is undefined and so are the
        # points P1 and Q1 it cuts
        spec = GenSpec(seed=7, shape="concave", coordinate_bound=4, ratio_bound=2,
                       force_gamma_one=True)
        cfg = build_from_ratios(gen_quadrilateral(spec, 11), gen_ratios(spec, 11))
        by_claim = {v.claim_id: (v.status, v.detail) for v in verify_all(cfg)}
        assert by_claim["seven_lines"] == (DEGENERATE, "CC1_UNDEFINED")
        assert by_claim["quadruple_concurrences"] == (
            DEGENERATE, "P1_UNDEFINED; Q1_UNDEFINED")

    @staticmethod
    def moved(cfg, name, pt):
        """``cfg`` with the stored point ``name`` replaced by ``pt``."""
        return replace(cfg, _points=MappingProxyType({**cfg.named_points(), name: pt}))

    def test_misses_outrank_degenerate_reasons(self, midpoint_config, gamma_two_config):
        # both configurations also carry a degenerate reason (F = G and
        # F1 = G1), which a failure must override
        v = verify_seven_lines(self.moved(midpoint_config, "E", Point(0, 0)))
        assert (v.status, v.detail) == (FAIL, "BB1 misses E; MP misses E; NQ misses E")
        v = verify_general_concurrences(self.moved(gamma_two_config, "M1", Point(0, 0)))
        assert (v.status, v.detail) == (FAIL, "DD1 misses M1; MP misses M1")


class TestRatioProduct:
    def test_generic_gamma_two(self, generic_gamma_two_config):
        v = verify_ratio_product(generic_gamma_two_config)
        assert v.status == PASS
        assert v.exact_values["product"] == 2

    def test_gamma_one_with_distinct_pairs(self, unit_square):
        cfg = build_from_ratios(unit_square, SideRatios.of(3, F(1, 2), 4, F(1, 6)))
        v = verify_ratio_product(cfg)
        assert v.status == PASS
        assert v.exact_values["product"] == 1

    def test_coincident_pair_degenerate(self, gamma_two_config):
        v = verify_ratio_product(gamma_two_config)
        assert v.status == DEGENERATE
        assert "F1_EQ_G1" in v.detail


class TestSectionRatios:
    def test_reference_gamma_two(self, gamma_two_config):
        v = verify_section_ratios(gamma_two_config)
        assert v.status == PASS
        assert v.exact_values["MM1_over_M1P"] == 1
        assert v.exact_values["MM1_over_M1P_weighted"] == 1

    def test_midpoints(self, midpoint_config):
        v = verify_section_ratios(midpoint_config)
        assert v.status == PASS
        assert v.exact_values["MM1_over_M1P"] == 1

    def test_generic_gamma_two(self, generic_gamma_two_config):
        v = verify_section_ratios(generic_gamma_two_config)
        assert v.status == PASS
        for key in ("MM1_over_M1P", "NN1_over_N1Q", "PP1_over_P1M", "QQ1_over_Q1N"):
            assert v.exact_values[key] == v.exact_values[key + "_formula"]


class TestCrossingRatioFormula:
    def test_reference_values(self, gamma_two_config):
        v = verify_crossing_ratio_formula(gamma_two_config)
        assert v.status == PASS
        assert v.exact_values["r"] == F(2, 3)
        assert v.exact_values["ME_over_EP"] == F(5, 7)
        assert v.exact_values["ME_over_EP_formula"] == F(5, 7)

    def test_gamma_one_reduces_to_plain_form(self, gamma_one_config):
        v = verify_crossing_ratio_formula(gamma_one_config)
        assert v.status == PASS
        m, n, p, _ = gamma_one_config.ratios.as_tuple
        assert v.exact_values["ME_over_EP"] == m * n * (p + 1) / (m + 1)

    def test_parallel_traces_use_r_equal_one(self, unit_square):
        # N = (1, t) and Q = (0, t) make NQ parallel to AB
        t = F(1, 3)
        ratios = SideRatios.of(2, t / (1 - t), 3, (1 - t) / t)
        cfg = build_from_ratios(unit_square, ratios)
        R = cfg.point("R")
        assert R is not None and R.is_ideal
        assert cfg.r_ratio == 1
        v = verify_crossing_ratio_formula(cfg)
        assert v.status == PASS

    def test_nonconvex_raises(self, crossed_quad):
        cfg = build_from_ratios(crossed_quad, SideRatios.of(F(1, 2), 2, 3, F(1, 3)))
        with pytest.raises(ShapeNotConvex):
            verify_crossing_ratio_formula(cfg)


class TestInnerQuadrilateral:
    def test_gamma_above_one_order(self, gamma_two_config):
        v = verify_inner_quadrilateral(gamma_two_config)
        assert v.status == PASS
        lam = v.exact_values
        assert lam["lambda_P1_on_MP"] < lam["lambda_E_on_MP"] < lam["lambda_M1_on_MP"]

    def test_gamma_below_one_order(self, unit_square):
        cfg = build_from_ratios(unit_square, SideRatios.of(1, 1, 1, F(1, 2)))
        v = verify_inner_quadrilateral(cfg)
        assert v.status == PASS
        lam = v.exact_values
        assert lam["lambda_M1_on_MP"] < lam["lambda_E_on_MP"] < lam["lambda_P1_on_MP"]

    def test_gamma_one_collapse(self, gamma_one_config):
        assert verify_inner_quadrilateral(gamma_one_config).status == PASS

    def test_nonconvex_raises(self, concave_quad):
        cfg = build_from_ratios(concave_quad, SideRatios.of(1, 1, 1, 1))
        with pytest.raises(ShapeNotConvex):
            verify_inner_quadrilateral(cfg)


class TestInnerQuadConvexity:
    def test_convex_input_raises(self, midpoint_config):
        with pytest.raises(NonconvexRequired):
            verify_inner_quad_convexity(midpoint_config)

    def test_crossed_failure_exists(self, crossed_quad):
        # a crossed quadrilateral with free ratios where the inner
        # quadrilateral is itself crossed
        cfg = build_from_ratios(crossed_quad, SideRatios.of(F(1, 2), F(1, 2), F(1, 2), F(1, 3)))
        v = verify_inner_quad_convexity(cfg)
        assert v.status == FAIL
        assert v.exact_values["inner_quad_convex"] == 0
        assert "crossed" in v.detail

    def test_gamma_one_collapse_is_degenerate(self, crossed_quad):
        cfg = build_from_ratios(crossed_quad, SideRatios.of(2, 1, F(1, 2), 1))
        v = verify_inner_quad_convexity(cfg)
        assert v.status == DEGENERATE


class TestRemarks:
    """The claims expected to survive on nonconvex inputs."""

    def test_crossed_gamma_one(self, crossed_quad):
        cfg = build_from_ratios(crossed_quad, SideRatios.of(2, 1, F(1, 2), 1))
        by_claim = {v.claim_id: v.status for v in verify_all(cfg)}
        assert by_claim["crossing_ratios"] == PASS
        assert by_claim["quadruple_concurrences"] == PASS

    def test_concave_midpoints(self, concave_quad):
        cfg = build_from_ratios(concave_quad, SideRatios.of(1, 1, 1, 1))
        by_claim = {v.claim_id: v.status for v in verify_all(cfg)}
        assert by_claim["crossing_ratios"] == PASS


class TestVerifyAll:
    def test_midpoints_no_failures(self, midpoint_config):
        verdicts = verify_all(midpoint_config)
        assert [v.claim_id for v in verdicts] == list(CLAIM_IDS)
        assert all(v.status != FAIL for v in verdicts)

    def test_gamma_two_skips_product_one_claims(self, gamma_two_config):
        verdicts = verify_all(gamma_two_config)
        by_claim = {v.claim_id: v for v in verdicts}
        for claim in ("diagonal_collinearity", "seven_lines",
                      "crossing_ratios", "diagonal_concurrence_iff"):
            assert by_claim[claim].status == SKIPPED

    def test_subset_selection(self, gamma_two_config):
        verdicts = verify_all(gamma_two_config, checks=["seven_lines"])
        assert len(verdicts) == 1
        assert verdicts[0].status == SKIPPED

    def test_unknown_claim_rejected(self, gamma_two_config):
        with pytest.raises(ValueError):
            verify_all(gamma_two_config, checks=["no_such_claim"])

    def test_overall_status(self, generic_gamma_two_config):
        verdicts = verify_all(generic_gamma_two_config)
        assert overall_status(verdicts) == PASS


class TestAffineInvariance:
    def test_verdicts_survive_an_affine_map(self, generic_gamma_two_config):
        cfg = generic_gamma_two_config
        base = verify_all(cfg)

        def apply(pt):
            x, y = pt.affine()
            return Point(F(2, 3) * x - 5 * y + 7, F(1, 4) * x + 2 * y - 3)

        quad = Quadrilateral.of(*(apply(v) for v in cfg.quad.vertices))
        mapped = build_from_ratios(quad, cfg.ratios)
        other = verify_all(mapped)
        for v1, v2 in zip(base, other):
            assert v1.claim_id == v2.claim_id
            assert v1.status == v2.status
            assert v1.exact_values == v2.exact_values
            assert v1.detail == v2.detail
