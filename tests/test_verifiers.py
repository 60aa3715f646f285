from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import pytest

from quadconc import (
    GenSpec,
    Point,
    Quadrilateral,
    SideRatios,
    build_from_points,
    build_from_ratios,
    gen_quadrilateral,
    gen_ratios,
    overall_status,
    verify_all,
)
from quadconc import verifiers
from quadconc.configuration import CONSTRUCTION, E_LINE_PAIRS
from quadconc.errors import InstanceFormatError
from quadconc.kernel import Line
from quadconc.verifiers import CLAIM_IDS, CLAIMS, DEGENERATE, FAIL, PASS, SKIPPED, Verdict

F = Fraction


def verdict(cfg, claim):
    """The one verdict ``verify_all`` gives ``claim`` on ``cfg``."""
    (v,) = verify_all(cfg, [claim])
    return v


class TestDiagonalCollinearity:
    def test_midpoints(self, midpoint_config):
        v = verdict(midpoint_config, "diagonal_collinearity")
        assert v.status == PASS
        assert midpoint_config.point("X") == Point(F(1, 2), F(1, 4))
        assert midpoint_config.point("Z") == Point(F(1, 2), F(3, 4))

    def test_gamma_one_asymmetric(self, gamma_one_config):
        assert verdict(gamma_one_config, "diagonal_collinearity").status == PASS

    def test_gamma_not_one_skipped(self, gamma_two_config):
        v = verdict(gamma_two_config, "diagonal_collinearity")
        assert (v.status, v.detail) == (SKIPPED, "requires side-ratio product 1, got 2")


class TestSevenLines:
    def test_midpoints_degenerate_f_equals_g(self, midpoint_config):
        # both diagonal division points land on the center, so the line
        # through them is undefined and only six lines are required
        v = verdict(midpoint_config, "seven_lines")
        assert v.status == DEGENERATE
        assert "F_EQ_G" in v.detail
        assert v.witness["E"] == Point(F(1, 2), F(1, 2))

    def test_gamma_one_asymmetric(self, gamma_one_config):
        v = verdict(gamma_one_config, "seven_lines")
        assert v.status == PASS
        assert v.witness["E"] == Point(F(2, 3), F(1, 2))
        assert v.exact_values["FE_over_EG"] == 1
        assert v.exact_values["FE_over_EG_formula"] == 1

    def test_two_point_completion_passes(self, two_point_config):
        assert verdict(two_point_config, "seven_lines").status == PASS

    def test_fe_over_eg_value(self, unit_square):
        # m=3, n=1/2, p=4, q=1/6 has product one; formula 3(1+2)/(1+3/2)
        cfg = build_from_ratios(unit_square, SideRatios.of(3, F(1, 2), 4, F(1, 6)))
        v = verdict(cfg, "seven_lines")
        assert v.status == PASS
        assert v.exact_values["FE_over_EG"] == F(18, 5)

    def test_gamma_not_one_skipped(self, gamma_two_config):
        v = verdict(gamma_two_config, "seven_lines")
        assert (v.status, v.detail) == (SKIPPED, "requires side-ratio product 1, got 2")


class TestCrossingRatios:
    def test_midpoints_bisect(self, midpoint_config):
        v = verdict(midpoint_config, "crossing_ratios")
        assert v.status == PASS
        assert v.exact_values["ME_over_EP"] == 1
        assert v.exact_values["NE_over_EQ"] == 1

    def test_gamma_one_asymmetric(self, gamma_one_config):
        v = verdict(gamma_one_config, "crossing_ratios")
        assert v.status == PASS
        assert v.exact_values["ME_over_EP"] == 1
        assert v.exact_values["NE_over_EQ"] == F(1, 2)

    def test_paired_ratios_give_constant(self, unit_square):
        # when the first and fourth ratios are reciprocal pairs of the
        # second and third, ME/EP equals the second ratio exactly
        for m, n in ((F(2), F(3)), (F(1, 5), F(7, 2))):
            cfg = build_from_ratios(unit_square, SideRatios.of(m, n, 1 / m, 1 / n))
            v = verdict(cfg, "crossing_ratios")
            assert v.status == PASS
            assert v.exact_values["ME_over_EP"] == n
            assert v.exact_values["NE_over_EQ"] == 1 / m


class TestDiagonalConcurrenceIff:
    def test_midpoints_both_true(self, midpoint_config):
        v = verdict(midpoint_config, "diagonal_concurrence_iff")
        assert v.status == PASS
        assert v.exact_values["MP_NQ_AC_concurrent"] == 1
        assert v.exact_values["DM_BQ_AC_concurrent"] == 1

    def test_asymmetric_both_false(self, gamma_one_config):
        v = verdict(gamma_one_config, "diagonal_concurrence_iff")
        assert v.status == PASS
        assert v.exact_values["MP_NQ_AC_concurrent"] == 0
        assert v.exact_values["DM_BQ_AC_concurrent"] == 0

    def test_two_point_completion_both_true(self, two_point_config):
        v = verdict(two_point_config, "diagonal_concurrence_iff")
        assert v.status == PASS
        assert v.exact_values["MP_NQ_AC_concurrent"] == 1
        assert v.exact_values["DM_BQ_AC_concurrent"] == 1


class TestGeneralConcurrences:
    def test_reference_gamma_two(self, gamma_two_config):
        v = verdict(gamma_two_config, "quadruple_concurrences")
        assert v.status == DEGENERATE
        assert "F1_EQ_G1" in v.detail
        assert v.witness["M1"] == Point(F(1, 2), F(1, 2))

    def test_generic_gamma_two(self, generic_gamma_two_config):
        v = verdict(generic_gamma_two_config, "quadruple_concurrences")
        assert v.status == PASS
        assert v.exact_values["F1M1_over_M1G1"] == v.exact_values["F1M1_over_M1G1_formula"]

    def test_gamma_one_collapse(self, gamma_one_config):
        v = verdict(gamma_one_config, "quadruple_concurrences")
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
        v = verdict(cfg, "quadruple_concurrences")
        assert v.status == DEGENERATE
        assert "F2G2_UNDEFINED" in v.detail.split("; ")

    def test_section_formula_undefined_when_mn_is_minus_one(self):
        quad = Quadrilateral.of(*self.CROSSED)
        cfg = build_from_points(quad, Point(0, F(1, 3)), Point(2, -1), Point(1, 1),
                                Point(F(1, 2), 1))
        assert cfg.ratios.m * cfg.ratios.n == -1
        v = verdict(cfg, "quadruple_concurrences")
        assert v.status == DEGENERATE
        assert "F1M1_over_M1G1_formula_UNDEFINED" in v.detail.split("; ")


class TestConcurrenceDetail:
    """``detail`` is report bytes: pin it on the rare concurrence branches."""

    def test_undefined_lines_and_targets(self, gamma_two_config):
        # C1 lands on C here, so line CC1 is undefined and so are the
        # points P1 and Q1 it cuts
        spec = GenSpec(seed=7, shape="concave", coordinate_bound=4, ratio_bound=2,
                       force_gamma_one=True)
        cfg = build_from_ratios(gen_quadrilateral(spec, 11), gen_ratios(spec, 11))
        by_claim = {v.claim_id: (v.status, v.detail) for v in verify_all(cfg)}
        assert by_claim["seven_lines"] == (DEGENERATE, "CC1_UNDEFINED")
        assert by_claim["quadruple_concurrences"] == (
            DEGENERATE, "P1_UNDEFINED; Q1_UNDEFINED")
        # an undefined diagonal division point leaves both its lines undefined
        v = verdict(self.moved(gamma_two_config, "F1", None), "quadruple_concurrences")
        assert (v.status, v.detail) == (DEGENERATE, "F1G1_UNDEFINED; G2F1_UNDEFINED")

    @staticmethod
    def moved(cfg, name, pt):
        """``cfg`` with the stored point ``name`` replaced by ``pt``."""
        return replace(cfg, _points=MappingProxyType({**cfg.named_points(), name: pt}))

    def test_misses_outrank_degenerate_reasons(self, midpoint_config, gamma_two_config):
        # both configurations also carry a degenerate reason (F = G and
        # F1 = G1), which a failure must override
        v = verdict(self.moved(midpoint_config, "E", Point(0, 0)), "seven_lines")
        assert (v.status, v.detail) == (FAIL, "BB1 misses E; MP misses E; NQ misses E")
        v = verdict(self.moved(gamma_two_config, "M1", Point(0, 0)), "quadruple_concurrences")
        assert (v.status, v.detail) == (FAIL, "DD1 misses M1; MP misses M1")

    def test_each_target_is_checked_on_both_its_defining_lines(self):
        # a defined target is the meet of two distinct lines; with both
        # among the lines its verifier checks, its concurrence check can
        # never be vacuous
        checked = {name: cevians for name, _, cevians in verifiers._QUADRUPLES}
        checked["E"] = E_LINE_PAIRS
        defining = {name: (uv, st) for name, uv, st in CONSTRUCTION}
        for name, pairs in checked.items():
            lines = {frozenset(pair) for pair in pairs}
            assert {frozenset(pair) for pair in defining[name]} <= lines, name


    def test_passing_checks_build_no_line(self, monkeypatch):
        # incidence is a determinant of stored point triples: building and
        # verifying a configuration on which every claim passes makes no Line
        def no_line(cls, triple):
            raise AssertionError("a Line was built")

        monkeypatch.setattr(Line, "_wrap", classmethod(no_line))
        for spec in (GenSpec(seed=42, force_gamma_one=True), GenSpec(seed=42)):
            for i in range(20):
                cfg = build_from_ratios(gen_quadrilateral(spec, i), gen_ratios(spec, i))
                assert {v.status for v in verify_all(cfg)} <= {PASS, SKIPPED}


class TestRatioProduct:
    def test_generic_gamma_two(self, generic_gamma_two_config):
        v = verdict(generic_gamma_two_config, "ratio_product")
        assert v.status == PASS
        assert v.exact_values["product"] == 2

    def test_gamma_one_with_distinct_pairs(self, unit_square):
        cfg = build_from_ratios(unit_square, SideRatios.of(3, F(1, 2), 4, F(1, 6)))
        v = verdict(cfg, "ratio_product")
        assert v.status == PASS
        assert v.exact_values["product"] == 1

    def test_coincident_pair_degenerate(self, gamma_two_config):
        v = verdict(gamma_two_config, "ratio_product")
        assert v.status == DEGENERATE
        assert "F1_EQ_G1" in v.detail


class TestSectionRatios:
    def test_reference_gamma_two(self, gamma_two_config):
        v = verdict(gamma_two_config, "section_ratios")
        assert v.status == PASS
        assert v.exact_values["MM1_over_M1P"] == 1
        assert v.exact_values["MM1_over_M1P_weighted"] == 1

    def test_midpoints(self, midpoint_config):
        v = verdict(midpoint_config, "section_ratios")
        assert v.status == PASS
        assert v.exact_values["MM1_over_M1P"] == 1

    def test_generic_gamma_two(self, generic_gamma_two_config):
        v = verdict(generic_gamma_two_config, "section_ratios")
        assert v.status == PASS
        for key in ("MM1_over_M1P", "NN1_over_N1Q", "PP1_over_P1M", "QQ1_over_Q1N"):
            assert v.exact_values[key] == v.exact_values[key + "_formula"]


class TestCrossingRatioFormula:
    def test_reference_values(self, gamma_two_config):
        v = verdict(gamma_two_config, "crossing_ratio_formula")
        assert v.status == PASS
        assert v.exact_values["r"] == F(2, 3)
        assert v.exact_values["ME_over_EP"] == F(5, 7)
        assert v.exact_values["ME_over_EP_formula"] == F(5, 7)

    def test_gamma_one_reduces_to_plain_form(self, gamma_one_config):
        v = verdict(gamma_one_config, "crossing_ratio_formula")
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
        v = verdict(cfg, "crossing_ratio_formula")
        assert v.status == PASS

    def test_nonconvex_skipped(self, crossed_quad):
        cfg = build_from_ratios(crossed_quad, SideRatios.of(F(1, 2), 2, 3, F(1, 3)))
        v = verdict(cfg, "crossing_ratio_formula")
        assert (v.status, v.detail) == (
            SKIPPED, "the trace-ratio form is stated for convex quadrilaterals")


class TestInnerQuadrilateral:
    def test_gamma_above_one_order(self, gamma_two_config):
        v = verdict(gamma_two_config, "inner_quadrilateral")
        assert v.status == PASS
        lam = v.exact_values
        assert lam["lambda_P1_on_MP"] < lam["lambda_E_on_MP"] < lam["lambda_M1_on_MP"]

    def test_gamma_below_one_order(self, unit_square):
        cfg = build_from_ratios(unit_square, SideRatios.of(1, 1, 1, F(1, 2)))
        v = verdict(cfg, "inner_quadrilateral")
        assert v.status == PASS
        lam = v.exact_values
        assert lam["lambda_M1_on_MP"] < lam["lambda_E_on_MP"] < lam["lambda_P1_on_MP"]

    def test_gamma_one_collapse(self, gamma_one_config):
        assert verdict(gamma_one_config, "inner_quadrilateral").status == PASS

    def test_nonconvex_skipped(self, concave_quad):
        cfg = build_from_ratios(concave_quad, SideRatios.of(1, 1, 1, 1))
        v = verdict(cfg, "inner_quadrilateral")
        assert (v.status, v.detail) == (
            SKIPPED, "segment ordering claims require a convex quadrilateral")


class TestInnerQuadConvexity:
    def test_convex_input_skipped(self, midpoint_config):
        v = verdict(midpoint_config, "inner_quadrilateral_convexity")
        assert (v.status, v.detail) == (
            SKIPPED, "the empirical convexity check targets nonconvex inputs")

    def test_crossed_failure_exists(self, crossed_quad):
        # a crossed quadrilateral with free ratios where the inner
        # quadrilateral is itself crossed
        cfg = build_from_ratios(crossed_quad, SideRatios.of(F(1, 2), F(1, 2), F(1, 2), F(1, 3)))
        v = verdict(cfg, "inner_quadrilateral_convexity")
        assert v.status == FAIL
        assert v.exact_values["inner_quad_convex"] == 0
        assert "crossed" in v.detail

    def test_gamma_one_collapse_is_degenerate(self, crossed_quad):
        cfg = build_from_ratios(crossed_quad, SideRatios.of(2, 1, F(1, 2), 1))
        v = verdict(cfg, "inner_quadrilateral_convexity")
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
        with pytest.raises(ValueError) as err:
            verify_all(gamma_two_config, checks=["no_such_claim"])
        assert isinstance(err.value, InstanceFormatError)
        assert str(err.value) == "unknown claim ids: no_such_claim"

    def test_overall_status(self, generic_gamma_two_config):
        verdicts = verify_all(generic_gamma_two_config)
        assert overall_status(verdicts) == PASS

    @pytest.mark.parametrize("field", ["witness", "exact_values"])
    def test_default_mappings_are_read_only(self, field):
        # every default verdict shares one empty mapping: writing into it
        # would leak into all the others, so it refuses
        with pytest.raises(TypeError):
            getattr(Verdict("seven_lines", PASS), field)["E"] = F(1)
        assert getattr(Verdict("seven_lines", SKIPPED), field) == {}


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


def test_readme_claims_table_matches_claims():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Claims\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    assert [tuple(cell.strip().strip("`") for cell in row) for row in rows] == [
        (claim, regime) for claim, regime, *_ in CLAIMS]
