from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path

import pytest

from quadconc import (
    GenSpec,
    Quadrilateral,
    build_from_points,
    build_from_ratios,
    gen_quadrilateral,
    gen_ratios,
    overall_status,
    verify_all,
)
from quadconc import verifiers
from quadconc._purekernel import reduce3
from quadconc.configuration import CONSTRUCTION, E_LINE_PAIRS, SLOT
from quadconc.errors import InstanceFormatError, UndefinedPoint
from quadconc.instancefile import instance_from_parts
from quadconc.kernel import Line, dividing_terms
from quadconc.report import report_document
from quadconc.verifiers import CLAIM_IDS, CLAIMS, DEGENERATE, FAIL, PASS, SKIPPED, Verdict
from rationals import affine, frac, param, points, side_ratios, tri, verdict_json

F = Fraction


def verdict(cfg, claim):
    """The one verdict ``verify_all`` gives ``claim`` on ``cfg``."""
    (v,) = verify_all(cfg, [claim])
    return v


def texts(v, *keys):
    """The exact values of ``keys`` as text, in the oracle's ``str(Fraction)``."""
    values = verdict_json(v)["exact_values"]
    return [values[key] for key in keys]


class TestDiagonalCollinearity:
    def test_midpoints(self, midpoint_config):
        pts = points(midpoint_config)
        v = verdict(midpoint_config, "diagonal_collinearity")
        assert v.status == PASS
        assert pts["X"] == tri(F(1, 2), F(1, 4))
        assert pts["Z"] == tri(F(1, 2), F(3, 4))

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
        assert "FG_UNDEFINED" in v.detail
        assert v.witness["E"] == tri(F(1, 2), F(1, 2))

    def test_gamma_one_asymmetric(self, gamma_one_config):
        v = verdict(gamma_one_config, "seven_lines")
        assert v.status == PASS
        assert v.witness["E"] == tri(F(2, 3), F(1, 2))
        assert texts(v, "FE_over_EG", "FE_over_EG_formula") == ["1", "1"]

    def test_two_point_completion_passes(self, two_point_config):
        assert verdict(two_point_config, "seven_lines").status == PASS

    def test_fe_over_eg_value(self, unit_square):
        # m=3, n=1/2, p=4, q=1/6 has product one; formula 3(1+2)/(1+3/2)
        cfg = build_from_ratios(unit_square, side_ratios(3, F(1, 2), 4, F(1, 6)))
        v = verdict(cfg, "seven_lines")
        assert v.status == PASS
        assert texts(v, "FE_over_EG") == ["18/5"]

    def test_gamma_not_one_skipped(self, gamma_two_config):
        v = verdict(gamma_two_config, "seven_lines")
        assert (v.status, v.detail) == (SKIPPED, "requires side-ratio product 1, got 2")


class TestCrossingRatios:
    def test_midpoints_bisect(self, midpoint_config):
        v = verdict(midpoint_config, "crossing_ratios")
        assert v.status == PASS
        assert texts(v, "ME_over_EP", "NE_over_EQ") == ["1", "1"]

    def test_gamma_one_asymmetric(self, gamma_one_config):
        v = verdict(gamma_one_config, "crossing_ratios")
        assert v.status == PASS
        assert texts(v, "ME_over_EP", "NE_over_EQ") == ["1", "1/2"]

    def test_paired_ratios_give_constant(self, unit_square):
        # when the first and fourth ratios are reciprocal pairs of the
        # second and third, ME/EP equals the second ratio exactly
        for m, n in ((F(2), F(3)), (F(1, 5), F(7, 2))):
            cfg = build_from_ratios(unit_square, side_ratios(m, n, 1 / m, 1 / n))
            v = verdict(cfg, "crossing_ratios")
            assert v.status == PASS
            assert texts(v, "ME_over_EP", "NE_over_EQ") == [str(n), str(1 / m)]


class TestDiagonalConcurrenceIff:
    def test_midpoints_both_true(self, midpoint_config):
        v = verdict(midpoint_config, "diagonal_concurrence_iff")
        assert v.status == PASS
        assert texts(v, "MP_NQ_AC_concurrent", "DM_BQ_AC_concurrent") == ["1", "1"]

    def test_asymmetric_both_false(self, gamma_one_config):
        v = verdict(gamma_one_config, "diagonal_concurrence_iff")
        assert v.status == PASS
        assert texts(v, "MP_NQ_AC_concurrent", "DM_BQ_AC_concurrent") == ["0", "0"]

    def test_two_point_completion_both_true(self, two_point_config):
        v = verdict(two_point_config, "diagonal_concurrence_iff")
        assert v.status == PASS
        assert texts(v, "MP_NQ_AC_concurrent", "DM_BQ_AC_concurrent") == ["1", "1"]

    def test_reads_the_stored_vertices(self):
        # A and C come from the stored triples, as every check's points do,
        # not from the quadrilateral: with A replaced by B the line is BC,
        # which neither E nor C1 is on
        spec = GenSpec(seed=42, shape="concave", force_gamma_one=True)
        cfg = build_from_ratios(gen_quadrilateral(spec, 2), gen_ratios(spec, 2))
        assert verdict(cfg, "diagonal_concurrence_iff").exact_values == {
            "MP_NQ_AC_concurrent": (1, 1), "DM_BQ_AC_concurrent": (1, 1)}
        v = verdict(with_points(cfg, A=cfg.triples[SLOT["B"]]), "diagonal_concurrence_iff")
        assert v.status == PASS
        assert v.exact_values == {"MP_NQ_AC_concurrent": (0, 1), "DM_BQ_AC_concurrent": (0, 1)}


class TestGeneralConcurrences:
    def test_reference_gamma_two(self, gamma_two_config):
        v = verdict(gamma_two_config, "quadruple_concurrences")
        assert v.status == DEGENERATE
        assert "F1G1_UNDEFINED" in v.detail
        assert v.witness["M1"] == tri(F(1, 2), F(1, 2))

    def test_generic_gamma_two(self, generic_gamma_two_config):
        v = verdict(generic_gamma_two_config, "quadruple_concurrences")
        assert v.status == PASS
        assert v.exact_values["F1M1_over_M1G1"] == v.exact_values["F1M1_over_M1G1_formula"]

    def test_gamma_one_collapse(self, gamma_one_config):
        v = verdict(gamma_one_config, "quadruple_concurrences")
        assert v.status == PASS
        cfg = gamma_one_config
        assert len({points(cfg)[n] for n in ("M1", "N1", "P1", "Q1", "E")}) == 1

    # a crossed quadrilateral whose explicit side points may lie outside
    # their sides, which makes their ratios negative
    CROSSED = (tri(0, 0), tri(0, 1), tri(1, 0), tri(1, 2))

    def test_line_through_two_ideal_points_is_undefined(self):
        quad = Quadrilateral.of(*self.CROSSED)
        cfg = build_from_points(quad, tri(0, F(1, 3)), tri(F(1, 2), F(1, 2)),
                                tri(1, F(2, 3)), tri(-1, -2))
        pts = points(cfg)
        assert pts["F2"][2] == 0 and pts["G2"][2] == 0
        v = verdict(cfg, "quadruple_concurrences")
        assert v.status == DEGENERATE
        assert "F2G2_UNDEFINED" in v.detail.split("; ")

    def test_section_formula_undefined_when_mn_is_minus_one(self):
        quad = Quadrilateral.of(*self.CROSSED)
        cfg = build_from_points(quad, tri(0, F(1, 3)), tri(2, -1), tri(1, 1),
                                tri(F(1, 2), 1))
        assert frac(cfg.ratios.m) * frac(cfg.ratios.n) == -1
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
        assert (v.status, v.detail) == (
            DEGENERATE, "F1G1_UNDEFINED; G2F1_UNDEFINED; F1M1_over_M1G1_UNDEFINED")

    @staticmethod
    def moved(cfg, name, t):
        """``cfg`` with the stored point ``name`` replaced by the triple ``t``."""
        triples = list(cfg.triples)
        triples[SLOT[name]] = t
        return cfg._replace(triples=tuple(triples))

    def test_a_shared_undefined_line_is_named_under_each_point(self, generic_gamma_two_config):
        # AA1 is a line of both M1 and N1; with A1 on A it is undefined for both
        cfg = generic_gamma_two_config
        v = verdict(self.moved(cfg, "A1", points(cfg)["A"]), "quadruple_concurrences")
        assert (v.status, v.detail) == (DEGENERATE, "AA1_UNDEFINED; AA1_UNDEFINED")

    def test_misses_outrank_degenerate_reasons(self, midpoint_config, gamma_two_config):
        # both configurations also carry a degenerate reason (F = G and
        # F1 = G1), which a failure must override
        v = verdict(self.moved(midpoint_config, "E", tri(0, 0)), "seven_lines")
        assert (v.status, v.detail) == (FAIL, "BB1 misses E; MP misses E; NQ misses E")
        v = verdict(self.moved(gamma_two_config, "M1", tri(0, 0)), "quadruple_concurrences")
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
        assert texts(v, "product") == ["2"]

    def test_gamma_one_with_distinct_pairs(self, unit_square):
        cfg = build_from_ratios(unit_square, side_ratios(3, F(1, 2), 4, F(1, 6)))
        v = verdict(cfg, "ratio_product")
        assert v.status == PASS
        assert texts(v, "product") == ["1"]

    def test_coincident_pair_degenerate(self, gamma_two_config):
        v = verdict(gamma_two_config, "ratio_product")
        assert v.status == DEGENERATE
        assert "F1M1_over_M1G1_UNDEFINED" in v.detail


class TestSectionRatios:
    def test_reference_gamma_two(self, gamma_two_config):
        v = verdict(gamma_two_config, "section_ratios")
        assert v.status == PASS
        assert texts(v, "MM1_over_M1P", "MM1_over_M1P_weighted") == ["1", "1"]

    def test_midpoints(self, midpoint_config):
        v = verdict(midpoint_config, "section_ratios")
        assert v.status == PASS
        assert texts(v, "MM1_over_M1P") == ["1"]

    def test_generic_gamma_two(self, generic_gamma_two_config):
        v = verdict(generic_gamma_two_config, "section_ratios")
        assert v.status == PASS
        for key in ("MM1_over_M1P", "NN1_over_N1Q", "PP1_over_P1M", "QQ1_over_Q1N"):
            assert v.exact_values[key] == v.exact_values[key + "_formula"]


class TestCrossingRatioFormula:
    def test_reference_values(self, gamma_two_config):
        v = verdict(gamma_two_config, "crossing_ratio_formula")
        assert v.status == PASS
        assert texts(v, "r", "ME_over_EP", "ME_over_EP_formula") == ["2/3", "5/7", "5/7"]

    def test_gamma_one_reduces_to_plain_form(self, gamma_one_config):
        v = verdict(gamma_one_config, "crossing_ratio_formula")
        assert v.status == PASS
        m, n, p, _ = map(frac, gamma_one_config.ratios.as_tuple)
        assert texts(v, "ME_over_EP") == [str(m * n * (p + 1) / (m + 1))]

    def test_parallel_traces_use_r_equal_one(self, unit_square):
        # N = (1, t) and Q = (0, t) make NQ parallel to AB
        t = F(1, 3)
        ratios = side_ratios(2, t / (1 - t), 3, (1 - t) / t)
        cfg = build_from_ratios(unit_square, ratios)
        R = points(cfg)["R"]
        assert R is not None and R[2] == 0
        assert cfg.r_ratio == (1, 1)
        v = verdict(cfg, "crossing_ratio_formula")
        assert v.status == PASS

    def test_nonconvex_skipped(self, crossed_quad):
        cfg = build_from_ratios(crossed_quad, side_ratios(F(1, 2), 2, 3, F(1, 3)))
        v = verdict(cfg, "crossing_ratio_formula")
        assert (v.status, v.detail) == (
            SKIPPED, "the trace-ratio form is stated for convex quadrilaterals")


class TestInnerQuadrilateral:
    def test_gamma_above_one_order(self, gamma_two_config):
        v = verdict(gamma_two_config, "inner_quadrilateral")
        assert v.status == PASS
        lam = v.exact_values
        assert frac(lam["lambda_P1_on_MP"]) < frac(lam["lambda_E_on_MP"]) \
            < frac(lam["lambda_M1_on_MP"])

    def test_gamma_below_one_order(self, unit_square):
        cfg = build_from_ratios(unit_square, side_ratios(1, 1, 1, F(1, 2)))
        v = verdict(cfg, "inner_quadrilateral")
        assert v.status == PASS
        lam = v.exact_values
        assert frac(lam["lambda_M1_on_MP"]) < frac(lam["lambda_E_on_MP"]) \
            < frac(lam["lambda_P1_on_MP"])

    def test_gamma_one_collapse(self, gamma_one_config):
        assert verdict(gamma_one_config, "inner_quadrilateral").status == PASS

    def test_nonconvex_skipped(self, concave_quad):
        cfg = build_from_ratios(concave_quad, side_ratios(1, 1, 1, 1))
        v = verdict(cfg, "inner_quadrilateral")
        assert (v.status, v.detail) == (
            SKIPPED, "segment ordering claims require a convex quadrilateral")


def with_points(cfg, **triples):
    """``cfg`` with the named stored points replaced by the given triples."""
    stored = list(cfg.triples)
    for name, t in triples.items():
        stored[SLOT[name]] = t
    return cfg._replace(triples=tuple(stored))


def at(a, b, lam):
    """The triple of the point ``a + lam*(b - a)``, for a ``Fraction``
    ``lam``: it divides ``a -> b`` in the ratio ``lam/(1 - lam)``."""
    return reduce3(*dividing_terms(a, b, lam.numerator, lam.denominator - lam.numerator))


# A convex quadrilateral and its mirror image: on the two, the affine
# parameters along MP and NQ have denominators of both signs
GENERIC = (tri(0, 0), tri(4, 0), tri(5, 3), tri(1, 4))
MIRRORED = tuple(tri(-x, y) for x, y in map(affine, GENERIC))
# gamma 2/3 and 1/2, then 2 and 6; the last two of each put P left of M,
# so the generic quadrilateral's MP parameters have negative denominators
RATIOS_BELOW_ONE = ((1, 2, 1, F(1, 3)), (3, 1, 2, F(1, 12)))
RATIOS_ABOVE_ONE = ((1, 2, 1, 1), (3, 1, 2, 1))
ORDER_CASES = [(vertices, ratios) for vertices in (GENERIC, MIRRORED)
               for ratios in RATIOS_BELOW_ONE + RATIOS_ABOVE_ONE]


class TestComparisonBranches:
    """Each comparison an exact check makes, driven to both outcomes by
    corrupting a built configuration's points or ratios."""

    @staticmethod
    def inner(vertices, ratios):
        cfg = build_from_ratios(Quadrilateral.of(*vertices), side_ratios(*ratios))
        assert verdict(cfg, "inner_quadrilateral").status == PASS
        return cfg

    @pytest.mark.parametrize("vertices, ratios", ORDER_CASES)
    def test_order_along_mp(self, vertices, ratios):
        cfg = self.inner(vertices, ratios)
        pts = points(cfg)
        M, P, E = pts["M"], pts["P"], pts["E"]
        if frac(cfg.ratios.gamma) < 1:
            first, last, violated = "M1", "P1", "order M-M1-E-P1-P violated"
        else:
            first, last, violated = "P1", "M1", "order M-P1-E-M1-P violated"
        lam_first = param(M, P, pts[first])
        lam_last = param(M, P, pts[last])
        for moved in ({first: pts[last], last: pts[first]},
                      {first: M}, {first: E}, {first: at(M, P, F(-1, 2))},
                      {last: P}, {last: E}, {last: at(M, P, F(3, 2))}):
            v = verdict(with_points(cfg, **moved), "inner_quadrilateral")
            assert (v.status, v.detail) == (FAIL, violated), moved
        # strictly inside the segments the order allows: still in order
        for moved in ({first: at(M, P, lam_first / 2)},
                      {last: at(M, P, (1 + lam_last) / 2)}):
            assert verdict(with_points(cfg, **moved), "inner_quadrilateral").status == PASS

    @pytest.mark.parametrize("vertices, ratios", ORDER_CASES)
    def test_e_on_segment_n1q1(self, vertices, ratios):
        cfg = self.inner(vertices, ratios)
        pts = points(cfg)
        N, Q, E = pts["N"], pts["Q"], pts["E"]
        e, d = param(N, Q, E), F(1, 10)
        # the closed segment from N1 to Q1, in either order, must hold E
        cases = {(e + d, e + 2 * d): FAIL, (e - 2 * d, e - d): FAIL,
                 (e, e + d): PASS, (e - d, e): PASS, (e - d, e + d): PASS}
        for (lo, hi), status in cases.items():
            detail = "E outside segment N1Q1" if status == FAIL else ""
            for n1, q1 in ((lo, hi), (hi, lo)):
                v = verdict(with_points(cfg, N1=at(N, Q, n1), Q1=at(N, Q, q1)),
                            "inner_quadrilateral")
                assert (v.status, v.detail) == (status, detail), (n1, q1)

    def test_points_off_their_carrier_lines(self, generic_gamma_two_config):
        cfg = generic_gamma_two_config
        v = verdict(with_points(cfg, M1=tri(0, 0)), "inner_quadrilateral")
        assert (v.status, v.detail) == (
            FAIL, "points left their carrier lines: Point(0, 0) is not on the line "
                  "through Point(2, 0) and Point(3, 7/2)")
        v = verdict(with_points(cfg, N1=tri(0, 0)), "inner_quadrilateral")
        assert (v.status, v.detail) == (
            FAIL, "points left their carrier lines: Point(0, 0) is not on the line "
                  "through Point(14/3, 2) and Point(1/2, 2)")
        # E is off both carriers, and MP is checked first
        for moved, line in (("E", "Point(2, 0) and Point(3, 7/2)"),
                            ("P1", "Point(2, 0) and Point(3, 7/2)"),
                            ("Q1", "Point(14/3, 2) and Point(1/2, 2)")):
            v = verdict(with_points(cfg, **{moved: tri(0, 0)}), "inner_quadrilateral")
            assert (v.status, v.detail) == (
                FAIL, f"points left their carrier lines: Point(0, 0) is not on the line "
                      f"through {line}"), moved

    def test_product_one_collapse(self, gamma_one_config):
        v = verdict(with_points(gamma_one_config, M1=tri(0, 0)), "inner_quadrilateral")
        assert (v.status, v.detail) == (FAIL, "product-one collapse violated")

    def test_fe_over_eg_mismatch(self, gamma_one_config):
        # (2, 2, 1/2, 1/2) keeps the product one but moves the closed form
        # m(1 + np)/(1 + mn) to 4/5, while the stored points give FE/EG = 1
        v = verdict(gamma_one_config._replace(ratios=side_ratios(2, 2, F(1, 2), F(1, 2))),
                    "seven_lines")
        assert (v.status, v.detail) == (FAIL, "FE_over_EG mismatch")
        assert texts(v, "FE_over_EG", "FE_over_EG_formula") == ["1", "4/5"]

    @pytest.mark.parametrize("ratios, corrupt, expected", [
        ((1, 2, 1, 1), (2, 1, 1, 1), ["1", "4/3"]),
        ((1, 2, 1, F(1, 3)), (2, 1, 1, F(1, 3)), ["1", "4/3"]),
    ])
    def test_f1m1_over_m1g1_mismatch(self, ratios, corrupt, expected):
        cfg = build_from_ratios(Quadrilateral.of(*GENERIC), side_ratios(*ratios))
        assert verdict(cfg, "quadruple_concurrences").status == PASS
        v = verdict(cfg._replace(ratios=side_ratios(*corrupt)), "quadruple_concurrences")
        assert (v.status, v.detail) == (FAIL, "F1M1_over_M1G1 mismatch")
        assert texts(v, "F1M1_over_M1G1", "F1M1_over_M1G1_formula") == expected

    @pytest.mark.parametrize("ratios", RATIOS_BELOW_ONE + RATIOS_ABOVE_ONE)
    def test_section_ratio_keys(self, ratios):
        cfg = build_from_ratios(Quadrilateral.of(*GENERIC), side_ratios(*ratios))
        E = points(cfg)["E"]
        assert verdict(cfg, "section_ratios").status == PASS
        for names, detail in ((("M1",), "MM1_over_M1P mismatch"),
                              (("N1",), "NN1_over_N1Q mismatch"),
                              (("P1",), "PP1_over_P1M mismatch"),
                              (("Q1",), "QQ1_over_Q1N mismatch"),
                              (("M1", "Q1"), "MM1_over_M1P mismatch; QQ1_over_Q1N mismatch")):
            v = verdict(with_points(cfg, **{name: E for name in names}), "section_ratios")
            assert (v.status, v.detail) == (FAIL, detail)

    def test_crossing_ratios_fail(self, gamma_one_config):
        cfg = gamma_one_config
        M, N, P, Q = (points(cfg)[n] for n in "MNPQ")
        v = verdict(with_points(cfg, P=at(M, P, F(2))), "crossing_ratios")
        assert (v.status, v.detail) == (FAIL, "ME_over_EP mismatch")
        assert texts(v, "ME_over_EP", "ME_over_EP_formula") == ["1/3", "1"]
        assert texts(v, "NE_over_EQ", "NE_over_EQ_formula") == ["1/2", "1/2"]
        v = verdict(with_points(cfg, Q=at(N, Q, F(1, 2))), "crossing_ratios")
        assert (v.status, v.detail) == (FAIL, "NE_over_EQ mismatch")
        assert texts(v, "ME_over_EP", "NE_over_EQ", "NE_over_EQ_formula") == ["1", "2", "1/2"]

    @pytest.mark.parametrize("q, r, formula", [(2, F(2, 3), "5/7"), (F(1, 2), F(4, 3), "7/5")])
    def test_crossing_ratio_formula_fail(self, unit_square, q, r, formula):
        cfg = build_from_ratios(unit_square, side_ratios(1, 1, 1, q))
        pts = points(cfg)
        v = verdict(cfg, "crossing_ratio_formula")
        assert (v.status, texts(v, "r", "ME_over_EP_formula")) == (PASS, [str(r), formula])
        v = verdict(cfg._replace(r_ratio=(1, 1)), "crossing_ratio_formula")
        assert (v.status, v.detail) == (FAIL, "ME_over_EP mismatch")
        assert texts(v, "ME_over_EP") == [formula]
        M, P = pts["M"], pts["P"]
        v = verdict(with_points(cfg, P=at(M, P, F(2))), "crossing_ratio_formula")
        assert (v.status, v.detail) == (FAIL, "ME_over_EP mismatch")
        assert texts(v, "ME_over_EP_formula") == [formula]

    def test_ratio_product_fail(self, generic_gamma_two_config):
        cfg = generic_gamma_two_config
        pts = points(cfg)
        F1, G1 = pts["F1"], pts["G1"]
        v = verdict(with_points(cfg, M1=at(F1, G1, F(1, 3))), "ratio_product")
        assert (v.status, v.detail) == (FAIL, "product mismatch")
        assert texts(v, "F1M1_over_M1G1", "gamma") == ["1/2", "2"]


class TestInnerQuadConvexity:
    def test_convex_input_skipped(self, midpoint_config):
        v = verdict(midpoint_config, "inner_quadrilateral_convexity")
        assert (v.status, v.detail) == (
            SKIPPED, "the empirical convexity check targets nonconvex inputs")

    def test_crossed_failure_exists(self, crossed_quad):
        # a crossed quadrilateral with free ratios where the inner
        # quadrilateral is itself crossed
        cfg = build_from_ratios(crossed_quad, side_ratios(F(1, 2), F(1, 2), F(1, 2), F(1, 3)))
        v = verdict(cfg, "inner_quadrilateral_convexity")
        assert v.status == FAIL
        assert texts(v, "inner_quad_convex") == ["0"]
        assert "crossed" in v.detail

    def test_gamma_one_collapse_is_degenerate(self, crossed_quad):
        cfg = build_from_ratios(crossed_quad, side_ratios(2, 1, F(1, 2), 1))
        v = verdict(cfg, "inner_quadrilateral_convexity")
        assert v.status == DEGENERATE


class TestRemarks:
    """The claims expected to survive on nonconvex inputs."""

    def test_crossed_gamma_one(self, crossed_quad):
        cfg = build_from_ratios(crossed_quad, side_ratios(2, 1, F(1, 2), 1))
        by_claim = {v.claim_id: v.status for v in verify_all(cfg)}
        assert by_claim["crossing_ratios"] == PASS
        assert by_claim["quadruple_concurrences"] == PASS

    def test_concave_midpoints(self, concave_quad):
        cfg = build_from_ratios(concave_quad, side_ratios(1, 1, 1, 1))
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

    def test_constant_skip_verdicts_are_made_once(self, midpoint_config,
                                                  generic_gamma_two_config, concave_quad):
        # a skip text that names no value gives one verdict, shared by every
        # call; the product-one skips name gamma, so each call makes its own
        runners = dict(verifiers.CLAIM_RUNNERS)
        concave = build_from_ratios(concave_quad, side_ratios(1, 2, 1, 1))
        concave_too = build_from_ratios(concave_quad, side_ratios(2, 1, 1, 3))
        for claim, first, second in (
                ("inner_quadrilateral_convexity", midpoint_config, generic_gamma_two_config),
                ("crossing_ratio_formula", concave, concave_too),
                ("inner_quadrilateral", concave, concave_too)):
            skipped = runners[claim](first)
            assert skipped.status == SKIPPED and runners[claim](second) is skipped
        seven = runners["seven_lines"]
        assert seven(generic_gamma_two_config).detail == "requires side-ratio product 1, got 2"
        assert seven(concave_too).detail == "requires side-ratio product 1, got 6"

    @pytest.mark.parametrize("field", ["witness", "exact_values"])
    def test_default_mappings_are_read_only(self, field):
        # every default verdict shares one empty mapping: writing into it
        # would leak into all the others, so it refuses
        with pytest.raises(TypeError):
            getattr(Verdict("seven_lines", PASS), field)["E"] = F(1)
        assert getattr(Verdict("seven_lines", SKIPPED), field) == {}


class TestExactValues:
    """Every exact value leaves ``verify_all`` as an integer pair, made
    without a ``Fraction``, and the report writes it as canonical text."""

    @staticmethod
    def built(specs, count):
        cfgs = []
        for spec in specs:
            for i in range(count):
                try:
                    cfgs.append(build_from_ratios(gen_quadrilateral(spec, i), gen_ratios(spec, i)))
                except UndefinedPoint:
                    pass
        return cfgs

    def test_values_are_canonical_text(self):
        big = 10**30
        specs = [GenSpec(seed=5, shape=shape, coordinate_bound=big, ratio_bound=big,
                         force_gamma_one=one)
                 for shape in ("convex", "concave", "crossed", "any") for one in (False, True)]
        checked = 0
        for cfg in self.built(specs, 6):
            verdicts = verify_all(cfg)
            doc = report_document({}, verdicts, cfg, instance_from_parts(cfg.quad, cfg.ratios))
            for v, tree in zip(verdicts, doc["verdicts"]):
                written = tree["exact_values"]
                for key, pair in v.exact_values.items():
                    assert type(pair) is tuple and len(pair) == 2, (v.claim_id, key)
                    num, den = pair
                    assert type(num) is int and type(den) is int and den != 0, (v.claim_id, key)
                    # canonical: the text str(Fraction) writes
                    assert written[key] == str(frac(pair)), (v.claim_id, key)
                    checked += 1
        assert checked > 500

    def test_verify_all_makes_no_fraction(self, monkeypatch):
        specs = (GenSpec(seed=3), GenSpec(seed=3, force_gamma_one=True),
                 GenSpec(seed=3, shape="crossed"),
                 GenSpec(seed=3, shape="crossed", force_gamma_one=True))
        cfgs = self.built(specs, 25)
        made = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        assert F(3, 6) == F(1, 2) and len(made) == 2  # the counter sees every construction
        made.clear()
        statuses = set()
        for cfg in cfgs:
            statuses.update(v.status for v in verify_all(cfg))
        assert made == []
        assert {PASS, SKIPPED} <= statuses


def values(v):
    """A verdict's exact values as rationals: two pairs of one rational
    compare equal."""
    return {key: frac(pair) for key, pair in v.exact_values.items()}


class TestAffineInvariance:
    def test_verdicts_survive_an_affine_map(self, generic_gamma_two_config):
        cfg = generic_gamma_two_config
        base = verify_all(cfg)

        def apply(p):
            x, y = affine(p)
            return tri(F(2, 3) * x - 5 * y + 7, F(1, 4) * x + 2 * y - 3)

        quad = Quadrilateral.of(*(apply(v) for v in cfg.quad.vertices))
        mapped = build_from_ratios(quad, cfg.ratios)
        other = verify_all(mapped)
        for v1, v2 in zip(base, other):
            assert v1.claim_id == v2.claim_id
            assert v1.status == v2.status
            assert values(v1) == values(v2)
            assert v1.detail == v2.detail


def test_readme_claims_table_matches_claims():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Claims\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    assert [tuple(cell.strip().strip("`") for cell in row) for row in rows] == [
        (claim, regime) for claim, regime, *_ in CLAIMS]


def test_every_verdict_is_a_verdict_equal_to_its_keyword_twin():
    """Passes and the skips that name ``gamma`` are built positionally:
    every verdict ``verify_all`` returns, of each status, is a ``Verdict``
    with a text detail and mapping witnesses and values, equal to the
    verdict its fields build by keyword.  Small bounds bring degenerate
    instances; ``M1`` moved onto ``A`` fails the claims that read it."""
    statuses = set()
    for shape in ("convex", "concave", "crossed"):
        for force in (True, False):
            spec = GenSpec(seed=0, shape=shape, coordinate_bound=4, ratio_bound=2,
                           force_gamma_one=force)
            for index in range(20):
                try:
                    cfg = build_from_ratios(gen_quadrilateral(spec, index),
                                            gen_ratios(spec, index))
                except UndefinedPoint:
                    continue
                for built in (cfg, with_points(cfg, M1=cfg.triples[SLOT["A"]])):
                    for v in verify_all(built):
                        statuses.add(v.status)
                        assert type(v) is Verdict and isinstance(v.detail, str)
                        assert isinstance(v.witness, Mapping)
                        assert isinstance(v.exact_values, Mapping)
                        assert v == Verdict(claim_id=v.claim_id, status=v.status,
                                            detail=v.detail, witness=v.witness,
                                            exact_values=v.exact_values)
    assert statuses == {PASS, SKIPPED, DEGENERATE, FAIL}
