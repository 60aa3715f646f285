"""Acceptance suite: every criterion at zero tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and
asserts exact equalities only; there are no tolerances anywhere.
Campaign sizes and budgets are fixed, not tunable.
"""

import io
from fractions import Fraction

import pytest

from quadconc import Quadrilateral, build_from_ratios, directed_ratio, point_dividing, verify_all
from quadconc.cli import main
from quadconc.generators import GenSpec, Stream, gen_quadrilateral, gen_ratios
from quadconc.verifiers import DEGENERATE, FAIL
from rationals import affine, draw, frac, param, points, pt, ratio, side_ratios, tri

F = Fraction
CAMPAIGN_SIZE = 1000
ROUND_TRIPS = 10_000
AFFINE_MAPS = 10_000
COUNTEREXAMPLE_BUDGET = 500


def _announce(criterion: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{criterion}: {detail}"


def _run_campaign(force_gamma_one: bool):
    spec = GenSpec(seed=42, force_gamma_one=force_gamma_one)
    out = []
    for index in range(CAMPAIGN_SIZE):
        quad = gen_quadrilateral(spec, index)
        ratios = gen_ratios(spec, index)
        cfg = build_from_ratios(quad, ratios)
        verdicts = {v.claim_id: v for v in verify_all(cfg)}
        out.append((cfg, verdicts))
    return out


@pytest.fixture(scope="module")
def gamma_one_campaign():
    return _run_campaign(force_gamma_one=True)


@pytest.fixture(scope="module")
def general_campaign():
    return _run_campaign(force_gamma_one=False)


def test_criterion_1_seven_line_concurrence(gamma_one_campaign):
    failures = [v for _, vs in gamma_one_campaign
                if (v := vs["seven_lines"]).status == FAIL]
    degenerate = sum(1 for _, vs in gamma_one_campaign
                     if vs["seven_lines"].status == DEGENERATE)
    _announce(
        "1 seven-line concurrence", not failures,
        f"{CAMPAIGN_SIZE} instances, {degenerate} degenerate, {len(failures)} failures",
    )


def test_criterion_2_transversal_formulas(gamma_one_campaign):
    failures = [v for _, vs in gamma_one_campaign
                if (v := vs["crossing_ratios"]).status == FAIL]
    midpoint_bad = 0
    for cfg, _ in gamma_one_campaign[:100]:
        mid = build_from_ratios(cfg.quad, side_ratios(1, 1, 1, 1))
        M, N, P, Q, E = (points(mid)[n] for n in "MNPQE")
        if ratio(M, E, P) != 1 or ratio(N, E, Q) != 1:
            midpoint_bad += 1
    ok = not failures and midpoint_bad == 0
    _announce(
        "2 transversal formulas", ok,
        f"{len(failures)} formula failures, {midpoint_bad} midpoint bisection failures",
    )


def test_criterion_3_diagonal_collinearity(gamma_one_campaign):
    failures = [v for _, vs in gamma_one_campaign
                if (v := vs["diagonal_collinearity"]).status == FAIL]
    _announce("3 cross-diagonal collinearity", not failures,
              f"{len(failures)} failures in {CAMPAIGN_SIZE}")


GENERAL_CLAIMS = (
    "quadruple_concurrences",
    "ratio_product",
    "section_ratios",
    "crossing_ratio_formula",
    "inner_quadrilateral",
)


def test_criterion_4_general_suite(general_campaign, unit_square):
    bad = []
    for cfg, vs in general_campaign:
        for claim in GENERAL_CLAIMS:
            v = vs[claim]
            if v.status == FAIL:
                bad.append((claim, "fail"))
            elif v.status == DEGENERATE and not v.detail:
                bad.append((claim, "unnamed degeneracy"))

    fixture = build_from_ratios(unit_square, side_ratios(1, 1, 1, 2))
    pts = points(fixture)
    fixture_ok = (
        pts["E"] == tri(F(1, 2), F(5, 12))
        and fixture.r_ratio == (2, 3)
        and ratio(*(pts[n] for n in "MEP")) == F(5, 7)
    )
    _announce("4 general-ratio suite", not bad and fixture_ok,
              f"{len(bad)} bad verdicts; fixture ok: {fixture_ok}")


def test_criterion_5_gamma_one_collapse(gamma_one_campaign):
    bad = 0
    for cfg, _ in gamma_one_campaign:
        pts = [points(cfg)[n] for n in ("M1", "N1", "P1", "Q1", "E")]
        if any(p is None for p in pts) or len({p for p in pts}) != 1:
            bad += 1
    _announce("5 product-one collapse", bad == 0, f"{bad} non-collapsed instances")


def test_criterion_6_trichotomy_ordering(general_campaign):
    checked = 0
    bad = 0
    for cfg, _ in general_campaign:
        gamma = frac(cfg.ratios.gamma)
        quad = cfg.quad
        pts = F1, F2, G1, G2, M1, P1, E = [
            points(cfg)[n] for n in ("F1", "F2", "G1", "G2", "M1", "P1", "E")]
        if any(p is None or p[2] == 0 for p in pts):
            continue
        checked += 1
        M, P = points(cfg)["M"], points(cfg)["P"]
        lam_f1 = param(quad.A, quad.C, F1)
        lam_f2 = param(quad.A, quad.C, F2)
        lam_g1 = param(quad.B, quad.D, G1)
        lam_g2 = param(quad.B, quad.D, G2)
        lam_m1 = param(M, P, M1)
        lam_e = param(M, P, E)
        lam_p1 = param(M, P, P1)
        if gamma == 1:
            ok = F1 == F2 and G1 == G2 and lam_m1 == lam_e == lam_p1
        elif gamma < 1:
            ok = (0 < lam_f1 < lam_f2 < 1 and 0 < lam_g1 < lam_g2 < 1
                  and 0 < lam_m1 < lam_e < lam_p1 < 1)
        else:
            ok = (0 < lam_f2 < lam_f1 < 1 and 0 < lam_g2 < lam_g1 < 1
                  and 0 < lam_p1 < lam_e < lam_m1 < 1)
        if not ok:
            bad += 1
    _announce("6 trichotomy ordering", bad == 0 and checked > 0,
              f"{checked} instances checked, {bad} order violations")


def test_criterion_7_nonconvex_counterexample(tmp_path):
    out = io.StringIO()
    code = main(
        ["counterexample", "--shape", "crossed",
         "--target", "inner_quadrilateral_convexity",
         "--budget", str(COUNTEREXAMPLE_BUDGET)],
        out=out,
    )
    found = code == 0 and out.getvalue().strip() != ""
    _announce("7 nonconvex counterexample", found,
              f"budget {COUNTEREXAMPLE_BUDGET}, exit {code}")


def summarize(verdicts):
    """Each verdict's claim, status, detail and exact values, the values as
    rationals: two pairs of one rational compare equal."""
    return [(v.claim_id, v.status, v.detail,
             sorted((key, frac(pair)) for key, pair in v.exact_values.items()))
            for v in verdicts]


def test_criterion_8_kernel_round_trips_and_affine_invariance():
    rng = Stream(2024)

    def draw_rat():
        return F(draw(rng, -40, 40), draw(rng, 1, 12))

    bad_round_trips = 0
    for _ in range(ROUND_TRIPS):
        a = pt(draw_rat(), draw_rat())
        b = pt(draw_rat(), draw_rat())
        t = draw_rat()
        if a == b or t == -1:
            continue
        p = point_dividing(a, b, t.as_integer_ratio())
        if frac(directed_ratio(a, p, b)) != t:
            bad_round_trips += 1

    instances = [
        (Quadrilateral.of(tri(0, 0), tri(1, 0), tri(1, 1), tri(0, 1)),
         side_ratios(1, 1, 1, 1)),
        (Quadrilateral.of(tri(0, 0), tri(1, 0), tri(1, 1), tri(0, 1)),
         side_ratios(2, 1, F(1, 2), 1)),
        (Quadrilateral.of(tri(0, 0), tri(1, 0), tri(1, 1), tri(0, 1)),
         side_ratios(1, 1, 1, 2)),
        (Quadrilateral.of(tri(0, 0), tri(4, 0), tri(5, 3), tri(1, 4)),
         side_ratios(1, 2, 1, 1)),
    ]
    base = [summarize(verify_all(build_from_ratios(quad, ratios))) for quad, ratios in instances]

    bad_maps = 0
    for i in range(AFFINE_MAPS):
        while True:
            a11, a12, a21, a22 = (F(draw(rng, -4, 4), draw(rng, 1, 3))
                                  for _ in range(4))
            if a11 * a22 - a12 * a21 != 0:
                break
        tx = F(draw(rng, -5, 5), draw(rng, 1, 3))
        ty = F(draw(rng, -5, 5), draw(rng, 1, 3))

        def apply(p):
            x, y = affine(p)
            return tri(a11 * x + a12 * y + tx, a21 * x + a22 * y + ty)

        which = i % len(instances)
        quad, ratios = instances[which]
        mapped_quad = Quadrilateral.of(*(apply(v) for v in quad.vertices))
        verdicts = verify_all(build_from_ratios(mapped_quad, ratios))
        if summarize(verdicts) != base[which]:
            bad_maps += 1

    ok = bad_round_trips == 0 and bad_maps == 0
    _announce(
        "8 kernel round trips and affine invariance", ok,
        f"{ROUND_TRIPS} round trips ({bad_round_trips} bad), "
        f"{AFFINE_MAPS} affine maps ({bad_maps} changed verdicts)",
    )


def test_criterion_9_fuzz_determinism():
    mismatches = []
    for argv in (
        ["fuzz", "--seed", "11", "--count", "50", "--regime", "gamma1"],
        ["fuzz", "--seed", "11", "--count", "50", "--regime", "general"],
        ["fuzz", "--seed", "11", "--count", "30", "--regime", "remarks"],
    ):
        buf1, buf2 = io.StringIO(), io.StringIO()
        code1 = main(list(argv), out=buf1)
        code2 = main(list(argv), out=buf2)
        if buf1.getvalue() != buf2.getvalue() or code1 != code2:
            mismatches.append(argv[-1])
    _announce("9 fuzz determinism", not mismatches,
              f"regimes compared: gamma1, general, remarks; mismatches: {mismatches or 'none'}")


def test_campaigns_have_no_failures_overall(gamma_one_campaign, general_campaign):
    # belt-and-braces: nothing anywhere in either campaign may fail
    for campaign in (gamma_one_campaign, general_campaign):
        for _, vs in campaign:
            for v in vs.values():
                assert v.status != FAIL, (v.claim_id, v.detail)
