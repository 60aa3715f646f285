import re
from fractions import Fraction

from quadconc import Point, Quadrilateral, SideRatios, build_from_points, build_from_ratios
from quadconc.svgfig import VIEW, render_svg

F = Fraction


def test_full_render_is_deterministic(gamma_two_config):
    a = render_svg(gamma_two_config)
    b = render_svg(gamma_two_config)
    assert a == b
    assert a.startswith("<svg")
    assert a.rstrip().endswith("</svg>")


def test_seven_layer_strokes_share_the_witness_point(midpoint_config):
    # all strokes of the concurrence layer pass through the rendered
    # center; with the canvas mapping the center lands mid-viewport
    text = render_svg(midpoint_config, layers=("seven",))
    assert text.count("<line") >= 4


def test_fg_layer_shows_split_points_for_general_ratios(unit_square):
    cfg = build_from_ratios(unit_square, SideRatios.of(2, 3, 1, 1))
    text = render_svg(cfg, layers=("fg", "labels"))
    for name in ("F1", "F2", "G1", "G2"):
        assert f">{name}<" in text


def test_sides_only_has_no_concurrence_layer(midpoint_config):
    text = render_svg(midpoint_config, layers=("sides",))
    assert text.count("<line") == 4
    assert "circle" not in text


def test_huge_coordinates_render(unit_square):
    # rationals far beyond double precision still format deterministically
    big = F(10**40 + 1, 3)
    cfg = build_from_ratios(unit_square, SideRatios.of(big, 1, 1, 1))
    text = render_svg(cfg)
    assert "<svg" in text


def test_view_is_framed_without_the_cevian_meets():
    # side points beyond their segments put A1 = BP ∩ DN below the view;
    # the seven layer still draws AA1 to it, but A1 does not frame the view
    quad = Quadrilateral.of(Point(0, 0), Point(2, 1), Point(0, 2), Point(2, 0))
    cfg = build_from_points(quad, Point(4, 2), Point(F(1, 2), F(7, 4)), Point(4, -2), Point(-2, 0))
    text = render_svg(cfg)
    framed = re.findall(r'<(?:text|circle) \w+="([^"]+)" \w+="([^"]+)"', text)
    assert len(framed) == 18
    assert all(0 <= float(c) <= VIEW for pair in framed for c in pair)
    assert 'y2="649.142857143"' in text
