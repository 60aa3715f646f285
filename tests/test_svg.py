import decimal
import re
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quadconc import (
    Quadrilateral,
    build_from_points,
    build_from_ratios,
    svgfig,
)
from quadconc.configuration import FULL_PLAN
from quadconc.errors import GeometryError, InstanceFormatError, UndefinedPoint
from quadconc.generators import GenSpec, gen_quadrilateral, gen_ratios
from quadconc.instancefile import InstanceFile, instance_from_parts
from quadconc.svgfig import DRAWN_PLAN, LAYERS, VIEW, render_svg
from rationals import affine, points, side_ratios, tri
from test_configuration import side_points, signed_ratios

F = Fraction


def reference_fmt(value: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = svgfig.RENDER_DIGITS
        out = Decimal(value.numerator) / Decimal(value.denominator)
    return format(out, "f") if -1e15 < out < 1e15 else str(out)


def reference_screen(cfg):
    """``svgfig._screen`` in its ``Fraction`` form: the affine coordinates,
    framed by ``_FRAME`` with a margin of 1/12 of the span (at least 1)
    on each side, scaled to ``VIEW`` and flipped in y."""
    coords = {}
    for name in svgfig._DRAWN:
        t = points(cfg)[name]
        if t is not None and t[2]:
            coords[name] = affine(t)
    xs = [coords[n][0] for n in svgfig._FRAME if n in coords]
    ys = [coords[n][1] for n in svgfig._FRAME if n in coords]
    lo_x, lo_y = min(xs), min(ys)
    span = max(max(xs) - lo_x, max(ys) - lo_y, Fraction(1))
    pad = span * Fraction(1, 12)
    min_x, min_y = lo_x - pad, lo_y - pad
    scale = Fraction(VIEW) / (span + 2 * pad)
    return {name: (reference_fmt((x - min_x) * scale), reference_fmt(VIEW - (y - min_y) * scale))
            for name, (x, y) in coords.items()}


def generated(spec, indices):
    for index in indices:
        try:
            yield build_from_ratios(gen_quadrilateral(spec, index), gen_ratios(spec, index))
        except GeometryError:
            continue


def signed_side_points(spec, indices):
    # side points beyond their segments often put A1 B1 C1 D1 outside the
    # frame or at infinity
    for index in indices:
        quad = gen_quadrilateral(spec, index)
        try:
            yield build_from_points(quad, *side_points(quad, signed_ratios(spec, index)))
        except GeometryError:
            continue


_SMALL = GenSpec(seed=42, coordinate_bound=4, ratio_bound=2)
_HUGE = GenSpec(seed=42, coordinate_bound=10**30, ratio_bound=10**30)


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
    cfg = build_from_ratios(unit_square, side_ratios(2, 3, 1, 1))
    text = render_svg(cfg, layers=("fg", "labels"))
    for name in ("F1", "F2", "G1", "G2"):
        assert f">{name}<" in text


def test_sides_only_has_no_concurrence_layer(midpoint_config):
    text = render_svg(midpoint_config, layers=("sides",))
    assert text.count("<line") == 4
    assert "circle" not in text
    with pytest.raises(InstanceFormatError) as err:
        render_svg(midpoint_config, ["nope"])
    assert str(err.value) == "unknown layers: nope"


def test_huge_coordinates_render(unit_square):
    # rationals far beyond double precision still format deterministically
    big = F(10**40 + 1, 3)
    cfg = build_from_ratios(unit_square, side_ratios(big, 1, 1, 1))
    text = render_svg(cfg)
    assert "<svg" in text


def drawn(inst, plan):
    """The SVG of every layer and of each single one, for ``inst`` built
    with ``plan``, or the text of the error its build raises."""
    try:
        cfg = inst.configuration(plan)
    except (UndefinedPoint, InstanceFormatError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return [render_svg(cfg, layers) for layers in (None, *((layer,) for layer in LAYERS))]


# M and P on the crossing point of the sides: lines AA1 and BB1 coincide
_N1_COLLAPSE = InstanceFile(vertices=(tri(0, 0), tri(2, 2), tri(2, 0), tri(0, 2)),
                            sides=(tri(1, 1), tri(2, 1), tri(1, 1), tri(0, 1)), checks=())


@pytest.mark.parametrize("shape", ["convex", "concave", "crossed"])
def test_the_drawn_plan_draws_the_full_builds_bytes(shape):
    """``figure`` builds ``DRAWN_PLAN``, without X Z Y T and R: on
    generated ratios at two bounds, on signed side points where the shape
    lets them leave their sides, and on an ``UndefinedPoint`` input, it
    draws the full build's bytes or raises its text."""
    assert {name for _, name, *_ in FULL_PLAN.steps} - {
        name for _, name, *_ in DRAWN_PLAN.steps} == {"X", "Z", "Y", "T", "R"}
    insts = [_N1_COLLAPSE]
    for spec in (GenSpec(seed=42, shape=shape), replace(_SMALL, shape=shape)):
        for index in range(40):
            quad = gen_quadrilateral(spec, index)
            insts.append(instance_from_parts(quad, gen_ratios(spec, index)))
            if shape != "convex":
                insts.append(InstanceFile(vertices=quad.vertices, checks=(),
                                          sides=side_points(quad, signed_ratios(spec, index))))
    errors = set()
    for inst in insts:
        full = drawn(inst, FULL_PLAN)
        assert drawn(inst, DRAWN_PLAN) == full
        if isinstance(full, str):
            errors.add(full.split(":")[0])
    assert "UndefinedPoint" in errors


def test_view_is_framed_without_the_cevian_meets():
    # side points beyond their segments put A1 = BP ∩ DN below the view;
    # the seven layer still draws AA1 to it, but A1 does not frame the view
    quad = Quadrilateral.of(tri(0, 0), tri(2, 1), tri(0, 2), tri(2, 0))
    cfg = build_from_points(quad, tri(4, 2), tri(F(1, 2), F(7, 4)), tri(4, -2), tri(-2, 0))
    text = render_svg(cfg)
    framed = re.findall(r'<(?:text|circle) \w+="([^"]+)" \w+="([^"]+)"', text)
    assert len(framed) == 18
    assert all(0 <= float(c) <= VIEW for pair in framed for c in pair)
    assert 'y2="649.142857143"' in text


@pytest.mark.parametrize("shape", ["convex", "concave", "crossed", "any"])
@pytest.mark.parametrize("spec", [GenSpec(seed=42), _SMALL, _HUGE], ids=["10-8", "4-2", "1e30"])
def test_screen_matches_the_fraction_form(spec, shape):
    for cfg in generated(replace(spec, shape=shape), range(60)):
        assert svgfig._screen(cfg) == reference_screen(cfg)


def test_screen_formats_each_distinct_triple_once(monkeypatch):
    # at product one E = M1 = N1 = P1 = Q1, F1 = F2 and G1 = G2: 22 finite
    # drawn points, 16 distinct triples, 32 of the 44 coordinate texts
    calls = []
    fmt = svgfig._fmt
    monkeypatch.setattr(svgfig, "_fmt", lambda *a: calls.append(a) or fmt(*a))
    for cfg in generated(GenSpec(seed=42, force_gamma_one=True), range(20)):
        calls.clear()
        xy = svgfig._screen(cfg)
        drawn = {cfg.triples[svgfig.SLOT[name]] for name in xy}
        assert len(calls) == 2 * len(drawn) < 2 * len(xy)
        assert xy["E"] is xy["M1"] and xy["F1"] is xy["F2"]


def test_screen_matches_the_fraction_form_on_ideal_undefined_and_outside_points(unit_square):
    cfgs = [
        # E and O ideal; P1 and Q1 undefined with R on vertex B
        *generated(replace(_SMALL, shape="crossed"), (202,)),
        *generated(replace(_SMALL, shape="concave", force_gamma_one=True), (16,)),
        # a figure narrower than one unit, where the span is floored at 1
        build_from_ratios(Quadrilateral.of(*(tri(*(F(c, 100) for c in v[:2]))
                                             for v in unit_square.vertices)),
                          side_ratios(1, 2, 3, 1)),
    ]
    for shape in ("concave", "crossed"):
        cfgs += signed_side_points(replace(_SMALL, shape=shape), range(40))
        cfgs += signed_side_points(GenSpec(seed=8, shape=shape), range(40))
    outside = 0
    for cfg in cfgs:
        xy = reference_screen(cfg)
        assert svgfig._screen(cfg) == xy
        outside += any(not 0 <= float(c) <= VIEW for name in ("A1", "B1", "C1", "D1")
                       if name in xy for c in xy[name])
    assert outside >= 10


def test_bytes_ignore_the_callers_decimal_context():
    cfgs = list(generated(GenSpec(seed=42), range(30)))
    want = [render_svg(cfg) for cfg in cfgs]
    with localcontext() as ctx:
        ctx.rounding = decimal.ROUND_FLOOR
        ctx.prec = 3
        ctx.capitals = 0
        ctx.traps[decimal.Inexact] = True
        ctx.traps[decimal.FloatOperation] = True
        got = [render_svg(cfg) for cfg in cfgs]
        # a coordinate beyond 1e15 is written in exponent form
        huge = svgfig._fmt(2 * 10**20, 3)
    assert got == want
    assert huge == svgfig._fmt(2 * 10**20, 3) == "6.66666666667E+19"


# halfway cases: a thirteenth significant digit 5 and nothing after it
_ties = st.builds(lambda q, shift, sign: (sign * (10 * q + 5) * 10**max(shift, 0),
                                          10**max(-shift, 0)),
                  st.integers(10**11, 10**12 - 1), st.integers(-20, 20), st.sampled_from([1, -1]))


@given(st.one_of(st.tuples(st.integers(-10**40, 10**40), st.integers(1, 10**30)), _ties))
@example((2 * 10**20, 3))  # exponent form
@example((10**13, 1))  # an exact integer wider than RENDER_DIGITS digits
@example((999999999999500, 1))  # a tie that rounds up into a sixteenth digit
@example((1000000000005, 10))  # a tie that rounds down, to even
@example((5, 10**20))  # far below one
@example((6, 4))  # unreduced
@example((0, 7))
def test_fmt_writes_the_bytes_of_decimal_division(pair):
    # integer arithmetic in the program, decimal in the reference
    num, den = pair
    assert svgfig._fmt(num, den) == reference_fmt(Fraction(num, den))
