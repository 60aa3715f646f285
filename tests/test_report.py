"""``report.report_line`` against the report tree it stands for: every line
must be byte for byte the compact JSON of ``report_document``."""

import pytest

from quadconc import build_from_ratios
from quadconc.errors import UndefinedPoint
from quadconc.generators import GenSpec, gen_quadrilateral, gen_ratios
from quadconc.instancefile import InstanceFile, instance_from_parts, render
from quadconc.kernel import Point
from quadconc.report import degenerate_verdicts, report_document, report_line
from quadconc.verifiers import CLAIM_IDS, DEGENERATE, FAIL, PASS, SKIPPED, Verdict, verify_all
from test_golden import corruptions
from test_verifiers import with_points

BOUNDS = ((4, 2), (10, 8), (10**30, 10**30))


def tree_line(meta, verdicts, cfg, inst):
    return render(report_document(meta, verdicts, cfg, instance=inst), compact=True)


@pytest.mark.parametrize("shape", ["convex", "concave", "crossed", "any"])
def test_report_line_is_the_compact_tree(shape):
    """Both regimes at each of ``BOUNDS``, indices 0-5, and under each of
    ``test_golden.corruptions`` at indices 0 and 1: passing, failing,
    degenerate and skipped verdicts, and ideal witness points."""
    statuses, ideal_witnesses = set(), 0
    for force in (True, False):
        for bound, ratio_bound in BOUNDS:
            spec = GenSpec(seed=42, shape=shape, coordinate_bound=bound,
                           ratio_bound=ratio_bound, force_gamma_one=force)
            for index in range(6):
                quad, ratios = gen_quadrilateral(spec, index), gen_ratios(spec, index)
                inst = instance_from_parts(quad, ratios)
                meta = {"seed": "42", "index": index, "regime": shape}
                try:
                    cfg = build_from_ratios(quad, ratios)
                except UndefinedPoint as exc:
                    verdicts = degenerate_verdicts(CLAIM_IDS, f"UndefinedPoint: {exc}")
                    assert report_line(meta, verdicts, None, inst) == tree_line(
                        meta, verdicts, None, inst)
                    continue
                configs = [cfg]
                if index < 2:
                    configs += [with_points(cfg, **{name: pt}) for name, _, pt in corruptions(cfg)]
                for built in configs:
                    verdicts = verify_all(built)
                    line = report_line(meta, verdicts, built, inst)
                    assert line == tree_line(meta, verdicts, built, inst)
                    statuses.update(v.status for v in verdicts)
                    ideal_witnesses += '"0"]' in line
    assert statuses == {PASS, FAIL, DEGENERATE, SKIPPED}
    assert ideal_witnesses


SQUARE = (Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1))


@pytest.mark.parametrize("inst", [
    InstanceFile(vertices=SQUARE, ratios=None, checks=("seven_lines", "ratio_product"),
                 points=(Point(1, 1), Point(2, 1), Point(1, 1), Point(0, 1, 0))),
    instance_from_parts(gen_quadrilateral(GenSpec(seed=3), 0), gen_ratios(GenSpec(seed=3), 0)),
], ids=["points", "ratios"])
@pytest.mark.parametrize("claims", [CLAIM_IDS, ("seven_lines",), ()], ids=len)
def test_degenerate_report_line_is_the_compact_tree(inst, claims):
    # cfg=None, as ``fuzz`` writes an instance that does not build; the
    # meta holds a non-ASCII string, which json escapes, and an int
    meta = {"source": "données/ångström ☃ \"q\".json", "index": 10**20, "z": ""}
    verdicts = degenerate_verdicts(claims, "UndefinedPoint: point N1 is undefined: é")
    line = report_line(meta, verdicts, None, inst)
    assert line == tree_line(meta, verdicts, None, inst)
    assert line.isascii() and line.endswith("}\n") and line.count("\n") == 1


def test_report_line_sorts_what_the_tree_sorts_and_keys_texts_by_point():
    # witnesses and exact values inserted out of order, one name on two
    # different points and one point under two names, and many flags
    spec = GenSpec(seed=42)
    quad, ratios = gen_quadrilateral(spec, 0), gen_ratios(spec, 0)
    cfg = build_from_ratios(quad, ratios)
    cfg = cfg._replace(degeneracies=frozenset({"Z9", "A1_IDEAL", "F1_EQ_F2", "M_X", "B"}))
    e, ideal = Point(1, 2), Point(-3, 2, 0)
    verdicts = [
        Verdict("seven_lines", FAIL, detail="E misses \u00e9",
                witness={"Q1": e, "E": ideal, "M1": e},
                exact_values={"z": "1/2", "FE_over_EG": "-3", "A": "0"}),
        Verdict("crossing_ratios", PASS, witness={"E": e}),
    ]
    inst = instance_from_parts(quad, ratios)
    line = report_line({"b": "x", "a": 1}, verdicts, cfg, inst)
    assert line == tree_line({"b": "x", "a": 1}, verdicts, cfg, inst)


@pytest.mark.parametrize("value", [1.5, True, None, ["x"]])
def test_report_line_writes_only_str_and_int_meta(value):
    inst = instance_from_parts(gen_quadrilateral(GenSpec(), 0), gen_ratios(GenSpec(), 0))
    with pytest.raises(TypeError):
        report_line({"x": value}, [], None, inst)
