import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quadconc import SideRatios, build_from_ratios
from quadconc.errors import InstanceFormatError, UndefinedPoint
from quadconc.generators import GenSpec, gen_quadrilateral, gen_ratios
from quadconc.instancefile import (
    InstanceFile,
    _parse_pair,
    instance_document,
    instance_from_parts,
    instance_text,
    parse_instance,
    parse_rational,
    render,
    serialize_instance,
)
from quadconc.kernel import triple_from_terms
from quadconc.report import degenerate_verdicts, report_line, report_text
from quadconc.verifiers import CLAIM_IDS, verify_all
from rationals import affine, frac, points, report_tree, side_ratios, tri

F = Fraction

MIDPOINT_DOC = """
{
  "vertices": {"A": ["0", "0"], "B": ["1", "0"], "C": ["1", "1"], "D": ["0", "1"]},
  "ratios": {"m": "1", "n": "1", "p": "1", "q": "1"},
  "checks": "all"
}
"""


class TestParseRational:
    def test_accepts_integers_and_fractions(self):
        # the pair as written; SideRatios and the point triples reduce it
        assert parse_rational("7", "x") == (7, 1)
        assert parse_rational("-3/4", "x") == (-3, 4)
        assert parse_rational("+2/6", "x") == (2, 6)
        assert frac(parse_rational("+2/6", "x")) == F(1, 3)

    @pytest.mark.parametrize("bad", ["0.5", "1e3", "3/-4", "", "a/b", "1/2/3", None, 5])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(InstanceFormatError):
            parse_rational(bad, "x")

    def test_rejects_zero_denominator(self):
        with pytest.raises(InstanceFormatError):
            parse_rational("1/0", "x")


# digit strings: short ones, and 5,000-digit ones with a nonzero lead
digits = st.one_of(st.integers(0, 10**6).map(str),
                   st.integers(1, 10**9).map(lambda d: (str(d) * 5000)[:5000]))
# signs with and without "+", leading zeros and unreduced fractions
rational_texts = st.builds(
    lambda sign, zeros, num, den: f"{sign}{zeros}{num}{den}",
    st.sampled_from(["", "+", "-"]),
    st.sampled_from(["", "0", "000"]),
    digits,
    st.one_of(st.just(""), st.builds(lambda zeros, d: f"/{zeros}{d}", st.sampled_from(["", "00"]),
                                     digits.filter(lambda d: int(d[:9]) != 0))),
)
# denominators of either sign
denominators = st.integers(-10**30, 10**30).filter(bool)


class TestParsePair:
    @given(rational_texts, rational_texts, st.integers(), denominators, st.integers(), denominators)
    @example("1", "-2/3", 3, -4, -5, -6)
    def test_same_point_as_the_fractions(self, a, b, xn, xd, yn, yd):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert _parse_pair([a, b], "x") == tri(F(a), F(b))
            assert triple_from_terms(xn, xd, yn, yd) == tri(F(xn, xd), F(yn, yd))
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("index", [0, 1])
    @pytest.mark.parametrize("bad, reason", [
        (5, "expected an exact rational string like '2/3', got 5"),
        ("0.5", "expected an exact rational string like '2/3', got '0.5'"),
        ("3/-4", "expected an exact rational string like '2/3', got '3/-4'"),
        ("1/0", "zero denominator"),
        ("3\n", "expected an exact rational string like '2/3', got '3\\n'"),
        ("1/2\n", "expected an exact rational string like '2/3', got '1/2\\n'"),
        # digits of other scripts would be written back in ASCII
        ("\u0661", "expected an exact rational string like '2/3', got '\u0661'"),
        ("\uff13/4", "expected an exact rational string like '2/3', got '\uff13/4'"),
    ])
    def test_error_text(self, bad, reason, index):
        doc = json.loads(MIDPOINT_DOC)
        doc["vertices"]["A"][index] = bad
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(json.dumps(doc))
        assert str(err.value) == f"<instance>: vertices.A[{index}]: {reason}"


class TestParseInstance:
    def test_midpoint_document(self):
        inst = parse_instance(MIDPOINT_DOC)
        assert inst.sides == side_ratios(1, 1, 1, 1)
        assert inst.checks == ()
        cfg = inst.configuration()
        assert points(cfg)["E"] == tri(F(1, 2), F(1, 2))

    def test_points_variant(self):
        doc = {
            "vertices": {"A": ["0", "0"], "B": ["1", "0"], "C": ["1", "1"], "D": ["0", "1"]},
            "points": {"M": ["2/3", "0"], "N": ["1", "1/2"], "P": ["2/3", "1"], "Q": ["0", "1/2"]},
        }
        inst = parse_instance(json.dumps(doc))
        cfg = inst.configuration()
        assert cfg.ratios.m == (2, 1)

    def test_syntax_error_carries_line_and_column(self):
        with pytest.raises(InstanceFormatError, match=r"line \d+, column \d+"):
            parse_instance("{\n  oops\n}")

    def test_decimal_rejected(self):
        bad = MIDPOINT_DOC.replace('"1", "0"', '"1.0", "0"', 1)
        with pytest.raises(InstanceFormatError, match="exact rational"):
            parse_instance(bad)

    def test_both_side_specs_rejected(self):
        doc = json.loads(MIDPOINT_DOC)
        doc["points"] = {"M": ["1/2", "0"], "N": ["1", "1/2"], "P": ["1/2", "1"], "Q": ["0", "1/2"]}
        with pytest.raises(InstanceFormatError, match="exactly one"):
            parse_instance(json.dumps(doc))

    def test_neither_side_spec_rejected(self):
        doc = json.loads(MIDPOINT_DOC)
        del doc["ratios"]
        with pytest.raises(InstanceFormatError, match="exactly one"):
            parse_instance(json.dumps(doc))

    def test_an_instance_holds_one_side_description(self):
        # the ratios or the side points, in one field: no instance holds
        # both or neither, which no file could spell
        assert InstanceFile._fields == ("vertices", "sides", "checks")

    def test_unknown_claim_rejected(self):
        doc = json.loads(MIDPOINT_DOC)
        doc["checks"] = ["seven_lines", "bogus"]
        with pytest.raises(InstanceFormatError, match="bogus"):
            parse_instance(json.dumps(doc))

    def test_value_past_the_digit_limit_is_a_format_error(self):
        # cli.main lifts the interpreter's limit on integer text for the rest
        # of the process, so the test sets the default limit itself
        wide = "7" * 5000
        vertex_doc = json.loads(MIDPOINT_DOC)
        vertex_doc["vertices"]["A"][0] = wide
        ratio_doc = json.loads(MIDPOINT_DOC)
        ratio_doc["ratios"]["m"] = wide
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for where, doc in (("vertices.A[0]", vertex_doc), ("ratios.m", ratio_doc)):
                with pytest.raises(InstanceFormatError) as err:
                    parse_instance(json.dumps(doc))
                assert str(err.value).startswith(
                    f"<instance>: {where}: Exceeds the limit (4300 digits)")
        finally:
            sys.set_int_max_str_digits(limit)

    def test_missing_vertex_rejected(self):
        doc = json.loads(MIDPOINT_DOC)
        del doc["vertices"]["D"]
        with pytest.raises(InstanceFormatError, match="vertices"):
            parse_instance(json.dumps(doc))


class TestRoundTrip:
    def test_serialize_parse_round_trip(self):
        inst = parse_instance(MIDPOINT_DOC)
        again = parse_instance(serialize_instance(inst))
        assert again == inst

    def test_round_trip_is_byte_stable(self):
        inst = parse_instance(MIDPOINT_DOC)
        text = serialize_instance(inst)
        assert serialize_instance(parse_instance(text)) == text

    def test_huge_rationals_survive(self):
        big_num = 10**50 + 7
        big_den = 10**50 - 33
        value = F(big_num, big_den)
        doc = json.loads(MIDPOINT_DOC)
        doc["vertices"]["A"] = [str(value), "0"]
        inst = parse_instance(json.dumps(doc))
        assert affine(inst.vertices[0])[0] == value
        again = parse_instance(serialize_instance(inst))
        assert affine(again.vertices[0])[0] == value

    def test_from_parts(self, unit_square):
        inst = instance_from_parts(unit_square, side_ratios(1, 2, 3, 4))
        again = parse_instance(serialize_instance(inst))
        assert again.sides == side_ratios(1, 2, 3, 4)
        assert tuple(again.vertices) == unit_square.vertices


def _instances_of_every_kind():
    """Generated instances of the gamma1, general, concave, crossed and
    ``any`` streams at bounds 10 and 10**30, each given by its ratios and,
    when it builds, by its side points."""
    for shape, force in (("convex", True), ("convex", False), ("concave", True),
                         ("concave", False), ("crossed", True), ("crossed", False),
                         ("any", True), ("any", False)):
        for bound, ratio_bound in ((10, 8), (10**30, 10**30)):
            spec = GenSpec(seed=42, shape=shape, coordinate_bound=bound,
                           ratio_bound=ratio_bound, force_gamma_one=force)
            for index in range(3):
                quad, ratios = gen_quadrilateral(spec, index), gen_ratios(spec, index)
                yield instance_from_parts(quad, ratios)
                try:
                    cfg = build_from_ratios(quad, ratios)
                except UndefinedPoint:
                    continue
                yield InstanceFile(quad.vertices, cfg.triples[4:8], ())


class TestInstanceText:
    """``instance_text`` is the one writer of the instance layout, and
    ``instance_document`` its parse; the independent parser and the
    standard library's encoder are its oracles."""

    def test_parses_back_and_is_the_compact_json_of_its_tree(self):
        kinds = set()
        for inst in _instances_of_every_kind():
            kinds.add(isinstance(inst.sides, SideRatios))
            for checks in ((), ("seven_lines",), ("section_ratios", "seven_lines",
                                                  "section_ratios")):
                inst = inst._replace(checks=checks)
                text = instance_text(inst)
                assert len(json.loads(text).keys() & {"points", "ratios"}) == 1
                assert parse_instance(text + "\n") == inst
                assert render(json.loads(text), compact=True) == text + "\n"
        assert kinds == {True, False}

    @pytest.mark.parametrize("checks", ['"all"', "[]", '["all"]'])
    def test_every_claim_is_written_as_all(self, checks):
        inst = parse_instance(MIDPOINT_DOC.replace('"all"', checks))
        assert inst.checks == ()
        assert instance_text(inst) == (
            '{"checks":"all","ratios":{"m":"1","n":"1","p":"1","q":"1"},"vertices":'
            '{"A":["0","0"],"B":["1","0"],"C":["1","1"],"D":["0","1"]}}')


# strings with every kind of character an escaper treats specially:
# non-ASCII, astral, quote, backslash, controls, lone surrogates and the
# JavaScript line separators
_TEXT = st.text(st.one_of(
    st.characters(),
    st.sampled_from('"\\/\x00\x08\n\x1f\x7f\u00e9\u2028\u2029\ud800\U0001f600'),
))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(10**40), 10**40), _TEXT)
_VALUES = st.recursive(_SCALARS, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(_TEXT, kids, max_size=4),
), max_leaves=24)


class TestRender:
    @given(st.dictionaries(_TEXT, _VALUES, max_size=5))
    @example({})
    @example({"a": [], "b": {}, "c": ((), [{}])})
    def test_same_bytes_as_json_dumps(self, doc):
        assert render(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert render(doc, compact=True) == json.dumps(
            doc, sort_keys=True, separators=(",", ":")) + "\n"

    def test_per_instance_writers_never_reach_the_python_encoder(self, monkeypatch):
        """``json.dumps`` with an indent leaves the C encoder for
        ``json.encoder._make_iterencode``.  ``render`` may take it for the
        documents written once per command; the per-instance writers may
        not: ``report_line`` on built and degenerate instances of each
        regime, and ``report_text`` given its instance text rendered
        beforehand.  Each writes the bytes of the oracle's report tree."""
        cases, failed_builds = [], 0
        for regime, shape, force in (("gamma1", "convex", True), ("general", "convex", False),
                                     ("remarks", "crossed", True), ("remarks", "crossed", False)):
            spec = GenSpec(seed=1, shape=shape, force_gamma_one=force)
            for index in range(3):
                quad, ratios = gen_quadrilateral(spec, index), gen_ratios(spec, index)
                inst = instance_from_parts(quad, ratios)
                meta = {"seed": "1", "index": index, "regime": regime}
                try:
                    cfg = build_from_ratios(quad, ratios)
                    cases.append((meta, verify_all(cfg), cfg, inst))
                    reason = "UndefinedPoint: a degenerate report of a built instance"
                except UndefinedPoint as exc:
                    failed_builds += 1
                    reason = f"UndefinedPoint: {exc}"
                cases.append((meta, degenerate_verdicts(CLAIM_IDS, reason), None, inst))
        assert failed_builds  # remarks, product one, index 1
        expected = [(render(report_tree(meta, verdicts, cfg, inst), compact=True),
                     render(report_tree(meta, verdicts, cfg, inst)),
                     render(instance_document(inst))) for meta, verdicts, cfg, inst in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("pure-Python JSON encoder called")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        for (meta, verdicts, cfg, inst), (line, text, instance_text) in zip(cases, expected):
            assert report_line(meta, verdicts, cfg, inst) == line
            assert report_text(meta, verdicts, cfg, instance_text) == text
