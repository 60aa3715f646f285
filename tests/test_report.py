"""The report writer against the tests' own oracle: every ``report_line``
must be byte for byte the compact JSON of ``rationals.report_tree``, and
every ``report_text`` its pretty JSON.  The oracle writes each exact value
and point from ``Fraction``s, with none of the kernel's text functions, so
it checks the writer's values as well as its layout."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadconc import build_from_ratios, report
from quadconc.errors import UndefinedPoint
from quadconc.generators import GenSpec, gen_quadrilateral, gen_ratios
from quadconc.instancefile import InstanceFile, instance_document, instance_from_parts, render
from quadconc.report import degenerate_report, degenerate_verdicts, report_line, report_text
from quadconc.verifiers import (CLAIM_IDS, DEGENERATE, FAIL, PASS, SKIPPED, Verdict,
                                select_claims, verify_all)
from rationals import report_tree, tri
from test_golden import corruptions
from test_verifiers import with_points

BOUNDS = ((4, 2), (10, 8), (10**3, 10**3), (10**30, 10**30))


def pretty_text(meta, verdicts, cfg, inst):
    """``report_text`` as ``verify`` calls it, with the instance file's text."""
    return report_text(meta, verdicts, cfg, render(instance_document(inst)))


def written(meta, verdicts, cfg, inst):
    """The line, after checking both layouts against the oracle."""
    doc = report_tree(meta, verdicts, cfg, inst)
    assert pretty_text(meta, verdicts, cfg, inst) == render(doc)
    line = report_line(meta, verdicts, cfg, inst)
    assert line == render(doc, compact=True)
    return line


@pytest.mark.parametrize("shape", ["convex", "concave", "crossed", "any"])
def test_report_line_is_the_compact_tree(shape):
    """Both layouts against the oracle (``written``): both regimes at each
    of ``BOUNDS``, indices 0-5, and under each of
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
                    written(meta, verdicts, None, inst)
                    continue
                configs = [cfg]
                if index < 2:
                    configs += [with_points(cfg, **{name: t}) for name, _, t in corruptions(cfg)]
                for built in configs:
                    verdicts = verify_all(built)
                    line = written(meta, verdicts, built, inst)
                    statuses.update(v.status for v in verdicts)
                    ideal_witnesses += '"0"]' in line
    assert statuses == {PASS, FAIL, DEGENERATE, SKIPPED}
    assert ideal_witnesses


SQUARE = (tri(0, 0), tri(1, 0), tri(1, 1), tri(0, 1))


@pytest.mark.parametrize("inst", [
    InstanceFile(vertices=SQUARE, checks=("seven_lines", "ratio_product"),
                 sides=(tri(1, 1), tri(2, 1), tri(1, 1), tri(0, 1, 0))),
    instance_from_parts(gen_quadrilateral(GenSpec(seed=3), 0), gen_ratios(GenSpec(seed=3), 0)),
], ids=["points", "ratios"])
@pytest.mark.parametrize("claims", [CLAIM_IDS, ("seven_lines",), ()], ids=len)
def test_degenerate_report_line_is_the_compact_tree(inst, claims):
    # cfg=None, as ``fuzz`` and ``verify`` write an instance that does not
    # build; the meta holds a non-ASCII string, which json escapes, and an int
    meta = {"source": "données/ångström ☃ \"q\".json", "index": 10**20, "z": ""}
    reason = "UndefinedPoint: point N1 is undefined: é"
    verdicts = degenerate_verdicts(claims, reason)
    line = written(meta, verdicts, None, inst)
    assert line.isascii() and line.endswith("}\n") and line.count("\n") == 1
    text = pretty_text({"source": meta["source"]}, verdicts, None, inst)
    tree = report_tree({"source": meta["source"]}, verdicts, None, inst)
    assert text == render(tree)
    assert degenerate_report({"source": meta["source"]}, claims, reason, instance=inst) == tree
    assert text.isascii() and ("\n  ]" in text) == bool(claims)


@pytest.mark.parametrize("claims", [None, ("seven_lines",),
                                    ("ratio_product", "crossing_ratios", "section_ratios")],
                         ids=["all", "one", "three"])
@pytest.mark.parametrize("seed", [3, 42])
def test_points_instances_and_check_subsets_are_the_tree(seed, claims):
    # a file of side points, as ``verify`` reads it, run on the claims a
    # ``--check`` selects, under a non-ASCII source; and the unit square
    # with its midpoints, where R is ideal and F1, G1, F2 and G2 coincide,
    # so the configuration carries four flags
    for force in (True, False):
        cfg = build_from_ratios(gen_quadrilateral(GenSpec(seed=seed, force_gamma_one=force), 0),
                                gen_ratios(GenSpec(seed=seed, force_gamma_one=force), 0))
        for inst in (
            InstanceFile(vertices=cfg.quad.vertices, sides=cfg.triples[4:8], checks=claims or ()),
            InstanceFile(vertices=SQUARE, checks=claims or (),
                         sides=(tri(1, 0, 2), tri(2, 1, 2), tri(1, 2, 2), tri(0, 1, 2))),
        ):
            built = inst.configuration()
            verdicts = verify_all(built, select_claims(claims))
            assert [v.claim_id for v in verdicts] == list(select_claims(claims))
            written({"source": "données/☃.json"}, verdicts, built, inst)


def test_report_line_sorts_what_the_tree_sorts_and_keys_texts_by_point():
    # witnesses and exact values inserted out of order, one name on two
    # different points and one point under two names, and many flags
    spec = GenSpec(seed=42)
    quad, ratios = gen_quadrilateral(spec, 0), gen_ratios(spec, 0)
    cfg = build_from_ratios(quad, ratios)
    cfg = cfg._replace(degeneracies=frozenset({"Z9", "A1_IDEAL", "F1_EQ_F2", "M_X", "B"}))
    e, ideal = tri(1, 2), tri(-3, 2, 0)
    verdicts = [
        Verdict("seven_lines", FAIL, detail="E misses \u00e9",
                witness={"Q1": e, "E": ideal, "M1": e},
                exact_values={"z": (2, 4), "FE_over_EG": (3, -1), "A": (0, 1)}),
        Verdict("crossing_ratios", PASS, witness={"E": e}),
    ]
    inst = instance_from_parts(quad, ratios)
    written({"b": "x", "a": 1}, verdicts, cfg, inst)


@pytest.mark.parametrize("value", [1.5, True, None, ["x"]])
def test_report_line_writes_only_str_and_int_meta(value):
    inst = instance_from_parts(gen_quadrilateral(GenSpec(), 0), gen_ratios(GenSpec(), 0))
    with pytest.raises(TypeError):
        report_line({"x": value}, [], None, inst)
    with pytest.raises(TypeError):
        pretty_text({"x": value}, [], None, inst)


# strings that JSON escapes: quotes, backslashes, control characters,
# non-ASCII and astral characters, next to plain ones and to "%", which
# the shape formats double, so "%s" and "%%" can occur
_ESCAPED = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\u2603\U0001d11eaA_%s'),
                   max_size=6)
_WITNESSES = st.sampled_from([tri(1, 2), tri(-3, 2, 0), tri(1, -2, 3), tri(0, 0),
                              tri(10**20, 7, 3)])
# exact values: the yes/no flags, zero, denominators of either sign and
# integers up to 10**30
_VALUES = st.one_of(st.sampled_from([(1, 1), (0, 1), (0, -5), (10**30, -1), (-4, -10**30)]),
                    st.tuples(st.integers(-10**30, 10**30),
                              st.integers(-10**30, 10**30).filter(bool)))
_VERDICTS = st.lists(st.builds(Verdict, _ESCAPED, _ESCAPED, _ESCAPED,
                               st.dictionaries(_ESCAPED, _WITNESSES, max_size=3),
                               st.dictionaries(_ESCAPED, _VALUES, max_size=3)), max_size=4)
_BUILT = build_from_ratios(gen_quadrilateral(GenSpec(seed=42), 0), gen_ratios(GenSpec(seed=42), 0))


@settings(max_examples=150)
@given(_VERDICTS, st.frozensets(_ESCAPED, max_size=3), _ESCAPED,
       st.lists(_ESCAPED, max_size=3), st.dictionaries(_ESCAPED, _ESCAPED, max_size=2))
def test_fixed_strings_escape_once_and_read_back_the_same(verdicts, flags, shape, checks, meta):
    # meta keys, claim ids, statuses, value keys and witness names are
    # escaped into the format of their shape, which the first report
    # compiles and the second reads back from the cache; flags, the shape,
    # checks and meta values are escaped on each use; both are the tree's
    # bytes
    cfg = _BUILT._replace(quad=_BUILT.quad._replace(shape=shape), degeneracies=flags)
    inst = instance_from_parts(cfg.quad, cfg.ratios, checks=tuple(checks))
    for built in (cfg, None):
        written(meta, verdicts, built, inst)
        written(meta, verdicts, built, inst)


@pytest.mark.parametrize("meta", [
    {"seed": "42", "index": 7, "regime": "general"},
    {},
    {"%s": "%%", "k%": 10**20, "\u00e9\"\\\n\u2603": "%s", "%%": ""},
], ids=["fuzz", "empty", "escaped"])
def test_meta_keys_in_any_order_compile_into_the_format(meta):
    # the meta keys, in the order given, are part of the shape, and its
    # format holds them escaped and sorted: each insertion order compiles
    # its own format, read back on the second report, and every one
    # writes the tree's bytes, the same for every order
    inst = instance_from_parts(_BUILT.quad, _BUILT.ratios)
    for cfg, verdicts in ((_BUILT, verify_all(_BUILT)),
                          (None, degenerate_verdicts(CLAIM_IDS, "UndefinedPoint: %s"))):
        lines = set()
        for order in itertools.permutations(meta):
            ordered = {key: meta[key] for key in order}
            lines.add(written(ordered, verdicts, cfg, inst))
            lines.add(written(ordered, verdicts, cfg, inst))
        assert len(lines) == 1


def test_a_full_shape_cache_stores_no_more(monkeypatch):
    # past _SHAPES_MAX formats a new shape is compiled on each use and not
    # stored, so the cache stays bounded and the bytes do not change; shapes
    # that differ only in their meta keys, or in their order, are distinct
    monkeypatch.setattr(report, "_shapes", {})
    monkeypatch.setattr(report, "_SHAPES_MAX", 2)
    inst = instance_from_parts(_BUILT.quad, _BUILT.ratios)
    shapes = [[Verdict("seven_lines", PASS, "%s", {"E": tri(1, 2)})],
              [Verdict("seven_lines", FAIL, "%%", exact_values={"k%s": (1, 2)})],
              [Verdict("a%", SKIPPED), Verdict("b", PASS, "x")],
              []]
    metas = [{"a": 1}, {"b": "x", "a": 1}, {"a": 1, "b": "x"}, {}]
    for _ in range(2):
        for verdicts in shapes:
            written({"m%s": "%%"}, verdicts, _BUILT, inst)
        for meta in metas:
            written(meta, shapes[0], _BUILT, inst)
    assert len(report._shapes) == 2


def test_report_line_writes_each_exact_value_with_one_call(monkeypatch):
    # the verifiers write no text: each exact value is a pair, and
    # report_line writes each distinct pair of the line with one
    # rational_text call, on a passing general instance and on a copy with
    # a wrong gamma, where the product, the weighted form and the
    # trace-ratio form mismatch
    calls = []
    text = report.rational_text
    monkeypatch.setattr(report, "rational_text", lambda *a: calls.append(a) or text(*a))
    spec = GenSpec(seed=42)
    quad, ratios = gen_quadrilateral(spec, 0), gen_ratios(spec, 0)
    cfg = build_from_ratios(quad, ratios)
    G, H = cfg.ratios.gamma
    wrong = cfg._replace(ratios=cfg.ratios._replace(gamma=(G + H, H)))
    inst = instance_from_parts(quad, ratios)
    for built, statuses in ((cfg, {PASS, SKIPPED}), (wrong, {PASS, SKIPPED, FAIL})):
        verdicts = verify_all(built)
        assert {v.status for v in verdicts} == statuses
        assert sum(len(v.exact_values) for v in verdicts) == 23
        distinct = {value for v in verdicts for value in v.exact_values.values()}
        assert len(distinct) < 23
        calls.clear()
        line = report_line({}, verdicts, built, inst)
        assert sorted(calls) == sorted(distinct)
        calls.clear()
        pretty_text({}, verdicts, built, inst)
        assert sorted(calls) == sorted(distinct)
        assert line == render(report_tree({}, verdicts, built, inst), compact=True)
