import io
import json
import sys

import pytest

from quadconc import Point, build_from_ratios, cli, generators, verifiers
from quadconc.cli import main
from quadconc.configuration import FULL_PLAN
from quadconc.errors import DegenerateQuadrilateral, InstanceFormatError, UndefinedPoint
from quadconc.generators import GenSpec, gen_quadrilateral, gen_ratios
from quadconc.instancefile import (InstanceFile, instance_from_parts, load_instance,
                                   parse_rational, render, serialize_instance)
from quadconc.report import degenerate_verdicts
from rationals import frac, pt, report_tree

MIDPOINT = {
    "vertices": {"A": ["0", "0"], "B": ["1", "0"], "C": ["1", "1"], "D": ["0", "1"]},
    "ratios": {"m": "1", "n": "1", "p": "1", "q": "1"},
    "checks": "all",
}

GAMMA_TWO = {
    "vertices": {"A": ["0", "0"], "B": ["1", "0"], "C": ["1", "1"], "D": ["0", "1"]},
    "ratios": {"m": "1", "n": "1", "p": "1", "q": "2"},
    "checks": "all",
}


# instances whose configuration cannot be built: ``verify`` and ``figure``
# both report them as degenerate, with the reason below
DEGENERATE_INSTANCES = [
    ({"vertices": {"A": ["0", "0"], "B": ["0", "0"], "C": ["1", "1"], "D": ["0", "1"]},
      "ratios": {"m": "1", "n": "1", "p": "1", "q": "1"}},
     "DegenerateQuadrilateral: cannot build on a degenerate quadrilateral"),
    ({"vertices": {"A": ["0", "0"], "B": ["1", "0"], "C": ["2", "0"], "D": ["0", "1"]},
      "ratios": {"m": "1", "n": "1", "p": "1", "q": "1"}},
     "DegenerateQuadrilateral: "),
    # M and P on the crossing point of the sides: lines AA1 and BB1 coincide
    ({"vertices": {"A": ["0", "0"], "B": ["2", "2"], "C": ["2", "0"], "D": ["0", "2"]},
      "points": {"M": ["1", "1"], "N": ["2", "1"], "P": ["1", "1"], "Q": ["0", "1"]}},
     "UndefinedPoint: point N1 "),
]


def write_instance(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def last_json(text):
    # the summary document is the last indented JSON object in the stream
    idx = text.rindex("\n{\n")
    return json.loads(text[idx:])


def recount(text):
    """The ``claims`` tallies of a ``fuzz`` stream, recounted from the
    statuses of its report lines that have a ``configuration`` block."""
    tallies = {claim: {"pass": 0, "fail": 0, "degenerate": 0, "skipped": 0}
               for claim in verifiers.CLAIM_IDS}
    for line in text[:text.rindex("\n{\n") + 1].splitlines():
        doc = json.loads(line)
        for v in doc["verdicts"] if "configuration" in doc else ():
            tallies[v["claim"]][v["status"]] += 1
    return tallies


class TestVerify:
    def test_midpoint_instance_exits_zero(self, tmp_path):
        path = write_instance(tmp_path, MIDPOINT)
        code, out = run(["verify", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["overall"] in ("pass", "degenerate")
        statuses = {v["claim"]: v["status"] for v in doc["verdicts"]}
        assert statuses["crossing_ratios"] == "pass"
        assert statuses["diagonal_collinearity"] == "pass"

    def test_regime_skip_is_not_a_failure(self, tmp_path):
        path = write_instance(tmp_path, GAMMA_TWO)
        code, out = run(["verify", path, "--check", "seven_lines"])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"][0]["status"] == "skipped"

    def test_gamma_two_reference_values(self, tmp_path):
        path = write_instance(tmp_path, GAMMA_TWO)
        code, out = run(["verify", path, "--check", "crossing_ratio_formula"])
        assert code == 0
        doc = json.loads(out)
        values = doc["verdicts"][0]["exact_values"]
        assert values["r"] == "2/3"
        assert values["ME_over_EP"] == "5/7"

    def test_malformed_decimal_exits_two(self, tmp_path):
        bad = json.loads(json.dumps(MIDPOINT))
        bad["ratios"]["m"] = "0.5"
        path = write_instance(tmp_path, bad)
        code, _ = run(["verify", path])
        assert code == 2

    def test_missing_file_exits_two(self):
        code, _ = run(["verify", "/nonexistent/instance.json"])
        assert code == 2

    def test_degenerate_quad_reports_degenerate_verdicts(self, tmp_path):
        doc = json.loads(json.dumps(MIDPOINT))
        doc["vertices"]["C"] = ["2", "0"]  # collinear with A and B
        path = write_instance(tmp_path, doc)
        code, out = run(["verify", path])
        assert code == 0
        report = json.loads(out)
        assert report["overall"] == "degenerate"
        assert all(v["status"] == "degenerate" for v in report["verdicts"])
        assert all("DegenerateQuadrilateral" in v["detail"] for v in report["verdicts"])

    def test_failing_claim_exits_one(self, tmp_path):
        # a crossed quadrilateral whose inner quadrilateral is crossed:
        # the convexity claim honestly fails there
        doc = {
            "vertices": {"A": ["0", "0"], "B": ["1", "1"], "C": ["1", "0"], "D": ["0", "1"]},
            "ratios": {"m": "1/2", "n": "1/2", "p": "1/2", "q": "1/3"},
            "checks": ["inner_quadrilateral_convexity"],
        }
        path = write_instance(tmp_path, doc)
        code, out = run(["verify", path])
        assert code == 1
        assert json.loads(out)["overall"] == "fail"

    @pytest.mark.parametrize("command", ["verify", "figure"])
    @pytest.mark.parametrize("key, value, reason", [
        *[("ratios.m", ratio, "ratios.m: must be positive") for ratio in ("0", "-1")],
        *[(key, pair, f"{key}: expected a coordinate pair")
          for key in ("vertices.B", "points.N") for pair in ("x", ["1"], ["1", "2", "3"])],
        *[("checks", checks, "'checks' must be \"all\" or a list of claim ids")
          for checks in (5, "some", [1])],
    ])
    def test_invalid_value_exits_two(self, tmp_path, capsys, command, key, value, reason):
        doc = json.loads(json.dumps(MIDPOINT))
        if key.startswith("points"):
            del doc["ratios"]
            doc["points"] = {"M": ["1/2", "0"], "N": ["1", "1/2"], "P": ["1/2", "1"],
                             "Q": ["0", "1/2"]}
        *parents, name = key.split(".")
        target = doc
        for parent in parents:
            target = target[parent]
        target[name] = value
        path = write_instance(tmp_path, doc)
        svg = tmp_path / "x.svg"
        argv = [command, path] + (["-o", str(svg)] if command == "figure" else [])
        code, out = run(argv)
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"
        assert not svg.exists()


@pytest.mark.parametrize("command", ["verify", "figure"])
@pytest.mark.parametrize("data", [b"\xff\xfe{}", b"[" * 100000],
                         ids=["not_utf8", "nested_too_deeply"])
def test_unreadable_instance_exits_two(tmp_path, capsys, command, data):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    argv = [command, str(path)] + (["-o", str(tmp_path / "x.svg")] if command == "figure" else [])
    code, out = run(argv)
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert "Traceback" not in err


# exact values longer than the 4,300 digits Python converts between int and
# str by default
WIDE = 10 ** 1500


def all_strings(tree):
    if isinstance(tree, str):
        yield tree
    elif isinstance(tree, dict):
        for value in tree.values():
            yield from all_strings(value)
    elif isinstance(tree, list):
        for value in tree:
            yield from all_strings(value)


class TestWideValues:
    def test_wide_instance_verifies_and_its_report_parses_back(self, tmp_path):
        doc = {
            "vertices": {"A": ["0", "0"], "B": [str(WIDE + 7), "1"],
                         "C": [str(WIDE + 3), str(WIDE)], "D": ["1", f"{WIDE}/3"]},
            "ratios": {"m": "1", "n": "2", "p": "1/3", "q": "3/2"},
        }
        code, out = run(["verify", write_instance(tmp_path, doc)])
        assert code == 0
        report = json.loads(out)
        assert report["overall"] == "pass"
        values = [s for s in all_strings({k: report[k] for k in ("configuration", "verdicts")})
                  if s[:1].isdigit() or s[:1] == "-"]
        assert max(map(len, values)) > 4300
        # every rational of the report reads back as the same exact value;
        # ``main`` lifts Python's digit limit only while it runs, so the
        # test lifts it around its own conversions
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            for text in values:
                assert str(frac(parse_rational(text, "report"))) == text
        finally:
            sys.set_int_max_str_digits(limit)
        assert report["configuration"]["gamma"] == "1"

    @pytest.mark.parametrize("argv, exit_code", [
        (["fuzz", "--seed", "1", "--count", "1", "--regime", "general"], 0),
        (["fuzz", "--seed", "-1", "--count", "1", "--regime", "general"], 2),
        (["fuzz", "--no-such-flag"], SystemExit),
    ])
    def test_main_restores_the_digit_limit(self, argv, exit_code):
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            if exit_code is SystemExit:
                with pytest.raises(SystemExit):
                    run(argv)
            else:
                assert run(argv)[0] == exit_code
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(limit)

    def test_main_runs_where_python_has_no_digit_limit(self, monkeypatch):
        # Python before 3.10.7 has neither function; main then lifts nothing
        argv = ["fuzz", "--regime", "gamma1", "--seed", "42", "--count", "5"]
        with_limit = run(argv)
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        monkeypatch.delattr(sys, "set_int_max_str_digits")
        assert run(argv) == with_limit
        assert with_limit[0] == 0

    def test_wide_bound_campaign_runs(self):
        code, out = run(["fuzz", "--seed", "1", "--count", "2", "--regime", "general",
                         "--bound", str(WIDE)])
        assert code == 0
        assert last_json(out)["coordinate_bound"] == WIDE


@pytest.mark.parametrize("doc, reason", DEGENERATE_INSTANCES,
                         ids=["repeated_vertices", "collinear_vertices", "undefined_N1"])
class TestDegenerateInstance:
    def test_verify_reports_degenerate(self, tmp_path, doc, reason):
        code, out = run(["verify", write_instance(tmp_path, doc)])
        assert code == 0
        report = json.loads(out)
        assert report["overall"] == "degenerate"
        assert all(v["detail"].startswith(reason) for v in report["verdicts"])

    def test_verify_lists_selected_claims_once_in_table_order(self, tmp_path, doc, reason):
        # the listing a built instance gets, from the file's checks or --check
        checks = ["section_ratios", "seven_lines", "section_ratios"]
        for base in (doc, MIDPOINT):
            path = write_instance(tmp_path, {**base, "checks": checks})
            for argv in (["verify", path], ["verify", path, "--check", ",".join(checks)]):
                _, out = run(argv)
                claims = [v["claim"] for v in json.loads(out)["verdicts"]]
                assert claims == ["seven_lines", "section_ratios"], (base, argv)

    def test_figure_reports_degenerate(self, tmp_path, capsys, doc, reason):
        svg = tmp_path / "x.svg"
        code, out = run(["figure", write_instance(tmp_path, doc), "-o", str(svg)])
        err = capsys.readouterr().err
        assert (code, out) == (0, "")
        assert err.startswith("degenerate: " + reason)
        assert not svg.exists()

    def test_figure_unknown_layer_exits_two(self, tmp_path, capsys, doc, reason):
        # layer names are checked before the build, as verify checks --check ids
        svg = tmp_path / "x.svg"
        code, out = run(["figure", write_instance(tmp_path, doc), "-o", str(svg),
                         "--layers", "nope"])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: unknown layers: nope\n"
        assert not svg.exists()


def tree_oracle(path, check=None):
    """``verify``'s exit code and stdout, made from the oracle's report tree."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        inst = load_instance(path)
        claims = verifiers.select_claims(check or inst.checks or None)
        meta = {"source": path}
        try:
            cfg = inst.configuration()
        except (DegenerateQuadrilateral, UndefinedPoint) as exc:
            verdicts = degenerate_verdicts(claims, f"{type(exc).__name__}: {exc}")
            doc = report_tree(meta, verdicts, None, inst)
        else:
            doc = report_tree(meta, verifiers.verify_all(cfg, claims), cfg, inst)
        return (1 if doc["overall"] == "fail" else 0), render(doc)
    finally:
        sys.set_int_max_str_digits(limit)


def generated_files(tmp_path, spec, count=3):
    paths = []
    for index in range(count):
        inst = instance_from_parts(gen_quadrilateral(spec, index), gen_ratios(spec, index))
        path = tmp_path / f"{spec.shape}-{spec.force_gamma_one}-{index}.json"
        path.write_text(serialize_instance(inst), encoding="utf-8")
        paths.append(str(path))
    return paths


def points_files(tmp_path):
    # side points in place of ratios, one file with a checks list
    paths = []
    for seed, checks in ((3, ()), (42, ("seven_lines", "ratio_product"))):
        spec = GenSpec(seed=seed)
        cfg = build_from_ratios(gen_quadrilateral(spec, 0), gen_ratios(spec, 0))
        inst = InstanceFile(vertices=cfg.quad.vertices, sides=cfg.triples[4:8], checks=checks)
        path = tmp_path / f"points-{seed}.json"
        path.write_text(serialize_instance(inst), encoding="utf-8")
        paths.append(str(path))
    return paths


VERIFY_FILES = {
    "gamma1": lambda tmp: generated_files(tmp, GenSpec(seed=42, force_gamma_one=True)),
    "general": lambda tmp: generated_files(tmp, GenSpec(seed=42)),
    "crossed": lambda tmp: generated_files(tmp, GenSpec(seed=42, shape="crossed")),
    "points": points_files,
    "degenerate": lambda tmp: [write_instance(tmp, doc, f"degenerate-{i}.json")
                               for i, (doc, _) in enumerate(DEGENERATE_INSTANCES)],
    "wide": lambda tmp: [write_instance(tmp, {
        "vertices": {"A": ["0", "0"], "B": [str(WIDE + 7), "1"],
                     "C": [str(WIDE + 3), str(WIDE)], "D": ["1", f"{WIDE}/3"]},
        "ratios": {"m": "1", "n": "2", "p": "1/3", "q": "3/2"}}, "wide.json")],
    "failing": lambda tmp: [write_instance(tmp, {
        "vertices": {"A": ["0", "0"], "B": ["1", "1"], "C": ["1", "0"], "D": ["0", "1"]},
        "ratios": {"m": "1/2", "n": "1/2", "p": "1/2", "q": "1/3"},
        "checks": ["inner_quadrilateral_convexity"]}, "failing.json")],
}


class TestVerifyReport:
    @pytest.mark.parametrize("kind", list(VERIFY_FILES))
    def test_stdout_and_exit_code_are_the_tree(self, tmp_path, kind):
        # every file as it is, and under a --check subset; the failing file
        # and crossed ones, where a convexity finding fails, exit 1
        codes = set()
        for path in VERIFY_FILES[kind](tmp_path):
            for check in (None, ["seven_lines,crossing_ratios", "inner_quadrilateral"]):
                argv = ["verify", path] + [a for c in check or () for a in ("--check", c)]
                expected = tree_oracle(path, check and ["seven_lines", "crossing_ratios",
                                                        "inner_quadrilateral"])
                assert run(argv) == expected, argv
                codes.add(expected[0])
        assert codes == ({0, 1} if kind in ("crossed", "failing") else {0})

    def test_check_does_not_narrow_the_build(self, tmp_path):
        # the configuration block is the full build's under any --check: these
        # files have flags on rows the quadruple claim does not read, and r != 1
        for shape, index in (("concave", 15), ("crossed", 0), ("crossed", 54)):
            spec = GenSpec(seed=42, shape=shape, coordinate_bound=4, ratio_bound=2,
                           force_gamma_one=True)
            inst = instance_from_parts(gen_quadrilateral(spec, index), gen_ratios(spec, index))
            path = tmp_path / f"{shape}-{index}.json"
            path.write_text(serialize_instance(inst), encoding="utf-8")
            full = json.loads(run(["verify", str(path)])[1])["configuration"]
            assert full["degeneracies"] and full["r"] != "1"
            checked = run(["verify", str(path), "--check", "quadruple_concurrences"])[1]
            assert json.loads(checked)["configuration"] == full

    @pytest.mark.parametrize("checks, written, claims", [
        ([], "all", verifiers.CLAIM_IDS),
        (["all"], "all", verifiers.CLAIM_IDS),
        # a list is written back as given; its claims run once each, in table order
        (["seven_lines", "crossing_ratios", "seven_lines"],
         ["seven_lines", "crossing_ratios", "seven_lines"], ("seven_lines", "crossing_ratios")),
    ])
    def test_checks_forms_are_written_back(self, tmp_path, checks, written, claims):
        code, out = run(["verify", write_instance(tmp_path, {**MIDPOINT, "checks": checks})])
        report = json.loads(out)
        assert code == 0 and report["instance"]["checks"] == written
        assert tuple(v["claim"] for v in report["verdicts"]) == claims

    def test_verify_builds_no_report_tree(self, tmp_path, monkeypatch):
        # verify writes both its branches straight from the verdicts
        calls = []
        for name in ("report_document", "degenerate_report"):
            monkeypatch.setattr(cli, name, lambda *a, name=name, **k: calls.append(name))
        for doc in (MIDPOINT, DEGENERATE_INSTANCES[0][0]):
            code, out = run(["verify", write_instance(tmp_path, doc)])
            assert code == 0 and json.loads(out)["verdicts"]
        assert calls == []

    @staticmethod
    def spy_on_select_claims(monkeypatch):
        original, calls = verifiers.select_claims, []

        def spy(checks=None):
            calls.append(checks)
            return original(checks)

        monkeypatch.setattr(verifiers, "select_claims", spy)
        monkeypatch.setattr(cli, "select_claims", spy)
        return calls

    def test_all_file_selects_claims_once(self, tmp_path, monkeypatch):
        # cmd_verify selects the claims, and verify_all takes its fast path
        calls = self.spy_on_select_claims(monkeypatch)
        assert run(["verify", write_instance(tmp_path, MIDPOINT)])[0] == 0
        assert calls == [None]

    def test_check_selects_claims_once(self, tmp_path, monkeypatch):
        # cmd_verify selects the --check ids, and verify_all does not select them again
        calls = self.spy_on_select_claims(monkeypatch)
        code, out = run(["verify", write_instance(tmp_path, MIDPOINT), "--check", "seven_lines"])
        assert code == 0 and [v["claim"] for v in json.loads(out)["verdicts"]] == ["seven_lines"]
        assert calls == [("seven_lines",)]

    def test_counterexample_selects_no_claims_per_candidate(self, monkeypatch):
        # the target is checked once per search; each candidate still goes
        # through cli.verify_all, which selects nothing
        calls = self.spy_on_select_claims(monkeypatch)
        original, candidates = cli.verify_all, []
        monkeypatch.setattr(cli, "verify_all", lambda cfg, checks=None: candidates.append(
            tuple(checks)) or original(cfg, checks))
        code, _ = run(["counterexample", "--shape", "crossed", "--target",
                       "inner_quadrilateral_convexity", "--budget", "40", "--seed", "0"])
        assert code == 0 and len(candidates) > 1
        assert set(candidates) == {("inner_quadrilateral_convexity",)}
        assert calls == []


class TestFuzz:
    def test_gamma_one_campaign_passes(self):
        code, out = run(["fuzz", "--seed", "42", "--count", "50", "--regime", "gamma1"])
        assert code == 0
        summary = last_json(out)
        assert summary["overall"] == "pass"
        assert summary["claims"]["seven_lines"]["fail"] == 0
        assert summary["claims"]["seven_lines"]["pass"] > 0

    def test_general_campaign_passes(self):
        code, out = run(["fuzz", "--seed", "42", "--count", "50", "--regime", "general"])
        assert code == 0
        summary = last_json(out)
        assert summary["claims"]["quadruple_concurrences"]["fail"] == 0

    @pytest.mark.parametrize("regime", [
        ["--regime", "remarks"],
        ["--regime", "general", "--shape", "concave"],
        ["--regime", "general", "--shape", "crossed"],
        ["--regime", "general", "--shape", "any"],
    ], ids=["remarks", "general-concave", "general-crossed", "general-any"])
    def test_remarks_campaign_reports_findings(self, regime):
        code, out = run(["fuzz", "--seed", "42", "--count", "60"] + regime)
        assert code == 0, "convexity findings must not fail the suite"
        summary = last_json(out)
        assert summary["overall"] == "pass"
        assert summary["failing_instances"] == []
        findings = summary["findings"]["inner_quadrilateral_convexity"]
        assert findings == summary["claims"]["inner_quadrilateral_convexity"]["fail"] > 0

    def test_failing_instance_listed_once(self, monkeypatch, tmp_path):
        def failing(claim, runner):
            if claim not in ("ratio_product", "section_ratios"):
                return runner
            return lambda cfg: runner(cfg)._replace(status="fail")

        monkeypatch.setattr(verifiers, "CLAIM_RUNNERS", tuple(
            (claim, failing(claim, runner)) for claim, runner in verifiers.CLAIM_RUNNERS))
        code, out = run(["fuzz", "--regime", "general", "--seed", "3", "--count", "2",
                         "--dump-dir", str(tmp_path)])
        assert code == 1
        summary = last_json(out)
        assert summary["claims"]["ratio_product"]["fail"] == 2
        assert summary["claims"]["section_ratios"]["fail"] == 2
        assert summary["claims"] == recount(out)
        assert len(summary["failing_instances"]) == 2
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "fail-seed3-index0.json", "fail-seed3-index1.json"]

    def test_generation_exhausted_is_a_line_and_a_count(self, monkeypatch):
        # a drawer that never succeeds makes every index give up; each gets
        # a generation_error line and the summary counts it, and no claim
        # is tallied
        for shape in generators._DRAWERS:
            monkeypatch.setitem(generators._DRAWERS, shape, lambda rng, bound: None)
        code, out = run(["fuzz", "--regime", "general", "--count", "2"])
        assert code == 0
        lines = out[:out.rindex("\n{\n") + 1].splitlines()
        assert lines == [
            '{"generation_error":"no convex quadrilateral in 1000 attempts (seed=0, '
            f'index={index})","instance_meta":{{"index":{index},"regime":"general",'
            '"seed":"0"},"overall":"degenerate"}' for index in (0, 1)]
        summary = last_json(out)
        assert summary["generation_exhausted"] == 2
        assert summary["construction_errors"] == 0
        assert summary["claims"] == {claim: {"pass": 0, "fail": 0, "degenerate": 0, "skipped": 0}
                                     for claim in verifiers.CLAIM_IDS}
        assert summary["findings"] == {"inner_quadrilateral_convexity": 0}
        assert summary["overall"] == "pass"
        # the search over the same exhausted stream finds nothing
        for shape in ("concave", "crossed"):
            assert run(["counterexample", "--shape", shape, "--target", "seven_lines",
                        "--budget", "2"]) == (1, "")

    def test_claim_tallies_recount_the_lines(self):
        # each built line's statuses are counted as one tuple and folded
        # into the tallies after the loop; a line that did not build counts
        # in construction_errors alone
        code, out = run(["fuzz", "--regime", "remarks", "--shape", "concave", "--seed", "42",
                         "--count", "200"])
        assert code == 0
        summary = last_json(out)
        assert summary["construction_errors"] == 13
        assert summary["findings"] == {"inner_quadrilateral_convexity": 65}
        assert summary["claims"] == recount(out)

    @pytest.mark.parametrize("count", [1, 60])
    def test_campaign_builds_one_report_tree(self, monkeypatch, count):
        # report_line writes every line; only the first is also built as a
        # tree, to check it, however long the campaign
        calls = []
        tree = cli.report_document
        monkeypatch.setattr(cli, "report_document", lambda *a, **k: calls.append(a) or tree(*a, **k))
        inst = instance_from_parts(gen_quadrilateral(GenSpec(), 0), gen_ratios(GenSpec(), 0))
        assert cli.report_document({}, [], None, instance=inst) and len(calls) == 1  # it counts
        calls.clear()
        code, _ = run(["fuzz", "--seed", "42", "--count", str(count), "--regime", "general"])
        assert code == 0 and len(calls) == 1

    def test_first_line_is_checked_against_the_tree(self, monkeypatch):
        # the tree is the line's parse, so the check guards the layout: a
        # compact format that drifted to json's default ": " is caught
        from quadconc import report
        compact = report._COMPACT
        monkeypatch.setattr(report, "_COMPACT", compact[:3] + (": ",) + compact[4:])
        monkeypatch.setattr(report, "_shapes", {})
        with pytest.raises(RuntimeError, match="differs from the report tree at index 0"):
            run(["fuzz", "--seed", "42", "--count", "3", "--regime", "general"])

    def test_determinism_byte_identical(self):
        argv = ["fuzz", "--seed", "7", "--count", "25", "--regime", "general"]
        _, first = run(argv)
        _, second = run(argv)
        assert first == second

    def test_dump_dir_writes_replayable_failures(self, tmp_path):
        dump = tmp_path / "failures"
        code, _ = run(["fuzz", "--seed", "42", "--count", "40", "--regime", "remarks",
                       "--dump-dir", str(dump)])
        assert code == 0
        dumped = sorted(dump.glob("fail-*.json"))
        assert dumped, "the remarks campaign should dump convexity findings"
        code2, out2 = run(["verify", str(dumped[0]),
                           "--check", "inner_quadrilateral_convexity"])
        assert code2 == 1
        assert json.loads(out2)["verdicts"][0]["status"] == "fail"

    def test_dump_dir_under_a_file_exits_two(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        code, _ = run(["fuzz", "--seed", "0", "--count", "300", "--regime", "remarks",
                       "--shape", "crossed", "--dump-dir", str(tmp_path / "afile" / "sub")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_remarks_needs_nonconvex_shape(self):
        code, _ = run(["fuzz", "--seed", "1", "--count", "5", "--regime", "remarks",
                       "--shape", "convex"])
        assert code == 2

    def test_count_must_be_positive(self):
        code, _ = run(["fuzz", "--seed", "1", "--count", "0", "--regime", "general"])
        assert code == 2

    def test_replay_reproduces_verdicts(self, tmp_path):
        code, out = run(["fuzz", "--seed", "3", "--count", "5", "--regime", "general"])
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines() if line.startswith('{"')]
        instance_reports = [d for d in lines if "verdicts" in d and "instance" in d]
        assert instance_reports
        for report in instance_reports[:3]:
            path = tmp_path / "replay.json"
            path.write_text(json.dumps(report["instance"]), encoding="utf-8")
            code2, out2 = run(["verify", str(path)])
            replayed = json.loads(out2)
            canon = lambda d: json.dumps(d, sort_keys=True)
            assert canon(replayed["verdicts"]) == canon(report["verdicts"])
            assert canon(replayed["configuration"]) == canon(report["configuration"])


class TestCounterexample:
    def test_finds_crossed_convexity_failure(self, tmp_path):
        out_path = tmp_path / "counterexample.json"
        code, out = run([
            "counterexample", "--shape", "crossed",
            "--target", "inner_quadrilateral_convexity",
            "--budget", "500", "--seed", "0", "-o", str(out_path),
        ])
        assert code == 0
        assert out_path.exists()
        doc = json.loads(out)
        assert doc["checks"] == ["inner_quadrilateral_convexity"]
        # the found instance replays to a failing verdict
        code2, out2 = run(["verify", str(out_path)])
        assert code2 == 1
        report = json.loads(out2)
        assert report["verdicts"][0]["status"] == "fail"

    def test_zero_budget_finds_nothing(self):
        code, out = run([
            "counterexample", "--shape", "crossed",
            "--target", "inner_quadrilateral_convexity", "--budget", "0",
        ])
        assert code == 1
        assert out == ""

    @pytest.mark.parametrize("shape, degenerate", [("concave", 79), ("crossed", 10)])
    @pytest.mark.parametrize("target", list(cli.NONCONVEX_TARGETS))
    def test_degenerate_candidates_are_skipped(self, shape, degenerate, target):
        # with every ratio 1 at bound 4, some candidates do not build; the
        # search skips them and finds nothing.  Each target's plan builds a
        # candidate exactly when the full plan does, with the same message
        argv = ["--seed", "0", "--budget", "200", "--bound", "4", "--ratio-bound", "1"]
        assert run(["counterexample", "--shape", shape, "--target", target, *argv]) == (1, "")
        args = cli.build_parser().commands["counterexample"].parse_args(
            ["--shape", shape, "--target", target, *argv])
        plan = cli._target_plan(cli.NONCONVEX_TARGETS[target])
        skipped = [(index, built) for index, _, _, built
                   in cli._campaign(args, "remarks", shape, 200, plan) if isinstance(built, str)]
        assert len(skipped) == degenerate
        assert skipped == [(index, built) for index, _, _, built
                           in cli._campaign(args, "remarks", shape, 200, FULL_PLAN)
                           if isinstance(built, str)]

    @pytest.mark.parametrize("target", ["inner_quadrilateral", "crossing_ratio_formula"])
    def test_convex_only_target_rejected(self, target):
        code, _ = run([
            "counterexample", "--shape", "crossed",
            "--target", target, "--budget", "10",
        ])
        assert code == 2

    def test_convex_shape_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["counterexample", "--shape", "convex",
                  "--target", "inner_quadrilateral_convexity", "--budget", "10"])
        assert exc.value.code == 2

    def test_output_in_missing_directory_exits_two(self, tmp_path, capsys):
        code, out = run([
            "counterexample", "--shape", "crossed",
            "--target", "inner_quadrilateral_convexity", "--budget", "500",
            "-o", str(tmp_path / "missing" / "x.json"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [
        ("--bound", "3"), ("--ratio-bound", "0"), ("--seed", "-1"),
    ])
    def test_bad_generator_arguments_exit_two(self, capsys, flag, value):
        code, out = run([
            "counterexample", "--shape", "crossed",
            "--target", "inner_quadrilateral_convexity", "--budget", "10", flag, value,
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestFigure:
    def test_emits_deterministic_svg(self, tmp_path):
        path = write_instance(tmp_path, MIDPOINT)
        out1 = tmp_path / "fig1.svg"
        out2 = tmp_path / "fig2.svg"
        assert run(["figure", path, "-o", str(out1)])[0] == 0
        assert run(["figure", path, "-o", str(out2)])[0] == 0
        data = out1.read_bytes()
        assert data == out2.read_bytes()
        assert data.startswith(b"<svg")

    def test_layer_subset(self, tmp_path):
        path = write_instance(tmp_path, MIDPOINT)
        out = tmp_path / "sides.svg"
        assert run(["figure", path, "-o", str(out), "--layers", "sides"])[0] == 0
        text = out.read_text()
        assert text.count("<line") == 4
        assert "<circle" not in text

    @pytest.mark.parametrize("layers", [",", ",,", "", None])
    def test_empty_layer_list_draws_every_layer(self, tmp_path, layers):
        # as an empty --check runs every claim; an empty value and no flag draw the same
        path = write_instance(tmp_path, MIDPOINT)
        comma, empty = tmp_path / "comma.svg", tmp_path / "empty.svg"
        flag = [] if layers is None else ["--layers", layers]
        assert run(["figure", path, "-o", str(comma), "--layers", ","])[0] == 0
        assert run(["figure", path, "-o", str(empty)] + flag)[0] == 0
        assert empty.read_bytes() == comma.read_bytes()

    def test_unknown_layer_exits_two(self, tmp_path):
        path = write_instance(tmp_path, MIDPOINT)
        out = tmp_path / "x.svg"
        code, _ = run(["figure", path, "-o", str(out), "--layers", "nope"])
        assert code == 2

    def test_invalid_instance_exits_two(self, tmp_path):
        doc = json.loads(json.dumps(MIDPOINT))
        del doc["ratios"]
        # M is off side AB
        doc["points"] = {"M": ["1/2", "1"], "N": ["1", "1/2"], "P": ["1/2", "1"], "Q": ["0", "1/2"]}
        path = write_instance(tmp_path, doc)
        code, _ = run(["figure", path, "-o", str(tmp_path / "x.svg")])
        assert code == 2

    def test_output_in_missing_directory_exits_two(self, tmp_path, capsys):
        path = write_instance(tmp_path, MIDPOINT)
        code, out = run(["figure", path, "-o", str(tmp_path / "missing" / "x.svg")])
        err = capsys.readouterr().err
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert "Traceback" not in err


def test_no_command_makes_a_point(tmp_path, monkeypatch):
    # every command holds its points as canonical triples: the generated and
    # parsed vertices and side points, the built points, the witnesses and
    # the texts of reports, instance files and figures
    def no_point(cls, triple):
        raise AssertionError(f"a Point was made of {triple}")

    monkeypatch.setattr(Point, "_wrap", classmethod(no_point))
    with pytest.raises(AssertionError, match="a Point was made"):
        pt(1, 2)
    runs = [["fuzz", "--seed", "42", "--count", "40", "--regime", regime, *shape]
            for regime, shape in (("gamma1", ()), ("general", ()), ("general", ("--shape", "any")),
                                  ("remarks", ("--shape", "concave")),
                                  ("remarks", ("--shape", "crossed")))]
    runs.append(["counterexample", "--shape", "crossed", "--target",
                 "inner_quadrilateral_convexity", "--budget", "500",
                 "-o", str(tmp_path / "found.json")])
    files = generated_files(tmp_path, GenSpec(seed=42), count=1) + points_files(tmp_path)
    for path in files:
        runs += [["verify", path], ["figure", path, "-o", str(tmp_path / "out.svg")]]
    for argv in runs:
        assert run(argv)[0] in (0, 1), argv
    assert (tmp_path / "found.json").exists() and (tmp_path / "out.svg").exists()


# each command that writes a file, with {instance} and {dir} to fill in
OUTPUT_WRITERS = {
    "figure": ["figure", "{instance}", "-o", "{dir}/out.svg"],
    "counterexample": ["counterexample", "--shape", "crossed", "--target",
                       "inner_quadrilateral_convexity", "--budget", "500", "-o", "{dir}/out.json"],
    "fuzz": ["fuzz", "--seed", "42", "--count", "40", "--regime", "remarks", "--dump-dir", "{dir}"],
}


@pytest.mark.parametrize("writer", list(OUTPUT_WRITERS))
def test_output_replaces_a_longer_file_with_exactly_its_bytes(tmp_path, writer):
    instance = write_instance(tmp_path, MIDPOINT)

    def written(out_dir):
        argv = [a.format(instance=instance, dir=out_dir) for a in OUTPUT_WRITERS[writer]]
        assert run(argv)[0] == 0
        return {path.name: path.read_bytes() for path in out_dir.iterdir()}

    fresh, stale = tmp_path / "fresh", tmp_path / "stale"
    fresh.mkdir()
    expected = written(fresh)
    assert expected
    stale.mkdir()
    for name, data in expected.items():
        (stale / name).write_bytes(b"stale\r\n" * (len(data) // 7 + 2))
    assert written(stale) == expected
    for data in expected.values():
        assert data.endswith(b"\n") and b"\r" not in data


def top_level_main(argv, out):
    """``main`` through the top-level parser's ``parse_args``, then the command."""
    try:
        args = cli.build_parser().parse_args(argv)
        return args.run(args, out)
    except (InstanceFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# argument vectors whose outcome argparse decides; {file} and {out} are filled in
ARGUMENT_VECTORS = [
    [], ["-h"], ["--help"], ["nope"], ["--", "verify", "{file}"],
    ["verify", "-h"], ["fuzz", "-h"], ["counterexample", "-h"], ["figure", "-h"],
    ["verify"], ["figure", "{file}"],
    ["fuzz", "--count", "1", "--regime", "nope"],
    ["fuzz", "--count", "x", "--regime", "general"],
    ["counterexample", "--shape", "convex", "--target", "seven_lines", "--budget", "1"],
    ["verify", "{file}", "extra"], ["verify", "{file}", "--nope"],
    ["figure", "{file}", "-o", "{out}", "--nope", "x", "extra"],
    ["fuzz", "--count=1", "--regime", "general"],
    ["fuzz", "--cou", "1", "--regime", "gamma1", "--seed", "-3"],
    ["figure", "{file}", "-o{out}"], ["figure", "{file}", "--out", "{out}", "--lay", "sides"],
    ["verify", "--", "{file}"], ["verify", "{file}", "--check", "seven_lines", "--", "x"],
    ["figure", "-o", "{out}", "--", "{file}"],
    ["figure", "{file}", "-o", "{out}", "--layers"],
]


class TestArguments:
    @pytest.mark.parametrize("argv", ARGUMENT_VECTORS, ids=" ".join)
    def test_dispatch_keeps_the_bytes_of_the_top_level_parse(self, tmp_path, capsys, argv):
        file, out = write_instance(tmp_path, MIDPOINT), tmp_path / "out.svg"
        argv = [a.format(file=file, out=out) for a in argv]

        def outcome(run_main):
            buf = io.StringIO()
            try:
                code = run_main(argv, buf)
            except SystemExit as exc:
                code = f"SystemExit({exc.code})"
            written = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            return code, buf.getvalue(), capsys.readouterr(), written

        assert outcome(main) == outcome(top_level_main)

    def test_verify_and_figure_skip_the_top_level_parse(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli.build_parser(), "parse_args", lambda *a: calls.append(a))
        path = write_instance(tmp_path, MIDPOINT)
        assert run(["verify", path])[0] == 0
        assert run(["figure", path, "-o", str(tmp_path / "x.svg")])[0] == 0
        assert calls == []
