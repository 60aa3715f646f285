"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import bench  # noqa: E402
from quadconc import cli, instancefile, verifiers  # noqa: E402
from tracing import Span, Tracer, covered_ns, layer_table, self_times  # noqa: E402
from workloads import WORKLOADS, Census, SearchCrossed, run_unit, traced  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_gate_rejects_a_one_byte_change_and_a_changed_count():
    outputs, census = bench.gate_run(SearchCrossed(bench.DEFAULT_SEED),
                                     SearchCrossed.gate_units)
    counts = census.gated()
    assert bench.gate_ok("search_crossed", outputs, counts)
    tampered = list(outputs)
    tampered[-1] = tampered[-1][:-1] + chr(ord(tampered[-1][-1]) ^ 1)
    assert not bench.gate_ok("search_crossed", tampered, counts)
    # the output is the same whatever the search evaluated; the counts are not
    census.build_failed()
    assert not bench.gate_ok("search_crossed", outputs, census.gated())


def test_repeat_check_rejects_a_one_byte_change():
    workload = SearchCrossed(7)
    refs, _ = bench.gate_run(workload, 2)
    _, mismatched = bench.timed_loop(workload, 0.01, refs)
    assert mismatched == 0
    refs[1] = "0" + refs[1][1:]
    _, mismatched = bench.timed_loop(workload, 0.01, refs)
    assert mismatched == 1


def test_covered_ns_merges_overlaps_and_clips_to_the_span():
    assert covered_ns(0, 100, []) == 0
    assert covered_ns(0, 100, [(10, 30), (20, 50), (60, 70)]) == 50
    assert covered_ns(0, 100, [(90, 120), (-5, 5)]) == 15
    assert covered_ns(0, 100, [(200, 300)]) == 0


def test_self_time_is_duration_minus_covered_children():
    spans = [
        Span("cli.item", 0, 100, -1, 1),
        Span("a", 10, 30, 0, 1),
        Span("b", 40, 70, 0, 1),
        Span("c", 45, 55, 2, 1),
    ]
    assert self_times(spans) == [50, 20, 20, 10]
    on_path, probed = layer_table(spans)
    assert not probed
    # self times of a properly nested tree add up to the root's duration
    assert sum(st.self_ns for st in on_path.values()) == 100
    assert on_path["b"].inclusive_ns == 30


def test_tracer_records_parents_and_closes_spans_on_exceptions():
    tr = Tracer()
    tr.item = "x"
    with tr.span("outer"):
        tr.call("inner", lambda: None)
        with pytest.raises(ZeroDivisionError):
            tr.call("fails", lambda: 1 / 0)
    assert [(s.name, s.parent, s.item) for s in tr.spans] == [
        ("outer", -1, "x"), ("inner", 0, "x"), ("fails", 0, "x")]
    assert all(s.start <= s.end for s in tr.spans)


def test_benchmark_json_names_units_and_code_agree():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert names[:len(WORKLOADS)] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench.PER_LAYER_UNITS
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
    assert {m["name"]: m["better"] for m in doc["end_to_end"]}["setup_s"] == "lower"


ON_PATH = {
    "fuzz_general": {"generators.gen_quadrilateral", "configuration.build_from_ratios",
                     "verifiers.quadruple_concurrences", "instancefile.instance_from_parts",
                     "report.report_document", "report.render"},
    "search_crossed": {"generators.gen_ratios", "configuration.build_from_ratios",
                       "verifiers.quadruple_concurrences"},
    "replay_files": {"instancefile.parse_instance", "instancefile.configuration",
                     "configuration.build_from_ratios", "verifiers.seven_lines",
                     "report.render", "svgfig.render_svg"},
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_unit_writes_the_same_bytes_and_spans_each_layer(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # replay_files writes its instance files here
    originals = (cli.main, cli.build_from_ratios, instancefile.parse_instance,
                 instancefile.InstanceFile.configuration, verifiers.CLAIM_RUNNERS)
    workload = WORKLOADS[name](3)
    tr, census = Tracer(), Census()
    tr.item = (0, 0)
    with traced(tr, census):
        out = run_unit(workload, 0)
    assert out.failed == 0 and out.out == run_unit(workload, 0).out
    assert originals == (cli.main, cli.build_from_ratios, instancefile.parse_instance,
                         instancefile.InstanceFile.configuration, verifiers.CLAIM_RUNNERS)
    names = {s.name for s in tr.spans}
    assert ON_PATH[name] | {"cli.main", "cli.build_parser", "verifiers.verify_all"} <= names
    # every span sits under a cli.main span, and each item is counted once
    assert all(s.parent >= 0 for s in tr.spans if s.name != "cli.main")
    assert len({s.item for s in tr.spans}) == workload.items_per_unit
    assert census.builds > 0 and sum(c for c, _ in census.claims.values()) > 0
