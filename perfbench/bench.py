"""Measurement and reporting for ``run.py``; imports the program, so ``run.py``
puts the checkout's ``src/`` on the path first."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import quadconc

import microops
from clock import REFERENCE_S, calibrate, scale
from tracing import Tracer, layer_table
from workloads import WORKLOADS, Census, probe, run_unit, traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

DEFAULT_SEED = 42
WINDOW_S = 0.25  # items_per_s is the median rate over windows this long
CAL_EVERY_S = 0.02  # busy time between calibration slices
SETUP_RUNS = 11
# item_ms_tail: p95, not the highest percentile with 10 samples beyond it.
# Above p95 the shared machine's bursts set the value: across 10 seeds the
# spread reached 23% for fuzz_general at p99.5 and 9% for replay_files at p98.
TAIL_PERCENTILE = 95.0

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "setup_s": "s",
    "max_rss_mb": "MB",
}

CALLS = (
    "generators.gen_quadrilateral",
    "generators.gen_ratios",
    "configuration.build_from_ratios",
    "verifiers.verify_all",
    "verifiers.diagonal_collinearity",
    "verifiers.seven_lines",
    "verifiers.crossing_ratios",
    "verifiers.diagonal_concurrence_iff",
    "verifiers.quadruple_concurrences",
    "verifiers.ratio_product",
    "verifiers.section_ratios",
    "verifiers.crossing_ratio_formula",
    "verifiers.inner_quadrilateral",
    "verifiers.inner_quadrilateral_convexity",
    "report.report_document",
    "report.render",
    "instancefile.instance_from_parts",
    "instancefile.parse_instance",
    "svgfig.render_svg",
)
MICRO_OPS = (
    "kernel.meet", "kernel.line_through", "kernel.affine_parameter",
    "kernel.directed_ratio", "kernel.point_dividing",
    "purekernel.reduce3", "purekernel.cross3", "purekernel.det3",
)
CLAIMS = tuple(c.split(".", 1)[1] for c in CALLS if c.startswith("verifiers.")
               and c != "verifiers.verify_all")

# Which end-to-end metric each layer metric should move, and where:
# - generators.*: items_per_s on search_crossed and fuzz_general; replay_files
#   does not generate, so no change is predicted there.
# - configuration.build_from_ratios: items_per_s on all three, most on
#   search_crossed (1000-bound integers).
# - verifiers.*: item_ms_p50 on fuzz_general; seven_lines, crossing_ratios and
#   diagonal_collinearity also on replay_files; almost nothing on search_crossed,
#   which runs one claim.
# - report.*: fuzz_general (compact) and replay_files (pretty), never
#   search_crossed.
# - instancefile.instance_from_parts: fuzz_general; instancefile.parse_instance,
#   svgfig.render_svg and cli.self_ms (argument parsing): replay_files.
# - kernel.* and purekernel.*: all workloads in proportion, most search_crossed.
PER_LAYER_UNITS = {
    **{c + ".ms": "ms" for c in CALLS},
    **{op + ".ns": "ns" for op in MICRO_OPS},
    "cli.self_ms": "ms",
    "trace.overhead_share": "share",
    "configuration.max_bits": "bits",
    "configuration.error_share": "share",
    "configuration.degenerate_share": "share",
    **{f"verifiers.{c}.evaluated_share": "share" for c in CLAIMS},
    "report.bytes_per_item": "bytes",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup() -> float:
    """Median time to ``import quadconc.cli`` in a fresh interpreter, timed inside it.

    Each child runs five calibration slices right after the import, and
    its import time is scaled to reference seconds by their mean.
    """
    code = ("import time\nt = time.perf_counter()\nimport quadconc.cli\n"
            "t = time.perf_counter() - t\nimport clock, statistics\n"
            "c = statistics.mean(clock.calibrate() for _ in range(5))\n"
            "print(t * clock.scale(c), quadconc.cli.__file__)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    times = []
    for run in range(SETUP_RUNS + 1):  # the first run may compile bytecode
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=60)
        seconds, where = done.stdout.split()
        if not Path(where).resolve().is_relative_to(SRC):
            raise RuntimeError(f"fresh interpreter imported quadconc from {where}")
        if run:
            times.append(float(seconds))
    return statistics.median(times)


def gate_run(workload, units: int) -> tuple[list[str], Census]:
    """The output bytes of the first ``units`` units, and their work-mix census.

    The units run traced, so comparing these bytes with the untraced timed
    loop's also checks that tracing leaves the output alone.
    """
    tracer, census, outputs = Tracer(), Census(), []
    with traced(tracer, census):
        for k in range(units):
            tracer.item = (k, 0)
            r = run_unit(workload, k)
            census.unit(r)
            outputs.append(r.out)
    return outputs, census


def gate_ok(name: str, outputs: list[str], counts: dict) -> bool:
    """Whether the default seed's first units give the recorded digest and counts."""
    expected = json.loads((HERE / "expected.json").read_text())
    return (sha256("".join(outputs)) == expected["digests"][name]
            and counts == expected["counts"][name])


class Done(NamedTuple):
    """What the timed loop keeps of one unit."""

    items: int
    timed: int
    seconds: float
    samples: list[float]
    failed: int
    factor: float  # wall to reference seconds, from the slices around the unit
    traced_seconds: float  # with a tracer: the same unit's time, traced
    traced_same: bool  # with a tracer: the traced unit wrote the same bytes


def timed_loop(workload, seconds: float, refs: list[str], tracer=None):
    """Run units for ``seconds``, in windows of about ``WINDOW_S`` busy seconds.

    A calibration slice runs before the first unit and after every
    ``CAL_EVERY_S`` of busy time; the units between two slices are scaled
    by the mean of the two.  Units ``0..len(refs)-1`` must repeat ``refs``
    byte for byte.  With a tracer, each unit is run a second time, traced.
    Returns the windows, each a list of ``Done``, and the number of
    mismatches.
    """
    windows, current, pending, busy, since, k, mismatched = [], [], [], 0.0, 0.0, 0, 0
    last = calibrate()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        r = run_unit(workload, k)
        mismatched += k < len(refs) and r.out != refs[k]
        traced_seconds, same = 0.0, True
        if tracer is not None:
            tracer.item = (k, 0)
            with traced(tracer):
                t = run_unit(workload, k)
            traced_seconds, same = t.seconds, t.out == r.out
        pending.append((r, traced_seconds, same))
        busy += r.seconds
        since += r.seconds + traced_seconds
        k += 1
        closing = busy >= WINDOW_S or perf_counter() >= deadline
        if since >= CAL_EVERY_S or closing:
            now = calibrate()
            factor = scale((last + now) / 2)
            current.extend(Done(r.items, r.timed, r.seconds, r.samples, r.failed, factor,
                                t, same) for r, t, same in pending)
            last, pending, since = now, [], 0.0
        if closing:
            windows.append(current)
            current, busy = [], 0.0
    for j in range(k, len(refs)):
        mismatched += run_unit(workload, j).out != refs[j]
    return windows, mismatched


def end_to_end(windows) -> tuple[dict[str, float], dict]:
    # a unit that raised has no timings and is left out of them
    timed = [[u for u in units if u.samples] for units in windows]
    rates = [sum(u.timed for u in units) / sum(u.seconds * u.factor for u in units)
             for units in timed if units]
    samples = [s * u.factor for units in timed for u in units for s in u.samples]
    if len(samples) < 4:
        raise RuntimeError("too few units completed to measure")
    # the tail is the median over the run's quarters, so one slow stretch
    # of the machine does not set it
    quarter = len(samples) // 4
    tails = [percentile(samples[i * quarter:(i + 1) * quarter], TAIL_PERCENTILE)
             for i in range(4)]
    metrics = {
        "items_per_s": statistics.median(rates),
        "item_ms_p50": statistics.median(samples) * 1e3,
        "item_ms_tail": statistics.median(t for t, _ in tails) * 1e3,
    }
    return metrics, {"windows": len(rates), "samples": len(samples),
                     "tail_percentile": TAIL_PERCENTILE,
                     "samples_beyond_tail_per_quarter": min(b for _, b in tails),
                     "scale_median": statistics.median(u.factor for us in windows for u in us)}


def per_layer(workload, windows, tracer, census) -> tuple[dict[str, float], str]:
    """Layer times from the traced units; counts from ``census``; probe and micro-ops."""
    probe_census = Census()
    with traced(tracer, probe_census):
        probe(tracer, workload.probe_pairs())
    micro = microops.measure(census.cfgs)

    # one scale for all traced spans: the median over the loop's units
    units = [u for us in windows for u in us]
    factor = statistics.median(u.factor for u in units)
    items = sum(u.items for u in units)
    on_path, probed = layer_table(tracer.spans)
    per_item_ms = {name: st.self_ns / items / 1e6 * factor for name, st in on_path.items()}
    metrics: dict[str, float] = {}
    for name in CALLS:
        stats = on_path.get(name) or probed[name]
        metrics[name + ".ms"] = stats.inclusive_ns / stats.calls / 1e6 * factor
    metrics.update(micro)
    metrics["cli.self_ms"] = sum(ms for name, ms in per_item_ms.items()
                                 if name.startswith("cli."))
    metrics["trace.overhead_share"] = (sum(u.traced_seconds for u in units)
                                       / sum(u.seconds for u in units) - 1)
    metrics["configuration.max_bits"] = census.max_bits
    metrics["configuration.error_share"] = census.build_errors / census.builds
    metrics["configuration.degenerate_share"] = census.degenerate / max(
        1, census.builds - census.build_errors)
    for claim in CLAIMS:
        calls, evaluated = census.claims[claim]
        if not calls:
            calls, evaluated = probe_census.claims[claim]
        metrics[f"verifiers.{claim}.evaluated_share"] = evaluated / calls
    metrics["report.bytes_per_item"] = census.out_bytes / census.items

    item_ms = on_path["cli.main"].inclusive_ns / items / 1e6 * factor
    lines = [f"per-layer self time over {items} traced items of {workload.name} "
             f"(reference ms, scale {factor:.3f}):",
             f"  {'span':42s} {'calls/item':>10s} {'ms/call':>9s} {'self ms/item':>12s} {'share':>6s}"]
    for name, st in sorted(on_path.items(), key=lambda kv: -kv[1].self_ns):
        lines.append(f"  {name:42s} {st.calls / items:10.2f} "
                     f"{st.inclusive_ns / st.calls / 1e6 * factor:9.4f} "
                     f"{per_item_ms[name]:12.4f} {per_item_ms[name] / item_ms:6.1%}")
    lines.append(f"  self times sum to {sum(per_item_ms.values()):.4f} of {item_ms:.4f} ms "
                 f"of cli.main per traced item; cli.self_ms {metrics['cli.self_ms']:.4f}; "
                 f"tracing overhead {metrics['trace.overhead_share']:+.1%}")
    return metrics, "\n".join(lines)


def run_one(args) -> int:
    cls = WORKLOADS[args.workload]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(), "kernel_backend": getattr(quadconc, "kernel_backend", "pure"),
        "reference_s": REFERENCE_S,
    }
    bench_file = ROOT / "BENCHMARK.json"
    if bench_file.is_file():
        meta["bounds"] = {m["name"]: m["bound"]
                          for m in json.loads(bench_file.read_text())["end_to_end"]}

    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(run_dir)  # reports name instance files relative to this directory
    try:
        setup_s = None if args.trace else measure_setup()
        outputs, counts = gate_run(cls(DEFAULT_SEED), cls.gate_units)
        meta["default_seed_gate_ok"] = gate_ok(args.workload, outputs, counts.gated())
        workload = cls(args.seed)
        refs, census = gate_run(workload, cls.gate_units)
        tracer = Tracer() if args.trace else None
        windows, meta["repeat_mismatches"] = timed_loop(workload, args.seconds, refs, tracer)
        done = [u for units in windows for u in units]
        correct = meta["default_seed_gate_ok"] and not meta["repeat_mismatches"]
        if args.trace:
            meta["traced_bytes_match"] = all(u.traced_same for u in done)
            correct = correct and meta["traced_bytes_match"]
            metrics, table = per_layer(workload, windows, tracer, census)
            print(table)
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(str(spans))
            print(f"spans written to {spans.relative_to(ROOT)}")
            units = PER_LAYER_UNITS
        else:
            metrics, meta["latency"] = end_to_end(windows)
            metrics["setup_s"] = setup_s
            metrics["max_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = END_TO_END_UNITS
    finally:
        os.chdir(cwd)
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = sum(u.items for u in done)
    failed = attempted if not correct else sum(u.failed for u in done)
    correct = correct and failed == 0
    meta.update(units=len(done), attempted=attempted, failed=failed,
                error_rate=failed / attempted)
    for name in units:
        print(f"{args.workload:15s} {name:50s} {metrics[name]:14.6g} {units[name]}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own interpreter, then one table of all metrics."""
    status, rows = 0, []
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        print(done.stdout, end="")
        status = status or done.returncode
        if done.returncode not in (0, 1):
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        for metric, m in result["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
    print("\nall workloads:")
    for name, metric, value, unit in rows:
        print(f"  {name:15s} {metric:50s} {value:14.6g} {unit}")
    return status
