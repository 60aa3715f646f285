"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload fuzz_general --seeds 1-10 --seconds 10
    python3 perfbench/spread.py --workload all --seeds 1-10 --out summary.json

The spread is the distance between the first and third quartile of the
per-seed values (``statistics.quantiles(values, n=4)``) as a share of their
median.  A metric is reported steady when its spread is below a third of its
bound in ``BENCHMARK.json``.  Exits 1 if any run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write medians, quartiles and values as JSON")
    args = parser.parse_args()

    status, summary = 0, {}
    for workload in names if args.workload == "all" else [args.workload]:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stdout + done.stderr)
                status = 1
                continue
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1])
            meta = json.loads(lines[-2].removeprefix("# meta "))
            summary.setdefault("meta", {k: meta[k] for k in (
                "python", "nproc", "git_sha", "kernel_backend", "reference_s", "bounds")})
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        summary[workload] = {"seeds": args.seeds, "seconds": args.seconds,
                             "trace": args.trace, "metrics": {}}
        print(f"{workload}: {len(args.seeds)} seeds, {args.seconds} s each")
        for metric, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(metric)
            verdict = "" if bound is None else (
                "steady" if spread < bound / 3 else f"SPREAD >= bound/3 ({bound / 3:.3f})")
            print(f"  {metric:52s} median {median:12.6g}  spread {spread:7.2%}  {verdict}")
            summary[workload]["metrics"][metric] = {"median": median, "q1": q1, "q3": q3,
                                                    "spread": spread, "values": vals}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
