"""Benchmark of the quadconc campaign pipeline, run from the repository root.

    python3 perfbench/run.py --workload fuzz_general --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Each workload is a closed loop: one caller, one thread, the next unit only
after the previous one completes (see ``workloads.py``).  The program is
imported from ``src/`` of this checkout and from nowhere else.

Times are reference seconds (see ``clock.py``): wall time scaled by a
calibration loop run between windows of work, so that the machine's
changing speed does not read as a change of the program.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
unit a second time with the program's public functions wrapped in spans
(``workloads.traced``) and reports the per-layer metrics, the per-layer
self-time table and the tracing overhead.  Every run checks its output
twice: the first units of the default seed must hash to the digests in
``expected.json`` and repeat its work-mix counts exactly, and the first
units of the run's own seed must repeat byte for byte in the timed loop.
A mismatch fails every item of the run and the exit code is 1.  The last line of stdout is the JSON
result; the lines before it are a readable report and ``# meta`` metadata.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "quadconc" / "__init__.py").is_file():
        print(f"error: no quadconc source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    if not Path(bench.quadconc.__file__).resolve().is_relative_to(SRC):
        print("error: quadconc was not imported from this checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return bench.run_all(args)
    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)} or all")
    return bench.run_one(args)


if __name__ == "__main__":
    sys.exit(main())
