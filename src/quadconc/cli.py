"""Command-line front end.

Subcommands: ``verify`` an instance file, ``fuzz`` seeded random
instances, search for a ``counterexample`` on nonconvex shapes, and emit
an SVG ``figure``.  Exit codes are uniform: 0 for pass or degenerate,
1 when a verified claim failed (or a search found nothing), 2 for
invalid input.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .configuration import Configuration, build_from_ratios
from .errors import (
    CoincidentPoints,
    DegenerateQuadrilateral,
    GenerationExhausted,
    InstanceFormatError,
    PointNotOnSide,
    UndefinedPoint,
)
from .generators import GenSpec, gen_quadrilateral, gen_ratios
from .instancefile import (
    InstanceFile,
    instance_from_parts,
    load_instance,
    serialize_instance,
)
from .report import degenerate_report, render, report_document
from .svgfig import LAYERS, render_svg
from .verifiers import CLAIM_IDS, FAIL, FINDING_CLAIMS, verify_all

# claims that can produce a verdict on concave/crossed inputs
NONCONVEX_TARGETS = tuple(
    c for c in CLAIM_IDS if c not in ("crossing_ratio_formula", "inner_quadrilateral")
)

# how ``verify`` and ``figure`` treat an instance file that does not build:
# invalid input exits 2, a degenerate configuration is reported and exits 0
_INVALID_INPUT = (InstanceFormatError, OSError, PointNotOnSide)
_DEGENERATE_INPUT = (DegenerateQuadrilateral, CoincidentPoints, UndefinedPoint)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadconc",
        description="Exact verification of cevian concurrence claims in quadrilaterals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify the claims of one instance file")
    p_verify.add_argument("file")
    p_verify.add_argument(
        "--check", action="append", metavar="ID[,ID...]",
        help="claim ids to run (default: the file's checks, else all)",
    )

    p_fuzz = sub.add_parser("fuzz", help="run a seeded campaign of random instances")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--count", type=int, required=True)
    p_fuzz.add_argument("--regime", choices=("gamma1", "general", "remarks"), required=True)
    p_fuzz.add_argument("--shape", choices=("convex", "concave", "crossed", "any"))
    p_fuzz.add_argument("--bound", "--coordinate-bound", dest="coordinate_bound",
                        type=int, default=10)
    p_fuzz.add_argument("--ratio-bound", dest="ratio_bound", type=int, default=8)
    p_fuzz.add_argument("--dump-dir", help="write each failing instance here for replay")

    p_ce = sub.add_parser("counterexample",
                          help="search nonconvex instances for a claim failure")
    p_ce.add_argument("--shape", choices=("crossed", "concave"), required=True)
    p_ce.add_argument("--target", required=True, metavar="CLAIM")
    p_ce.add_argument("--budget", type=int, required=True)
    p_ce.add_argument("--seed", type=int, default=0)
    p_ce.add_argument("--bound", "--coordinate-bound", dest="coordinate_bound",
                      type=int, default=10)
    p_ce.add_argument("--ratio-bound", dest="ratio_bound", type=int, default=8)
    p_ce.add_argument("-o", "--output", help="also write the found instance to a file")

    p_fig = sub.add_parser("figure", help="render an instance as an SVG drawing")
    p_fig.add_argument("file")
    p_fig.add_argument("-o", "--output", required=True)
    p_fig.add_argument("--layers", help="comma-separated subset of: " + ",".join(LAYERS))

    return parser


def _checks_from_args(args: argparse.Namespace, inst: InstanceFile) -> tuple[str, ...]:
    if args.check:
        ids: list[str] = []
        for chunk in args.check:
            ids.extend(c for c in chunk.split(",") if c)
        unknown = sorted(set(ids) - set(CLAIM_IDS))
        if unknown:
            raise InstanceFormatError("unknown claim ids: " + ", ".join(unknown))
        return tuple(ids)
    return inst.checks


def _load_and_build(path: str) -> tuple[InstanceFile, Configuration | None, str]:
    """The instance file at ``path`` and its configuration.

    A degenerate instance gives ``None`` and the reason in place of the
    configuration; invalid input raises one of ``_INVALID_INPUT``.
    """
    inst = load_instance(path)
    try:
        return inst, inst.configuration(), ""
    except _DEGENERATE_INPUT as exc:
        return inst, None, f"{type(exc).__name__}: {exc}"


def _write_output(path: str, text: str) -> bool:
    """Write ``text`` to the file ``path``; report the error if it cannot."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def cmd_verify(args: argparse.Namespace, out) -> int:
    try:
        inst, cfg, reason = _load_and_build(args.file)
        checks = _checks_from_args(args, inst)
    except _INVALID_INPUT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    meta = {"source": args.file}
    if cfg is None:
        doc = degenerate_report(meta, checks or CLAIM_IDS, reason, instance=inst)
        out.write(render(doc))
        return 0
    verdicts = verify_all(cfg, checks or None)
    doc = report_document(meta, verdicts, cfg, instance=inst)
    out.write(render(doc))
    return 1 if doc["overall"] == FAIL else 0


def _regime_spec(args: argparse.Namespace) -> tuple[GenSpec, str]:
    regime = args.regime
    shape = args.shape
    if regime == "remarks":
        shape = shape or "crossed"
        if shape not in ("concave", "crossed"):
            raise InstanceFormatError("the remarks regime needs --shape concave or crossed")
    else:
        shape = shape or "convex"
    spec = GenSpec(
        seed=args.seed,
        shape=shape,
        coordinate_bound=args.coordinate_bound,
        ratio_bound=args.ratio_bound,
        force_gamma_one=(regime == "gamma1"),
    )
    return spec, regime


def _instance_for(spec: GenSpec, regime: str, index: int):
    # the remarks regime alternates: product forced to one on even
    # indices, free on odd, so both claim families get exercised
    if regime == "remarks":
        spec = replace(spec, force_gamma_one=(index % 2 == 0))
    quad = gen_quadrilateral(spec, index)
    ratios = gen_ratios(spec, index)
    return quad, ratios


def cmd_fuzz(args: argparse.Namespace, out) -> int:
    try:
        if args.count < 1:
            raise InstanceFormatError("--count must be at least 1")
        spec, regime = _regime_spec(args)
    except (InstanceFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tallies = {claim: {"pass": 0, "fail": 0, "degenerate": 0, "skipped": 0}
               for claim in CLAIM_IDS}
    findings = {claim: 0 for claim in sorted(FINDING_CLAIMS)}
    failing_instances: list[dict] = []
    generation_exhausted = 0
    construction_errors = 0
    any_fail = False

    for index in range(args.count):
        meta = {"seed": str(args.seed), "index": index, "regime": regime}
        try:
            quad, ratios = _instance_for(spec, regime, index)
        except GenerationExhausted as exc:
            generation_exhausted += 1
            out.write(render({"instance_meta": meta, "generation_error": str(exc),
                              "overall": "degenerate"}, compact=True))
            continue
        inst = instance_from_parts(quad, ratios)
        try:
            cfg = build_from_ratios(quad, ratios)
        except (UndefinedPoint, DegenerateQuadrilateral) as exc:
            construction_errors += 1
            doc = degenerate_report(meta, CLAIM_IDS,
                                    f"{type(exc).__name__}: {exc}", instance=inst)
            out.write(render(doc, compact=True))
            continue
        verdicts = verify_all(cfg)
        doc = report_document(meta, verdicts, cfg, instance=inst)
        out.write(render(doc, compact=True))
        dumped = False
        for v in verdicts:
            tallies[v.claim_id][v.status] += 1
            if v.status == FAIL:
                if regime == "remarks" and v.claim_id in FINDING_CLAIMS:
                    findings[v.claim_id] += 1
                else:
                    any_fail = True
                    failing_instances.append(doc["instance"])
                if args.dump_dir and not dumped:
                    dumped = True
                    os.makedirs(args.dump_dir, exist_ok=True)
                    name = f"fail-seed{args.seed}-index{index}.json"
                    with open(os.path.join(args.dump_dir, name), "w",
                              encoding="utf-8", newline="\n") as fh:
                        fh.write(serialize_instance(inst))

    summary = {
        "command": "fuzz",
        "regime": regime,
        "seed": str(args.seed),
        "count": args.count,
        "shape": spec.shape,
        "coordinate_bound": spec.coordinate_bound,
        "ratio_bound": spec.ratio_bound,
        "claims": tallies,
        "findings": findings,
        "generation_exhausted": generation_exhausted,
        "construction_errors": construction_errors,
        "failing_instances": failing_instances,
        "overall": "fail" if any_fail else "pass",
    }
    out.write(render(summary))
    return 1 if any_fail else 0


def cmd_counterexample(args: argparse.Namespace, out) -> int:
    if args.target not in NONCONVEX_TARGETS:
        print(
            f"error: --target must be a claim the nonconvex regime evaluates: "
            f"{', '.join(NONCONVEX_TARGETS)}",
            file=sys.stderr,
        )
        return 2
    if args.budget < 0:
        print("error: --budget must be nonnegative", file=sys.stderr)
        return 2
    try:
        spec = GenSpec(
            seed=args.seed,
            shape=args.shape,
            coordinate_bound=args.coordinate_bound,
            ratio_bound=args.ratio_bound,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for index in range(args.budget):
        try:
            quad, ratios = _instance_for(spec, "remarks", index)
            cfg = build_from_ratios(quad, ratios)
        except (GenerationExhausted, UndefinedPoint, DegenerateQuadrilateral):
            continue
        verdicts = verify_all(cfg, checks=[args.target])
        if verdicts and verdicts[0].status == FAIL:
            inst = instance_from_parts(quad, ratios, checks=(args.target,))
            text = serialize_instance(inst)
            if args.output and not _write_output(args.output, text):
                return 2
            out.write(text)
            return 0
    return 1


def cmd_figure(args: argparse.Namespace, out) -> int:
    try:
        _, cfg, reason = _load_and_build(args.file)
        if cfg is None:
            print(f"degenerate: {reason}", file=sys.stderr)
            return 0
        layers = tuple(c for c in args.layers.split(",") if c) if args.layers else None
        svg = render_svg(cfg, layers)
    except (*_INVALID_INPUT, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if _write_output(args.output, svg) else 2


def main(argv: list[str] | None = None, out=None) -> int:
    args = build_parser().parse_args(argv)
    out = out if out is not None else sys.stdout
    if args.command == "verify":
        return cmd_verify(args, out)
    if args.command == "fuzz":
        return cmd_fuzz(args, out)
    if args.command == "counterexample":
        return cmd_counterexample(args, out)
    return cmd_figure(args, out)


def entry() -> None:
    sys.exit(main())
