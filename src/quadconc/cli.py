"""Command-line front end.

Subcommands: ``verify`` an instance file, ``fuzz`` seeded random
instances, search for a ``counterexample`` on nonconvex shapes, and emit
an SVG ``figure``.  Exit codes are uniform: 0 for pass or degenerate,
1 when a verified claim failed (or a search found nothing), 2 for
invalid input.  Commands raise on invalid input where they find it;
``main`` alone turns that into ``error: …`` and exit 2.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from operator import itemgetter

from .configuration import (FULL_PLAN, Configuration, Plan, build_from_ratios,
                            construction_plan)
from .errors import DegenerateQuadrilateral, GenerationExhausted, InstanceFormatError, UndefinedPoint
from .generators import ANY_SHAPE, GenSpec, gen_quadrilateral, gen_ratios
from .instancefile import (instance_document, instance_from_parts, load_instance, render,
                           serialize_instance)
from .kernel import CONCAVE, CONVEX, CROSSED
# degenerate_report has no caller here: perfbench patches it as cli.degenerate_report
# until ROADMAP item 18 points its traced patches and probe at the writer
from .report import (degenerate_report, degenerate_verdicts, report_document, report_line,
                     report_text)
from .svgfig import DRAWN_PLAN, LAYERS, render_svg, select_layers
from .verifiers import (CLAIM_IDS, CLAIMS, DEGENERATE, FAIL, FINDING_CLAIMS, PASS, SKIPPED,
                        overall_status, select_claims, verify_all)

# each claim that can produce a verdict on concave/crossed inputs, and the
# points its check reads
NONCONVEX_TARGETS = {claim: reads for claim, regime, *_, reads, _ in CLAIMS
                     if regime != "convex"}
# each target's construction plan, compiled on its first search, not at import
_target_plan = functools.cache(construction_plan)
# the plan of a convex instance with gamma != 1: the reads of its claims
_CONVEX_PLAN = construction_plan(name for _, regime, *_, reads, _ in CLAIMS
                                 if regime in ("any", "convex") for name in reads)

# invalid input exits 2; a configuration that does not build is degenerate,
# which ``verify`` reports and ``fuzz`` tallies, and which exits 0
_INVALID_INPUT = (InstanceFormatError, OSError, UnicodeDecodeError)
_DEGENERATE_INPUT = (DegenerateQuadrilateral, UndefinedPoint)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused: it is
    immutable once built, and parsing keeps no state between calls.  Its
    ``commands`` maps each command name to its sub-parser, for ``main``."""
    parser = argparse.ArgumentParser(
        prog="quadconc",
        description="Exact verification of cevian concurrence claims in quadrilaterals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify the claims of one instance file")
    p_verify.set_defaults(run=cmd_verify)
    p_verify.add_argument("file")
    p_verify.add_argument(
        "--check", action="append", metavar="ID[,ID...]",
        help="claim ids to run (default: the file's checks, else all)",
    )

    p_fuzz = sub.add_parser("fuzz", help="run a seeded campaign of random instances")
    p_fuzz.set_defaults(run=cmd_fuzz)
    p_fuzz.add_argument("--count", type=int, required=True)
    p_fuzz.add_argument("--regime", choices=("gamma1", "general", "remarks"), required=True)
    p_fuzz.add_argument("--shape", choices=(CONVEX, CONCAVE, CROSSED, ANY_SHAPE))
    p_fuzz.add_argument("--dump-dir", help="write each failing instance here for replay")

    p_ce = sub.add_parser("counterexample",
                          help="search nonconvex instances for a claim failure")
    p_ce.set_defaults(run=cmd_counterexample)
    p_ce.add_argument("--shape", choices=(CROSSED, CONCAVE), required=True)
    p_ce.add_argument("--target", required=True, metavar="CLAIM")
    p_ce.add_argument("--budget", type=int, required=True)
    p_ce.add_argument("-o", "--output", help="also write the found instance to a file")

    for p in (p_fuzz, p_ce):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--bound", dest="coordinate_bound", type=int, default=10)
        p.add_argument("--ratio-bound", dest="ratio_bound", type=int, default=8)

    p_fig = sub.add_parser("figure", help="render an instance as an SVG drawing")
    p_fig.set_defaults(run=cmd_figure)
    p_fig.add_argument("file")
    p_fig.add_argument("-o", "--output", required=True)
    # no default: argparse converts a string default on every parse; None draws every layer
    p_fig.add_argument("--layers", help="comma-separated subset of: " + ",".join(LAYERS))

    parser.commands = sub.choices
    return parser


def _ids(chunks: list[str]) -> tuple[str, ...]:
    """The ids of comma-separated ``chunks``; ``select_claims`` and ``select_layers`` check them."""
    return tuple(c for chunk in chunks for c in chunk.split(",") if c)


def _built(build, *parts) -> Configuration | str:
    """``build(*parts)``, or ``"<Type>: <msg>"`` when the configuration is degenerate."""
    try:
        return build(*parts)
    except _DEGENERATE_INPUT as exc:
        return f"{type(exc).__name__}: {exc}"


def _verdicts(built: Configuration | str, claims: tuple[str, ...]):
    """``(verdicts, cfg)`` of the claims ``claims`` on ``built`` as ``_built``
    gives it: the degenerate verdicts and None for a message.  ``CLAIM_IDS``
    itself keeps ``verify_all``'s fast path for every claim."""
    if isinstance(built, str):
        return degenerate_verdicts(claims, built), None
    return verify_all(built, None if claims is CLAIM_IDS else claims), built


def _campaign(args: argparse.Namespace, regime: str, shape: str, count: int,
              plan: Plan | None):
    """Instances ``0 .. count - 1`` of the seeded stream the arguments name.

    Yields ``(index, quad, ratios, built)``, ``built`` as ``_built`` gives
    it for the construction ``plan``, if None ``_CONVEX_PLAN`` on a convex
    instance with ratio product other than one and ``FULL_PLAN`` on any
    other; when rejection sampling gives up, ``quad`` and ``ratios`` are
    None and ``built`` is its message.  The
    remarks regime alternates: product forced to one on even indices, free
    on odd, so both claim families get exercised.  Bad generator arguments
    raise on the first step, before any instance and even when ``count``
    is 0.
    """
    forced = (True, False) if regime == "remarks" else (regime == "gamma1",) * 2
    # the spec of each index parity, made (and validated) once
    specs = [GenSpec(seed=args.seed, shape=shape, coordinate_bound=args.coordinate_bound,
                     ratio_bound=args.ratio_bound, force_gamma_one=force) for force in forced]
    for index in range(count):
        spec = specs[index % 2]
        try:
            quad, ratios = gen_quadrilateral(spec, index), gen_ratios(spec, index)
        except GenerationExhausted as exc:
            yield index, None, None, str(exc)
            continue
        G, H = ratios.gamma
        yield index, quad, ratios, _built(build_from_ratios, quad, ratios, plan or (
            _CONVEX_PLAN if quad.shape == CONVEX and G != H else FULL_PLAN))


def _write_output(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8; an ``OSError`` reaches ``main``, which exits 2."""
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))


def cmd_verify(args: argparse.Namespace, out) -> int:
    """Print the pretty report, written straight from the verdicts by
    ``report_text``; its ``instance`` block is the instance file's text.
    The configuration is built in full under any ``--check``: its block
    writes every row's flags and ``r``."""
    inst = load_instance(args.file)
    checks = _ids(args.check) if args.check else inst.checks
    claims = select_claims(checks or None)
    verdicts, cfg = _verdicts(_built(inst.configuration), claims)
    # the instance text goes through cli's render, so the benchmark's report.render span
    # stays on this path, timing only this block, until ROADMAP item 18 renames it
    out.write(report_text({"source": args.file}, verdicts, cfg, render(instance_document(inst))))
    return 1 if overall_status(verdicts) == FAIL else 0


def cmd_fuzz(args: argparse.Namespace, out) -> int:
    """Write a compact report line per instance, then the summary, whose
    ``claims`` fold the count of each tuple of statuses a built line had;
    only a line with a ``fail`` collects its failed claims."""
    if args.count < 1:
        raise InstanceFormatError("--count must be at least 1")
    regime = args.regime
    shape = args.shape or (CROSSED if regime == "remarks" else CONVEX)
    if regime == "remarks" and shape not in (CONCAVE, CROSSED):
        raise InstanceFormatError("the remarks regime needs --shape concave or crossed")

    status_counts: dict[tuple[str, ...], int] = {}
    # instances where a claim other than a finding claim failed
    failing_instances: list[dict] = []
    generation_exhausted = 0
    construction_errors = 0

    checked = False
    seed = str(args.seed)
    for index, quad, ratios, built in _campaign(args, regime, shape, args.count, None):
        meta = {"seed": seed, "index": index, "regime": regime}
        if quad is None:
            generation_exhausted += 1
            out.write(render({"instance_meta": meta, "generation_error": built,
                              "overall": DEGENERATE}, compact=True))
            continue
        inst = instance_from_parts(quad, ratios)
        verdicts, cfg = _verdicts(built, CLAIM_IDS)
        construction_errors += cfg is None
        line = report_line(meta, verdicts, cfg, inst)
        if not checked:
            # a writer whose layout (spacing, key order, escapes) drifted
            # from json's would change every line unnoticed; the tree is the
            # line's parse, so checking the first line of each campaign
            # against its compact JSON catches that at a cost that does not
            # grow with --count.  The tests' oracle checks the values
            checked = True
            if line != render(report_document(meta, verdicts, cfg, instance=inst), compact=True):
                raise RuntimeError(f"report_line differs from the report tree at index {index}")
        out.write(line)
        if cfg is None:
            continue
        statuses = tuple(map(itemgetter(1), verdicts))
        status_counts[statuses] = status_counts.get(statuses, 0) + 1
        if FAIL not in statuses:
            continue
        failed = {v.claim_id for v in verdicts if v.status == FAIL}
        if failed - FINDING_CLAIMS:
            failing_instances.append(instance_document(inst))
        if args.dump_dir:
            os.makedirs(args.dump_dir, exist_ok=True)
            _write_output(os.path.join(args.dump_dir, f"fail-seed{args.seed}-index{index}.json"),
                          serialize_instance(inst))

    tallies = {claim: {PASS: 0, FAIL: 0, DEGENERATE: 0, SKIPPED: 0} for claim in CLAIM_IDS}
    for statuses, lines in status_counts.items():
        # verify_all returns every claim's verdict in CLAIM_IDS order
        for claim, status in zip(CLAIM_IDS, statuses):
            tallies[claim][status] += lines
    summary = {
        "command": "fuzz",
        "regime": regime,
        "seed": seed,
        "count": args.count,
        "shape": shape,
        "coordinate_bound": args.coordinate_bound,
        "ratio_bound": args.ratio_bound,
        "claims": tallies,
        "findings": {claim: tallies[claim][FAIL] for claim in sorted(FINDING_CLAIMS)},
        "generation_exhausted": generation_exhausted,
        "construction_errors": construction_errors,
        "failing_instances": failing_instances,
        "overall": FAIL if failing_instances else PASS,
    }
    out.write(render(summary))
    return 1 if failing_instances else 0


def cmd_counterexample(args: argparse.Namespace, out) -> int:
    """Search the remarks stream on ``--shape`` for an instance where the
    target claim fails, and write the first as an instance file.  Each
    candidate builds only the points the target reads and the rows they
    need (``construction_plan``); the rows that can collapse run in every
    plan, so a candidate is degenerate exactly when its full build is, and
    the output is the same as with every row built."""
    if args.target not in NONCONVEX_TARGETS:
        raise InstanceFormatError("--target must be a claim the nonconvex regime evaluates: "
                                  + ", ".join(NONCONVEX_TARGETS))
    if args.budget < 0:
        raise InstanceFormatError("--budget must be nonnegative")
    checks = (args.target,)
    plan = _target_plan(NONCONVEX_TARGETS[args.target])
    for _, quad, ratios, built in _campaign(args, "remarks", args.shape, args.budget, plan):
        if isinstance(built, str):
            continue
        verdicts = verify_all(built, checks)
        if verdicts[0].status == FAIL:
            text = serialize_instance(instance_from_parts(quad, ratios, checks=checks))
            if args.output:
                _write_output(args.output, text)
            out.write(text)
            return 0
    return 1


def cmd_figure(args: argparse.Namespace, out) -> int:
    inst = load_instance(args.file)
    # an empty list draws every layer, as an empty --check runs every claim
    layers = select_layers(_ids([args.layers or ""]) or None)
    built = _built(inst.configuration, DRAWN_PLAN)
    if isinstance(built, str):
        print(f"degenerate: {built}", file=sys.stderr)
        return 0
    _write_output(args.output, render_svg(built, layers))
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    """Run the command ``argv`` names (default ``sys.argv[1:]``) and return its exit code.
    A named command's own sub-parser reads the rest, with no top-level pass, and leftovers
    get the top-level error; no argument, ``-h`` or an unknown name parse at the top level."""
    # exact values print and parse at any size during this call only (the
    # limit exists from Python 3.10.7 on)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        parser = build_parser()
        argv = sys.argv[1:] if argv is None else argv
        command = parser.commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            args, rest = command.parse_known_args(argv[1:])
            if rest:
                parser.error("unrecognized arguments: " + " ".join(rest))
        return args.run(args, out if out is not None else sys.stdout)
    except _INVALID_INPUT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def entry() -> None:
    sys.exit(main())
