"""The benchmark's workloads, each a closed loop of units run one at a time.

A *unit* is one batch of command-line work whose output bytes are fixed by
the workload seed and the unit number ``k``.  ``unit`` runs it through
``quadconc.cli.main`` exactly as a user would.  Under ``traced`` the same
``unit`` runs with the program's public functions wrapped in place, so the
traced run is the command itself, not a copy of it.

* ``fuzz_general``: one unit is ``quadconc fuzz --regime general`` over
  ``FUZZ_COUNT`` instances; an item is one instance, timed per report line.
  The main user campaign; ``verify`` dominates it.
* ``search_crossed``: one unit is ``quadconc counterexample --shape crossed
  --target quadruple_concurrences --bound 1000`` with ``SEARCH_BUDGET``
  candidates.  The claim holds on crossed shapes, so the whole budget is
  spent and nothing is written; an item is one candidate, timed as the
  unit's time over its budget.  Stresses generation with rejection and
  construction on large integers, runs one verifier and no report.
* ``replay_files``: an item is ``quadconc verify FILE`` then ``quadconc
  figure FILE -o FILE.svg`` on an instance file, alternately from the
  ``gamma1`` and the ``general`` stream.  Each file is written, untimed,
  just before its first use, and none repeats, so the tail reflects the
  streams rather than a few slow files.  The read side: parsing, the pretty
  report and SVG rendering, no generation, and the only workload that
  evaluates the gamma-one claim family.
"""

from __future__ import annotations

import io
import os
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import wraps
from time import perf_counter

from quadconc import cli, instancefile, verifiers
from quadconc.errors import DegenerateQuadrilateral, GenerationExhausted, UndefinedPoint
from quadconc.generators import GenSpec, gen_quadrilateral, gen_ratios
from quadconc.instancefile import instance_from_parts, serialize_instance
from quadconc.verifiers import CLAIM_IDS, SKIPPED

from tracing import PROBE

# Instances per fuzz unit.  A 2000-instance campaign as one unit would last
# seconds, too long for the calibration slices (clock.py) to run between
# units; a unit of 25 lasts about 30 ms.
FUZZ_COUNT = 25
SEARCH_BUDGET = 20
SEARCH_TARGET = "quadruple_concurrences"
SEARCH_BOUND = 1000
PROBE_INSTANCES = 50
HARVEST_CFGS = 64  # configurations kept per census for kernel operands

_MASK = (1 << 64) - 1


def unit_seed(seed: int, k: int) -> int:
    """The program seed of unit ``k``: distinct per (workload seed, unit)."""
    return (seed * 65536 + k) & _MASK


@dataclass
class UnitResult:
    items: int
    timed: int  # items that ``seconds`` covers
    samples: list[float]  # item times in seconds
    seconds: float
    out: str  # every output byte of the unit, gated against a digest
    item_text: str  # the bytes written per item, for report.bytes_per_item
    failed: int


class _Stamped:
    """An ``out`` writer that timestamps every write."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.stamps: list[float] = []

    def write(self, text: str) -> None:
        self.stamps.append(perf_counter())
        self.parts.append(text)


@dataclass
class Census:
    """Exact work-mix counts over a fixed set of units.

    ``builds`` counts construction calls: ``replay_files`` builds each file
    twice, once for ``verify`` and once for ``figure``.
    """

    items: int = 0
    out_bytes: int = 0
    builds: int = 0
    build_errors: int = 0
    degenerate: int = 0
    max_bits: int = 0
    claims: dict = field(default_factory=lambda: {c: [0, 0] for c in CLAIM_IDS})
    cfgs: list = field(default_factory=list)

    def built(self, cfg) -> None:
        self.builds += 1
        self.degenerate += bool(cfg.degeneracies)
        for pt in cfg.named_points().values():
            if pt is not None:
                self.max_bits = max(self.max_bits, *(abs(c).bit_length() for c in pt.triple()))
        if len(self.cfgs) < HARVEST_CFGS:
            self.cfgs.append(cfg)

    def build_failed(self) -> None:
        self.builds += 1
        self.build_errors += 1

    def verdicts(self, verdicts) -> None:
        for v in verdicts:
            calls = self.claims[v.claim_id]
            calls[0] += 1
            calls[1] += v.status != SKIPPED

    def unit(self, r: UnitResult) -> None:
        self.items += r.items
        self.out_bytes += len(r.item_text.encode("utf-8"))

    def gated(self) -> dict:
        """The counts the default seed must repeat exactly.

        ``max_bits`` is left out: it depends on how points are stored, which
        a change may alter without changing any output byte.
        """
        return {"items": self.items, "builds": self.builds,
                "build_errors": self.build_errors, "degenerate": self.degenerate,
                "claims": self.claims}


def _spanned(tr, name, fn, after=None, failed=None, item=False):
    """``fn`` inside a span; ``after``/``failed`` see its result or failure.

    With ``item``, the call starts item ``(unit, index)`` of the current
    unit, ``index`` being its second argument.
    """

    @wraps(fn)
    def wrapper(*args, **kwargs):
        if item and isinstance(tr.item, tuple):
            tr.item = (tr.item[0], args[1])
        try:
            with tr.span(name):
                result = fn(*args, **kwargs)
        except Exception:
            if failed is not None:
                failed()
            raise
        if after is not None:
            after(result)
        return result

    return wrapper


@contextmanager
def traced(tr, census: Census | None = None):
    """Wrap the program's public functions in place while the block runs.

    Each is patched where the command looks it up: ``cli`` imports its
    callees by name, ``InstanceFile.configuration`` and ``load_instance``
    call ``instancefile``'s globals, and ``verify_all`` reads
    ``verifiers.CLAIM_RUNNERS`` at call time.  So ``cli.main`` runs
    unchanged and its spans nest as its calls do.  ``census``, if given,
    counts the configurations built and the verdicts returned; its counting
    would land in the callers' self time, so timed runs go without one.
    """
    verdicts = built = build_failed = None
    if census is not None:
        verdicts, built, build_failed = census.verdicts, census.built, census.build_failed
    patches = [
        (cli, "main", _spanned(tr, "cli.main", cli.main)),
        (cli, "build_parser", _spanned(tr, "cli.build_parser", cli.build_parser)),
        (cli, "gen_quadrilateral", _spanned(tr, "generators.gen_quadrilateral",
                                            cli.gen_quadrilateral, item=True)),
        (cli, "gen_ratios", _spanned(tr, "generators.gen_ratios", cli.gen_ratios)),
        (cli, "verify_all", _spanned(tr, "verifiers.verify_all", cli.verify_all,
                                     after=verdicts)),
        (verifiers, "CLAIM_RUNNERS", tuple(
            (claim, _spanned(tr, "verifiers." + claim, runner))
            for claim, runner in verifiers.CLAIM_RUNNERS)),
        (cli, "report_document", _spanned(tr, "report.report_document",
                                          cli.report_document)),
        (cli, "degenerate_report", _spanned(tr, "report.degenerate_report",
                                            cli.degenerate_report)),
        (cli, "render", _spanned(tr, "report.render", cli.render)),
        (cli, "render_svg", _spanned(tr, "svgfig.render_svg", cli.render_svg)),
        (cli, "instance_from_parts", _spanned(tr, "instancefile.instance_from_parts",
                                              cli.instance_from_parts)),
        (cli, "serialize_instance", _spanned(tr, "instancefile.serialize_instance",
                                             cli.serialize_instance)),
        (cli, "load_instance", _spanned(tr, "instancefile.load_instance",
                                        cli.load_instance)),
        (instancefile, "parse_instance", _spanned(tr, "instancefile.parse_instance",
                                                  instancefile.parse_instance)),
        (instancefile.InstanceFile, "configuration", _spanned(
            tr, "instancefile.configuration", instancefile.InstanceFile.configuration)),
    ]
    build = _spanned(tr, "configuration.build_from_ratios", cli.build_from_ratios,
                     after=built, failed=build_failed)
    patches += [(cli, "build_from_ratios", build), (instancefile, "build_from_ratios", build)]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def probe(tr, pairs) -> None:
    """Call the traced functions once per ``(spec, index)``, off the item path.

    Gives a per-call time, and verifier counts, for functions a workload's
    items never call, measured on that workload's own instances.  Must run
    inside ``traced``.
    """
    tr.item = PROBE
    for spec, index in pairs:
        try:
            quad = cli.gen_quadrilateral(spec, index)
            ratios = cli.gen_ratios(spec, index)
        except GenerationExhausted:
            continue
        inst = cli.instance_from_parts(quad, ratios)
        instancefile.parse_instance(cli.serialize_instance(inst))
        try:
            cfg = cli.build_from_ratios(quad, ratios)
        except (UndefinedPoint, DegenerateQuadrilateral):
            continue
        doc = cli.report_document({"probe": index}, cli.verify_all(cfg), cfg, instance=inst)
        cli.render(doc)
        cli.render_svg(cfg)


class FuzzGeneral:
    name = "fuzz_general"
    items_per_unit = FUZZ_COUNT
    gate_units = 8

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def unit(self, k: int) -> UnitResult:
        out = _Stamped()
        rc = cli.main(["fuzz", "--regime", "general", "--seed", str(unit_seed(self.seed, k)),
                       "--count", str(FUZZ_COUNT)], out=out)
        # the summary document after the last item is not an item
        lines = out.parts[:FUZZ_COUNT]
        if rc != 0 or len(lines) != FUZZ_COUNT:
            return UnitResult(FUZZ_COUNT, 0, [], 0.0, "".join(out.parts), "", FUZZ_COUNT)
        # Items are timed from the first line on.  The first line also
        # carries the command's argument parsing, which a campaign of
        # thousands of instances does once: left in, it would be one sample
        # in 25 and set the tail.
        stamps = out.stamps[:FUZZ_COUNT]
        samples = [b - a for a, b in zip(stamps, stamps[1:])]
        failed = sum('"overall":"fail"' in line for line in lines)
        return UnitResult(FUZZ_COUNT, len(samples), samples, stamps[-1] - stamps[0],
                          "".join(out.parts), "".join(lines), failed)

    def probe_pairs(self) -> list:
        # what ``cli._regime_spec`` makes of ``--regime general``
        return [(GenSpec(seed=unit_seed(self.seed, 0), shape="convex"), i)
                for i in range(PROBE_INSTANCES)]


class SearchCrossed:
    name = "search_crossed"
    items_per_unit = SEARCH_BUDGET
    gate_units = 10

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def unit(self, k: int) -> UnitResult:
        out = io.StringIO()
        start = perf_counter()
        rc = cli.main(["counterexample", "--shape", "crossed", "--target", SEARCH_TARGET,
                       "--bound", str(SEARCH_BOUND), "--budget", str(SEARCH_BUDGET),
                       "--seed", str(unit_seed(self.seed, k))], out=out)
        seconds = perf_counter() - start
        text = f"{rc}\n{out.getvalue()}"
        # a counterexample to a theorem, or any other exit, is a failure
        failed = 0 if text == "1\n" else SEARCH_BUDGET
        return UnitResult(SEARCH_BUDGET, SEARCH_BUDGET, [seconds / SEARCH_BUDGET], seconds,
                          text, out.getvalue(), failed)

    def probe_pairs(self) -> list:
        # what ``cli._instance_for`` makes of the remarks regime
        spec = GenSpec(seed=unit_seed(self.seed, 0), shape="crossed",
                       coordinate_bound=SEARCH_BOUND)
        return [(replace(spec, force_gamma_one=(i % 2 == 0)), i)
                for i in range(PROBE_INSTANCES)]


class ReplayFiles:
    name = "replay_files"
    items_per_unit = 1
    gate_units = 20

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.specs = (GenSpec(seed=seed, force_gamma_one=True), GenSpec(seed=seed))

    def _source(self, i: int) -> tuple[GenSpec, int]:
        return self.specs[i % 2], i // 2

    def _prepare(self, k: int) -> tuple[str, str]:
        """Instance file ``k``, written on first use, and an empty file for its figure.

        Both exist before the timed calls: creating a file, or rewriting one
        that holds data, makes ext4 wait for the disk, and the disk's latency
        on a shared machine is not the program's.
        """
        path, svg = f"s{self.seed}-{k:03d}.json", f"s{self.seed}-{k:03d}.svg"
        if not os.path.exists(path):
            spec, index = self._source(k)
            inst = instance_from_parts(gen_quadrilateral(spec, index), gen_ratios(spec, index))
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(serialize_instance(inst))
        if os.path.exists(svg):
            os.remove(svg)
        open(svg, "w").close()
        return path, svg

    def unit(self, k: int) -> UnitResult:
        path, svg = self._prepare(k)
        report = io.StringIO()
        start = perf_counter()
        rc_verify = cli.main(["verify", path], out=report)
        rc_figure = cli.main(["figure", path, "-o", svg], out=io.StringIO())
        seconds = perf_counter() - start
        with open(svg, encoding="utf-8") as fh:
            text = report.getvalue() + fh.read()
        return UnitResult(1, 1, [seconds], seconds, text, text,
                          int(rc_verify != 0 or rc_figure != 0))

    def probe_pairs(self) -> list:
        return [self._source(i) for i in range(PROBE_INSTANCES)]


WORKLOADS = {w.name: w for w in (FuzzGeneral, SearchCrossed, ReplayFiles)}


def run_unit(workload, k: int) -> UnitResult:
    """One unit; an exception fails every item of the unit."""
    try:
        return workload.unit(k)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        items = workload.items_per_unit
        return UnitResult(items, 0, [], 0.0, "", "", items)
