"""Golden output bytes: a change that alters any report or figure byte
fails here.

The fuzz digests are the sha256 of ``quadconc fuzz --seed 42 --count 1000``
in each regime, as the command writes it to stdout.  The figure digests
are the sha256 of ``render_svg`` over a generated stream, once with the
default layers and once per single layer.  The verdict corpus digest is
the sha256 of every verdict's report JSON over a small-bound stream, and
the corrupted-verdict digest the same over configurations with one stored
point replaced.  The verify digest is the sha256 of ``quadconc verify``
stdout over a fixed set of instance files, and the counterexample digest
the sha256 of ``quadconc counterexample``'s exit code, stdout and ``-o``
file over every target, shape, two seeds and two bounds.  Two
runs agreeing with each other (``test_determinism_byte_identical``) does
not catch a change in what both of them print.
"""

import hashlib
import io
import json
import re
from collections import Counter
from dataclasses import replace
from itertools import chain

import pytest

from quadconc import build_from_ratios
from quadconc.cli import NONCONVEX_TARGETS, main
from quadconc.configuration import POINT_NAMES
from quadconc.errors import GeometryError, UndefinedPoint
from quadconc.generators import GenSpec, gen_quadrilateral, gen_ratios
from quadconc.instancefile import InstanceFile, instance_from_parts, render, serialize_instance
from quadconc.kernel import rational_text
from quadconc.svgfig import LAYERS, render_svg
from quadconc.verifiers import CLAIM_IDS, DEGENERATE, FAIL, verify_all
from rationals import points, tri, verdict_json
from test_verifiers import with_points

GOLDEN = {
    ("gamma1",): "62b98c06f06714a51a9c8dad52286655916bce70f0dfe5a4d06890e430336d11",
    ("general",): "547d4e728731519eecb7b40dbf6464a953595432b60985bf0bd7d2774f5a228e",
    ("remarks",): "7820bb6abc623d41ef38c3e2a1ef68f2dde04b1cb146b16a448d2a0cba6bf3e1",
    ("remarks", "--shape", "concave"):
        "7767aa57bef2156a101391fca82e28774a91ddc15642e9d7c21044db020f0a8c",
    ("general", "--shape", "any"):
        "e0b8c3cf3287634a17652550929c947a3c35e720b75c99c64cdb9f8612bba64c",
    # large bounds: the construction's intermediate integers are widest here
    ("general", "--shape", "any", "--bound", str(10**30), "--ratio-bound", str(10**30)):
        "54b4b40f6943f01a7b80a9556768859ce9b811f159c3e47cc324b429cfb5b4ac",
}


@pytest.mark.parametrize("regime", sorted(GOLDEN), ids=" ".join)
def test_fuzz_bytes_match_golden_digest(regime):
    out = io.StringIO()
    main(["fuzz", "--seed", "42", "--count", "1000", "--regime", *regime], out=out)
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == GOLDEN[regime]


VERIFY_GOLDEN = "ed1054098b8aa92fc263305cd986750a180978c5e835e23c149d739164dfaf04"

# the unit square with its side midpoints, and with two coincident vertices
_SQUARE = (tri(0, 0), tri(1, 0), tri(1, 1), tri(0, 1))
_MIDPOINTS = InstanceFile(vertices=_SQUARE, checks=(),
                          sides=(tri(1, 0, 2), tri(2, 1, 2), tri(1, 2, 2), tri(0, 1, 2)))
_DEGENERATE = InstanceFile(vertices=(tri(0, 0), tri(0, 0), tri(1, 1), tri(0, 1)),
                           checks=(), sides=_MIDPOINTS.sides)


def test_verify_bytes_match_golden_digest(tmp_path, monkeypatch):
    """``verify`` stdout over 20 ``gamma1`` and 20 ``general`` seed-42
    files, the midpoint ``points`` file, a degenerate file and one
    ``--check`` subset, each file under a relative name, so the report's
    ``source`` is the same on every machine."""
    monkeypatch.chdir(tmp_path)
    files = {"midpoints.json": _MIDPOINTS, "degenerate.json": _DEGENERATE}
    for force in (True, False):
        spec = GenSpec(seed=42, force_gamma_one=force)
        for index in range(20):
            files[f"{force}-{index}.json"] = instance_from_parts(gen_quadrilateral(spec, index),
                                                                 gen_ratios(spec, index))
    runs = [["verify", name] for name in files]
    runs.append(["verify", "False-0.json", "--check", "seven_lines,crossing_ratios",
                 "--check", "inner_quadrilateral"])
    h = hashlib.sha256()
    for name, inst in files.items():
        (tmp_path / name).write_text(serialize_instance(inst), encoding="utf-8")
    for argv in runs:
        out = io.StringIO()
        assert main(argv, out=out) == 0
        h.update(out.getvalue().encode("utf-8"))
    assert h.hexdigest() == VERIFY_GOLDEN


COUNTEREXAMPLE_GOLDEN = "3fb231aac9e2c3c43b3590f772b3b54ad8e85d2199cf6fdd8c8cde133529610b"


def test_counterexample_bytes_match_golden_digest(tmp_path):
    """``counterexample --budget 30`` for every target of ``NONCONVEX_TARGETS``
    x ``crossed``, ``concave`` x seeds 42, 43 x ``--bound`` 10, 1000: each run
    adds its exit code, its stdout and the bytes of its ``-o`` file, or
    ``-`` where it wrote none.  The convexity target finds an instance."""
    h = hashlib.sha256()
    found = 0
    for target in NONCONVEX_TARGETS:
        for shape in ("crossed", "concave"):
            for seed in ("42", "43"):
                for bound in ("10", "1000"):
                    path = tmp_path / f"{target}-{shape}-{seed}-{bound}.json"
                    out = io.StringIO()
                    code = main(["counterexample", "--shape", shape, "--target", target,
                                 "--budget", "30", "--seed", seed, "--bound", bound,
                                 "-o", str(path)], out=out)
                    written = path.read_bytes() if path.exists() else b"-"
                    found += written != b"-"
                    h.update(f"{code}\n{out.getvalue()}".encode("utf-8") + written)
    assert found and h.hexdigest() == COUNTEREXAMPLE_GOLDEN


# small bounds make ideal and undefined points common
_SMALL = GenSpec(seed=42, coordinate_bound=4, ratio_bound=2)

SVG_CASES = {
    "gamma1": (GenSpec(seed=42, force_gamma_one=True), range(30)),
    "general": (GenSpec(seed=42), range(30)),
    "crossed": (GenSpec(seed=42, shape="crossed"), range(30)),
    "concave": (GenSpec(seed=42, shape="concave"), range(30)),
    # E and O ideal
    "crossed ideal E": (replace(_SMALL, shape="crossed"), (202,)),
    # P1 and Q1 undefined, R on vertex B
    "concave undefined P1": (replace(_SMALL, shape="concave", force_gamma_one=True), (16,)),
}

SVG_GOLDEN = {
    "gamma1": "226138f7a35ba0d47384eacb4f91c9673f7b3efb36f233e1515bf355cb714e21",
    "general": "c81e1314d9a6a067c2026955241dc4912185b9fa412b8f65e9f4a250ec801043",
    "crossed": "947ae28082a3e4e645c44d1d2c04f962cff0e88b3030763b63cc5ad99ed82463",
    "concave": "c37679b6b6269cd56613bf3b2c9e0057d73a134aa74bfe9b238c723f16acfb8a",
    "crossed ideal E": "20fceec03b6f418472875670d64ac156b75b919dc9338fdfa7c04a5c35a01d82",
    "concave undefined P1":
        "5f30eb3ba4b904ce38e4024d1e597d34687c04010fc89e33f88dd6b64f096d15",
}


def svg_digest(case: str) -> str:
    spec, indices = SVG_CASES[case]
    h = hashlib.sha256()
    for index in indices:
        try:
            cfg = build_from_ratios(gen_quadrilateral(spec, index), gen_ratios(spec, index))
        except GeometryError as exc:
            h.update(f"{type(exc).__name__}: {exc}\n".encode("utf-8"))
            continue
        for layers in (None, *((layer,) for layer in LAYERS)):
            h.update(render_svg(cfg, layers).encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(SVG_CASES))
def test_svg_bytes_match_golden_digest(case):
    assert svg_digest(case) == SVG_GOLDEN[case]


VERDICT_CORPUS_GOLDEN = "154cf490cc7259015f030f5a3feddbbcc387996288ab4522bac06fe59d421929"


def verdict_corpus():
    """Seeds 0-3 x convex, concave, crossed x the product forced to one,
    then free x indices 0-149, at the small bounds: 3,600 instances.  Yields
    each instance's verdicts, or the error its build raises."""
    for seed in range(4):
        for shape in ("convex", "concave", "crossed"):
            for force in (True, False):
                spec = replace(_SMALL, seed=seed, shape=shape, force_gamma_one=force)
                for index in range(150):
                    try:
                        cfg = build_from_ratios(gen_quadrilateral(spec, index),
                                                gen_ratios(spec, index))
                    except GeometryError as exc:
                        yield exc
                        continue
                    yield verify_all(cfg)


def test_verdict_corpus_digest():
    """Each verdict of ``verdict_corpus`` adds its sorted-key
    ``verdict_json`` and a newline; a build that raises adds
    ``"<Type>: <message>"`` and a newline instead."""
    h = hashlib.sha256()
    for verdicts in verdict_corpus():
        if isinstance(verdicts, GeometryError):
            h.update(f"{type(verdicts).__name__}: {verdicts}\n".encode("utf-8"))
            continue
        for v in verdicts:
            line = json.dumps(verdict_json(v), sort_keys=True) + "\n"
            h.update(line.encode("utf-8"))
    assert h.hexdigest() == VERDICT_CORPUS_GOLDEN


# the generator and the construction alone, over every shape, both regimes
# and bounds from the smallest to 10^30
CONSTRUCTION_BOUNDS = ((4, 2), (10, 8), (1000, 8), (10**30, 10**30))
CONSTRUCTION_GOLDEN = "50db679e167398a295d657c6528cf0855483bac4aa2f4ad93c2f1da349e5717a"


def construction_digest() -> str:
    """Seed 42 x convex, concave, crossed, any x the product forced to one,
    then free x ``CONSTRUCTION_BOUNDS`` x indices 0-99: 3,200 instances.
    Each instance adds its vertex triples, shape and ratio text; then, if it
    builds, every named point's triple (``None`` when undefined) in
    ``named_points`` order, the sorted flags and the text of ``r``; if it does not,
    the exception's type and ``name``."""
    h = hashlib.sha256()
    for shape in ("convex", "concave", "crossed", "any"):
        for force in (True, False):
            for bound, ratio_bound in CONSTRUCTION_BOUNDS:
                spec = GenSpec(seed=42, shape=shape, coordinate_bound=bound,
                               ratio_bound=ratio_bound, force_gamma_one=force)
                for index in range(100):
                    quad = gen_quadrilateral(spec, index)
                    ratios = gen_ratios(spec, index)
                    parts = [repr(list(quad.vertices)), quad.shape,
                             repr([rational_text(*x) for x in ratios.as_tuple])]
                    try:
                        cfg = build_from_ratios(quad, ratios)
                    except UndefinedPoint as exc:
                        parts += [type(exc).__name__, exc.name]
                    else:
                        parts += [repr([(name, None if pt is None else pt.triple())
                                        for name, pt in cfg.named_points().items()]),
                                  repr(sorted(cfg.degeneracies)), rational_text(*cfg.r_ratio)]
                    h.update(("\t".join(parts) + "\n").encode("utf-8"))
    return h.hexdigest()


def test_construction_digest():
    assert construction_digest() == CONSTRUCTION_GOLDEN


# the verdicts where a stored point is wrong: the fuzz streams reach no
# failing or undefined-line path, so their details are pinned here
CORRUPTION_BOUNDS = ((10, 8), (1000, 8))
CORRUPTED_VERDICT_GOLDEN = "b7ccd71ab1ec4d45e6a739f39a6c62b156ab48d90ba454c5db4c28422273b906"


def corruptions(cfg):
    """Each ``(name, kind, point)`` that replaces one stored point: every
    constructed point by ``None``; every point by the next defined point in
    ``POINT_NAMES`` order; every point by an ideal point, its own direction
    ``(x, y, 0)``, or ``(1, 0, 0)`` where it has none."""
    stored = points(cfg)
    for i, name in enumerate(POINT_NAMES):
        if i >= 8:
            yield name, "none", None
        other = next(n for n in POINT_NAMES[i + 1:] + POINT_NAMES[:i] if stored[n] is not None)
        yield name, "other", stored[other]
        x, y, w = stored[name] or (0, 0, 0)
        yield name, "ideal", tri(x, y, 0) if w and (x or y) else tri(1, 0, 0)


def corrupted_verdicts():
    """Seed 42 x convex, concave, crossed, any x the product forced to one,
    then free x ``CORRUPTION_BOUNDS`` x indices 0-3: yields the point name,
    the kind and the verdicts of each configuration that builds under each
    of its ``corruptions``."""
    for shape in ("convex", "concave", "crossed", "any"):
        for force in (True, False):
            for bound, ratio_bound in CORRUPTION_BOUNDS:
                spec = GenSpec(seed=42, shape=shape, coordinate_bound=bound,
                               ratio_bound=ratio_bound, force_gamma_one=force)
                for index in range(4):
                    try:
                        cfg = build_from_ratios(gen_quadrilateral(spec, index),
                                                gen_ratios(spec, index))
                    except UndefinedPoint:
                        continue
                    for name, kind, t in corruptions(cfg):
                        yield name, kind, verify_all(with_points(cfg, **{name: t}))


def corrupted_verdict_digest() -> str:
    """Each of ``corrupted_verdicts`` adds ``render`` of the point name, the
    kind and every verdict's report JSON: status, detail, witness text and
    exact values."""
    h = hashlib.sha256()
    for name, kind, verdicts in corrupted_verdicts():
        doc = {"point": name, "kind": kind, "verdicts": [verdict_json(v) for v in verdicts]}
        h.update(render(doc, compact=True).encode("utf-8"))
    return h.hexdigest()


def test_corrupted_verdict_digest():
    assert corrupted_verdict_digest() == CORRUPTED_VERDICT_GOLDEN


# the reasons and failures of the identity claims, every claim but the two
# sign claims: <point>_IDEAL, <point>_UNDEFINED, <line>_UNDEFINED,
# <key>_UNDEFINED, <key>_formula_UNDEFINED, <line> misses <point> and
# <key> mismatch
SIGN_CLAIMS = ("inner_quadrilateral", "inner_quadrilateral_convexity")
_POINT = "|".join(sorted(POINT_NAMES, key=len, reverse=True))
_REASON = re.compile(rf"(?:{_POINT})_IDEAL|\w+_UNDEFINED|\w+ misses (?:{_POINT})|(\w+) mismatch")


def test_identity_claims_speak_one_vocabulary():
    """Every ``degenerate`` or ``fail`` detail of an identity claim over the
    verdict corpus and the corrupted verdicts is a ``"; "``-join of the
    seven reason forms, and each ``<key> mismatch`` names an exact value of
    its verdict."""
    streams = chain((vs for vs in verdict_corpus() if not isinstance(vs, GeometryError)),
                    (vs for _, _, vs in corrupted_verdicts()))
    seen = Counter()
    for v in chain.from_iterable(streams):
        if v.claim_id in SIGN_CLAIMS or v.status not in (DEGENERATE, FAIL):
            continue
        seen[v.claim_id, v.status] += 1
        for token in v.detail.split("; "):
            match = _REASON.fullmatch(token)
            assert match and match[1] in (None, *v.exact_values), (v.claim_id, v.detail)
    assert {claim for claim, _ in seen} == set(CLAIM_IDS) - set(SIGN_CLAIMS)
    assert {status for _, status in seen} == {DEGENERATE, FAIL}
