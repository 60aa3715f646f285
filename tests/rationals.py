"""``Fraction`` views of the package's rationals, and ways into it, for tests.

The package holds every rational as an integer ``(num, den)`` pair and
every point as a canonical integer triple, and reads no ``Fraction``.  The
naive twin and the comparisons in the tests read pairs and points as
``Fraction``s through ``frac``, ``affine``, ``param`` and ``ratio``; the
tests write points, side ratios and single bounded draws as ``int``s and
``Fraction``s through ``tri``, ``side_ratios`` and ``draw``, and the
tests of the kernel's :class:`Point` API write points through ``pt``.
``points`` maps a configuration's point names to their triples.

``report_tree`` is the report writer's oracle: the JSON tree of a report,
built from ``Fraction``s and calling none of the kernel's text functions.
Each exact value is ``str(Fraction(num, den))``, each point its affine
coordinates' ``str`` (its integer triple if it is ideal), and the
``instance`` is ``instance_document``, whose text has oracles of its own.
"""

from fractions import Fraction

from quadconc import Point, SideRatios
from quadconc._purekernel import reduce3
from quadconc.configuration import POINT_NAMES
from quadconc.instancefile import instance_document
from quadconc.kernel import parameter_pair


def frac(pair: tuple[int, int]) -> Fraction:
    """The rational ``num/den`` of a pair; ``den`` is nonzero, of either sign."""
    return Fraction(*pair)


def affine(t: tuple[int, int, int]) -> tuple[Fraction, Fraction]:
    """The affine coordinates ``(x/w, y/w)`` of a finite point's triple."""
    x, y, w = t
    if w == 0:
        raise ValueError(f"{t!r} is ideal and has no affine coordinates")
    return Fraction(x, w), Fraction(y, w)


def param(a, b, x) -> Fraction:
    """The parameter of ``x`` on ``a -> b``, for triples where
    ``parameter_pair`` is defined."""
    pair = parameter_pair(a, b, x)
    assert pair is not None, (a, b, x)
    return frac(pair)


def ratio(a, p, b) -> Fraction:
    """The directed ratio in which ``p`` splits ``a -> b``, for triples
    where it is defined."""
    lam = param(a, b, p)
    assert lam != 1, (a, p, b)
    return lam / (1 - lam)


def tri(x, y, w=1) -> tuple[int, int, int]:
    """The canonical triple of the point ``(x, y, w)``, each an ``int`` or a
    ``Fraction``; the zero triple raises ``ValueError``."""
    (xn, xd), (yn, yd), (wn, wd) = (Fraction(v).as_integer_ratio() for v in (x, y, w))
    return reduce3(xn * yd * wd, yn * xd * wd, wn * xd * yd)


def pt(x, y, w=1) -> Point:
    """The :class:`Point` of ``tri(x, y, w)``."""
    return Point._wrap(tri(x, y, w))


def points(cfg) -> dict:
    """The triple of each named point of ``cfg``, ``None`` where undefined."""
    return dict(zip(POINT_NAMES, cfg.triples))


def side_ratios(m, n, p, q) -> SideRatios:
    """The side ratios ``m n p q``, each an ``int`` or a ``Fraction``."""
    return SideRatios(*(Fraction(v).as_integer_ratio() for v in (m, n, p, q)))


def draw(rng, lo: int, hi: int) -> int:
    """One bounded draw in ``[lo, hi]`` from the stream ``rng``."""
    return rng.ints(((lo, hi - lo + 1),))[0]


def coordinates(t: tuple[int, int, int]) -> list[str]:
    """A point's text in a report: ``str`` of its affine coordinates, or of
    its integer triple if it is ideal."""
    return [str(c) for c in (t if t[2] == 0 else affine(t))]


def verdict_json(v) -> dict:
    """The JSON tree of the verdict ``v`` in a report."""
    return {
        "claim": v.claim_id,
        "status": v.status,
        "detail": v.detail,
        "witness": {name: coordinates(t) for name, t in v.witness.items()},
        "exact_values": {key: str(frac(pair)) for key, pair in v.exact_values.items()},
    }


def report_tree(meta: dict, verdicts, cfg, inst) -> dict:
    """The JSON tree of the report of ``verdicts`` on the instance ``inst``,
    with its configuration block when ``cfg`` is not ``None``; ``fail``
    beats ``degenerate`` beats ``pass`` in its ``overall``."""
    doc: dict = {"instance_meta": meta, "instance": instance_document(inst)}
    if cfg is not None:
        doc["configuration"] = {"gamma": str(frac(cfg.ratios.gamma)), "shape": cfg.quad.shape,
                                "r": str(frac(cfg.r_ratio)),
                                "degeneracies": sorted(cfg.degeneracies)}
    doc["verdicts"] = [verdict_json(v) for v in verdicts]
    seen = {v.status for v in verdicts}
    doc["overall"] = "fail" if "fail" in seen else "degenerate" if "degenerate" in seen \
        else "pass"
    return doc
