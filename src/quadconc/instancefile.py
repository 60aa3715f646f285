"""Reading and writing instance documents.

An instance is a JSON object with exact rational strings everywhere:

.. code-block:: json

    {
      "vertices": {"A": ["0", "0"], "B": ["1", "0"],
                   "C": ["1", "1"], "D": ["0", "1"]},
      "ratios": {"m": "1", "n": "1", "p": "1", "q": "2"},
      "checks": "all"
    }

``ratios`` may be replaced by ``points`` holding ``M N P Q`` coordinate
pairs; exactly one of the two must be present, and :class:`InstanceFile`
holds it as its one ``sides`` field.  ``checks`` is ``"all"`` or a list
of claim ids.  Rationals are written ``"p/q"`` or ``"p"``; decimal
literals are rejected outright so no precision is ever lost silently.
``parse_rational`` reads one as the pair ``(p, q)``, which
:class:`SideRatios` reduces; ``kernel.reduced_text`` writes the stored
lowest-terms pair back.  A point is read as its canonical triple
(``kernel.triple_from_terms``) and written back by ``kernel.triple_text``.
``instance_text`` is the one writer of the instance layout, and
``instance_document`` is its text parsed; ``render`` writes any
document with the standard library's ``json.dumps``.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii as _ascii
from typing import Callable, NamedTuple

from .configuration import (
    FULL_PLAN,
    Configuration,
    Plan,
    Quadrilateral,
    SideRatios,
    Triple,
    build_from_points,
    build_from_ratios,
)
from .errors import InstanceFormatError
from .kernel import Pair, reduced_text, triple_from_terms, triple_text
from .verifiers import select_claims

# ASCII digits only: ``\d`` would accept digits that do not round-trip
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

VERTEX_KEYS = ("A", "B", "C", "D")
RATIO_KEYS = ("m", "n", "p", "q")
POINT_KEYS = ("M", "N", "P", "Q")


def parse_rational(text: object, where: str) -> Pair:
    """The numerator and positive denominator of an exact rational string,
    as written; decimals and floats are errors."""
    match = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise InstanceFormatError(
            f"{where}: expected an exact rational string like '2/3', got {text!r}"
        )
    try:
        num, den = int(match[1]), int(match[2] or 1)
    except ValueError as exc:  # past the interpreter's integer string limit
        raise InstanceFormatError(f"{where}: {exc}") from exc
    if den == 0:
        raise InstanceFormatError(f"{where}: zero denominator")
    return num, den


def _positive(text: object, where: str) -> Pair:
    value = parse_rational(text, where)
    if value[0] <= 0:
        raise InstanceFormatError(f"{where}: must be positive")
    return value


def _parse_pair(obj: object, where: str) -> Triple:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise InstanceFormatError(f"{where}: expected a coordinate pair")
    xn, xd = parse_rational(obj[0], where + "[0]")
    yn, yd = parse_rational(obj[1], where + "[1]")
    return triple_from_terms(xn, xd, yn, yd)


def _mapping(doc: dict, key: str, names: tuple[str, ...], read: Callable, source: str) -> tuple:
    """The values of ``doc[key]``, an object keyed exactly by ``names``, each read."""
    obj = doc.get(key)
    if not isinstance(obj, dict) or sorted(obj) != sorted(names):
        raise InstanceFormatError(f"{source}: '{key}' must map exactly {', '.join(names)}")
    return tuple(read(obj[k], f"{source}: {key}.{k}") for k in names)


class InstanceFile(NamedTuple):
    """A parsed instance: vertices and one side description, the side
    ratios or the side points ``M N P Q``; each point a canonical triple."""

    vertices: tuple[Triple, Triple, Triple, Triple]
    sides: SideRatios | tuple[Triple, Triple, Triple, Triple]
    checks: tuple[str, ...]  # empty means "all"

    def configuration(self, plan: Plan = FULL_PLAN) -> Configuration:
        """The configuration of the instance, with the points ``plan``
        builds, by default every one, from its ratios or its side points."""
        quad = Quadrilateral.of(*self.vertices)
        if isinstance(self.sides, SideRatios):
            return build_from_ratios(quad, self.sides, plan)
        return build_from_points(quad, *self.sides, plan)


def parse_instance(text: str, source: str = "<instance>") -> InstanceFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise InstanceFormatError(f"{source}: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{source}: top level must be an object")

    unknown = sorted(set(doc) - {"vertices", "ratios", "points", "checks"})
    if unknown:
        raise InstanceFormatError(f"{source}: unknown keys: {', '.join(unknown)}")

    vertices = _mapping(doc, "vertices", VERTEX_KEYS, _parse_pair, source)
    if ("ratios" in doc) == ("points" in doc):
        raise InstanceFormatError(f"{source}: exactly one of 'ratios' or 'points' is required")
    sides = (SideRatios(*_mapping(doc, "ratios", RATIO_KEYS, _positive, source)) if "ratios" in doc
             else _mapping(doc, "points", POINT_KEYS, _parse_pair, source))

    checks_obj = doc.get("checks", "all")
    if checks_obj == "all" or checks_obj == ["all"]:
        checks: tuple[str, ...] = ()
    elif isinstance(checks_obj, list) and all(isinstance(c, str) for c in checks_obj):
        try:
            select_claims(checks_obj)
        except InstanceFormatError as exc:
            raise InstanceFormatError(f"{source}: {exc}") from None
        checks = tuple(checks_obj)
    else:
        raise InstanceFormatError(f"{source}: 'checks' must be \"all\" or a list of claim ids")

    return InstanceFile(vertices=vertices, sides=sides, checks=checks)


def load_instance(path: str) -> InstanceFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read(), source=path)


def _point(t: Triple) -> str:
    """The compact JSON array of ``triple_text(t)``; its texts need no escape."""
    return '["' + '","'.join(triple_text(t)) + '"]'


def _members(keys: tuple[str, ...], value: str) -> str:
    """The members of a compact JSON object with the sorted ``keys``, each
    value the layout ``value``."""
    return ",".join([_ascii(key) + ":" + value for key in keys])


# the compact instance, keys in sorted order; each %s is JSON text, except
# in _RATIOS, where it is a rational's text, which needs no escape
_INSTANCE = '{"checks":%s%s,"vertices":{' + _members(VERTEX_KEYS, "%s") + '}}'
_POINTS = ',"points":{' + _members(POINT_KEYS, "%s") + '}'
_RATIOS = ',"ratios":{' + _members(RATIO_KEYS, '"%s"') + '}'


def instance_text(inst: InstanceFile) -> str:
    """The instance as compact JSON with its keys sorted, as ``render``
    writes it but without the final LF, from the triples and stored pairs."""
    if isinstance(inst.sides, SideRatios):
        m, n, p, q = inst.sides.as_tuple
        sides = _RATIOS % (reduced_text(*m), reduced_text(*n), reduced_text(*p), reduced_text(*q))
    else:
        M, N, P, Q = inst.sides
        sides = _POINTS % (_point(M), _point(N), _point(P), _point(Q))
    checks = "[" + ",".join(map(_ascii, inst.checks)) + "]" if inst.checks else '"all"'
    A, B, C, D = inst.vertices
    return _INSTANCE % (checks, sides, _point(A), _point(B), _point(C), _point(D))


def instance_document(inst: InstanceFile) -> dict:
    """The JSON tree for an instance, all numbers as rational strings: its
    text ``instance_text(inst)``, parsed."""
    return json.loads(instance_text(inst))


def render(doc: dict, compact: bool = False) -> str:
    """Canonical JSON text of a document written once per command, or of
    a report tree: ``json.dumps`` with sorted keys, an indent of two unless
    ``compact``, and a final LF."""
    if compact:
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def serialize_instance(inst: InstanceFile) -> str:
    """Byte-stable rendering; parsing it back yields an equal instance."""
    return render(instance_document(inst))


def instance_from_parts(quad: Quadrilateral, ratios: SideRatios,
                        checks: tuple[str, ...] = ()) -> InstanceFile:
    """Wrap a generated quadrilateral and ratio tuple for replay, positionally."""
    return tuple.__new__(InstanceFile, (quad.vertices, ratios, checks))
