"""Machine-readable verification reports.

A report is a single JSON object per instance.  Every number in it is an
exact rational string; nothing is ever rounded.  Its text is byte-stable:
same instance, same verdicts, same bytes.  The verifiers decide and this
module writes: a verdict's ``exact_values`` are integer ``(num, den)``
pairs, each written here by ``kernel.rational_text``, in the bytes
``str(Fraction)`` writes.

Both commands write reports straight from the verdicts, with no tree
and no ``json`` encoder call, through one writer that takes its layout
as data.  ``report_line`` writes one compact ``fuzz`` line and
``report_text`` what ``verify`` prints, each in the bytes ``render``
gives its parse, compact or indented.
This module writes no part of an instance: the ``instance`` value is
``instancefile.instance_text`` in a line, and the instance file's own
text indented one level in ``verify``'s report.  Each layout's fixed
text, keys in sorted order, is made at import, and nothing that is the
same on every report is made again per report:

* a report's shape (its meta keys, in the order given, and each
  verdict's claim id, status, witness names and exact-value keys) is
  compiled on first use into one ``%`` format per layout, all of that
  fixed text, escaped and in sorted order, and the overall status
  inlined, and kept for up to ``_SHAPES_MAX`` shapes; so each meta value
  is the only meta text written per report;
* the witnesses are written from their canonical triples by
  ``kernel.triple_text``, whose texts need no escape, each distinct
  triple's text once per report;
* the stored lowest-terms pairs ``gamma`` and ``r`` are written by
  ``kernel.reduced_text``, with no second gcd;
* each distinct exact-value pair is written once per report by
  ``rational_text``, whose text is ASCII digits, ``-`` and ``/`` and
  needs no escape.

Every other string goes through ``json``'s C escaper as it is: the meta
values that are strings, the flags and the shape on each use, and each
distinct ``detail`` once per report.  The tree (``report_document``) is
the parse of ``report_line``, as the instance tree is the parse of
``instance_text``, so a report is written one way only.  ``fuzz`` checks
its first line's layout against ``render`` of that tree; the tests check
its values against an oracle of their own, built from ``Fraction``s.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _ascii
from typing import Iterable, Optional, Sequence

from .configuration import Configuration
from .instancefile import InstanceFile, instance_text
from .kernel import rational_text, reduced_text, triple_text
from .verifiers import DEGENERATE, Verdict, overall_status


def report_document(meta: dict, verdicts: Sequence[Verdict],
                    cfg: Optional[Configuration], instance: InstanceFile) -> dict:
    """The report as a JSON tree, the parse of ``report_line``; ``meta``
    maps names to strings and integers."""
    return json.loads(report_line(meta, verdicts, cfg, instance))


def degenerate_verdicts(claims: Iterable[str], reason: str) -> list[Verdict]:
    """A ``degenerate`` verdict with detail ``reason`` for each of ``claims``."""
    return [Verdict(claim, DEGENERATE, detail=reason) for claim in claims]


def degenerate_report(meta: dict, claims: Iterable[str], reason: str,
                      instance: InstanceFile) -> dict:
    """Report for an instance whose configuration could not be built."""
    return report_document(meta, degenerate_verdicts(claims, reason), cfg=None,
                           instance=instance)


def _meta_value(value: object) -> str:
    """A meta value as ``json`` writes it: a string, or an ``int``."""
    if isinstance(value, str):
        return _ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    raise TypeError(f"reports write str and int meta values, not {type(value).__name__}")


def _layout(newline: str, indent: str) -> tuple:
    """The fixed text of a report that writes each nested item on its own
    line, after ``newline`` and ``indent`` once per level; compact when
    both are empty.  In order: the formats of the report, of its
    configuration member and of a verdict; the colon after a key; and the
    ``(opening, separator, closing)`` around the items of the meta, the
    flags, the verdicts, a witness or exact-values object, and a witness
    point's texts.  An empty container is ``{}`` or ``[]`` in every layout."""
    colon = ": " if newline else ":"

    def container(level: int, brackets: str = "{}") -> tuple[str, str, str]:
        inner = newline + indent * (level + 1)
        return brackets[0] + inner, "," + inner, newline + indent * level + brackets[1]

    def fixed(level: int, pairs: list[tuple[str, str]], first: str = "") -> str:
        """An object of fixed keys; ``first`` goes before its first member."""
        opening, separator, closing = container(level)
        return opening + first + separator.join(
            [_ascii(key) + colon + value for key, value in pairs]) + closing

    point = container(4, "[]")
    return (fixed(0, [("instance", "%s"), ("instance_meta", "%s"), ("overall", "%s"),
                      ("verdicts", "%s")], first="%s") + "\n",
            '"configuration"' + colon + fixed(1, [("degeneracies", "%s"), ("gamma", '"%s"'),
                                                  ("r", '"%s"'), ("shape", "%s")])
            + container(0)[1],
            fixed(2, [("claim", "%s"), ("detail", "%s"), ("exact_values", "%s"),
                      ("status", "%s"), ("witness", "%s")]),
            colon, container(1), container(2, "[]"), container(1, "[]"), container(3),
            (point[0] + '"', '"' + point[1] + '"', '"' + point[2]))


_COMPACT = _layout("", "")
_PRETTY = _layout("\n", "  ")

# at most this many formats are kept, one per layout and verdict shape;
# past it a shape is compiled on each use and not stored
_SHAPES_MAX = 256
_shapes: dict = {}


def _compile(layout: tuple, meta: dict, verdicts: Sequence[Verdict],
             shape: tuple) -> tuple[str, tuple, tuple]:
    """The format of a report in ``layout`` with the meta keys and the
    verdicts' ``shape``, every fixed text inlined with each ``%`` doubled;
    the meta keys in sorted order, as their slots follow; and each verdict's
    exact-value keys and witness names in sorted order, as its slots follow."""
    report, _, verdict, colon, meta_layout, _, (v_open, v_sep, v_close), object_layout, _ = layout

    def fixed(text: str) -> str:
        return _ascii(text).replace("%", "%%")

    def members(names: Sequence[str], value: str, container: tuple = object_layout) -> str:
        opening, separator, closing = container
        return opening + separator.join([fixed(name) + colon + value for name in names]) \
            + closing if names else "{}"

    parts, orders = [], []
    for claim, status, _, witness, values in verdicts:
        keys, names = sorted(values), sorted(witness)
        orders.append((keys, names))
        parts.append(verdict % (fixed(claim), "%s", members(keys, '"%s"'), fixed(status),
                                members(names, "%s")))
    meta_keys = tuple(sorted(meta))
    entry = (report % ("%s", "%s", members(meta_keys, "%s", meta_layout),
                       fixed(overall_status(verdicts)),
                       v_open + v_sep.join(parts) + v_close if parts else "[]"),
             meta_keys, tuple(orders))
    if len(_shapes) < _SHAPES_MAX:
        _shapes[shape] = entry
    return entry


def _write(layout: tuple, meta: dict, verdicts: Sequence[Verdict],
           cfg: Optional[Configuration], instance: str) -> str:
    """The report in ``layout``, its ``instance`` value the JSON text
    ``instance``, filled into the format of its meta keys and its
    verdicts' shape.  The text of each meta value is written, and of each
    distinct detail, witness triple and exact-value pair once."""
    report, configuration_format, _, _, _, flags_layout, _, _, (p_open, p_sep, p_close) = layout
    configuration = ""
    if cfg is not None:
        opening, separator, closing = flags_layout
        flags = opening + separator.join(
            [_ascii(flag) for flag in sorted(cfg.degeneracies)]) + closing \
            if cfg.degeneracies else "[]"
        configuration = configuration_format % (
            flags, reduced_text(*cfg.ratios.gamma), reduced_text(*cfg.r_ratio),
            _ascii(cfg.quad.shape))
    shape = (report, tuple(meta), *[(claim, status, tuple(witness), tuple(values))
                                    for claim, status, _, witness, values in verdicts])
    shape_format, meta_keys, orders = _shapes.get(shape) or _compile(layout, meta, verdicts,
                                                                     shape)
    args = [configuration, instance, *[_meta_value(meta[key]) for key in meta_keys]]
    texts: dict = {}  # keyed by detail, pair and triple, which never compare equal
    for (_, _, detail, witness, values), (keys, names) in zip(verdicts, orders):
        args.append(texts.get(detail) or texts.setdefault(detail, _ascii(detail)))
        for key in keys:
            value = values[key]
            args.append(texts.get(value) or texts.setdefault(value, rational_text(*value)))
        for name in names:
            t = witness[name]
            args.append(texts.get(t) or texts.setdefault(
                t, p_open + p_sep.join(triple_text(t)) + p_close))
    return shape_format % tuple(args)


def report_line(meta: dict, verdicts: Sequence[Verdict], cfg: Optional[Configuration],
                instance: InstanceFile) -> str:
    """The report as one compact line, in the bytes of ``render(...,
    compact=True)``.  ``meta`` maps names to strings and integers."""
    return _write(_COMPACT, meta, verdicts, cfg, instance_text(instance))


def report_text(meta: dict, verdicts: Sequence[Verdict], cfg: Optional[Configuration],
                file_text: str) -> str:
    """The report as ``verify`` prints it, in the bytes of ``render(...)``,
    given the instance file's text ``file_text =
    render(instance_document(instance))``.  ``meta`` maps names to
    strings and integers."""
    return _write(_PRETTY, meta, verdicts, cfg, file_text[:-1].replace("\n", "\n  "))
