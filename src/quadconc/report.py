"""Machine-readable verification reports.

A report is a single JSON object per instance.  Every number in it is an
exact rational string; nothing is ever rounded.  Its text is byte-stable:
same instance, same verdicts, same bytes.  The verifiers decide and this
module writes: a verdict's ``exact_values`` are integer ``(num, den)``
pairs, each written here by ``kernel.rational_text``, in the bytes
``str(Fraction)`` writes.

Both commands write reports straight from the verdicts, with no tree
and no ``json`` encoder call, through one writer that takes its layout
as data.  ``report_line`` writes one compact ``fuzz`` line, the bytes of
``render(report_document(...), compact=True)``; ``report_text`` writes
what ``verify`` prints, the bytes of ``render(report_document(...))``,
its ``instance`` block the instance file's own text indented one level.
Each layout's fixed text, keys in sorted order, is made at import, and
nothing that is the same on every report is made again per report:

* each fixed string (claim id, status, exact-value key, witness name,
  meta key, flag, shape and claim id of ``checks``) is escaped by
  ``json``'s C escaper once per process and then looked up;
* coordinates are written from the integer triples by
  ``kernel.triple_text``, whose texts need no escape, and each distinct
  witness point's text once per report;
* the stored lowest-terms pairs, the instance's ratios, ``gamma`` and
  ``r``, are written by ``kernel.reduced_text``, with no second gcd;
* each distinct exact-value pair is written once per report by
  ``rational_text``, whose text is ASCII digits, ``-`` and ``/`` and
  needs no escape.

Every other string, such as a ``detail``, goes through the escaper as it
is.  The tree (``report_document``) uses the same text functions, so the
writer and the tree agree on any input.  It remains as the test oracle
and as the check of each ``fuzz`` campaign's first line.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _ascii
from typing import Iterable, Optional, Sequence

from .configuration import Configuration
from .instancefile import (POINT_KEYS, RATIO_KEYS, VERTEX_KEYS, InstanceFile,
                           instance_document)
from .kernel import rational_text, reduced_text, triple_text
from .verifiers import DEGENERATE, Verdict, overall_status


def verdict_json(v: Verdict) -> dict:
    return {
        "claim": v.claim_id,
        "status": v.status,
        "detail": v.detail,
        "witness": {name: pt.text() for name, pt in v.witness.items()},
        "exact_values": {key: rational_text(*value) for key, value in v.exact_values.items()},
    }


def configuration_json(cfg: Configuration) -> dict:
    return {
        "gamma": reduced_text(*cfg.ratios.gamma),
        "shape": cfg.quad.shape,
        "r": reduced_text(*cfg.r_ratio),
        "degeneracies": sorted(cfg.degeneracies),
    }


def report_document(meta: dict, verdicts: Sequence[Verdict],
                    cfg: Optional[Configuration], instance: InstanceFile) -> dict:
    doc: dict = {"instance_meta": meta, "instance": instance_document(instance)}
    if cfg is not None:
        doc["configuration"] = configuration_json(cfg)
    doc["verdicts"] = [verdict_json(v) for v in verdicts]
    doc["overall"] = overall_status(verdicts)
    return doc


def degenerate_verdicts(claims: Iterable[str], reason: str) -> list[Verdict]:
    """A ``degenerate`` verdict with detail ``reason`` for each of ``claims``."""
    return [Verdict(claim, DEGENERATE, detail=reason) for claim in claims]


def degenerate_report(meta: dict, claims: Iterable[str], reason: str,
                      instance: InstanceFile) -> dict:
    """Report for an instance whose configuration could not be built."""
    return report_document(meta, degenerate_verdicts(claims, reason), cfg=None,
                           instance=instance)


# at most this many fixed strings are kept escaped; past it a new string is
# escaped on each use, as every string was before the table
_ESCAPED_MAX = 4096


class _Escaped(dict):
    """Each string's JSON text, keyed by the string: escaped on first use,
    then looked up."""

    __slots__ = ()

    def __missing__(self, text: str) -> str:
        json_text = _ascii(text)
        if len(self) < _ESCAPED_MAX:
            self[text] = json_text
        return json_text


_escaped = _Escaped()


def _strings(texts: Iterable[str]) -> str:
    """The compact JSON array of the fixed strings ``texts``."""
    return "[" + ",".join([_escaped[text] for text in texts]) + "]"


def _point(t: tuple[int, int, int]) -> str:
    """The compact JSON array of ``triple_text(t)``; its texts need no escape."""
    return '["' + '","'.join(triple_text(t)) + '"]'


def _meta_value(value: object) -> str:
    """A meta value as ``json`` writes it: a string, or an ``int``."""
    if isinstance(value, str):
        return _ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    raise TypeError(f"reports write str and int meta values, not {type(value).__name__}")


def _members(keys: tuple[str, ...], value: str) -> str:
    """The members of a compact JSON object with the sorted ``keys``, each
    value the layout ``value``."""
    return ",".join([_ascii(key) + ":" + value for key in keys])


# the compact instance, keys in sorted order; each %s is JSON text, except
# in _RATIOS, where it is a rational's text, which needs no escape
_INSTANCE = '{"checks":%s%s,"vertices":{' + _members(VERTEX_KEYS, "%s") + '}}'
_POINTS = ',"points":{' + _members(POINT_KEYS, "%s") + '}'
_RATIOS = ',"ratios":{' + _members(RATIO_KEYS, '"%s"') + '}'


def _instance_text(inst: InstanceFile) -> str:
    """``instance_document(inst)`` as compact JSON."""
    sides = ""
    if inst.points is not None:
        M, N, P, Q = inst.points
        sides += _POINTS % (_point(M.triple()), _point(N.triple()), _point(P.triple()),
                            _point(Q.triple()))
    if inst.ratios is not None:
        m, n, p, q = inst.ratios.as_tuple
        sides += _RATIOS % (reduced_text(*m), reduced_text(*n), reduced_text(*p),
                            reduced_text(*q))
    A, B, C, D = inst.vertices
    return _INSTANCE % (_strings(inst.checks) if inst.checks else '"all"', sides,
                        _point(A.triple()), _point(B.triple()), _point(C.triple()),
                        _point(D.triple()))


def _layout(newline: str, indent: str) -> tuple:
    """The fixed text of a report that writes each nested item on its own
    line, after ``newline`` and ``indent`` once per level; compact when
    both are empty.  In order: the formats of the report, of its
    configuration member, of a verdict and of a verdict with no witness
    and no exact values; the colon after a key; and the ``(opening,
    separator, closing)`` around the items of the meta, the flags, the
    verdicts, a witness or exact-values object, and a witness point's
    texts.  An empty container is ``{}`` or ``[]`` in every layout."""
    colon = ": " if newline else ":"

    def container(level: int, brackets: str = "{}") -> tuple[str, str, str]:
        inner = newline + indent * (level + 1)
        return brackets[0] + inner, "," + inner, newline + indent * level + brackets[1]

    def fixed(level: int, pairs: list[tuple[str, str]], first: str = "") -> str:
        """An object of fixed keys; ``first`` goes before its first member."""
        opening, separator, closing = container(level)
        return opening + first + separator.join(
            [_ascii(key) + colon + value for key, value in pairs]) + closing

    verdict = fixed(2, [("claim", "%s"), ("detail", "%s"), ("exact_values", "%s"),
                        ("status", "%s"), ("witness", "%s")])
    point = container(4, "[]")
    return (fixed(0, [("instance", "%s"), ("instance_meta", "%s"), ("overall", "%s"),
                      ("verdicts", "%s")], first="%s") + "\n",
            '"configuration"' + colon + fixed(1, [("degeneracies", "%s"), ("gamma", '"%s"'),
                                                  ("r", '"%s"'), ("shape", "%s")])
            + container(0)[1],
            verdict, verdict % ("%s", "%s", "{}", "%s", "{}"), colon,
            container(1), container(2, "[]"), container(1, "[]"), container(3),
            (point[0] + '"', '"' + point[1] + '"', '"' + point[2]))


_COMPACT = _layout("", "")
_PRETTY = _layout("\n", "  ")


def _write(layout: tuple, meta: dict, verdicts: Sequence[Verdict],
           cfg: Optional[Configuration], instance_text: str) -> str:
    """The report in ``layout``, its ``instance`` value the JSON text
    ``instance_text``.  The text of each distinct witness triple and of
    each distinct exact-value pair is written once."""
    (report, configuration_format, verdict, bare_verdict, colon, meta_layout, flags_layout,
     verdicts_layout, (m_open, m_sep, m_close), (p_open, p_sep, p_close)) = layout
    escaped = _escaped
    configuration = ""
    if cfg is not None:
        opening, separator, closing = flags_layout
        flags = opening + separator.join(
            [escaped[flag] for flag in sorted(cfg.degeneracies)]) + closing \
            if cfg.degeneracies else "[]"
        configuration = configuration_format % (
            flags, reduced_text(*cfg.ratios.gamma), reduced_text(*cfg.r_ratio),
            escaped[cfg.quad.shape])
    opening, separator, closing = meta_layout
    meta_text = opening + separator.join([escaped[key] + colon + _meta_value(value)
                                          for key, value in sorted(meta.items())]) + closing \
        if meta else "{}"
    value_colon = colon + '"'
    witness_texts: dict = {}
    value_texts: dict = {}
    parts = []
    for claim, status, detail, witness, values in verdicts:
        if not witness and not values:
            parts.append(bare_verdict % (escaped[claim], _ascii(detail), escaped[status]))
            continue
        witness_text = values_text = "{}"
        if witness:
            members = []
            for name, pt in sorted(witness.items()):
                t = pt.triple()
                text = witness_texts.get(t)
                if text is None:
                    text = witness_texts[t] = p_open + p_sep.join(triple_text(t)) + p_close
                members.append(escaped[name] + colon + text)
            witness_text = m_open + m_sep.join(members) + m_close
        if values:
            members = []
            for key, value in sorted(values.items()):
                text = value_texts.get(value)
                if text is None:
                    text = value_texts[value] = rational_text(*value)
                members.append(escaped[key] + value_colon + text + '"')
            values_text = m_open + m_sep.join(members) + m_close
        parts.append(verdict % (escaped[claim], _ascii(detail), values_text, escaped[status],
                                witness_text))
    opening, separator, closing = verdicts_layout
    verdicts_text = opening + separator.join(parts) + closing if parts else "[]"
    return report % (configuration, instance_text, meta_text, escaped[overall_status(verdicts)],
                     verdicts_text)


def report_line(meta: dict, verdicts: Sequence[Verdict], cfg: Optional[Configuration],
                instance: InstanceFile) -> str:
    """``render(report_document(meta, verdicts, cfg, instance=instance),
    compact=True)``, written directly.  ``meta`` maps names to strings and
    integers."""
    return _write(_COMPACT, meta, verdicts, cfg, _instance_text(instance))


def report_text(meta: dict, verdicts: Sequence[Verdict], cfg: Optional[Configuration],
                instance_text: str) -> str:
    """``render(report_document(meta, verdicts, cfg, instance=instance))``,
    written directly, given the instance file's text ``instance_text =
    render(instance_document(instance))``.  ``meta`` maps names to
    strings and integers."""
    return _write(_PRETTY, meta, verdicts, cfg, instance_text[:-1].replace("\n", "\n  "))
