"""Machine-readable verification reports.

A report is a single JSON tree per instance.  Every number in it is an
exact rational string; nothing is ever rounded.  Serialization, by
``instancefile.render``, is byte-stable: same instance, same verdicts,
same bytes.  The verifiers decide and this module writes: a verdict's
``exact_values`` are integer ``(num, den)`` pairs, each written here by
``kernel.rational_text``, in the bytes ``str(Fraction)`` writes.

``report_line`` writes the compact form of a report, one line of
``fuzz``, straight from the verdicts: exactly the bytes of
``render(report_document(...), compact=True)``, with no tree and no
``json`` encoder call.  Keys go out in their fixed sorted order, from
layouts made at import.  Nothing that is the same on every line is made
again per line:

* each fixed string (claim id, status, exact-value key, witness name,
  meta key, flag, shape and claim id of ``checks``) is escaped by
  ``json``'s C escaper once per process and then looked up;
* coordinates are written from the integer triples by
  ``kernel.triple_text``, whose texts need no escape, and each distinct
  witness point's text once per line;
* the stored lowest-terms pairs, the instance's ratios, ``gamma`` and
  ``r``, are written by ``kernel.reduced_text``, with no second gcd;
* each distinct exact-value pair is written once per line by
  ``rational_text``, whose text is ASCII digits, ``-`` and ``/`` and
  needs no escape.

Every other string, such as a ``detail``, goes through the escaper as it
is.  The tree writers use the same text functions, so the line and the
tree agree on any input.  ``verify`` keeps the tree, which it renders
pretty.
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
    raise TypeError(f"report_line writes str and int meta values, not {type(value).__name__}")


def _members(keys: tuple[str, ...], value: str) -> str:
    """The members of a compact JSON object with the sorted ``keys``, each
    value the layout ``value``."""
    return ",".join([_ascii(key) + ":" + value for key in keys])


# the compact layouts, keys in sorted order; each %s is JSON text, except
# in _RATIOS, where it is a rational's text, which needs no escape
_LINE = '{%s"instance":%s,"instance_meta":{%s},"overall":%s,"verdicts":[%s]}\n'
_CONFIGURATION = '"configuration":{"degeneracies":%s,"gamma":"%s","r":"%s","shape":%s},'
_INSTANCE = '{"checks":%s%s,"vertices":{' + _members(VERTEX_KEYS, "%s") + '}}'
_POINTS = ',"points":{' + _members(POINT_KEYS, "%s") + '}'
_RATIOS = ',"ratios":{' + _members(RATIO_KEYS, '"%s"') + '}'
_VERDICT = '{"claim":%s,"detail":%s,"exact_values":{%s},"status":%s,"witness":{%s}}'
# a verdict with no witness and no exact values, as skips and most
# degenerate verdicts are
_BARE_VERDICT = '{"claim":%s,"detail":%s,"exact_values":{},"status":%s,"witness":{}}'


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


def _verdicts_text(verdicts: Sequence[Verdict]) -> str:
    """The verdicts' ``verdict_json`` as compact JSON, comma-separated.  The
    text of each distinct witness triple and of each distinct exact-value
    pair is written once."""
    escaped = _escaped
    witness_texts: dict = {}
    value_texts: dict = {}
    parts = []
    for claim, status, detail, witness, values in verdicts:
        if not witness and not values:
            parts.append(_BARE_VERDICT % (escaped[claim], _ascii(detail), escaped[status]))
            continue
        witness_text = ""
        if witness:
            members = []
            for name, pt in sorted(witness.items()):
                t = pt.triple()
                text = witness_texts.get(t)
                if text is None:
                    text = witness_texts[t] = _point(t)
                members.append(escaped[name] + ":" + text)
            witness_text = ",".join(members)
        members = []
        for key, value in sorted(values.items()):
            text = value_texts.get(value)
            if text is None:
                text = value_texts[value] = rational_text(*value)
            members.append(escaped[key] + ':"' + text + '"')
        values_text = ",".join(members)
        parts.append(_VERDICT % (escaped[claim], _ascii(detail), values_text, escaped[status],
                                 witness_text))
    return ",".join(parts)


def report_line(meta: dict, verdicts: Sequence[Verdict], cfg: Optional[Configuration],
                instance: InstanceFile) -> str:
    """``render(report_document(meta, verdicts, cfg, instance=instance),
    compact=True)``, written directly.  ``meta`` maps names to strings and
    integers."""
    configuration = "" if cfg is None else _CONFIGURATION % (
        _strings(sorted(cfg.degeneracies)), reduced_text(*cfg.ratios.gamma),
        reduced_text(*cfg.r_ratio), _escaped[cfg.quad.shape])
    meta_text = ",".join([_escaped[key] + ":" + _meta_value(value)
                          for key, value in sorted(meta.items())])
    return _LINE % (configuration, _instance_text(instance), meta_text,
                    _escaped[overall_status(verdicts)], _verdicts_text(verdicts))
