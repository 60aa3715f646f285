"""Machine-readable verification reports.

A report is a single JSON tree per instance.  Every number in it is an
exact rational string; nothing is ever rounded.  Serialization, by
``instancefile.render``, is byte-stable: same instance, same verdicts,
same bytes.

``report_line`` writes the compact form of a report, one line of
``fuzz``, straight from the verdicts: exactly the bytes of
``render(report_document(...), compact=True)``, with no tree and no
``json`` encoder call.  Keys go out in their fixed sorted order, every
string through ``json``'s C escaper, and each distinct witness point's
text is written once per line.  ``verify`` keeps the tree, which it
renders pretty.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _ascii
from typing import Iterable, Optional, Sequence

from .configuration import Configuration
from .instancefile import (POINT_KEYS, RATIO_KEYS, VERTEX_KEYS, InstanceFile,
                           instance_document)
from .kernel import Point, rational_text
from .verifiers import DEGENERATE, Verdict, overall_status


def verdict_json(v: Verdict) -> dict:
    return {
        "claim": v.claim_id,
        "status": v.status,
        "detail": v.detail,
        "witness": {name: pt.text() for name, pt in v.witness.items()},
        "exact_values": dict(v.exact_values),
    }


def configuration_json(cfg: Configuration) -> dict:
    return {
        "gamma": rational_text(*cfg.ratios.gamma),
        "shape": cfg.quad.shape,
        "r": rational_text(*cfg.r_ratio),
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


def _strings(texts: Iterable[str]) -> str:
    """The compact JSON array of ``texts``."""
    return "[" + ",".join(map(_ascii, texts)) + "]"


def _points(keys: tuple[str, ...], points: Iterable[Point]) -> str:
    """The members of the compact JSON object that maps each of the sorted
    ``keys`` to its point's text, without the braces."""
    return ",".join([f"{_ascii(key)}:{_strings(pt.text())}" for key, pt in zip(keys, points)])


def _meta_value(value: object) -> str:
    """A meta value as ``json`` writes it: a string, or an ``int``."""
    if isinstance(value, str):
        return _ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    raise TypeError(f"report_line writes str and int meta values, not {type(value).__name__}")


# the compact layouts, keys in sorted order; each %s is JSON text
_LINE = '{%s"instance":%s,"instance_meta":{%s},"overall":%s,"verdicts":[%s]}\n'
_CONFIGURATION = '"configuration":{"degeneracies":%s,"gamma":%s,"r":%s,"shape":%s},'
_INSTANCE = '{"checks":%s%s,"vertices":{%s}}'
_VERDICT = '{"claim":%s,"detail":%s,"exact_values":{%s},"status":%s,"witness":{%s}}'


def _instance_text(inst: InstanceFile) -> str:
    """``instance_document(inst)`` as compact JSON."""
    sides = ""
    if inst.points is not None:
        sides += ',"points":{' + _points(POINT_KEYS, inst.points) + "}"
    if inst.ratios is not None:
        sides += ',"ratios":{' + ",".join([f"{_ascii(k)}:{_ascii(rational_text(*v))}" for k, v
                                           in zip(RATIO_KEYS, inst.ratios.as_tuple)]) + "}"
    return _INSTANCE % (_strings(inst.checks) if inst.checks else '"all"', sides,
                        _points(VERTEX_KEYS, inst.vertices))


def _verdict_text(v: Verdict, witness_texts: dict) -> str:
    """``verdict_json(v)`` as compact JSON.  ``witness_texts`` maps each
    witness triple already written on this line to its text."""
    witness = values = ""
    if v.witness:
        parts = []
        for name, pt in sorted(v.witness.items()):
            t = pt.triple()
            text = witness_texts.get(t)
            if text is None:
                text = witness_texts[t] = _strings(pt.text())
            parts.append(f"{_ascii(name)}:{text}")
        witness = ",".join(parts)
    if v.exact_values:
        values = ",".join([f"{_ascii(key)}:{_ascii(value)}"
                           for key, value in sorted(v.exact_values.items())])
    return _VERDICT % (_ascii(v.claim_id), _ascii(v.detail), values, _ascii(v.status), witness)


def report_line(meta: dict, verdicts: Sequence[Verdict], cfg: Optional[Configuration],
                instance: InstanceFile) -> str:
    """``render(report_document(meta, verdicts, cfg, instance=instance),
    compact=True)``, written directly.  ``meta`` maps names to strings and
    integers."""
    configuration = "" if cfg is None else _CONFIGURATION % (
        _strings(sorted(cfg.degeneracies)), _ascii(rational_text(*cfg.ratios.gamma)),
        _ascii(rational_text(*cfg.r_ratio)), _ascii(cfg.quad.shape))
    meta_text = ",".join([f"{_ascii(key)}:{_meta_value(value)}"
                          for key, value in sorted(meta.items())])
    witness_texts: dict = {}
    verdicts_text = ",".join([_verdict_text(v, witness_texts) for v in verdicts])
    return _LINE % (configuration, _instance_text(instance), meta_text,
                    _ascii(overall_status(verdicts)), verdicts_text)
