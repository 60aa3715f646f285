"""Machine-readable verification reports.

A report is a single JSON tree per instance.  Every number in it is an
exact rational string; nothing is ever rounded.  Serialization, by
``instancefile.render``, is byte-stable: same instance, same verdicts,
same bytes.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .configuration import Configuration
from .instancefile import InstanceFile, instance_document
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
        "gamma": str(cfg.ratios.gamma),
        "shape": cfg.quad.shape,
        "r": str(cfg.r_ratio),
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


def degenerate_report(meta: dict, claims: Iterable[str], reason: str,
                      instance: InstanceFile) -> dict:
    """Report for an instance whose configuration could not be built."""
    verdicts = [Verdict(claim, DEGENERATE, detail=reason) for claim in claims]
    return report_document(meta, verdicts, cfg=None, instance=instance)
