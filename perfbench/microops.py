"""Kernel micro-operations timed on operands harvested from real configurations.

The operands are the point pairs the construction joins, the line pairs it
cuts, and the collinear triples the verifiers measure, all taken from the
configurations a workload builds, so their integer sizes are the sizes the
workload's own kernel calls see (small at bound 10, large at bound 1000).
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

from quadconc import _purekernel, kernel

from clock import calibrate, scale

# the joins the construction makes, and which pairs of them it cuts
JOINS = (("A", "C"), ("B", "D"), ("A", "N"), ("B", "Q"), ("D", "N"), ("C", "Q"),
         ("C", "M"), ("B", "P"), ("A", "P"), ("D", "M"), ("M", "P"), ("N", "Q"))
CUTS = tuple(zip(JOINS[0::2], JOINS[1::2]))
# (a, x, b) with x on line ab: side points, and E and M1 on MP
ON_LINE = (("A", "M", "B"), ("B", "N", "C"), ("C", "P", "D"), ("D", "Q", "A"),
           ("M", "E", "P"), ("N", "E", "Q"), ("M", "M1", "P"))
SIDES = (("A", "B", "m"), ("B", "C", "n"), ("C", "D", "p"), ("D", "A", "q"))
REPEATS = 7

OPS = {
    "kernel.meet": (kernel, "meet"),
    "kernel.line_through": (kernel, "line_through"),
    "kernel.affine_parameter": (kernel, "affine_parameter"),
    "kernel.directed_ratio": (kernel, "directed_ratio"),
    "kernel.point_dividing": (kernel, "point_dividing"),
    "purekernel.reduce3": (_purekernel, "reduce3"),
    "purekernel.cross3": (_purekernel, "cross3"),
    "purekernel.det3": (_purekernel, "det3"),
}


def harvest(cfgs) -> dict[str, list[tuple]]:
    """Argument tuples for each micro-op, from the named points of ``cfgs``."""
    ops: dict[str, list[tuple]] = {name: [] for name in OPS}
    for cfg in cfgs:
        pts = cfg.named_points()
        lines = {}
        for u, v in JOINS:
            p, q = pts[u], pts[v]
            if p is None or q is None or p == q or (p.is_ideal and q.is_ideal):
                continue
            lines[u, v] = kernel.line_through(p, q)
            ops["kernel.line_through"].append((p, q))
            ops["purekernel.cross3"].append((p.triple(), q.triple()))
            ops["purekernel.reduce3"].append(_purekernel.cross3(p.triple(), q.triple()))
        for j1, j2 in CUTS:
            if j1 in lines and j2 in lines and lines[j1] != lines[j2]:
                ops["kernel.meet"].append((lines[j1], lines[j2]))
        for a, x, b in ON_LINE:
            pa, px, pb = pts[a], pts[x], pts[b]
            if any(p is None or p.is_ideal for p in (pa, px, pb)) or pa == pb:
                continue
            ops["purekernel.det3"].append((pa.triple(), px.triple(), pb.triple()))
            if not kernel.collinear(pa, px, pb):
                continue
            ops["kernel.affine_parameter"].append((pa, pb, px))
            if px != pb:
                ops["kernel.directed_ratio"].append((pa, px, pb))
        for a, b, ratio in SIDES:
            ops["kernel.point_dividing"].append((pts[a], pts[b], getattr(cfg.ratios, ratio)))
    return ops


def _time_ns(fn, operands) -> float:
    """Median over ``REPEATS`` passes of the reference ns per call over ``operands``.

    Each pass is scaled by a calibration slice run right after it.
    """
    per_call = []
    for _ in range(REPEATS):
        start = perf_counter_ns()
        for args in operands:
            fn(*args)
        elapsed = perf_counter_ns() - start
        per_call.append(elapsed * scale(calibrate()) / len(operands))
    return statistics.median(per_call)


def measure(cfgs) -> dict[str, float]:
    """Reference ns per call of every micro-op, looked up at call time."""
    ops = harvest(cfgs)
    out = {}
    for name, operands in ops.items():
        if not operands:
            raise RuntimeError(f"no operands harvested for {name}")
        module, fn = OPS[name]
        out[name + ".ns"] = _time_ns(getattr(module, fn), operands)
    return out

