"""Relabelling the quadrilateral leaves every claim's status unchanged.

The claims are statements about a labelled quadrilateral ``ABCD`` with
``M N P Q`` on ``AB BC CD DA``, so the dihedral group acts on them by
relabelling.  Two maps generate it: the rotation ``B C D A``, which moves
the ratios to ``n p q m``, and the reflection ``A D C B``, which reverses
each side and so moves them to ``1/q 1/p 1/n 1/m`` (taking γ to 1/γ).
On small-bound streams, where degenerate cases are common, each claim
must get the same status on an instance and on its relabelling, and an
instance must fail to build exactly when its relabelling does.
"""

import pytest

from quadconc import (GenSpec, Quadrilateral, SideRatios, build_from_ratios, gen_quadrilateral,
                      gen_ratios)
from quadconc.errors import UndefinedPoint
from quadconc.verifiers import verify_all


def rotation(quad, ratios):
    A, B, C, D = quad.vertices
    m, n, p, q = ratios.as_tuple
    return Quadrilateral.of(B, C, D, A), SideRatios(n, p, q, m)


def reflection(quad, ratios):
    A, B, C, D = quad.vertices
    (m, mb), (n, nb), (p, pb), (q, qb) = ratios.as_tuple
    return Quadrilateral.of(A, D, C, B), SideRatios((qb, q), (pb, p), (nb, n), (mb, m))


def statuses(quad, ratios):
    """Each claim's status, in the fixed order, or ``None`` when a point
    of the configuration is undefined."""
    try:
        cfg = build_from_ratios(quad, ratios)
    except UndefinedPoint:
        return None
    return [v.status for v in verify_all(cfg)]


@pytest.mark.parametrize("force", [True, False], ids=["gamma1", "free"])
@pytest.mark.parametrize("shape", ["convex", "concave", "crossed"])
@pytest.mark.parametrize("relabel", [rotation, reflection])
def test_relabelling_keeps_every_status(relabel, shape, force):
    spec = GenSpec(seed=5, shape=shape, coordinate_bound=4, ratio_bound=2,
                   force_gamma_one=force)
    undefined = 0
    for index in range(300):
        quad, ratios = gen_quadrilateral(spec, index), gen_ratios(spec, index)
        image = relabel(quad, ratios)
        assert image[0].shape == quad.shape
        expected = statuses(quad, ratios)
        assert statuses(*image) == expected, index
        undefined += expected is None
    # the nonconvex streams reach undefined points, so both sides of the
    # build agreement are tried
    assert (undefined > 0) == (shape != "convex")
