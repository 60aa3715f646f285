"""Relabelling the quadrilateral leaves every claim's status unchanged.

The claims are statements about a labelled quadrilateral ``ABCD`` with
``M N P Q`` on ``AB BC CD DA``, so the dihedral group acts on them by
relabelling.  Two maps generate it: the rotation ``B C D A``, which moves
the ratios to ``n p q m``, and the reflection ``A D C B``, which reverses
each side and so moves them to ``1/q 1/p 1/n 1/m`` (taking γ to 1/γ).
On small-bound streams, where degenerate cases are common, each claim
must get the same status on an instance and on its relabelling, and an
instance must fail to build exactly when its relabelling does.  The
builder's flags map by renaming too, all but the ``*_EQ_*`` flags, whose
pairs the reflection writes in the other order, and those of ``R``, which
is taken on ``AB`` alone.  The renaming comes from ``CONSTRUCTION``: each
input goes to its image, and each row to the row whose two lines join the
images of its own two lines' points.
"""

import pytest

from quadconc import (GenSpec, Quadrilateral, SideRatios, build_from_ratios, gen_quadrilateral,
                      gen_ratios)
from quadconc.configuration import CONSTRUCTION, POINT_NAMES
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


# the images of the inputs A B C D M N P Q under each relabelling
INPUT_IMAGES = {rotation: "DABCQMNP", reflection: "ADCBQPNM"}


def renaming(inputs):
    """Each point name's image, for the inputs' images ``inputs``; ``R``,
    whose lines have no image row, has none."""
    image = dict(zip("ABCDMNPQ", inputs))
    rows = {frozenset(map(frozenset, lines)): name for name, *lines in CONSTRUCTION}
    for name, *lines in CONSTRUCTION:
        key = frozenset(frozenset(image.get(u) for u in line) for line in lines)
        if key in rows:
            image[name] = rows[key]
    return image


def built(quad, ratios):
    """The configuration, or ``None`` when one of its points is undefined."""
    try:
        return build_from_ratios(quad, ratios)
    except UndefinedPoint:
        return None


def statuses(cfg):
    """Each claim's status, in the fixed order, or ``None`` for no configuration."""
    return None if cfg is None else [v.status for v in verify_all(cfg)]


def point_flags(cfg):
    """The flags of ``cfg`` that name one point other than ``R``, as
    ``(point, rest)``."""
    return {flag.partition("_")[::2] for flag in cfg.degeneracies
            if "_EQ_" not in flag and not flag.startswith("R")}


@pytest.mark.parametrize("force", [True, False], ids=["gamma1", "free"])
@pytest.mark.parametrize("shape", ["convex", "concave", "crossed"])
@pytest.mark.parametrize("relabel", [rotation, reflection])
def test_relabelling_keeps_every_status(relabel, shape, force):
    spec = GenSpec(seed=5, shape=shape, coordinate_bound=4, ratio_bound=2,
                   force_gamma_one=force)
    names = renaming(INPUT_IMAGES[relabel])
    assert set(names) == set(POINT_NAMES) - {"R"}
    undefined = 0
    for index in range(300):
        quad, ratios = gen_quadrilateral(spec, index), gen_ratios(spec, index)
        image = relabel(quad, ratios)
        assert image[0].shape == quad.shape
        cfg, image_cfg = built(quad, ratios), built(*image)
        expected = statuses(cfg)
        assert statuses(image_cfg) == expected, index
        undefined += expected is None
        if cfg is not None:
            assert {(names[point], rest) for point, rest in point_flags(cfg)} == \
                point_flags(image_cfg), index
    # the nonconvex streams reach undefined points, so both sides of the
    # build agreement are tried
    assert (undefined > 0) == (shape != "convex")
