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

A projective map ``t -> H t`` with an integer ``H`` keeps every incidence,
and γ is a projective invariant: the image of ``AM/MB`` is
``m * w(B) / w(A)`` with ``w`` the third row of ``H``, and the product
telescopes around ``ABCD``.  So an image, rebuilt from its mapped
vertices and side points, keeps γ exactly, and no identity claim fails on
it, though its shape class and the signs of its ratios may change.
"""

import random

import pytest

from quadconc import (GenSpec, Quadrilateral, SideRatios, build_from_points, build_from_ratios,
                      gen_quadrilateral, gen_ratios)
from quadconc._purekernel import det3, reduce3
from quadconc.configuration import CONSTRUCTION, POINT_NAMES, SLOT
from quadconc.errors import InstanceFormatError, UndefinedPoint
from quadconc.verifiers import FAIL, verify_all


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


# the claims whose inequalities read signs, which a projective map need not keep
SIGN_CLAIMS = {"inner_quadrilateral", "inner_quadrilateral_convexity"}


def projective_image(H, cfg):
    """The configuration rebuilt from the images under ``H`` of ``cfg``'s
    vertices and side points, or ``None`` where an image point is ideal or a
    convex image puts a side point outside its side."""
    image = [reduce3(*(r[0] * x + r[1] * y + r[2] * w for r in H))
             for x, y, w in (cfg.triples[SLOT[name]] for name in "ABCDMNPQ")]
    if any(t[2] == 0 for t in image):
        return None
    try:
        return build_from_points(Quadrilateral.of(*image[:4]), *image[4:])
    except InstanceFormatError as exc:
        assert "outside its open side" in str(exc)
        return None


def test_projective_maps_keep_gamma_exactly():
    rng = random.Random(9)
    built_images = changed_shape = 0
    for shape in ("convex", "concave", "crossed"):
        for force in (True, False):
            spec = GenSpec(seed=9, shape=shape, coordinate_bound=10, ratio_bound=8,
                           force_gamma_one=force)
            for index in range(60):
                cfg = built(gen_quadrilateral(spec, index), gen_ratios(spec, index))
                if cfg is None:
                    continue
                H = None
                while H is None or det3(*H) == 0:
                    H = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3)]
                image = projective_image(H, cfg)
                if image is None:
                    continue
                built_images += 1
                changed_shape += image.quad.shape != cfg.quad.shape
                assert image.ratios.gamma == cfg.ratios.gamma, (shape, force, index)
                failed = [v.claim_id for v in verify_all(image)
                          if v.status == FAIL and v.claim_id not in SIGN_CLAIMS]
                assert not failed, (shape, force, index, failed)
    # most images build, and some leave their preimage's shape class
    assert built_images >= 250 and changed_shape > 0, (built_images, changed_shape)
