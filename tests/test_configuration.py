import argparse
import copy
import io
import pickle
from fractions import Fraction
from itertools import combinations

import pytest

import naive_geometry as naive
from quadconc import Quadrilateral, SideRatios, build_from_points, build_from_ratios, cli
from quadconc.configuration import (CONSTRUCTION, FULL_PLAN, POINT_NAMES, SLOT, _construct,
                                    construction_plan)
from quadconc.errors import DegenerateQuadrilateral, InstanceFormatError, UndefinedPoint
from quadconc._purekernel import cross3, det3, reduce3
from quadconc.generators import GenSpec, gen_quadrilateral, gen_ratios
from quadconc.instancefile import instance_from_parts
from quadconc.kernel import dividing_terms
from quadconc.report import report_line
from quadconc.verifiers import CLAIMS, verify_all
from rationals import affine, frac, param, points, ratio, side_ratios, tri

F = Fraction


class TestTypes:
    def test_quadrilateral_shape_is_computed(self, unit_square):
        assert unit_square.shape == "convex"

    def test_repeated_vertices_rejected(self):
        # each of the six ways to repeat a vertex classifies as degenerate,
        # which both builders reject
        square = [tri(0, 0), tri(1, 0), tri(1, 1), tri(0, 1)]
        h = F(1, 2)
        sides = (tri(h, 0), tri(1, h), tri(h, 1), tri(0, h))
        for i, j in combinations(range(4), 2):
            vertices = square.copy()
            vertices[j] = vertices[i]
            quad = Quadrilateral.of(*vertices)
            with pytest.raises(DegenerateQuadrilateral,
                               match="cannot build on a degenerate quadrilateral"):
                build_from_ratios(quad, side_ratios(1, 1, 1, 1))
            with pytest.raises(DegenerateQuadrilateral,
                               match="cannot build on a degenerate quadrilateral"):
                build_from_points(quad, *sides)

    def test_gamma_is_the_product(self):
        r = side_ratios(2, 3, F(1, 4), 5)
        assert r.gamma == (15, 2)

    def test_side_ratios_copy_and_pickle(self):
        # both remake the tuple from m, n, p, q, which derives gamma again
        r = side_ratios(2, 3, F(1, 4), 5)
        assert copy.copy(r) == copy.deepcopy(r) == pickle.loads(pickle.dumps(r)) == r

    def test_degenerate_quad_has_degenerate_shape(self):
        q = Quadrilateral.of(tri(0, 0), tri(1, 0), tri(2, 0), tri(0, 1))
        assert q.shape == "degenerate"


class TestBuildFromRatios:
    def test_midpoint_square(self, midpoint_config):
        cfg = midpoint_config
        pts = points(cfg)
        half = F(1, 2)
        assert pts["M"] == tri(half, 0)
        assert pts["N"] == tri(1, half)
        assert pts["P"] == tri(half, 1)
        assert pts["Q"] == tri(0, half)
        center = tri(half, half)
        assert pts["O"] == center
        assert pts["E"] == center
        for name in ("F1", "G1", "F2", "G2", "M1", "N1", "P1", "Q1"):
            assert pts[name] == center

    def test_gamma_one_asymmetric(self, gamma_one_config):
        cfg = gamma_one_config
        pts = points(cfg)
        assert pts["M"] == tri(F(2, 3), 0)
        assert pts["N"] == tri(1, F(1, 2))
        assert pts["P"] == tri(F(2, 3), 1)
        assert pts["Q"] == tri(0, F(1, 2))
        assert pts["E"] == tri(F(2, 3), F(1, 2))
        assert cfg.ratios.gamma == (1, 1)

    def test_gamma_two_reference(self, gamma_two_config):
        # frozen from the independent affine oracle
        cfg = gamma_two_config
        pts = points(cfg)
        assert pts["Q"] == tri(0, F(1, 3))
        assert pts["E"] == tri(F(1, 2), F(5, 12))
        assert pts["R"] == tri(-2, 0)
        assert cfg.r_ratio == (2, 3)
        assert pts["M1"] == tri(F(1, 2), F(1, 2))
        assert pts["P1"] == tri(F(1, 2), F(1, 3))
        assert pts["A1"] == tri(F(2, 3), F(2, 3))
        assert pts["D1"] == tri(F(2, 3), F(1, 3))
        assert pts["N1"] == tri(F(2, 5), F(2, 5))
        assert pts["Q1"] == tri(F(4, 7), F(3, 7))
        assert "F1_EQ_G1" in cfg.degeneracies

    def test_generic_gamma_two(self, generic_gamma_two_config):
        # frozen from the independent affine oracle
        cfg = generic_gamma_two_config
        pts = points(cfg)
        assert pts["M1"] == tri(F(8, 3), F(7, 3))
        assert pts["N1"] == tri(F(16, 7), 2)
        assert pts["P1"] == tri(F(5, 2), F(7, 4))
        assert pts["Q1"] == tri(3, 2)
        assert pts["E"] == tri(F(18, 7), 2)
        assert cfg.degeneracies == frozenset()

    def test_every_point_is_the_meet_of_its_defining_lines(self, gamma_two_config):
        pts = gamma_two_config.named_points()
        from quadconc import line_through, meet

        def cut(u, v, s, t):
            return meet(line_through(pts[u], pts[v]), line_through(pts[s], pts[t]))

        assert pts["O"] == cut("A", "C", "B", "D")
        assert pts["X"] == cut("A", "N", "B", "Q")
        assert pts["A1"] == cut("B", "P", "D", "N")
        assert pts["F1"] == cut("B", "D1", "A", "C")
        assert pts["M1"] == cut("A", "A1", "D", "D1")

    def test_degenerate_quad_rejected(self):
        q = Quadrilateral.of(tri(0, 0), tri(1, 0), tri(2, 0), tri(0, 1))
        with pytest.raises(DegenerateQuadrilateral):
            build_from_ratios(q, side_ratios(1, 1, 1, 1))

    def test_nonpositive_ratios_rejected(self, unit_square):
        with pytest.raises(InstanceFormatError, match="side ratios must be positive"):
            build_from_ratios(unit_square, side_ratios(-1, 1, 1, 1))


class TestTraceRatioMakesNoFraction:
    """A build makes no ``Fraction``: ``r`` is an integer pair wherever ``R``
    is, finite, ideal, on ``B`` or undefined."""

    @staticmethod
    def count_fractions(monkeypatch, build):
        made = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", staticmethod(counted))
            assert F(3, 6) == F(1, 2) and len(made) == 2  # the counter sees every construction
            made.clear()
            cfg = build()
        return cfg, len(made)

    def test_finite_r(self, monkeypatch, unit_square):
        ratios = side_ratios(1, 1, 1, 2)
        cfg, made = self.count_fractions(monkeypatch, lambda: build_from_ratios(unit_square, ratios))
        assert made == 0
        R = points(cfg)["R"]
        assert R[2] and R != cfg.quad.B
        assert frac(cfg.r_ratio) == abs(ratio(cfg.quad.A, R, cfg.quad.B)) == F(2, 3)
        assert cfg.r_ratio == (2, 3)

    def test_ideal_r(self, monkeypatch, unit_square):
        ratios = side_ratios(1, 1, 1, 1)
        cfg, made = self.count_fractions(monkeypatch, lambda: build_from_ratios(unit_square, ratios))
        assert made == 0
        assert points(cfg)["R"][2] == 0 and cfg.r_ratio == (1, 1)

    def test_r_on_b(self, monkeypatch):
        quad = Quadrilateral.of(tri(F(4, 3), 1), tri(-1, 1), tri(F(-5, 12), F(1, 2)),
                                tri(-1, 0))
        ratios = side_ratios(1, F(1, 2), F(1, 2), F(1, 2))
        cfg, made = self.count_fractions(monkeypatch, lambda: build_from_ratios(quad, ratios))
        assert made == 0
        assert points(cfg)["R"] == quad.B and "R_RATIO_UNDEFINED" in cfg.degeneracies
        assert cfg.r_ratio == (1, 1)

    def test_undefined_r(self, monkeypatch):
        # N = Q on the crossing of BC and DA, P on line AB: only side points
        # outside their sides leave R undefined without raising, so the
        # construction runs on the ratios build_from_points recovers
        A, B, C, D = tri(0, 0), tri(3, 0), tri(0, 2), tri(2, 3)
        NQ = cut(B, C, D, A)
        P = cut(A, B, C, D)
        quad = Quadrilateral.of(A, B, C, D)
        ratios = build_from_points(quad, tri(F(3, 2), 0), NQ, P, NQ).ratios
        cfg, made = self.count_fractions(monkeypatch, lambda: _construct(quad, ratios))
        assert made == 0
        assert points(cfg)["R"] is None and "R_UNDEFINED" in cfg.degeneracies
        assert cfg.r_ratio == (1, 1)


class TestBuildFromPoints:
    def test_midpoints_recover_unit_ratios(self, unit_square):
        h = F(1, 2)
        cfg = build_from_points(unit_square, tri(h, 0), tri(1, h), tri(h, 1), tri(0, h))
        assert cfg.ratios.as_tuple == ((1, 1),) * 4
        assert cfg.ratios.gamma == (1, 1)

    def test_recovers_ratio_two(self, unit_square):
        h = F(1, 2)
        cfg = build_from_points(unit_square, tri(F(2, 3), 0), tri(1, h), tri(h, 1), tri(0, h))
        assert cfg.ratios.m == (2, 1)

    def test_off_side_rejected(self, unit_square):
        h = F(1, 2)
        with pytest.raises(InstanceFormatError, match="point M does not lie on its side"):
            build_from_points(unit_square, tri(h, F(1, 100)), tri(1, h), tri(h, 1), tri(0, h))

    def test_ideal_point_rejected_before_the_line_test(self, unit_square):
        # the ideal point of AB is on its line, projectively
        h = F(1, 2)
        with pytest.raises(InstanceFormatError, match="M must be a finite point"):
            build_from_points(unit_square, tri(1, 0, 0), tri(1, h), tri(h, 1), tri(0, h))

    def test_vertex_rejected(self, unit_square):
        h = F(1, 2)
        with pytest.raises(InstanceFormatError, match="M coincides with a vertex"):
            build_from_points(unit_square, tri(0, 0), tri(1, h), tri(h, 1), tri(0, h))

    def test_outside_open_segment_rejected_for_convex(self, unit_square):
        h = F(1, 2)
        with pytest.raises(InstanceFormatError, match="M is outside its open side"):
            build_from_points(unit_square, tri(2, 0), tri(1, h), tri(h, 1), tri(0, h))

    def test_round_trips_with_build_from_ratios(self, unit_square):
        # small bounds make undefined points, ideal points and R on B common
        cases = [(unit_square, side_ratios(F(3, 7), 4, F(5, 2), F(1, 6)))]
        for shape in ("convex", "concave", "crossed", "any"):
            spec = GenSpec(seed=0, shape=shape, coordinate_bound=4, ratio_bound=2)
            cases += [(gen_quadrilateral(spec, i), gen_ratios(spec, i)) for i in range(150)]
        seen: set[str] = set()
        for quad, ratios in cases:
            side = side_points(quad, ratios.as_tuple)
            try:
                cfg = build_from_ratios(quad, ratios)
            except UndefinedPoint as exc:
                seen.add("undefined")
                with pytest.raises(UndefinedPoint) as again:
                    build_from_points(quad, *side)
                assert again.value.name == exc.name
                continue
            seen.update(cfg.degeneracies)
            assert tuple(points(cfg)[n] for n in "MNPQ") == side
            assert_rebuilds(cfg)
        assert {"undefined", "E_IDEAL", "P1_UNDEFINED", "R_RATIO_UNDEFINED"} <= seen

    @pytest.mark.parametrize("shape", ["concave", "crossed"])
    def test_side_points_outside_their_segment_round_trip(self, shape):
        # signed ratios put side points on their side's line beyond an
        # endpoint; the built points are the given ones and every named
        # point the oracle finds finite agrees with it
        spec = GenSpec(seed=8, shape=shape)
        outside = 0
        for i in range(60):
            quad = gen_quadrilateral(spec, i)
            ratios = signed_ratios(spec, i)
            outside += any(num < 0 for num, _ in ratios)
            side = side_points(quad, ratios)
            try:
                cfg = build_from_points(quad, *side)
            except UndefinedPoint:
                continue
            assert cfg.ratios.as_tuple == ratios
            assert tuple(points(cfg)[n] for n in "MNPQ") == side
            assert_rebuilds(cfg)
            expected = oracle(quad, ratios)
            for name, want in expected.items():
                assert agrees_with_oracle(points(cfg)[name], want), name
            R, (A, B) = expected["R"], (expected["A"], expected["B"])
            if R is not None and not isinstance(R, naive.Direction) and R != B:
                assert cfg.r_ratio == abs(naive.ratio(A, R, B)).as_integer_ratio()
        assert outside > 40

    def test_collinear_only_placement_on_crossed_quad(self, crossed_quad):
        # on nonconvex quadrilaterals the side points may leave the open
        # segment as long as they stay on the side's line
        cfg = build_from_points(
            crossed_quad,
            tri(2, 2),          # on line AB extended
            tri(1, F(1, 2)),
            tri(F(1, 4), F(3, 4)),
            tri(0, F(1, 2)),
        )
        assert cfg.ratios.m == (-2, 1)
        assert cfg.ratios.p == (3, 1)

    def test_identical_defining_lines_raise(self, crossed_quad):
        # the name is the first row of the construction whose two lines
        # coincide, and it appears in report bytes
        cases = [
            # P exactly on the AB/CD crossing makes line MP collapse onto
            # line AB, which in turn makes two cevian lines coincide
            (crossed_quad, (tri(2, 2), tri(1, F(1, 2)), tri(F(1, 2), F(1, 2)),
                            tri(0, F(1, 2))), "N1"),
            # M and P both on the crossing point: lines AA1 and BB1 coincide
            (Quadrilateral.of(tri(0, 0), tri(2, 2), tri(2, 0), tri(0, 2)),
             (tri(1, 1), tri(2, 1), tri(1, 1), tri(0, 1)), "N1"),
        ]
        for quad, side_points, name in cases:
            with pytest.raises(UndefinedPoint) as exc:
                build_from_points(quad, *side_points)
            assert exc.value.name == name

        # AA1 = DD1 and BB1 = CC1 here: the earlier row, M1, names the point
        quad = Quadrilateral.of(tri(-1, 1), tri(1, 0), tri(F(-3, 2), -1), tri(F(1, 2), -2))
        with pytest.raises(UndefinedPoint) as exc:
            build_from_ratios(quad, side_ratios(1, 1, 1, 1))
        assert exc.value.name == "M1"


def agrees_with_oracle(got, want):
    """A kernel point is the oracle's: the same affine pair, an ideal point
    in the oracle's direction up to scale, or undefined in both."""
    if want is None:
        return got is None
    if isinstance(want, naive.Direction):
        return got is not None and got[2] == 0 and got[0] * want.dy == got[1] * want.dx
    return got is not None and got[2] != 0 and affine(got) == want


def cut(u, v, s, t):
    """The canonical triple of the meet of lines ``uv`` and ``st``."""
    return reduce3(*cross3(cross3(u, v), cross3(s, t)))


def oracle(quad, ratios):
    """The naive twin's named points for ``quad`` and four ratio pairs."""
    return naive.build_all(tuple(affine(v) for v in quad.vertices), tuple(map(frac, ratios)))


def signed_ratios(spec, index):
    """The generated ratio pairs with the sides in the bit mask
    ``index % 15 + 1`` negated, which puts those side points beyond an
    endpoint; ratio -1 would put the point at infinity, so 1 keeps its sign."""
    negate = index % 15 + 1
    return tuple((-num, den) if negate >> k & 1 and (num, den) != (1, 1) else (num, den)
                 for k, (num, den) in enumerate(gen_ratios(spec, index).as_tuple))


def side_points(quad, ratios):
    A, B, C, D = quad.vertices
    sides = ((A, B), (B, C), (C, D), (D, A))
    return tuple(reduce3(*dividing_terms(u, v, *r)) for (u, v), r in zip(sides, ratios))


def assert_rebuilds(cfg):
    """Rebuilding from the built side points gives the same configuration."""
    again = build_from_points(cfg.quad, *(points(cfg)[n] for n in "MNPQ"))
    assert again.ratios == cfg.ratios
    assert points(again) == points(cfg)
    assert again.r_ratio == cfg.r_ratio
    assert again.degeneracies == cfg.degeneracies


def two_point_completion(quad, M, N):
    """The paper's completion from ``M`` and ``N`` alone: ``S`` and ``T``
    are the traces of ``DM`` and ``DN`` on the diagonal ``AC``, then
    ``Q = BS ∩ AD`` and ``P = BT ∩ CD``."""
    A, B, C, D = quad.vertices
    S = cut(D, M, A, C)
    T = cut(D, N, A, C)
    Q = cut(B, S, A, D)
    P = cut(B, T, C, D)
    return build_from_points(quad, M, N, P, Q)


class TestTwoPointCompletion:
    def test_unit_square_midpoints(self, unit_square):
        cfg = two_point_completion(unit_square, tri(F(1, 2), 0), tri(1, F(1, 2)))
        pts = points(cfg)
        # S = DM meet AC lands at (1/3, 1/3); the completion forces the
        # midpoint configuration and a ratio product of exactly one
        assert cfg.ratios.gamma == (1, 1)
        assert pts["P"] == tri(F(1, 2), 1)
        assert pts["Q"] == tri(0, F(1, 2))

    def test_generic_completion_has_gamma_one(self, unit_square):
        cfg = two_point_completion(unit_square, tri(F(1, 3), 0), tri(1, F(2, 7)))
        pts = points(cfg)
        assert cfg.ratios.gamma == (1, 1)
        # the explicit points of the ``two_point_config`` fixture
        assert (pts["P"], pts["Q"]) == (tri(F(2, 7), 1), tri(0, F(1, 3)))

    def test_e_lies_on_diagonal(self, unit_square):
        cfg = two_point_completion(unit_square, tri(F(1, 3), 0), tri(1, F(2, 7)))
        assert not det3(cfg.quad.A, cfg.quad.C, points(cfg)["E"])


class TestInvariants:
    def test_cyclic_relabel_permutes_named_points(self, generic_gamma_two_config):
        # shift the labels A -> B -> C -> D -> A with the ratios m -> n -> p -> q -> m
        cfg = generic_gamma_two_config
        quad, (m, n, p, q) = cfg.quad, cfg.ratios.as_tuple
        cfg2 = build_from_ratios(Quadrilateral.of(quad.B, quad.C, quad.D, quad.A),
                                 SideRatios(n, p, q, m))
        mapping = {
            "M": "N", "N": "P", "P": "Q", "Q": "M",
            "X": "Y", "Y": "Z", "Z": "T", "T": "X",
            "A1": "B1", "B1": "C1", "C1": "D1", "D1": "A1",
            "F1": "G1", "G1": "F2", "F2": "G2", "G2": "F1",
            "M1": "N1", "N1": "P1", "P1": "Q1", "Q1": "M1",
            "O": "O", "E": "E",
        }
        pts, pts2 = points(cfg), points(cfg2)
        for new_name, old_name in mapping.items():
            assert pts2[new_name] == pts[old_name], (new_name, old_name)

    def test_diagonal_ratio_products(self):
        for seed in range(6):
            quad = gen_quadrilateral(GenSpec(seed=seed), 0)
            ratios = gen_ratios(GenSpec(seed=seed), 0)
            cfg = build_from_ratios(quad, ratios)
            gamma = frac(ratios.gamma)
            a, c = cfg.quad.A, cfg.quad.C
            b, d = cfg.quad.B, cfg.quad.D
            F1, F2, G1, G2 = (points(cfg)[n] for n in ("F1", "F2", "G1", "G2"))
            assert ratio(a, F1, c) * ratio(c, F2, a) == gamma
            assert ratio(b, G1, d) * ratio(d, G2, b) == gamma

    def test_trichotomy_ordering_on_diagonals(self, unit_square):
        cases = [
            (side_ratios(1, 1, 1, F(1, 2)), "below"),
            (side_ratios(1, 1, 1, 2), "collapsed-or-above"),
            (side_ratios(2, 3, 1, 1), "above"),
        ]
        low = points(build_from_ratios(unit_square, cases[0][0]))
        lam_f1 = param(low["A"], low["C"], low["F1"])
        lam_f2 = param(low["A"], low["C"], low["F2"])
        assert 0 < lam_f1 < lam_f2 < 1

        high = points(build_from_ratios(unit_square, cases[2][0]))
        lam_f1 = param(high["A"], high["C"], high["F1"])
        lam_f2 = param(high["A"], high["C"], high["F2"])
        assert 0 < lam_f2 < lam_f1 < 1

        cfg_one = build_from_ratios(unit_square, side_ratios(2, 1, F(1, 2), 1))
        pts = points(cfg_one)
        assert pts["F1"] == pts["F2"]
        assert pts["G1"] == pts["G2"]

    def test_gamma_one_collapse(self, unit_square):
        for m, n, p in ((2, 3, F(1, 5)), (F(7, 3), F(1, 2), 4)):
            q = 1 / (F(m) * F(n) * F(p))
            cfg = build_from_ratios(unit_square, side_ratios(m, n, p, q))
            assert len({points(cfg)[n] for n in ("M1", "N1", "P1", "Q1", "E")}) == 1


# the points whose defining lines run through a cevian meet
_THROUGH_CEVIAN_MEETS = {
    "F1": {"D1"}, "G1": {"A1"}, "F2": {"B1"}, "G2": {"C1"},
    "M1": {"A1", "D1"}, "N1": {"A1", "B1"}, "P1": {"B1", "C1"}, "Q1": {"C1", "D1"},
}


class TestSoundnessAgainstNaiveOracle:
    """Master cross-check: homogeneous kernel vs affine brute force."""

    @pytest.mark.parametrize("seed", range(12))
    def test_all_named_points_agree(self, seed):
        shape = ("convex", "concave", "crossed", "any")[seed % 4]
        spec = GenSpec(seed=seed, shape=shape)
        quad = gen_quadrilateral(spec, 1)
        ratios = gen_ratios(spec, 1)
        cfg = build_from_ratios(quad, ratios)
        expected = oracle(quad, ratios.as_tuple)
        for name, want in expected.items():
            assert agrees_with_oracle(points(cfg)[name], want), name

    @pytest.mark.parametrize("shape", ["convex", "concave", "crossed", "any"])
    def test_wide_coordinates_agree(self, shape):
        # the construction's unreduced lines carry its widest integers here
        spec = GenSpec(seed=3, shape=shape, coordinate_bound=10**30, ratio_bound=10**30)
        for i in range(4):
            quad, ratios = gen_quadrilateral(spec, i), gen_ratios(spec, i)
            cfg = build_from_ratios(quad, ratios)
            expected = oracle(quad, ratios.as_tuple)
            for name, want in expected.items():
                assert agrees_with_oracle(points(cfg)[name], want), (i, name)

    @pytest.mark.parametrize("shape", ["concave", "crossed", "any"])
    def test_ideal_meets_agree_up_to_scale(self, shape):
        # at small bounds, side points beyond their segments often make a
        # cevian meet A1 B1 C1 D1 ideal; the points built through it are
        # finite or ideal, and the oracle checks them too
        spec = GenSpec(seed=42, shape=shape, coordinate_bound=4, ratio_bound=2)
        ideal_meets = downstream = 0
        for i in range(120):
            quad = gen_quadrilateral(spec, i)
            ratios = signed_ratios(spec, i)
            try:
                cfg = build_from_points(quad, *side_points(quad, ratios))
            except (InstanceFormatError, UndefinedPoint):
                continue
            expected = oracle(quad, ratios)
            for name, want in expected.items():
                assert agrees_with_oracle(points(cfg)[name], want), name
            ideal = {n for n in ("A1", "B1", "C1", "D1") if isinstance(expected[n], naive.Direction)}
            ideal_meets += bool(ideal)
            downstream += sum(expected[name] is not None
                              for name, through in _THROUGH_CEVIAN_MEETS.items() if ideal & through)
        assert ideal_meets >= 10
        assert downstream >= 20


@pytest.mark.parametrize("bounds", [(4, 2), (10, 8), (10**30, 10**30)])
def test_every_stored_point_triple_is_canonical(bounds):
    # lines are left unreduced, so each meet must reduce its own triple;
    # small bounds bring ideal points, signed ratios side points beyond a vertex
    spec = GenSpec(seed=11, shape="any", coordinate_bound=bounds[0], ratio_bound=bounds[1])
    stored = 0
    for i in range(40):
        quad = gen_quadrilateral(spec, i)
        try:
            cfgs = (build_from_ratios(quad, gen_ratios(spec, i)),
                    build_from_points(quad, *side_points(quad, signed_ratios(spec, i))))
        except (InstanceFormatError, UndefinedPoint):
            continue
        for cfg in cfgs:
            for t in cfg.triples:
                if t is not None:
                    assert reduce3(*t) == t
                    stored += 1
    assert stored > 1000


def test_each_slot_holds_its_points_triple():
    # small bounds and the product forced to one leave points undefined
    spec = GenSpec(seed=42, shape="concave", coordinate_bound=4, ratio_bound=2,
                   force_gamma_one=True)
    undefined = 0
    for i in range(40):
        quad = gen_quadrilateral(spec, i)
        try:
            cfg = build_from_ratios(quad, gen_ratios(spec, i))
        except UndefinedPoint:
            continue
        assert len(cfg.triples) == len(POINT_NAMES)
        assert cfg.triples[:4] == quad.vertices
        named = cfg.named_points()
        assert tuple(named) == POINT_NAMES
        for name, point in named.items():
            if point is None:
                assert cfg.triples[SLOT[name]] is None
                undefined += 1
            else:
                assert cfg.triples[SLOT[name]] == point.triple()
    assert undefined > 0


class TestConstructionPlans:
    def test_full_plan_builds_every_row_once(self):
        assert [step[1] for step in FULL_PLAN.steps] == [row[0] for row in CONSTRUCTION]
        assert FULL_PLAN.builds_r
        built = [line for step in FULL_PLAN.steps for line in step[2]]
        assert [li for li, _, _ in built] == list(range(len(built)))

    def test_a_row_left_out_holds_none_sets_no_flag_and_no_r(self):
        # T is ideal here; the empty read set keeps only the rows that can
        # collapse and the cevian meets they join
        spec = GenSpec(seed=42, shape="crossed", coordinate_bound=4, ratio_bound=2,
                       force_gamma_one=True)
        quad, ratios = gen_quadrilateral(spec, 0), gen_ratios(spec, 0)
        full = build_from_ratios(quad, ratios)
        assert {"T_IDEAL"} <= full.degeneracies and full.r_ratio != (1, 1)
        plan = construction_plan(())
        assert [step[1] for step in plan.steps] == ["A1", "B1", "C1", "D1", "E",
                                                    "M1", "N1", "P1", "Q1"]
        part = build_from_ratios(quad, ratios, plan)
        kept = {step[0] for step in plan.steps} | set(range(8))
        for slot, t in enumerate(part.triples):
            assert t == (full.triples[slot] if slot in kept else None), POINT_NAMES[slot]
        assert "T_IDEAL" not in part.degeneracies and part.r_ratio is None
        # a report of a partial configuration fails loudly
        with pytest.raises(TypeError):
            report_line({}, [], part, instance_from_parts(quad, ratios))


# each claim's plan: the points its check reads and the rows they need
_CLAIM_PLANS = tuple((claim, construction_plan(reads)) for claim, *_, reads, _ in CLAIMS)

# the fuzz corpora as (regime, shape), at small bounds, where collapsed,
# undefined and ideal points are common, and at the default ones
_PLAN_CORPORA = (("gamma1", "convex"), ("general", "convex"), ("remarks", "concave"),
                 ("remarks", "crossed"), ("general", "any"))


def _built_or_text(build, *args):
    try:
        return build(*args)
    except UndefinedPoint as exc:
        return str(exc)


def test_each_claims_plan_builds_and_decides_as_the_full_plan():
    """Every claim's plan raises the full build's ``UndefinedPoint`` text,
    or stores the full build's triple at every slot it builds and ``None``
    at the others, and the claim's verdict on it is the verdict on the full
    build.  Positive ratios go through ``build_from_ratios``; signed ones
    (never 0 or -1) through ``_construct``, and through ``build_from_points``
    where the shape lets a side point leave its segment.  A check that
    reads a point its row does not declare sees ``None`` and decides
    otherwise."""
    assert all(set(reads) <= set(POINT_NAMES) for *_, reads, _ in CLAIMS)
    collapsed = set()
    for regime, shape in _PLAN_CORPORA:
        forced = (True, False) if regime == "remarks" else (regime == "gamma1",) * 2
        for bound, ratio_bound in ((4, 2), (10, 8)):
            specs = [GenSpec(seed=7, shape=shape, coordinate_bound=bound,
                             ratio_bound=ratio_bound, force_gamma_one=force) for force in forced]
            for index in range(150):
                spec = specs[index % 2]
                quad = gen_quadrilateral(spec, index)
                positive = gen_ratios(spec, index)
                signed = SideRatios(*signed_ratios(spec, index))
                full_signed = (_built_or_text(_construct, quad, signed) if quad.shape == "convex"
                               else _built_or_text(build_from_points, quad,
                                                   *side_points(quad, signed.as_tuple)))
                for full, build, ratios in (
                        (_built_or_text(build_from_ratios, quad, positive), build_from_ratios,
                         positive),
                        (full_signed, _construct, signed)):
                    if isinstance(full, str):
                        collapsed.add(full.split()[1])
                    for claim, plan in _CLAIM_PLANS:
                        part = _built_or_text(build, quad, ratios, plan)
                        if isinstance(full, str):
                            assert part == full, (claim, shape, index)
                            continue
                        kept = {step[0] for step in plan.steps} | set(range(8))
                        assert part.triples == tuple(
                            t if slot in kept else None for slot, t in enumerate(full.triples))
                        assert verify_all(part, (claim,)) == verify_all(full, (claim,)), (
                            claim, shape, index)
    # the corpora collapse every row that can, which each plan runs
    assert collapsed == {"E", "M1", "N1", "P1", "Q1"}


_CHORD_FLAGS = {f"{name}_{kind}" for name in "OXZYT" for kind in ("IDEAL", "UNDEFINED")}


@pytest.mark.parametrize("bound", [10, 1000, 10**30])
@pytest.mark.parametrize("regime, shape", [("gamma1", "convex"), ("general", "convex"),
                                           ("general", "any")])
def test_convex_fuzz_plan_leaves_out_only_flagless_chord_crossings(regime, shape, bound):
    """On a convex instance, each of ``O X Z Y T`` crosses two chords, so the
    full build sets none of their flags, with the product forced to one or
    free; and the line ``fuzz`` writes from the build of its plan is the line
    of the full build, byte for byte."""
    args = argparse.Namespace(seed=5, coordinate_bound=bound,
                              ratio_bound=8 if bound < 10**30 else bound)
    count = 20 if bound == 10**30 else 60
    convex = 0
    for index, quad, ratios, built in cli._campaign(args, regime, shape, count, None):
        if quad is None or quad.shape != "convex":
            continue
        convex += 1
        full = cli._built(build_from_ratios, quad, ratios)
        assert not full.degeneracies & _CHORD_FLAGS, (index, full.degeneracies)
        # the plan leaves out the chord crossings exactly where the product is free
        G, H = ratios.gamma
        assert (built.triples[SLOT["O"]] is None) == (G != H), index
        meta = {"seed": "5", "index": index, "regime": regime}
        inst = instance_from_parts(quad, ratios)
        assert report_line(meta, verify_all(built), built, inst) == report_line(
            meta, verify_all(full), full, inst), index
    assert convex > 0


def test_nonconvex_fuzz_keeps_its_chord_crossing_flags():
    # general --shape concave --seed 42 writes Y_IDEAL on its 247th line
    out = io.StringIO()
    cli.main(["fuzz", "--regime", "general", "--shape", "concave", "--seed", "42",
              "--count", "247"], out=out)
    assert out.getvalue().splitlines()[246].startswith(
        '{"configuration":{"degeneracies":["Y_IDEAL"],')
