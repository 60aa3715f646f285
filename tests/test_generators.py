import hashlib
from fractions import Fraction

import naive_geometry as naive
import pytest
import test_configuration
from test_kernel_properties import orientation
from hypothesis import assume, example, given
from hypothesis import strategies as st

from quadconc import Quadrilateral, generators
from quadconc.kernel import classify_triples, point_text
from rationals import affine, draw, frac, tri
from quadconc.generators import (
    ANY_SHAPE,
    GenSpec,
    Stream,
    gen_quadrilateral,
    gen_ratios,
    instance_stream,
    mix64,
)

F = Fraction


class TestStream:
    def test_reference_vector(self):
        # splitmix64 with initial state 0: published reference outputs
        s = Stream(0)
        assert draw(s, 0, 2**64 - 1) == 0xE220A8397B1DCDAF
        assert draw(s, 0, 2**64 - 1) == 0x6E789E6AA1B965F4
        assert draw(s, 0, 2**64 - 1) == 0x06C45D188009454F

    def test_mix64_fixed_points(self):
        assert mix64(0) == 0
        assert mix64(1) == 0x5692161D100B05E5

    @given(st.integers(-2**70, 2**70))
    def test_mix64_is_the_draw_of_the_stream_whose_next_state_is_z(self, z):
        # mix64 mixes one value without the packed pass; its bytes are the pass's
        assert mix64(z) == Stream(z - 0x9E3779B97F4A7C15).ints(((0, 2**64),))[0]

    def test_instance_stream_keying(self):
        assert instance_stream(1, 0, 0x71).state == 0xB44B3E2E2830329B
        assert instance_stream(1, 0, 0x71).state != instance_stream(1, 0, 0x72).state
        assert instance_stream(1, 0, 0x71).state != instance_stream(1, 1, 0x71).state
        assert instance_stream(1, 0, 0x71).state != instance_stream(2, 0, 0x71).state

    @given(st.integers(0, 2**64 - 1), st.sampled_from([4, 10, 1000, 10**30]),
           st.sampled_from([
               lambda b: generators._point_spans(b) * 4,  # convex, crossed, any
               lambda b: generators._point_spans(b) * 3 + ((1, b),) * 3,  # concave
               lambda b: ((1, b),) * 8,  # ratios
               lambda b: ((0, 2**64),),  # a raw 64-bit output
           ]))
    def test_bulk_draw_equals_repeated_next_int(self, state, bound, spans_of):
        # each drawer's spans: signed numerators, positive denominators,
        # positive weights and raw 64-bit outputs, each value in its own
        # lane; ``draw`` takes them one value, one pass, at a time
        spans = spans_of(bound)
        bulk, single = Stream(state), Stream(state)
        assert bulk.ints(spans) == [draw(single, lo, lo + size - 1) for lo, size in spans]
        assert bulk.state == single.state

    @given(st.integers(0, 2**64 - 1), st.integers(0, 10**6), st.sampled_from([0x71, 0x72]))
    def test_instance_stream_seed_is_the_spelled_out_mix(self, seed, index, tag):
        # the seed's mix is cached per seed; the state is still the formula's
        for _ in range(2):
            assert instance_stream(seed, index, tag).state == (
                mix64(seed) ^ mix64((index * 0x9E3779B97F4A7C15 + tag) % 2**64))

    def test_bounded_draws(self):
        s = Stream(123)
        for _ in range(200):
            v = draw(s, -5, 5)
            assert -5 <= v <= 5


@pytest.mark.parametrize("shape", ["convex", "concave", "crossed", ANY_SHAPE])
def test_points_only_for_accepted_vertices(monkeypatch, shape):
    # a rejected candidate stays unreduced: a convex or crossed instance
    # reduces only the four triples of its vertices, however many attempts
    # it took
    reduced, attempts = [], []
    drawer = generators._DRAWERS[shape]
    reduce3 = generators.reduce3

    def counted_reduce3(*args):
        reduced.append(args)
        return reduce3(*args)

    def counted_draw(rng, bound):
        attempts.append(bound)
        return drawer(rng, bound)

    monkeypatch.setattr(generators, "reduce3", counted_reduce3)
    monkeypatch.setitem(generators._DRAWERS, shape, counted_draw)
    instances = 0
    for bound in (10, 1000):
        spec = GenSpec(seed=5, shape=shape, coordinate_bound=bound)
        for index in range(40):
            gen_quadrilateral(spec, index)
            instances += 1
    assert len(attempts) >= instances
    if shape in ("convex", "crossed"):
        # convex candidates are often rejected, each without a reduction
        assert len(attempts) > instances
        assert len(reduced) == 4 * instances


class TestGenSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenSpec(seed=-1)
        with pytest.raises(ValueError):
            GenSpec(coordinate_bound=3)
        with pytest.raises(ValueError):
            GenSpec(ratio_bound=0)
        with pytest.raises(ValueError):
            GenSpec(shape="pentagon")


class TestQuadrilaterals:
    def test_golden_first_instance(self):
        # frozen on first run; any change to the stream or the sampler is
        # a breaking change to reproducibility
        quad = gen_quadrilateral(GenSpec(seed=1), 0)
        assert quad.A == tri(F(-2, 3), F(10, 7))
        assert quad.B == tri(-1, F(1, 2))
        assert quad.C == tri(F(2, 3), F(-9, 4))
        assert quad.D == tri(F(9, 8), F(-2, 7))
        assert quad.shape == "convex"

    def test_determinism(self):
        spec = GenSpec(seed=7, shape="crossed")
        a = gen_quadrilateral(spec, 3)
        b = gen_quadrilateral(spec, 3)
        assert a.vertices == b.vertices

    @pytest.mark.parametrize("shape", ["convex", "concave", "crossed", ANY_SHAPE])
    def test_shape_soundness(self, shape):
        spec = GenSpec(seed=11, shape=shape)
        for index in range(40):
            quad = gen_quadrilateral(spec, index)
            if shape == ANY_SHAPE:
                assert quad.shape != "degenerate"
            else:
                assert quad.shape == shape

    def test_convex_is_counter_clockwise(self):
        spec = GenSpec(seed=5)
        for index in range(25):
            quad = gen_quadrilateral(spec, index)
            a, b, c, d = quad.vertices
            assert orientation(a, b, c) == 1
            assert orientation(b, c, d) == 1

    def test_coordinates_within_bound(self):
        bound = 6
        spec = GenSpec(seed=3, coordinate_bound=bound)
        for index in range(25):
            for vertex in gen_quadrilateral(spec, index).vertices:
                x, y = affine(vertex)
                for c in (x, y):
                    assert abs(c.numerator) <= bound
                    assert c.denominator <= bound


_small = st.fractions(min_value=-3, max_value=3, max_denominator=2)
# numerators and denominators up to 10**6, so a product of three weights
# reaches 10**36
_large = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))


@st.composite
def four_points(draw, coordinates=_small):
    """Four finite points, by default with small coordinates, so repeated
    points and collinear offsets are common; or three and, at any
    position, their centroid, which is then the centroid of all four."""
    pts = draw(st.lists(st.builds(tri, coordinates, coordinates), min_size=3, max_size=4))
    if len(pts) == 3:
        xs, ys = zip(*map(affine, pts))
        pts.insert(draw(st.integers(0, 3)), tri(sum(xs) / 3, sum(ys) / 3))
    return pts


class Drawn:
    """A stand-in stream whose one bulk draw returns the given values."""

    def __init__(self, values):
        self.values = values

    def ints(self, spans):
        assert len(spans) == len(self.values)
        return list(self.values)


def draws_of(pts):
    """The values ``xn, xd, yn, yd`` of each point in turn, as a stream draws them."""
    return [c for p in pts for x, y in [affine(p)]
            for c in (x.numerator, x.denominator, y.numerator, y.denominator)]


def naive_order(pts):
    """``pts`` counterclockwise about their centroid, by the naive comparison sort."""
    return [pts[i] for i in naive.ccw_about_centroid([affine(p) for p in pts])]


class TestConvexPosition:
    @given(st.one_of(four_points(), four_points(_large)))
    @example([tri(0, 0), tri(2, 2), tri(0, 1), tri(-2, 1)])  # insertion and sort differ
    @example([tri(1, 0), tri(2, 0), tri(-1, 1), tri(-2, -1)])  # one direction twice
    @example([tri(0, 0), tri(1, 1), tri(3, -1), tri(2, 2)])  # three collinear
    @example([tri(0, 0), tri(3, 0), tri(0, 0), tri(0, 3)])  # a repeated point
    @example([tri(3, 0), tri(0, 3), tri(-3, -3), tri(0, 0)])  # one on the centroid
    @example([tri(1, 1), tri(2, 2), tri(-3, 0), tri(0, -3)])  # two on one ray
    @example([tri(F(10**30, 3), F(-1, 10**30)), tri(F(-10**30, 7), F(10**30 - 1, 10**30)),
              tri(F(1, 10**30), F(-10**30, 10**30 - 1)),
              tri(F(10**30 - 7, 10**30), F(10**30, 9))])  # convex, terms near 10**30
    def test_drawers_match_the_naive_centroid_order(self, pts):
        # the four orientation signs decide convex position and order the
        # vertices as the centroid sort followed by a classification does;
        # the offsets scaled by products of weights, however large, order
        # them as the comparison sort does
        a, b, c, d = naive_order(pts)
        convex = classify_triples(a, b, c, d) == "convex"
        assert generators._try_convex(Drawn(draws_of(pts)), 4) == (
            Quadrilateral(a, b, c, d, "convex") if convex else None)
        assert generators._try_crossed(Drawn(draws_of(pts)), 4) == (
            Quadrilateral(b, a, c, d, "crossed") if convex else None)


class TestCrossed:
    @given(st.lists(st.builds(tri, _small, _small), min_size=4, max_size=4), st.booleans())
    def test_swapping_a_and_b_of_a_convex_quadrilateral_crosses_it(self, pts, clockwise):
        # _try_crossed labels B A C D crossed without classifying it again
        a, b, c, d = naive_order(pts)
        if clockwise:
            a, b, c, d = d, c, b, a
        assume(classify_triples(a, b, c, d) == "convex")
        assert classify_triples(b, a, c, d) == "crossed"


class TestConcave:
    @given(st.integers(0, 2**64 - 1), st.integers(0, 10**6), st.sampled_from([4, 10, 1000]))
    def test_drawn_concave_quadrilaterals_are_concave(self, seed, index, bound):
        # _try_concave labels a b x c concave without classifying it
        quad = gen_quadrilateral(GenSpec(seed=seed, shape="concave", coordinate_bound=bound),
                                 index)
        assert classify_triples(*quad.vertices) == "concave"


class TestRatios:
    def test_free_sampling_within_bound(self):
        spec = GenSpec(seed=9, ratio_bound=5)
        for index in range(50):
            ratios = gen_ratios(spec, index)
            m, n, p, q = map(frac, ratios.as_tuple)
            for r in (m, n, p, q):
                assert r > 0
                assert r.numerator <= 5 and r.denominator <= 5
            assert ratios.as_tuple == tuple(r.as_integer_ratio() for r in (m, n, p, q))
            assert ratios.gamma == (m * n * p * q).as_integer_ratio()

    def test_force_gamma_one(self):
        spec = GenSpec(seed=9, force_gamma_one=True)
        for index in range(50):
            ratios = gen_ratios(spec, index)
            assert ratios.gamma == (1, 1)
            mnp = frac(ratios.m) * frac(ratios.n) * frac(ratios.p)
            assert ratios.q == (1 / mnp).as_integer_ratio()

    def test_forcing_keeps_mnp_draws(self):
        free = gen_ratios(GenSpec(seed=4), 2)
        forced = gen_ratios(GenSpec(seed=4, force_gamma_one=True), 2)
        assert (free.m, free.n, free.p) == (forced.m, forced.n, forced.p)

    def test_determinism(self):
        spec = GenSpec(seed=2)
        assert gen_ratios(spec, 8) == gen_ratios(spec, 8)

    @pytest.mark.parametrize("force_gamma_one", [False, True])
    def test_no_fraction_in_either_regime(self, monkeypatch, force_gamma_one):
        # m, n, p, q and gamma are integer pairs, a forced q = 1/(mnp) too
        spec = GenSpec(seed=6, force_gamma_one=force_gamma_one)
        for index in range(20):
            _, made = test_configuration.TestTraceRatioMakesNoFraction.count_fractions(
                monkeypatch, lambda: gen_ratios(spec, index))
            assert made == 0


def test_stream_pinned_across_shapes_and_bounds():
    # every shape at small, default and large coordinate bounds; any
    # change to the draws, the sampler or the vertex order moves it
    digest = hashlib.sha256()
    for shape in ("convex", "concave", "crossed", ANY_SHAPE):
        for bound in (4, 10, 1000):
            spec = GenSpec(seed=7, shape=shape, coordinate_bound=bound)
            for index in range(100):
                q = gen_quadrilateral(spec, index)
                vertices = ", ".join(map(point_text, q.vertices))
                digest.update(f"({vertices}) {q.shape}\n".encode())
    assert digest.hexdigest() == (
        "b02f2f54e9982dc4eeedea37d243d202c7f558d5f0d01879dff81fbae4dc3a31"
    )
