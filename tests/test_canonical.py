from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import affine_combine, rationals, relu, seeded_points, splines
from relu_knots import (
    Architecture,
    DenseLayer,
    LinearSpline,
    Rational,
    ScalarInputNetwork,
    eval_canonical,
    evaluate,
    to_forward_facing,
)
from relu_knots.canonical import CanonicalShallowForm
from relu_knots.construct import build_first_layer_sawtooth
from relu_knots.verify import random_network


def shallow(w1, b1, w2, b2) -> ScalarInputNetwork:
    hidden = DenseLayer(tuple((Q(w),) for w in w1), tuple(Q(b) for b in b1))
    out = DenseLayer(tuple(tuple(Q(w) for w in row) for row in w2), tuple(Q(b) for b in b2))
    return ScalarInputNetwork((hidden,), out)


class TestToForwardFacing:
    def test_two_unit_example(self):
        # One forward and one reflected unit; worked out by hand.
        net = shallow([1, -1], [0, 1], [[1, 1]], [0])
        form = to_forward_facing(net)
        assert form.knot_locations == (Q(0), Q(1))
        assert form.ray_slopes == ((Q(1), Q(1)),)
        assert form.line_slope == (Q(-1),)
        assert form.line_intercept == (Q(1),)
        assert form.folded_units == ()
        assert eval_canonical(form, 0) == [Q(1)] == evaluate(net, 0)
        assert eval_canonical(form, 2) == [Q(2)] == evaluate(net, 2)

    def test_all_positive_weights_leave_no_line(self):
        net = shallow([1, 2, 3], [0, -1, 5], [[1, 1, 1]], [Q(7, 2)])
        form = to_forward_facing(net)
        assert form.line_slope == (Q(0),)
        assert form.line_intercept == (Q(7, 2),)

    def test_sawtooth_layer_parameters(self):
        # Unscaled alternating output weights over the sawtooth first layer:
        # knots land on 0..n-1 and the leftover line is (-1, b2 + 2).
        layer, witness = build_first_layer_sawtooth(8)
        unscaled = tuple(a / 2 for a in witness.combination_weights)
        b2 = Q(-9, 4)
        net = ScalarInputNetwork((layer,), DenseLayer((unscaled,), (b2,)))
        form = to_forward_facing(net)
        assert form.knot_locations == tuple(Q(j) for j in range(8))
        assert form.ray_slopes == (unscaled,)
        assert form.line_slope == (Q(-1),)
        assert form.line_intercept == (b2 + 2,)

    def test_zero_weight_unit_folds_into_intercept(self):
        net = shallow([1, 0], [0, 5], [[1, 3]], [2])
        form = to_forward_facing(net)
        assert form.folded_units == (1,)
        assert form.knot_locations == (Q(0),)
        assert form.line_intercept == (Q(2) + 3 * 5,)
        for x in (-2, 0, 7):
            assert eval_canonical(form, x) == evaluate(net, x)

    def test_zero_weight_negative_bias_folds_to_nothing(self):
        net = shallow([1, 0], [0, -5], [[1, 3]], [2])
        form = to_forward_facing(net)
        assert form.line_intercept == (Q(2),)

    def test_tied_knot_locations_are_kept_distinct(self):
        net = shallow([1, 2], [-1, -2], [[1, 1]], [0])  # both knots at x=1
        form = to_forward_facing(net)
        assert form.knot_locations == (Q(1), Q(1))
        assert form.ray_slopes == ((Q(1), Q(2)),)
        for x in (0, 1, 3):
            assert eval_canonical(form, x) == evaluate(net, x)

    def test_rejects_deep_networks(self):
        l1 = DenseLayer(((Q(1),),), (Q(0),))
        l2 = DenseLayer(((Q(1),),), (Q(0),))
        net = ScalarInputNetwork((l1, l2), DenseLayer(((Q(1),),), (Q(0),)))
        with pytest.raises(ValueError, match="one hidden layer"):
            to_forward_facing(net)


class TestEvalCanonical:
    def test_float_parameters_are_refused(self):
        with pytest.raises(TypeError, match="refusing float"):
            CanonicalShallowForm((Q(0),), ((0.1,),), (Q(0),), (Q(1, 5),))

    @pytest.mark.parametrize(
        "knots, ray_slopes, line_slope, message",
        [
            ((Q(0),), ((Q(1), Q(1)),), (Q(0),), "ray_slopes rows must match"),
            ((Q(0),), ((Q(1),),), (Q(0), Q(0)), "line coefficient lengths must match"),
            ((Q(1), Q(0)), ((Q(1), Q(1)),), (Q(0),), "knot locations must be non-decreasing"),
        ],
        ids=["ragged-ray-slopes", "line-of-wrong-length", "descending-knots"],
    )
    def test_rejects_bad_shapes_and_order(self, knots, ray_slopes, line_slope, message):
        with pytest.raises(ValueError, match=message):
            CanonicalShallowForm(knots, ray_slopes, line_slope, (Q(0),))

    def test_empty_form_is_constant(self):
        form = CanonicalShallowForm((), ((),), (Q(0),), (Q(5),))
        assert eval_canonical(form, 123) == [Q(5)]

    def test_peak_walk_matches_cumulative_slopes(self):
        # Values at integer points follow the alternating slope sums.
        layer, witness = build_first_layer_sawtooth(8)
        unscaled = tuple(a / 2 for a in witness.combination_weights)
        net = ScalarInputNetwork((layer,), DenseLayer((unscaled,), (Q(-9, 4),)))
        form = to_forward_facing(net)
        value = form.line_intercept[0]
        slope = form.line_slope[0]
        expected = []
        for j in range(8):
            expected.append(value if j == 0 else expected[-1] + slope)
            slope += form.ray_slopes[0][j]
        got = [eval_canonical(form, j)[0] for j in range(8)]
        assert got == expected
        assert got == [Q(-1, 4), Q(1, 4)] * 4


class TestEquivalence:
    def test_random_shallow_networks(self):
        rng = random.Random(17)
        for _ in range(40):
            arch = Architecture((rng.randint(1, 6),), output_dim=rng.randint(1, 3))
            net = random_network(rng, arch)
            form = to_forward_facing(net)
            for x in seeded_points(rng.randint(0, 10**6), 50):
                assert evaluate(net, x) == eval_canonical(form, x)

    def test_forward_facing_summands_are_unit_ramps(self):
        rng = random.Random(23)
        net = random_network(rng, Architecture((5,)))
        form = to_forward_facing(net)
        for xj in form.knot_locations:
            ramp = relu(LinearSpline(1, -xj))
            assert ramp.initial_slope == 0
            assert ramp.breakpoints == ((xj, Q(1)),)


@st.composite
def forms_at_points(draw):
    """A form with up to 6 knots, tied ones among them, and an x that is
    often one of its knots."""
    pool = draw(st.lists(rationals, min_size=1, max_size=3))
    knots = sorted(draw(st.lists(st.sampled_from(pool), max_size=6)))
    p = draw(st.integers(1, 3))
    slopes = tuple(tuple(draw(rationals) for _ in knots) for _ in range(p))
    line = [tuple(draw(rationals) for _ in range(p)) for _ in range(2)]
    x = draw(st.sampled_from(knots) if knots and draw(st.booleans()) else rationals)
    return CanonicalShallowForm(tuple(knots), slopes, *line), x


@given(case=forms_at_points())
def test_eval_canonical_matches_ramp_sum(case):
    form, x = case
    expected = [
        c1 * x + c0 + sum(s * max(Q(0), x - xj) for s, xj in zip(row, form.knot_locations))
        for row, c1, c0 in zip(form.ray_slopes, form.line_slope, form.line_intercept)
    ]
    got = eval_canonical(form, x)
    assert got == expected
    assert all(isinstance(y, Rational) for y in got)


@given(x=rationals)
def test_reflection_identity_on_splines(x):
    # max(0, x) equals max(0, -x) + x, as splines and pointwise.
    forward = relu(LinearSpline(1, 0))
    rebuilt = affine_combine([(1, relu(LinearSpline(-1, 0))), (1, LinearSpline(1, 0))])
    assert rebuilt == forward
    assert rebuilt(x) == max(Q(0), x)


@given(f=splines(), w=rationals.filter(lambda q: q >= 0))
@settings(max_examples=150)
def test_relu_is_positively_homogeneous(f, w):
    assert relu(affine_combine([(w, f)])) == affine_combine([(w, relu(f))])
