from __future__ import annotations

import random
from fractions import Fraction as Q
from itertools import chain
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    affine_combine,
    coefficients,
    fractions_built,
    rationals,
    relu,
    seeded_points,
    splines,
)
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
        assert tuple(Q(x, form.knot_lcd) for x in form.scaled_knots) == (Q(0), Q(1))
        (row,) = form.scaled_rows
        assert tuple(Q(s, form.lcd) for s in row[:-2]) == (Q(1), Q(1))
        assert Q(row[-2], form.lcd) == Q(-1)
        assert Q(row[-1], form.lcd) == Q(1)
        assert form.folded_units == ()
        assert eval_canonical(form, 0) == [Q(1)] == evaluate(net, 0)
        assert eval_canonical(form, 2) == [Q(2)] == evaluate(net, 2)

    def test_all_positive_weights_leave_no_line(self):
        net = shallow([1, 2, 3], [0, -1, 5], [[1, 1, 1]], [Q(7, 2)])
        form = to_forward_facing(net)
        (row,) = form.scaled_rows
        assert Q(row[-2], form.lcd) == Q(0)
        assert Q(row[-1], form.lcd) == Q(7, 2)

    def test_sawtooth_layer_parameters(self):
        # Unscaled alternating output weights over the sawtooth first layer:
        # knots land on 0..n-1 and the leftover line is (-1, b2 + 2).
        layer, witness = build_first_layer_sawtooth(8)
        unscaled = tuple(a / 2 for a in witness.combination_weights)
        b2 = Q(-9, 4)
        net = ScalarInputNetwork((layer,), DenseLayer((unscaled,), (b2,)))
        form = to_forward_facing(net)
        assert tuple(Q(x, form.knot_lcd) for x in form.scaled_knots) == tuple(map(Q, range(8)))
        (row,) = form.scaled_rows
        assert tuple(Q(s, form.lcd) for s in row[:-2]) == unscaled
        assert Q(row[-2], form.lcd) == Q(-1)
        assert Q(row[-1], form.lcd) == b2 + 2

    def test_zero_weight_unit_folds_into_intercept(self):
        net = shallow([1, 0], [0, 5], [[1, 3]], [2])
        form = to_forward_facing(net)
        assert form.folded_units == (1,)
        assert tuple(Q(x, form.knot_lcd) for x in form.scaled_knots) == (Q(0),)
        (row,) = form.scaled_rows
        assert Q(row[-1], form.lcd) == Q(2) + 3 * 5
        for x in (-2, 0, 7):
            assert eval_canonical(form, x) == evaluate(net, x)

    def test_zero_weight_negative_bias_folds_to_nothing(self):
        net = shallow([1, 0], [0, -5], [[1, 3]], [2])
        form = to_forward_facing(net)
        (row,) = form.scaled_rows
        assert Q(row[-1], form.lcd) == Q(2)

    def test_tied_knot_locations_are_kept_distinct(self):
        net = shallow([1, 2], [-1, -2], [[1, 1]], [0])  # both knots at x=1
        form = to_forward_facing(net)
        assert tuple(Q(x, form.knot_lcd) for x in form.scaled_knots) == (Q(1), Q(1))
        (row,) = form.scaled_rows
        assert tuple(Q(s, form.lcd) for s in row[:-2]) == (Q(1), Q(2))
        for x in (0, 1, 3):
            assert eval_canonical(form, x) == evaluate(net, x)

    def test_builds_no_rational(self, monkeypatch):
        # the rewrite reads the layers' ints and holds the form in ints
        rng = random.Random(2301)
        archs = [Architecture((rng.randint(1, 10),), rng.randint(1, 3)) for _ in range(40)]
        nets = [random_network(rng, arch) for arch in archs]
        with fractions_built(monkeypatch) as built:
            forms = [to_forward_facing(net) for net in nets]
        assert built == [0]
        assert sum(len(form.scaled_knots) for form in forms) > 100

    def test_rejects_deep_networks(self):
        l1 = DenseLayer(((Q(1),),), (Q(0),))
        l2 = DenseLayer(((Q(1),),), (Q(0),))
        net = ScalarInputNetwork((l1, l2), DenseLayer(((Q(1),),), (Q(0),)))
        with pytest.raises(ValueError, match="one hidden layer"):
            to_forward_facing(net)


class TestEvalCanonical:
    def test_empty_form_is_constant(self):
        form = CanonicalShallowForm(1, (), 1, ((0, 5),))
        assert eval_canonical(form, 123) == [Q(5)]

    def test_peak_walk_matches_cumulative_slopes(self):
        # Values at integer points follow the alternating slope sums.
        layer, witness = build_first_layer_sawtooth(8)
        unscaled = tuple(a / 2 for a in witness.combination_weights)
        net = ScalarInputNetwork((layer,), DenseLayer((unscaled,), (Q(-9, 4),)))
        form = to_forward_facing(net)
        *ramps, slope, value = (Q(s, form.lcd) for s in form.scaled_rows[0])
        expected = []
        for j in range(8):
            expected.append(value if j == 0 else expected[-1] + slope)
            slope += ramps[j]
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
        for xj in (Q(x, form.knot_lcd) for x in form.scaled_knots):
            ramp = relu(LinearSpline(1, -xj))
            assert ramp.initial_slope == 0
            assert ramp.breakpoints == ((xj, Q(1)),)


@st.composite
def forms_at_points(draw):
    """A form with up to 6 knots, tied ones among them, and an x that is
    often one of its knots."""
    ints = st.integers(-600, 600)
    knot_lcd, lcd = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    pool = draw(st.lists(ints, min_size=1, max_size=3))
    knots = tuple(sorted(draw(st.lists(st.sampled_from(pool), max_size=6))))
    p = draw(st.integers(1, 3))
    rows = tuple(tuple(draw(ints) for _ in range(len(knots) + 2)) for _ in range(p))
    form = CanonicalShallowForm(knot_lcd, knots, lcd, rows)
    locations = [Q(k, knot_lcd) for k in knots]
    x = draw(st.sampled_from(locations) if knots and draw(st.booleans()) else rationals)
    return form, x


@given(case=forms_at_points())
def test_eval_canonical_matches_ramp_sum(case):
    form, x = case
    knots = [Q(k, form.knot_lcd) for k in form.scaled_knots]
    expected = []
    for row in form.scaled_rows:
        *slopes, c1, c0 = (Q(s, form.lcd) for s in row)
        expected.append(c1 * x + c0 + sum(s * max(Q(0), x - xj) for s, xj in zip(slopes, knots)))
    got = eval_canonical(form, x)
    assert got == expected
    assert all(isinstance(y, Rational) for y in got)


# zero often, small rationals, and numerators and denominators up to 10**6
parameters = st.one_of(
    coefficients, st.fractions(-(10**6), 10**6, max_denominator=10**6)
)


@st.composite
def shallow_networks(draw):
    """A network of 1-8 hidden units and 1-3 outputs whose units often
    share a knot -b/w drawn from a pool of two."""
    width, p = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    pool = draw(st.lists(parameters, min_size=1, max_size=2))
    w1 = [draw(parameters) for _ in range(width)]
    b1 = [
        -draw(st.sampled_from(pool)) * w if draw(st.booleans()) else draw(parameters)
        for w in w1
    ]
    w2 = [[draw(parameters) for _ in range(width)] for _ in range(p)]
    return shallow(w1, b1, w2, [draw(parameters) for _ in range(p)])


@given(net=shallow_networks())
def test_forward_facing_matches_rational_rewrite(net):
    # to_forward_facing's docstring, in Fractions
    (hidden,), out = net.hidden_layers, net.output_layer
    w1, b1 = [w for (w,) in hidden.weights], hidden.biases
    kept = sorted((j for j, w in enumerate(w1) if w), key=lambda j: -b1[j] / w1[j])
    form = to_forward_facing(net)
    knots = tuple(Q(x, form.knot_lcd) for x in form.scaled_knots)
    assert knots == tuple(-b1[j] / w1[j] for j in kept)
    rows = [[Q(s, form.lcd) for s in row] for row in form.scaled_rows]
    slopes = tuple(tuple(row[j] * abs(w1[j]) for j in kept) for row in out.weights)
    assert tuple(tuple(row[:-2]) for row in rows) == slopes
    assert tuple(row[-2] for row in rows) == tuple(
        sum(v * w for v, w in zip(row, w1) if w < 0) for row in out.weights
    )
    assert tuple(row[-1] for row in rows) == tuple(
        c + sum(v * (b if w < 0 else max(Q(0), b)) for v, w, b in zip(row, w1, b1) if w <= 0)
        for row, c in zip(out.weights, out.biases)
    )
    assert form.folded_units == tuple(j for j, w in enumerate(w1) if w == 0)
    # both int parts in lowest terms
    assert gcd(form.knot_lcd, *form.scaled_knots) == 1
    assert gcd(form.lcd, *chain.from_iterable(form.scaled_rows)) == 1


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
