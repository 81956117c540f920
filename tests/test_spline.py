from __future__ import annotations

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    affine_combine,
    rationals,
    reference_layer,
    reference_unit_splines,
    relu,
    sawtooth_range,
    splines,
)
from relu_knots import LinearSpline
from relu_knots.construct import build_first_layer_sawtooth, example_tight_network
from relu_knots.network import extract

SIGMA = LinearSpline(0, 0, ((Q(0), Q(1)),))  # max(0, x)


def reference_sawtooth(n1: int = 6) -> LinearSpline:
    layer, witness = build_first_layer_sawtooth(n1)
    return affine_combine(zip(witness.combination_weights, reference_layer(layer)))


class TestEval:
    def test_identity_line(self):
        f = LinearSpline(1, 0)
        assert f(5) == 5

    def test_relu_unit(self):
        assert SIGMA(-3) == 0
        assert SIGMA(2) == 2
        assert SIGMA(0) == 0

    def test_sawtooth_peak(self):
        # Independent check: sum the unit contributions with plain scalar
        # arithmetic, no spline machinery on the evaluation side.
        layer, witness = build_first_layer_sawtooth(6)
        x = Q(1)
        expected = sum(
            a * max(Q(0), row[0] * x + b)
            for a, row, b in zip(witness.combination_weights, layer.weights, layer.biases)
        )
        assert expected == 5
        assert reference_sawtooth(6)(x) == 5

    def test_value_at_breakpoint_is_shared(self):
        f = LinearSpline(1, 0, ((Q(2), Q(-3)),))
        left = f.initial_slope * Q(2) + f.initial_intercept
        assert f(2) == left  # continuity: both pieces give the same value


class TestAffineCombine:
    def test_identity(self):
        f = reference_sawtooth()
        assert affine_combine([(1, f)], 0) == f

    def test_exact_cancellation_destroys_knot(self):
        g = LinearSpline(0, 0, ((Q(1), Q(1)),))
        h = LinearSpline(0, 0, ((Q(1), Q(-2, 3)),))
        combined = affine_combine([(2, g), (3, h)], 0)
        assert combined.breakpoints == ()

    def test_empty_terms_yield_constant(self):
        assert affine_combine([], Q(7, 2)) == LinearSpline(0, Q(7, 2))

    def test_slope_sequence_of_eight_unit_wave(self):
        # Half the witness weights with offset -9/4: slopes must alternate
        # -1, 1/2, -1/2, ... across the nine pieces.
        layer, witness = build_first_layer_sawtooth(8)
        unscaled = [a / 2 for a in witness.combination_weights]
        wave = affine_combine(zip(unscaled, reference_layer(layer)), Q(-9, 4))
        expected = [Q(-1)] + [Q(1, 2) if i % 2 == 0 else Q(-1, 2) for i in range(8)]
        assert wave.piece_slopes() == expected


def brute_force_relu_knots(f: LinearSpline) -> list[Q]:
    """Oracle: enumerate f's pieces directly and classify knots and roots."""
    xs = f.knots()
    values = f.knot_values()
    slopes = f.piece_slopes()
    knots: set[Q] = set()
    # retained knots: strictly positive value, or zero value with an actual
    # slope change in max(0, f) at that location
    for x, v, left, right in zip(xs, values, slopes, slopes[1:]):
        out_left = left if (v > 0 or (v == 0 and left < 0)) else Q(0)
        out_right = right if (v > 0 or (v == 0 and right > 0)) else Q(0)
        if out_left != out_right:
            knots.add(x)
    # roots: solve each piece's line for zero and keep strictly interior hits
    if xs:
        if slopes[0] != 0:
            root = xs[0] - values[0] / slopes[0]
            if root < xs[0]:
                knots.add(root)
        for i in range(len(xs) - 1):
            s = slopes[i + 1]
            if s != 0:
                root = xs[i] - values[i] / s
                if xs[i] < root < xs[i + 1]:
                    knots.add(root)
        if slopes[-1] != 0:
            root = xs[-1] - values[-1] / slopes[-1]
            if root > xs[-1]:
                knots.add(root)
    elif f.initial_slope != 0:
        knots.add(-f.initial_intercept / f.initial_slope)
    return sorted(knots)


class TestRelu:
    def test_relu_of_identity_is_ramp(self):
        assert relu(LinearSpline(1, 0)) == SIGMA

    def test_everywhere_negative_flattens(self):
        out = relu(LinearSpline(0, -1))
        assert out == LinearSpline(0, 0)

    def test_shifted_sawtooth(self):
        # Wave oscillating between -1/2 and 1/2 with 6 knots: ReLU keeps the
        # 3 positive knots and creates 7 root knots (one per crossing piece,
        # rays included).
        f = affine_combine([(1, reference_sawtooth(6))], Q(-9, 2))
        out = relu(f)
        expected = [
            Q(-1, 4), Q(1, 2), Q(1), Q(3, 2), Q(5, 2),
            Q(3), Q(7, 2), Q(9, 2), Q(5), Q(11, 2),
        ]
        assert out.knots() == expected
        assert out.knots() == brute_force_relu_knots(f)
        assert len(out.knots()) <= 2 * 6 + 1

    def test_root_merging_with_existing_knot(self):
        # f touches zero exactly at its knot: one merged breakpoint results
        f = LinearSpline(-1, 0, ((Q(0), Q(2)),))  # V shape, min 0 at x=0
        out = relu(f)
        assert out == f  # f is nonnegative, relu is the identity here
        g = LinearSpline(1, 0, ((Q(0), Q(-2)),))  # peak 0 at x=0, negative elsewhere
        assert relu(g) == LinearSpline(0, 0)

    def test_piece_identically_zero_adds_no_interior_knots(self):
        # down to 0 at x=0, flat to x=1, up afterwards
        f = LinearSpline(-1, 0, ((Q(0), Q(1)), (Q(1), Q(1))))
        out = relu(f)
        assert out == f  # already nonnegative with a flat-zero middle piece

    def test_zero_constant(self):
        assert relu(LinearSpline(0, 0)) == LinearSpline(0, 0)


class TestKnots:
    def test_constant_has_none(self):
        assert LinearSpline(0, 3).knots() == []

    def test_relu_unit_has_origin(self):
        assert SIGMA.knots() == [0]

    def test_reference_outputs_have_83(self):
        trace = extract(example_tight_network())
        for out in trace.output_splines:
            assert len(out.knots()) == 83


class TestKnotValueRange:
    def test_reference_waves(self):
        net = example_tight_network()
        units = reference_unit_splines(net)
        g2 = affine_combine(zip(net.hidden_layers[1].weights[0], units[0]))
        g3 = affine_combine(zip(net.hidden_layers[2].weights[0], units[1]))
        assert sawtooth_range(g2) == (4, 5)
        assert sawtooth_range(g3) == (4, 5)


class TestCanonicalForm:
    def test_rejects_zero_delta(self):
        with pytest.raises(ValueError):
            LinearSpline(0, 0, ((Q(1), Q(0)),))

    def test_rejects_unsorted_breakpoints(self):
        with pytest.raises(ValueError):
            LinearSpline(0, 0, ((Q(2), Q(1)), (Q(1), Q(1))))

    def test_rejects_duplicate_breakpoints(self):
        with pytest.raises(ValueError):
            LinearSpline(0, 0, ((Q(1), Q(1)), (Q(1), Q(1))))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            LinearSpline(0.5, 0)



@given(a=rationals, b=rationals, c=rationals, f=splines(), g=splines(), x=rationals)
@settings(max_examples=150)
def test_affine_combine_evaluates_linearly(a, b, c, f, g, x):
    combined = affine_combine([(a, f), (b, g)], c)
    assert combined(x) == a * f(x) + b * g(x) + c


@given(f=splines(), xs=st.lists(rationals, max_size=5))
@settings(max_examples=150)
def test_relu_is_pointwise_max(f, xs):
    out = relu(f)
    for x in list(xs) + f.knots() + out.knots():
        assert out(x) == max(Q(0), f(x))


@given(f=splines())
@settings(max_examples=150)
def test_relu_knot_budget(f):
    assert len(relu(f).knots()) <= 2 * len(f.knots()) + 1


@given(f=splines())
@settings(max_examples=150)
def test_relu_idempotent(f):
    once = relu(f)
    assert relu(once) == once


@given(f=splines(), g=splines(), a=rationals, b=rationals)
@settings(max_examples=150)
def test_operations_preserve_canonical_form(f, g, a, b):
    for result in (affine_combine([(a, f), (b, g)]), relu(f)):
        xs = [x for x, _ in result.breakpoints]
        assert xs == sorted(set(xs))
        assert all(d != 0 for _, d in result.breakpoints)
