from __future__ import annotations

from fractions import Fraction as Q

import pytest

from conftest import affine_combine, combination, knot_union, reference_unit_splines, relu
from relu_knots import (
    Architecture,
    DenseLayer,
    ScalarInputNetwork,
    check_sawtooth,
    extract,
    recurrence_step,
)
from relu_knots.construct import (
    build_final_layer,
    build_first_layer_sawtooth,
    build_inductive_layer,
    build_tight_network,
    example_tight_network,
)
from relu_knots.spline import LinearSpline

# The reference network, widths (6, 3, 2) with two outputs, written out: the
# builders must give exactly these parameters.
REFERENCE = ScalarInputNetwork(
    (
        DenseLayer(((1,), (1,), (-1,), (1,), (1,), (1,)), (0, -1, 2, -3, -4, -5)),
        DenseLayer(
            ((3, -2, 2, -2, 2, -2), (3, -2, 2, -2, 2, -2), (-3, 2, -2, 2, -2, 2)),
            (Q(-29, 7), Q(-31, 7), Q(33, 7)),
        ),
        DenseLayer(((Q(21, 2), -7, 7), (Q(-21, 2), 7, -7)), (Q(-13, 3), Q(14, 3))),
    ),
    DenseLayer(((1, -1), (-1, 1)), (0, 1)),
)


def layer_splines(layer: DenseLayer) -> list[LinearSpline]:
    return [relu(LinearSpline(row[0], b)) for row, b in zip(layer.weights, layer.biases)]


class TestFirstLayerSawtooth:
    def test_eight_units(self):
        layer, witness = build_first_layer_sawtooth(8)
        wave = combination(witness, extract_layer(layer))
        assert wave.knots() == [Q(j) for j in range(8)]
        assert wave.piece_slopes() == [Q(-2)] + [Q(1) if i % 2 == 0 else Q(-1) for i in range(8)]
        assert check_sawtooth(wave).ok

    def test_six_units_matches_reference_layer(self):
        layer, witness = build_first_layer_sawtooth(6)
        assert layer == REFERENCE.hidden_layers[0]
        wave = combination(witness, extract_layer(layer))
        assert wave.knot_value_range() == (4, 5)
        assert witness.oscillation_range == (4, 5)

    def test_three_units_minimal(self):
        layer, witness = build_first_layer_sawtooth(3)
        wave = combination(witness, extract_layer(layer))
        assert wave.knots() == [Q(0), Q(1), Q(2)]
        # halving the weights gives the unscaled slope walk -1, 1/2, -1/2, 1/2
        half = affine_combine(
            [(a / 2, f) for a, f in zip(witness.combination_weights, extract_layer(layer))]
        )
        assert half.piece_slopes() == [Q(-1), Q(1, 2), Q(-1, 2), Q(1, 2)]

    def test_rejects_fewer_than_three(self):
        for n in (0, 1, 2):
            with pytest.raises(ValueError):
                build_first_layer_sawtooth(n)


def extract_layer(layer: DenseLayer):
    return tuple(layer_splines(layer))


def build_prefix(widths: tuple[int, ...]):
    """First layer plus inductive layers; returns (hidden_layers, witness, unit splines)."""
    first, witness = build_first_layer_sawtooth(widths[0])
    hidden = [first]
    units = extract_layer(first)
    for n_i in widths[1:]:
        layer, witness = build_inductive_layer(witness, n_i)
        hidden.append(layer)
        units = _apply(layer, units)
    return hidden, witness, units


def _apply(layer: DenseLayer, units):
    return tuple(
        relu(affine_combine(zip(row, units), b)) for row, b in zip(layer.weights, layer.biases)
    )


class TestInductiveLayer:
    def test_reference_second_layer(self):
        hidden, witness, units = build_prefix((6, 3))
        assert hidden[1] == REFERENCE.hidden_layers[1]
        assert len(combination(witness, units).knots()) == 27
        assert witness.oscillation_range == (Q(4, 7), Q(5, 7))

    def test_knot_count_follows_recurrence(self):
        _, witness, units = build_prefix((6, 3))
        wave = combination(witness, units)
        assert len(wave.knots()) == 27 == recurrence_step(6, 3)
        assert check_sawtooth(wave).ok

    @pytest.mark.parametrize("n_i", [3, 5, 7])
    def test_vertical_displacements(self, n_i):
        _, witness, units = build_prefix((3, n_i))
        wave = combination(witness, units)
        values = wave.knot_values()
        step = Q(1, 2 * n_i + 1)
        assert all(abs(b - a) == step for a, b in zip(values, values[1:]))

    def test_knot_provenance(self):
        hidden, witness, units = build_prefix((4, 3))
        prev_units = extract_layer(hidden[0])
        prev_knots = set(knot_union(prev_units))
        new_knots = set(knot_union(units))
        assert prev_knots <= new_knots  # every old knot preserved
        created = new_knots - prev_knots
        assert len(created) == 3 * (len(prev_knots) + 1)  # one per unit per piece

    def test_rejects_narrow_layers(self):
        _, witness = build_first_layer_sawtooth(3)
        with pytest.raises(ValueError):
            build_inductive_layer(witness, 2)


class TestFinalLayer:
    def test_reference_third_layer(self):
        _, witness = build_first_layer_sawtooth(6)
        _, witness = build_inductive_layer(witness, 3)
        layer = build_final_layer(witness, 2)
        assert layer == REFERENCE.hidden_layers[2]

    def test_two_units_achieve_recurrence(self):
        hidden, witness, units = build_prefix((5,))
        final = build_final_layer(witness, 2)
        final_units = _apply(final, units)
        assert len(knot_union(final_units)) == recurrence_step(5, 2)

    def test_four_units_on_deeper_prefix(self):
        hidden, witness, units = build_prefix((3, 3))
        assert len(combination(witness, units).knots()) == 15
        final = build_final_layer(witness, 4)
        final_units = _apply(final, units)
        assert len(knot_union(final_units)) == 79 == recurrence_step(15, 4)

    def test_rejects_single_unit(self):
        _, witness = build_first_layer_sawtooth(3)
        with pytest.raises(ValueError):
            build_final_layer(witness, 1)


class TestBuildTightNetwork:
    def test_reference_shape_reproduces_bundled_network(self):
        built = build_tight_network(Architecture((6, 3, 2), output_dim=2))
        assert built == example_tight_network() == REFERENCE

    def test_single_layer_distinct_knots(self):
        net = build_tight_network(Architecture((5,)))
        trace = extract(net)
        assert trace.per_layer_knot_union[0] == tuple(Q(j) for j in range(5))
        assert len(trace.output_knot_union()) == 5

    def test_three_three_two(self):
        net = build_tight_network(Architecture((3, 3, 2)))
        assert len(extract(net).output_knot_union()) == 47

    def test_rejects_unattainable_shapes(self):
        with pytest.raises(ValueError, match="layer 1"):
            build_tight_network(Architecture((2, 5)))
        with pytest.raises(ValueError, match="final layer"):
            build_tight_network(Architecture((3, 3, 1)))

    def test_outputs_keep_every_knot(self):
        net = build_tight_network(Architecture((3, 4, 2), output_dim=3))
        trace = extract(net)
        union = trace.per_layer_knot_union[-1]
        for out in trace.output_splines:
            assert tuple(out.knots()) == union


class TestExampleNetwork:
    def test_output_knot_count(self):
        assert len(extract(example_tight_network()).output_knot_union()) == 83

    def test_first_layer_knots_at_integers(self):
        trace = extract(example_tight_network())
        assert trace.per_layer_knot_union[0] == tuple(Q(j) for j in range(6))

    def test_third_layer_input_wave_has_27_knots(self):
        net = example_tight_network()
        units = reference_unit_splines(net)
        g3 = affine_combine(zip(net.hidden_layers[2].weights[0], units[1]))
        assert len(g3.knots()) == 27
        assert check_sawtooth(g3).ok
