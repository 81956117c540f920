from __future__ import annotations

import json
import random
from fractions import Fraction as Q
from itertools import chain
from math import gcd, lcm

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import (
    affine_combine,
    network_layers,
    nonzero_rationals,
    rational_arithmetic_calls,
    rationals,
    reference_extract,
    reference_layer,
    same_as_reference,
    seeded_points,
    single_unit_net,
    splines,
    to_network,
)
from relu_knots import (
    Architecture,
    DenseLayer,
    Rational,
    ScalarInputNetwork,
    as_rational,
    evaluate,
    extract,
    knot_bound,
    load_network,
    recurrence_step,
    save_network,
)
from relu_knots import network
from relu_knots.cli import main
from relu_knots.construct import build_tight_network, example_tight_network
from relu_knots.verify import random_network


class TestEvaluate:
    def test_single_relu_unit(self):
        assert evaluate(single_unit_net(), -1) == [0]
        assert evaluate(single_unit_net(), 3) == [3]

    def test_reference_network_at_origin(self):
        # Frozen from an arithmetic walk through the layers by hand.
        assert evaluate(example_tight_network(), 0) == [Q(2, 3), Q(1, 3)]

    def test_output_symmetry_of_reference(self):
        # The two output rows differ by a global sign and a unit bias.
        net = example_tight_network()
        for x in seeded_points(7, 50):
            y1, y2 = evaluate(net, x)
            assert y2 == 1 - y1


def plain_forward(hidden, output, x) -> list[Q]:
    """Reference forward pass in Fractions: (weights, biases) per layer."""
    signal = [Q(x)]
    for weights, biases in hidden:
        signal = [
            max(Q(0), sum((w * v for w, v in zip(row, signal)), b))
            for row, b in zip(weights, biases)
        ]
    weights, biases = output
    return [sum((w * v for w, v in zip(row, signal)), b) for row, b in zip(weights, biases)]


@st.composite
def networks_at_points(draw):
    """Layers of depth 1-3 and an input x, written as a Fraction, an int, or
    a "num/den" string. Half the time one unit's bias is set so that its
    pre-activation at x is exactly 0."""
    layers = draw(network_layers())
    widths = [len(biases) for _, biases in layers[:-1]]
    kind = draw(st.sampled_from(["fraction", "int", "string"]))
    x = Q(draw(st.integers(-50, 50))) if kind == "int" else draw(rationals)
    target = draw(st.none() | st.integers(0, len(widths) - 1))
    if target is not None:
        unit = draw(st.integers(0, widths[target] - 1))
        weights, biases = layers[target]
        below = plain_forward(layers[:target], (weights, [Q(0)] * len(biases)), x)
        biases[unit] = -below[unit]
    shown = {"fraction": x, "int": int(x), "string": f"{x.numerator}/{x.denominator}"}[kind]
    return layers, shown


class TestEvaluateAgainstReference:
    @given(case=networks_at_points())
    def test_matches_plain_fraction_forward_pass(self, case):
        layers, x = case
        got = evaluate(to_network(layers), x)
        assert got == plain_forward(layers[:-1], layers[-1], x)
        assert all(isinstance(y, Rational) for y in got)


# parameters up to 10^6 in size over denominators up to 10^3
wide_rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**3)


@st.composite
def pair_layers(draw):
    """Rows of pairs (n, d), not reduced: numerators up to 10^6 and zeros,
    denominators up to 10^3 and some of 60 digits, and repeated pairs."""
    pair = st.builds(
        lambda n, d, k: (n * k, d * k),
        st.just(0) | st.integers(-(10**6), 10**6),
        st.integers(1, 10**3) | st.integers(10**59, 10**60 - 1),
        st.integers(1, 12),
    )
    pool = draw(st.lists(pair, min_size=1, max_size=3))
    entry = pair | st.sampled_from(pool)
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    weights = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    return weights, [draw(entry) for _ in range(rows)]


class TestDenseLayer:
    # one layer's parameters made four ways: as Fractions, as ints where
    # they are whole, as "n/d" strings (not reduced), and in the int
    # constructor over twice their least common denominator
    WAYS = {
        "whole": (
            (((Q(2),), (Q(-3),), (Q(0),)), (Q(5), Q(0), Q(-1))),
            (((2,), (-3,), (0,)), (5, 0, -1)),
            ((("4/2",), ("-3",), ("0/7",)), ("5", "0", "-2/2")),
            (2, ((4,), (-6,), (0,)), (10, 0, -2)),
        ),
        "rational": (
            (((Q(3, 2),), (Q(-4),), (Q(0),)), (Q(1, 3), Q(-7, 6), Q(2))),
            (((Q(3, 2),), (-4,), (0,)), (Q(1, 3), Q(-7, 6), 2)),
            ((("3/2",), ("-8/2",), ("0",)), ("2/6", "-7/6", "4/2")),
            (12, ((18,), (-48,), (0,)), (4, -14, 24)),
        ),
    }

    @pytest.mark.parametrize("ways", WAYS.values(), ids=WAYS.keys())
    def test_four_ways_make_one_layer(self, ways, tmp_path):
        *made, (lcd, weights, biases) = ways
        layers = [DenseLayer(w, b) for w, b in made]
        layers.append(DenseLayer.from_integers(lcd, weights, biases))
        output = DenseLayer(((1, -1, Q(1, 2)),), (0,))
        first = layers[0]
        for k, layer in enumerate(layers):
            assert layer == first and first == layer
            assert hash(layer) == hash(first)
            assert repr(layer) == repr(first)
            assert layer.weights == made[0][0] and layer.biases == made[0][1]
            save_network(ScalarInputNetwork((layer,), output), tmp_path / f"{k}.json")
        written = {(tmp_path / f"{k}.json").read_bytes() for k in range(len(layers))}
        assert len(written) == 1
        assert load_network(tmp_path / "0.json").hidden_layers[0] == first
        assert repr(first).startswith("DenseLayer(weights=((Fraction(")

    def test_held_in_lowest_terms(self):
        layer = DenseLayer.from_integers(12, ((18,), (-48,), (0,)), (4, -14, 24))
        assert (layer.lcd, layer.scaled_weights, layer.scaled_biases) == (
            6, ((9,), (-24,), (0,)), (2, -7, 12)
        )
        assert DenseLayer(((0,),), (0,)).lcd == 1
        assert layer != DenseLayer.from_integers(6, ((9,), (-24,), (0,)), (2, -7, 11))

    @given(layers=network_layers(), scale=st.integers(1, 10**6))
    def test_from_integers_reduces(self, layers, scale):
        for weights, biases in layers:
            layer = DenseLayer(weights, biases)
            lcd = layer.lcd * scale
            rows = [[w * scale for w in row] for row in layer.scaled_weights]
            assert DenseLayer.from_integers(
                lcd, rows, [b * scale for b in layer.scaled_biases]
            ) == layer

    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        data=st.data(),
    )
    def test_round_trip_through_rationals(self, shape, data):
        rows, cols = shape
        weights = data.draw(
            st.lists(st.lists(wide_rationals, min_size=cols, max_size=cols),
                     min_size=rows, max_size=rows)
        )
        biases = data.draw(st.lists(wide_rationals, min_size=rows, max_size=rows))
        layer = DenseLayer(weights, biases)
        assert DenseLayer(layer.weights, layer.biases) == layer
        assert layer.weights == tuple(map(tuple, weights)) and layer.biases == tuple(biases)

    def test_int_constructor_checks_its_input(self):
        with pytest.raises(ValueError, match="lcd must be at least 1"):
            DenseLayer.from_integers(0, ((1,),), (0,))
        with pytest.raises(ValueError, match="same length"):
            DenseLayer.from_integers(1, ((1, 2), (1,)), (0, 0))
        with pytest.raises(ValueError, match="does not match unit count"):
            DenseLayer.from_integers(1, ((1,),), (0, 1))
        with pytest.raises(ValueError, match="at least one unit"):
            DenseLayer.from_integers(1, (), ())

    def test_pair_constructor_checks_its_input(self):
        for d in (0, -3):
            with pytest.raises(ValueError, match=f"denominator must be at least 1, got {d}"):
                DenseLayer.from_ratios((((1, 2),), ((5, d),)), ((0, 1), (1, 1)))
        with pytest.raises(ValueError, match="same length"):
            DenseLayer.from_ratios((((1, 1), (2, 1)), ((1, 1),)), ((0, 1), (0, 1)))
        with pytest.raises(ValueError, match="does not match unit count"):
            DenseLayer.from_ratios((((1, 1),),), ((0, 1), (1, 1)))
        with pytest.raises(ValueError, match="at least one unit"):
            DenseLayer.from_ratios((), ())

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(layer=pair_layers())
    def test_four_paths_reduce_pairs_alike(self, layer, tmp_path):
        weights, biases = layer
        made = DenseLayer.from_ratios(weights, biases)
        assert gcd(made.lcd, *chain(*made.scaled_weights), *made.scaled_biases) == 1
        rationals = DenseLayer([[Q(*e) for e in row] for row in weights], [Q(*e) for e in biases])
        assert rationals == made
        lcd = lcm(*(d for row in (*weights, biases) for _, d in row))
        scaled = [[n * (lcd // d) for n, d in row] for row in (*weights, biases)]
        assert DenseLayer.from_integers(lcd, scaled[:-1], scaled[-1]) == made
        # as the output layer of a file, after identity units of the input,
        # saved reduced and then written as drawn
        width, path = len(weights[0]), tmp_path / "pairs.json"
        save_network(ScalarInputNetwork((DenseLayer([[1]] * width, [0] * width),), made), path)
        assert load_network(path).output_layer == made
        doc = json.loads(path.read_text())
        doc["output_layer"] = {
            "weights": [[f"{n}/{d}" for n, d in row] for row in weights],
            "biases": [f"{n}/{d}" for n, d in biases],
        }
        path.write_text(json.dumps(doc))
        assert load_network(path).output_layer == made


class TestExtract:
    def test_matches_evaluate_everywhere(self):
        net = example_tight_network()
        outputs = extract(net).output_splines
        for x in seeded_points(11, 1000):
            assert [f(x) for f in outputs] == evaluate(net, x)

    def test_matches_evaluate_on_random_networks(self):
        rng = random.Random(5)
        for _ in range(25):
            widths = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
            net = random_network(rng, Architecture(widths, output_dim=rng.randint(1, 2)))
            outputs = extract(net).output_splines
            for x in seeded_points(rng.randint(0, 10**6), 40):
                assert [f(x) for f in outputs] == evaluate(net, x)

    def test_one_layer_units_contribute_one_knot_each(self):
        layer = DenseLayer(
            ((Q(1),), (Q(2),), (Q(-1),), (Q(4),)),
            (Q(0), Q(1), Q(3), Q(-2)),
        )
        net = ScalarInputNetwork((layer,), DenseLayer(((Q(1), Q(1), Q(1), Q(1)),), (Q(0),)))
        union = extract(net).per_layer_knot_union[0]
        assert union == (Q(-1, 2), Q(0), Q(1, 2), Q(3))

    def test_duplicate_knot_locations_merge(self):
        layer = DenseLayer(((Q(1),), (Q(2),)), (Q(-1), Q(-2)))  # both knots at x=1
        net = ScalarInputNetwork((layer,), DenseLayer(((Q(1), Q(1)),), (Q(0),)))
        assert extract(net).per_layer_knot_union[0] == (Q(1),)

    def test_reference_layer_unions(self):
        trace = extract(example_tight_network())
        assert [len(u) for u in trace.per_layer_knot_union] == [6, 27, 83]

    def test_layer_unions_respect_recurrence_budget(self):
        rng = random.Random(99)
        for _ in range(30):
            widths = tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 3)))
            net = random_network(rng, Architecture(widths))
            trace = extract(net)
            prev = 0
            for count, n in zip(
                (len(u) for u in trace.per_layer_knot_union), widths
            ):
                assert count <= recurrence_step(prev, n)
                prev = count

    def test_output_layer_creates_no_knots(self):
        rng = random.Random(42)
        for _ in range(30):
            widths = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
            net = random_network(rng, Architecture(widths, output_dim=2))
            trace = extract(net)
            last_union = set(trace.per_layer_knot_union[-1])
            assert set(trace.output_knot_union()) <= last_union

    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_tight_network(Architecture((6, 6, 6, 6))),
            lambda: random_network(random.Random(8), Architecture((8, 8, 8, 8), output_dim=2)),
        ],
        ids=["tight-6x4", "random-8x4"],
    )
    def test_walks_knots_without_rational_arithmetic(self, make, monkeypatch):
        # The knot walk runs in ints: rationals are built, compared and
        # read, never added, multiplied or divided.
        net = make()
        with rational_arithmetic_calls(monkeypatch) as calls:
            extract(net)
        assert calls == []

    def test_builds_no_rational_per_output(self, monkeypatch):
        # The grids, the ReLU roots and the outputs stay in ints: with one
        # output or three over the same hidden layers, extract builds no
        # rational at all.
        hidden = build_tight_network(Architecture((6, 6, 6, 6))).hidden_layers
        counts = []
        for p in (1, 3):
            output = DenseLayer(
                tuple(tuple((-1) ** (j + k) for j in range(6)) for k in range(p)), tuple(range(p))
            )
            built = []

            def counted(*args):
                built.append(args)
                return Rational(*args)

            with monkeypatch.context() as m:
                m.setattr(network, "Rational", counted)
                extract(ScalarInputNetwork(hidden, output))
            counts.append(len(built))
        assert counts == [0, 0]


class TestKnotReport:
    """The knot report ``analyze`` prints, and the two library calls it is
    read from: ``extract`` for the knots and ``knot_bound`` for the bound."""

    def test_reference_network(self, tmp_path, capsys):
        path = tmp_path / "reference.json"
        save_network(example_tight_network(), path)
        assert main(["analyze", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["per_layer_knot_counts"] == [6, 27, 83]
        assert payload["output_knot_count"] == 83
        assert payload["bound"] == 83
        assert payload["meets_bound"] is True
        assert payload["tightness"] == "tight"
        outputs = extract(example_tight_network()).output_splines
        assert len(outputs) == 2
        assert all(len(f.knots()) == 83 for f in outputs)

    def test_zero_weight_network_has_no_knots(self):
        layer = DenseLayer(((Q(0),), (Q(0),)), (Q(1), Q(2)))
        net = ScalarInputNetwork((layer,), DenseLayer(((Q(1), Q(1)),), (Q(0),)))
        assert extract(net).output_knot_union() == []
        assert knot_bound(net.architecture) == 2

    def test_narrow_deep_networks_never_meet_bound(self):
        # Random search over a shape whose bound is unattainable: evidence
        # for the nonexistence claim, not a proof of it.
        arch = Architecture((2, 2))
        assert knot_bound(arch) == 8
        rng = random.Random(3)
        best = max(
            len(extract(random_network(rng, arch)).output_knot_union()) for _ in range(100)
        )
        assert best < 8


positive_rationals = st.fractions(min_value=Q(1, 12), max_value=Q(12), max_denominator=12)


@st.composite
def rescaled_units(draw):
    """Layers and a copy in which one hidden unit's weights and bias are
    multiplied by c > 0 and its outgoing column by 1/c."""
    layers = draw(network_layers())
    i = draw(st.integers(0, len(layers) - 2))
    j = draw(st.integers(0, len(layers[i][1]) - 1))
    c = draw(positive_rationals)
    (weights, biases), (next_weights, next_biases) = layers[i], layers[i + 1]
    scaled = (
        [[c * w for w in row] if k == j else row for k, row in enumerate(weights)],
        [c * b if k == j else b for k, b in enumerate(biases)],
    )
    shrunk = (
        [[w / c if k == j else w for k, w in enumerate(row)] for row in next_weights],
        next_biases,
    )
    return layers, [*layers[:i], scaled, shrunk, *layers[i + 2 :]]


@st.composite
def permuted_units(draw):
    """Layers and a copy in which one hidden layer's units are permuted and
    the next layer's columns with them."""
    layers = draw(network_layers())
    i = draw(st.integers(0, len(layers) - 2))
    (weights, biases), (next_weights, next_biases) = layers[i], layers[i + 1]
    order = draw(st.permutations(range(len(biases))))
    permuted = ([weights[k] for k in order], [biases[k] for k in order])
    columns = ([[row[k] for k in order] for row in next_weights], next_biases)
    return layers, [*layers[:i], permuted, columns, *layers[i + 2 :]]


@st.composite
def roots_on_knots(draw, layer: int):
    """Layers of depth layer+1 to 3 in which one unit of hidden layer
    layer+1 has its bias set so that its root is exactly on a knot of
    hidden layer ``layer``, and that knot."""
    layers = draw(network_layers(min_depth=layer + 1))
    weights, biases = layers[0]
    k = draw(st.integers(0, len(biases) - 1))
    weights[k] = [draw(nonzero_rationals)]
    union = reference_extract(to_network(layers))[0][layer - 1]
    assume(union)
    knot = draw(st.sampled_from(union))
    next_weights, next_biases = layers[layer]
    j = draw(st.integers(0, len(next_biases) - 1))
    below = plain_forward(layers[:layer], (next_weights, [Q(0)] * len(next_biases)), knot)
    next_biases[j] = -below[j]
    return layers, knot


@st.composite
def roots_on_another_units_knot(draw):
    """Layers of depth 2-3 whose layer-2 unit 0 sees only layer-1 unit 0 and
    has its root on the knot of layer-1 unit 1, which layer-2 unit 1 keeps.
    That knot is not one of unit 0's own. Returns the layers and the knot."""
    layers = draw(network_layers(min_depth=2, min_width=2))
    (weights, biases), (next_weights, next_biases) = layers[0], layers[1]
    weights[0], weights[1] = [draw(nonzero_rationals)], [draw(nonzero_rationals)]
    knot = -biases[1] / weights[1][0]
    active = draw(positive_rationals)  # unit 0 of layer 1 at the knot
    biases[0] = active - weights[0][0] * knot
    zeros = [Q(0)] * (len(biases) - 2)
    next_weights[0] = [draw(nonzero_rationals), Q(0), *zeros]
    next_biases[0] = -next_weights[0][0] * active
    next_weights[1] = [Q(0), draw(nonzero_rationals), *zeros]
    next_biases[1] = Q(1)  # positive at the knot, so relu keeps it
    return layers, knot


def assert_exact_between_knots(net: ScalarInputNetwork, trace) -> None:
    """``extract`` agrees with ``evaluate`` at every knot of every layer,
    between each pair of them, and on both rays."""
    knots = sorted(set().union(*trace.per_layer_knot_union))
    points = [
        knots[0] - 1,
        *knots,
        *((a + b) / 2 for a, b in zip(knots, knots[1:])),
        knots[-1] + 1,
    ]
    for x in points:
        assert [f(x) for f in trace.output_splines] == evaluate(net, x)


class TestExtractMetamorphic:
    @given(case=rescaled_units())
    def test_positive_rescaling_of_a_unit(self, case):
        layers, rescaled = case
        a, b = extract(to_network(layers)), extract(to_network(rescaled))
        assert a.output_splines == b.output_splines
        assert a.per_layer_knot_union == b.per_layer_knot_union

    @given(case=permuted_units())
    def test_permuting_the_units_of_a_layer(self, case):
        layers, permuted = case
        a, b = extract(to_network(layers)), extract(to_network(permuted))
        assert a.output_splines == b.output_splines
        assert a.per_layer_knot_union == b.per_layer_knot_union

    @given(case=roots_on_knots(1))
    def test_root_on_a_first_layer_knot(self, case):
        layers, knot = case
        net = to_network(layers)
        trace = extract(net)
        assert knot in trace.per_layer_knot_union[0]
        assert_exact_between_knots(net, trace)


@st.composite
def small_integer_layers(draw):
    """Layers of depth 1-4 and width 2-4 with integer weights in {-2..2} and
    biases that are small integers or rationals of denominator up to 97, so
    that roots land on each other. Half the time one unit of layer 2 is set
    to be 0 at a knot of layer 1 that it does not see: its root, if it has
    one there, lands on a grid point."""
    biases = st.integers(-2, 2) | st.fractions(-3, 3, max_denominator=97)
    widths = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    shapes = list(zip(widths + [draw(st.integers(1, 2))], [1] + widths))
    layers = [
        (
            [[draw(st.integers(-2, 2)) for _ in range(cols)] for _ in range(rows)],
            [draw(biases) for _ in range(rows)],
        )
        for rows, cols in shapes
    ]
    (ramps, starts), (weights, layer_biases) = layers[0], layers[1]
    k = draw(st.integers(0, widths[0] - 1))
    if len(widths) > 1 and ramps[k][0] and draw(st.booleans()):
        knot = Q(-starts[k]) / ramps[k][0]
        j = draw(st.integers(0, widths[1] - 1))
        for m, ((w,), b) in enumerate(zip(ramps, starts)):
            if w * knot + b == 0:
                weights[j][m] = 0
        layer_biases[j] = -plain_forward([layers[0]], (weights, [0] * widths[1]), knot)[j]
    return layers


class TestExtractAgainstReference:
    """``extract`` against ``reference_extract``, the unit-by-unit
    ``relu``/``affine_combine`` loop, on the cases where a knot is shared."""

    @staticmethod
    def assert_grids_reduced_ascending(trace) -> None:
        for nums, dens in trace.grids:
            assert all(q > 0 and gcd(p, q) == 1 for p, q in zip(nums, dens))
            assert all(p * s < r * q for p, q, r, s in zip(nums, dens, nums[1:], dens[1:]))

    @given(layers=small_integer_layers())
    def test_int_grids_are_reduced_ascending_unions(self, layers):
        net = to_network(layers)
        trace = extract(net)
        self.assert_grids_reduced_ascending(trace)
        unions = reference_extract(net)[0]
        assert [list(zip(*grid)) for grid in trace.grids] == [
            [(x.numerator, x.denominator) for x in union] for union in unions
        ]

    @given(layers=network_layers())
    def test_networks_with_zero_weights_and_width_one(self, layers):
        net = to_network(layers)
        assert same_as_reference(net, extract(net))

    @given(case=roots_on_knots(2))
    def test_layer_three_root_on_a_layer_two_knot(self, case):
        layers, knot = case
        net = to_network(layers)
        trace = extract(net)
        assert knot in trace.per_layer_knot_union[1]
        assert same_as_reference(net, trace)
        assert_exact_between_knots(net, trace)

    @given(case=roots_on_another_units_knot())
    def test_root_on_a_knot_of_another_unit(self, case):
        layers, knot = case
        net = to_network(layers)
        trace = extract(net)
        assert knot in trace.per_layer_knot_union[1]
        assert same_as_reference(net, trace)
        assert_exact_between_knots(net, trace)

    # Ramp starts whose roots round to the same float (1 - 2^-62, 1,
    # 1 + 2^-61 and 1 + 2^-60 all round to 1.0) or overflow a float
    # (+-10^400 and 10^400 + 1), so their order is decided exactly.
    FLOAT_TIES = (1 - Q(1, 2**62), 1, 1 + Q(1, 2**61), 1 + Q(1, 2**60), 10**400, -(10**400),
                  10**400 + 1)

    # The units in this order and reversed, the next layer's columns with
    # them: an order by float alone, stable in the order the roots are
    # found, gets one of the two wrong.
    @pytest.mark.parametrize("step", [1, -1], ids=["given", "reversed"])
    def test_roots_whose_floats_tie_or_overflow(self, step, tmp_path, capsys):
        first = DenseLayer([[1]] * 7, [-k for k in self.FLOAT_TIES[::step]])
        second = DenseLayer([[1, -1, 2, 1, 1, -3, 1][::step], [1] * 7], [Q(-1, 3), -5])
        net = ScalarInputNetwork((first, second), DenseLayer([[1, 2]], [0]))
        trace = extract(net)
        self.assert_grids_reduced_ascending(trace)
        assert same_as_reference(net, trace)
        assert_exact_between_knots(net, trace)
        path = tmp_path / "ties.json"
        save_network(net, path)
        assert main(["analyze", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["per_layer_knot_counts"] == [7, 8]
        assert payload["output_knot_count"] == 8

    # ramp starts 2^-60 apart, past the largest float and below the smallest
    NEAR_TIES = st.integers(-4, 4).map(lambda k: 1 + Q(k, 2**60)) | st.sampled_from(
        [10**400, -(10**400), 10**400 + 1, 0, Q(1, 10**400), Q(-1, 10**400)]
    )

    @given(starts=st.lists(NEAR_TIES, min_size=2, max_size=6), data=st.data())
    def test_roots_near_one_and_beyond_floats(self, starts, data):
        # The second layer's roots between such ramps tie as floats too.
        weight = st.integers(-3, 3)
        rows = [[data.draw(weight) for _ in starts] for _ in range(3)]
        biases = [data.draw(st.fractions(-3, 3, max_denominator=7)) for _ in rows]
        first = DenseLayer([[1]] * len(starts), [-k for k in starts])
        second = DenseLayer(rows, biases)
        net = ScalarInputNetwork((first, second), DenseLayer([[1, -2, 3]], [0]))
        trace = extract(net)
        self.assert_grids_reduced_ascending(trace)
        assert_exact_between_knots(net, trace)

    # A second-layer unit over relu(x), relu(-x), relu(x - 1) and
    # relu(x - 2) that is exactly 0 at the grid point x: at the knot 0
    # with each sign pair of its one-sided slopes (left/right), or at the
    # point 1, where a new root lands on another unit's knot.
    ZERO_AT_GRID_POINT = {
        "knot-up-up": ((3, -2, 0, 0), 0, 0),
        "knot-up-down": ((-3, -2, 0, 0), 0, 0),
        "knot-down-up": ((3, 2, 0, 0), 0, 0),
        "knot-down-down": ((-3, 2, 0, 0), 0, 0),
        "root-on-ray": ((1, 0, 0, 0), -1, 1),
        "root-between-knots": ((-1, 0, 0, 2), 1, 1),
    }

    @pytest.mark.parametrize(
        "row, bias, x", ZERO_AT_GRID_POINT.values(), ids=ZERO_AT_GRID_POINT.keys()
    )
    def test_unit_zero_at_a_grid_point(self, row, bias, x):
        first = DenseLayer([[1], [-1], [1], [1]], [0, 0, -1, -2])
        # relu(x - 1) keeps 1 on the grid
        second = DenseLayer([row, (0, 0, 1, 0)], [bias, 0])
        net = ScalarInputNetwork((first, second), DenseLayer([[1, 0], [0, 1]], [0, 0]))
        below = reference_layer(first)
        assert affine_combine(zip(row, below), bias)(x) == 0
        trace = extract(net)
        assert x in trace.per_layer_knot_union[0]
        assert trace.output_splines == tuple(reference_layer(second, below))

    def test_wide_sparse_rows(self):
        # 300 ramps relu(x - k), k = 0..299; second-layer row j reads ramp j
        # alone (j even: relu(r_j - 1/2), a root at j + 1/2) or ramps j - 1
        # and j (j odd: relu(r_j - r_{j-1} + 1), knots at j - 1 and j). So
        # each row's accumulator spans the whole grid, and its units cover
        # one or two points of it. The autouse fixture checks the reference.
        first = DenseLayer([[1]] * 300, [-k for k in range(300)])
        rows = [[0] * 300 for _ in range(300)]
        for j, row in enumerate(rows):
            row[j] = 1
            if j % 2:
                row[j - 1] = -1
        second = DenseLayer(rows, [Q(-1, 2) if j % 2 == 0 else 1 for j in range(300)])
        output = DenseLayer([[1] * 300, [(-1) ** j for j in range(300)]], [0, 0])
        trace = extract(ScalarInputNetwork((first, second), output))
        ramps = tuple(map(Q, range(300)))
        assert trace.per_layer_knot_union == (
            ramps,
            tuple(sorted(ramps + tuple(Q(2 * j + 1, 2) for j in range(0, 300, 2)))),
        )

    def test_coprime_knot_denominators_and_negative_values(self):
        # Knot denominators up to 97 and hundreds of distinct ones: the
        # integer walk floor-divides each slope jump by its knot's
        # denominator, which is exact only if every piece of every unit has
        # an integer intercept. The autouse fixture checks the reference.
        rng = random.Random(97)
        for _ in range(30):
            widths = tuple(rng.randint(2, 8) for _ in range(rng.randint(4, 6)))
            net = random_network(rng, Architecture(widths, output_dim=2), max_denominator=97)
            assert_exact_between_knots(net, extract(net))

    @given(f=splines())
    def test_shallow_round_trip(self, f):
        # One unit per knot, weighted by its slope jump, and two units for
        # the line: the shallow form of Arora et al. 2018 (arXiv:1611.01491).
        knots = f.knots()
        a = knots[0] if knots else Q(0)
        hidden = DenseLayer(
            [[1]] * len(knots) + [[1], [-1]], [-x for x in knots] + [-a, a]
        )
        slope = f.initial_slope
        output = DenseLayer(
            [[*(d for _, d in f.breakpoints), slope, -slope]],
            [f.initial_intercept + slope * a],
        )
        assert extract(ScalarInputNetwork((hidden,), output)).output_splines[0] == f


class TestValidation:
    def test_layer_needs_a_unit(self):
        with pytest.raises(ValueError, match="at least one unit"):
            DenseLayer((), ())

    def test_network_needs_a_hidden_layer(self):
        with pytest.raises(ValueError, match="at least one hidden layer"):
            ScalarInputNetwork((), DenseLayer(((Q(1),),), (Q(0),)))

    def test_parameter_of_no_numeric_type_rejected(self):
        with pytest.raises(TypeError, match="cannot interpret object as a rational"):
            as_rational(object())

    def test_first_layer_must_take_scalar_input(self):
        with pytest.raises(ValueError):
            ScalarInputNetwork(
                (DenseLayer(((Q(1), Q(1)),), (Q(0),)),),
                DenseLayer(((Q(1),),), (Q(0),)),
            )

    def test_width_chaining(self):
        l1 = DenseLayer(((Q(1),), (Q(1),)), (Q(0), Q(0)))
        bad_l2 = DenseLayer(((Q(1),),), (Q(0),))  # expects 1 input, gets 2
        with pytest.raises(ValueError):
            ScalarInputNetwork((l1, bad_l2), DenseLayer(((Q(1),),), (Q(0),)))

    def test_output_width_must_match(self):
        l1 = DenseLayer(((Q(1),), (Q(1),)), (Q(0), Q(0)))
        with pytest.raises(ValueError):
            ScalarInputNetwork((l1,), DenseLayer(((Q(1),),), (Q(0),)))

    def test_ragged_weights_rejected(self):
        with pytest.raises(ValueError):
            DenseLayer(((Q(1), Q(2)), (Q(1),)), (Q(0), Q(0)))

    def test_bias_count_must_match(self):
        with pytest.raises(ValueError):
            DenseLayer(((Q(1),),), (Q(0), Q(1)))
