from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import affine_combine, network_layers, relu, to_network
from relu_knots import (
    Architecture,
    DenseLayer,
    ScalarInputNetwork,
    SamplingConfig,
    build_tight_network,
    check_sawtooth,
    detect_knots_by_sampling,
    extract,
    knot_bound,
    stress_bound,
)
from relu_knots.construct import build_first_layer_sawtooth, example_tight_network
from relu_knots.spline import LinearSpline
from relu_knots.verify import (
    BLOCK,
    SAMPLE_LIMIT,
    SLOPE_CHANGE_TOLERANCE,
    _float_forward,
    _float_layers,
    _grid_points,
    oracle_agreement,
    random_network,
)


def reference_outputs(net: ScalarInputNetwork, xs: list[float]) -> list[list[float]]:
    """The float forward pass one sample at a time, each weighted sum added
    left to right from 0 (what ``sum`` does with floats before Python 3.12)."""

    def dot(row, signal):
        total = 0
        for w, v in zip(row, signal):
            total += w * v
        return total

    layers = [
        ([[float(w) for w in row] for row in layer.weights], [float(b) for b in layer.biases])
        for layer in net.hidden_layers
    ]
    out_w = [[float(w) for w in row] for row in net.output_layer.weights]
    out_b = [float(b) for b in net.output_layer.biases]
    outputs: list[list[float]] = [[] for _ in out_w]
    for x in xs:
        signal = [x]
        for weights, biases in layers:
            signal = [max(0.0, dot(row, signal) + b) for row, b in zip(weights, biases)]
        for k, (row, b) in enumerate(zip(out_w, out_b)):
            outputs[k].append(dot(row, signal) + b)
    return outputs


def reference_detections(net: ScalarInputNetwork, cfg: SamplingConfig) -> list[float]:
    """The sampling detector one sample at a time over a Fraction grid."""
    low, high = cfg.interval
    n = cfg.samples
    h = (high - low) / (n - 1)
    xs = [float(low + i * h) for i in range(n)]
    outputs = reference_outputs(net, xs)

    flagged = [False] * n
    for ys in outputs:
        scale = max(abs(y) for y in ys)
        threshold = SLOPE_CHANGE_TOLERANCE * scale
        for i in range(1, n - 1):
            if abs(ys[i + 1] - 2.0 * ys[i] + ys[i - 1]) > threshold:
                flagged[i] = True

    detections: list[float] = []
    i = 1
    while i < n - 1:
        if flagged[i]:
            start = i
            while i + 1 < n - 1 and flagged[i + 1]:
                i += 1
            detections.append((xs[start] + xs[i]) / 2.0)
        i += 1
    return detections


def assert_bit_identical(net: ScalarInputNetwork, xs: list[float]) -> None:
    block = _float_forward(_float_layers(net), xs)
    reference = reference_outputs(net, xs)
    assert [list(map(float.hex, ys)) for ys in block] == [
        list(map(float.hex, ys)) for ys in reference
    ]


def seeded_networks() -> list[ScalarInputNetwork]:
    """Random networks of depth 1-3 and 1-3 outputs, knots spread over [-5, 5]."""
    rng = random.Random(20240)
    nets = []
    for depth in (1, 2, 3, 1, 2, 3):
        widths = tuple(rng.randint(1, 3) for _ in range(depth))
        arch = Architecture(widths, output_dim=rng.randint(1, 3))
        nets.append(random_network(rng, arch, max_numerator=10, max_denominator=3))
    return nets


def zero_heavy_network(seed: int, widths: tuple[int, ...]) -> ScalarInputNetwork:
    """Seeded network of the given hidden widths and 2 outputs, with about
    one weight and one bias in three zero."""
    rng = random.Random(seed)

    def value() -> Q:
        return Q(0) if rng.random() < 1 / 3 else Q(rng.randint(-30, 30), rng.randint(1, 7))

    shapes = zip([*widths, 2], [1, *widths])
    return to_network(
        [([[value() for _ in range(cols)] for _ in range(rows)], [value() for _ in range(rows)])
         for rows, cols in shapes]
    )


ODD_INTERVALS = [(Q(-7, 3), Q(11, 5)), (Q(-5), Q(3, 7)), (Q(1, 9), Q(13, 3))]


def ramp_net() -> ScalarInputNetwork:
    return ScalarInputNetwork(
        (DenseLayer(((Q(1),),), (Q(0),)),),
        DenseLayer(((Q(1),),), (Q(0),)),
    )


def constant_net() -> ScalarInputNetwork:
    return ScalarInputNetwork(
        (DenseLayer(((Q(0),),), (Q(5),)),),
        DenseLayer(((Q(1),),), (Q(2),)),
    )


class TestDetection:
    def test_single_ramp(self):
        cfg = SamplingConfig((Q(-1), Q(1)), samples=1001)
        detections = detect_knots_by_sampling(ramp_net(), cfg)
        assert len(detections) == 1
        assert abs(detections[0]) <= cfg.grid_step

    def test_scan_does_not_copy_the_values(self):
        # the values take 0.8 MB; a scan that slices them copies them twice
        samples = 100_001
        tracemalloc.start()
        try:
            detections = detect_knots_by_sampling(ramp_net(), SamplingConfig((-1, 6), samples))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(detections) == 1
        assert peak < 8 * samples + 1_000_000

    def test_constant_network_has_none(self):
        cfg = SamplingConfig((Q(-1), Q(1)), samples=1001)
        assert detect_knots_by_sampling(constant_net(), cfg) == []

    def test_no_false_positives_between_knots(self):
        # Sample strictly inside one affine piece of the reference wave.
        net = build_tight_network(Architecture((6, 3, 2), output_dim=2))
        knots = extract(net).output_knot_union()
        lo, hi = knots[40], knots[41]
        pad = (hi - lo) / 10
        cfg = SamplingConfig((lo + pad, hi - pad), samples=501)
        assert detect_knots_by_sampling(net, cfg) == []

    def test_agreement_on_built_network(self):
        net = build_tight_network(Architecture((3, 2)))
        cfg = SamplingConfig((Q(-1), Q(3)), samples=20001)
        report = oracle_agreement(net, cfg)
        assert report.agree
        assert len(report.exact) == knot_bound(Architecture((3, 2)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplingConfig((Q(1), Q(1)))
        with pytest.raises(ValueError):
            SamplingConfig((Q(0), Q(1)), samples=2)
        assert SamplingConfig((Q(0), Q(1)), samples=SAMPLE_LIMIT).samples == SAMPLE_LIMIT
        with pytest.raises(ValueError, match="at most 10000001, got 10000002"):
            SamplingConfig((Q(0), Q(1)), samples=SAMPLE_LIMIT + 1)


class TestBlockPass:
    """The block-wise oracle against the same oracle one sample at a time."""

    @pytest.mark.parametrize("samples", [3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7])
    def test_detections_match_per_sample_reference(self, samples):
        found = 0
        for k, net in enumerate(seeded_networks()):
            cfg = SamplingConfig(ODD_INTERVALS[k % len(ODD_INTERVALS)], samples=samples)
            detections = detect_knots_by_sampling(net, cfg)
            assert detections == reference_detections(net, cfg)
            found += len(detections)
        assert found > 0 or samples == 3

    def test_block_values_are_bit_identical(self):
        xs = [float(Q(-7, 3) + Q(i, 97)) for i in range(433)]
        # rows of every input count from 1 to 9, with and without relu
        arities = [zero_heavy_network(k, (k, k)) for k in range(1, 10)]
        for net in [*seeded_networks(), *arities, build_tight_network(Architecture((8, 8, 8)))]:
            assert_bit_identical(net, xs)

    @settings(max_examples=60, deadline=None)
    @given(layers=network_layers(max_width=9), points=st.sampled_from((1, 5, BLOCK)))
    def test_drawn_rows_are_bit_identical(self, layers, points):
        # rows of 1 to 9 inputs, with zero weights and biases drawn often
        xs = _grid_points(SamplingConfig((Q(-7, 3), Q(11, 5)), samples=BLOCK + 1), 0, points)
        assert_bit_identical(to_network(layers), xs)

    @pytest.mark.parametrize("widths", [(64, 3), (5000, 3), (5000,)], ids=["64-3", "5000-3", "5000"])
    def test_rows_wider_than_a_chunk_are_bit_identical(self, widths):
        # one expression of 5,000 terms nests too deeply for the compiler;
        # the kernel sums such a row one chunk of inputs at a time
        xs = _grid_points(SamplingConfig((Q(-5), Q(3, 7)), samples=BLOCK + 1), 0, 5)
        assert_bit_identical(zero_heavy_network(sum(widths), widths), xs)

    @pytest.mark.parametrize("interval", ODD_INTERVALS)
    def test_integer_grid_is_the_rounded_fraction_grid(self, interval):
        for samples in (3, BLOCK + 1, 2 * BLOCK + 7):
            cfg = SamplingConfig(interval, samples=samples)
            low, high = cfg.interval
            h = (high - low) / (samples - 1)
            grid = [float(low + i * h) for i in range(samples)]
            assert _grid_points(cfg, 0, samples) == grid
            assert _grid_points(cfg, 1, samples - 1) == grid[1:-1]


class TestOracleReport:
    def test_counts_exact_knots_outside_interval(self):
        net = example_tight_network()
        report = oracle_agreement(net, SamplingConfig((Q(0), Q(1)), samples=5001))
        # knots at 0 and 1 sit on the end points, where the grid takes no
        # second difference: they count as not compared, not as missed
        assert len(report.exact) == 11
        assert report.exact_outside_interval == 83 - 11
        assert (
            ", 72 exact not compared (outside the interval or on an end point)"
            in report.summary()
        )
        assert 0 < report.exact[0] and report.exact[-1] < 1
        assert report.agree


class TestCheckSawtooth:
    def wave(self, n1: int = 8, offset: Q = Q(-9, 4)) -> LinearSpline:
        layer, witness = build_first_layer_sawtooth(n1)
        units = [
            relu(LinearSpline(row[0], b))
            for row, b in zip(layer.weights, layer.biases)
        ]
        terms = [(a / 2, f) for a, f in zip(witness.combination_weights, units)]
        return affine_combine(terms, offset)

    def test_passes_on_alternating_wave(self):
        verdict = check_sawtooth(self.wave())
        assert verdict.ok
        assert verdict.oscillation_range == (Q(-1, 4), Q(1, 4))

    def test_needs_two_knots(self):
        with pytest.raises(ValueError):
            check_sawtooth(relu(LinearSpline(1, 0)))

    def test_perturbed_weight_breaks_level_minima(self):
        layer, witness = build_first_layer_sawtooth(8)
        units = [
            relu(LinearSpline(row[0], b))
            for row, b in zip(layer.weights, layer.biases)
        ]
        weights = [a / 2 for a in witness.combination_weights]
        weights[1] += Q(1, 100)
        wave = affine_combine(zip(weights, units), Q(-9, 4))
        verdict = check_sawtooth(wave)
        assert verdict.alternating_slopes  # tiny tilt keeps signs alternating
        assert not verdict.minima_equal
        assert not verdict.ok


class TestStressBound:
    def test_single_unit_is_exact(self):
        report = stress_bound(Architecture((1,)), trials=50, seed=0)
        assert report.bound == 1
        assert report.max_observed == 1
        assert report.max_observed <= report.bound
        assert report.gap is None  # single layer: bound attainable

    def test_two_by_two_gap(self):
        report = stress_bound(Architecture((2, 2)), trials=300, seed=0)
        assert report.bound == 8
        assert report.max_observed < 8
        assert report.gap is not None and report.gap >= 1
        assert "not proof" in report.note

    def test_reference_shape_never_exceeds(self):
        report = stress_bound(Architecture((6, 3, 2), output_dim=2), trials=30, seed=1)
        assert report.max_observed <= 83
        assert report.gap is None

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            stress_bound(Architecture((2, 2)), trials=-1, seed=0)

    def test_seeded_reproducibility(self):
        a = stress_bound(Architecture((2, 3)), trials=100, seed=7)
        b = stress_bound(Architecture((2, 3)), trials=100, seed=7)
        assert a == b

    def test_random_network_shapes(self):
        rng = random.Random(0)
        net = random_network(rng, Architecture((3, 2), output_dim=4))
        assert net.widths == (3, 2)
        assert net.output_dim == 4
