from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    fractions_built,
    network_layers,
    reference_random_network,
    single_unit_net,
    to_network,
)
from relu_knots import (
    Architecture,
    DenseLayer,
    ScalarInputNetwork,
    SamplingConfig,
    build_tight_network,
    detect_knots_by_sampling,
    extract,
    knot_bound,
    stress_bound,
    tightness_eligibility,
)
from relu_knots import verify
from relu_knots.construct import example_tight_network
from relu_knots.verify import (
    BLOCK,
    CHUNK,
    SAMPLE_LIMIT,
    SEPARATION_STEPS,
    SLOPE_CHANGE_TOLERANCE,
    _float_forward,
    _float_layers,
    _grid_points,
    oracle_agreement,
    random_network,
)


def reference_outputs(net: ScalarInputNetwork, xs: list[float]) -> list[list[float]]:
    """The float forward pass one sample at a time, each weighted sum added
    left to right from 0 (what ``sum`` does with floats before Python 3.12),
    over every input, and a relu that keeps a nan."""

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
            signal = [
                0.0 if (p := dot(row, signal) + b) <= 0.0 else p
                for row, b in zip(weights, biases)
            ]
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


def kernel_inputs(monkeypatch) -> list[int]:
    """The input counts ``_float_forward`` asks ``_row_kernel`` for, one per
    layer and block, in order, from now on."""
    counts: list[int] = []
    row_kernel = verify._row_kernel

    def recorded(inputs, relu):
        counts.append(inputs)
        return row_kernel(inputs, relu)

    monkeypatch.setattr(verify, "_row_kernel", recorded)
    return counts


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


def dead_block_network() -> ScalarInputNetwork:
    """Units that are zero on some blocks of [-5, 3/7] at 2*BLOCK + 7
    samples and live on others, and one zero on all of them. The first
    block ends near -2.29 and holds knots at -4 and -3, the second ends near
    0.42 and holds knots at -1 and 0."""
    return to_network(
        [
            ([[1], [-1], [1], [1], [-2]], [4, -3, 1, -1, 0]),
            ([[1, 2, -3, 5, 1], [-2, 1, 1, 7, -1], [0, 0, 0, 1, 0]], [-1, Q(1, 2), 0]),
            ([[1, -1, 3], [-2, 1, 1]], [0, Q(-1, 3)]),
        ]
    )


def constant_net() -> ScalarInputNetwork:
    return ScalarInputNetwork(
        (DenseLayer(((Q(0),),), (Q(5),)),),
        DenseLayer(((Q(1),),), (Q(2),)),
    )


class TestDetection:
    def test_single_ramp(self):
        cfg = SamplingConfig((Q(-1), Q(1)), samples=1001)
        detections = detect_knots_by_sampling(single_unit_net(), cfg)
        assert len(detections) == 1
        assert abs(detections[0]) <= cfg.grid_step

    def test_scan_does_not_copy_the_values(self):
        # the values take 0.8 MB; a scan that slices them copies them twice
        samples = 100_001
        tracemalloc.start()
        try:
            detections = detect_knots_by_sampling(single_unit_net(), SamplingConfig((-1, 6), samples))
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
        nets = seeded_networks()
        cases = [(net, ODD_INTERVALS[k % len(ODD_INTERVALS)]) for k, net in enumerate(nets)]
        for net, interval in [*cases, (dead_block_network(), ODD_INTERVALS[1])]:
            cfg = SamplingConfig(interval, samples=samples)
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
    @given(
        layers=network_layers(max_width=9),
        points=st.sampled_from((1, 5, BLOCK)),
        interval=st.sampled_from([(Q(-7, 3), Q(11, 5)), (Q(90), Q(100)), (Q(-100), Q(-90))]),
    )
    def test_drawn_rows_are_bit_identical(self, layers, points, interval):
        # rows of 1 to 9 inputs, with zero weights and biases drawn often;
        # far out, most units are zero on the whole block
        xs = _grid_points(SamplingConfig(interval, samples=BLOCK + 1), 0, points)
        assert_bit_identical(to_network(layers), xs)

    def test_dead_column_is_bit_identical(self, monkeypatch):
        # relu(x - 10) is zero on the block, and its weights multiply zeros
        counts = kernel_inputs(monkeypatch)
        net = to_network(
            [
                ([[1], [1], [-1]], [0, -10, 0]),
                ([[1, -3, 2], [-1, 5, Q(1, 3)]], [Q(-1, 2), 0]),
                ([[2, -1]], [Q(1, 7)]),
            ]
        )
        assert_bit_identical(net, _grid_points(SamplingConfig((-3, 3), BLOCK + 1), 0, BLOCK))
        assert counts == [1, 2, 2]

    @pytest.mark.parametrize("bias", [Q(3, 2), Q(-3, 2), 0], ids=["positive", "negative", "zero"])
    def test_dead_layer_is_bit_identical(self, monkeypatch, bias):
        # both first-layer units are zero on the block, so the second layer
        # runs over one zero column: relu(bias); with the negative bias and
        # the zero one the output layer's inputs are all zero too
        counts = kernel_inputs(monkeypatch)
        net = to_network(
            [
                ([[1], [-1]], [-10, -10]),
                ([[-1, 2], [2, -1]], [bias, bias]),
                ([[-1, 2], [3, -5]], [0, Q(-1, 4)]),
            ]
        )
        assert_bit_identical(net, _grid_points(SamplingConfig((-3, 3), BLOCK + 1), 0, BLOCK))
        assert counts == [1, 1, 2 if bias > 0 else 1]

    @pytest.mark.parametrize(
        "widths",
        [(64, 3), (5000, 3), (5000,), (CHUNK + 1, 3), (2 * CHUNK - 1, 3), (2 * CHUNK,)],
        ids=["64-3", "5000-3", "5000", "33-3", "63-3", "64"],
    )
    def test_rows_wider_than_a_chunk_are_bit_identical(self, widths):
        # one expression of 5,000 terms nests too deeply for the compiler;
        # the kernel sums such a row one chunk of inputs at a time
        xs = _grid_points(SamplingConfig((Q(-5), Q(3, 7)), samples=BLOCK + 1), 0, 5)
        assert_bit_identical(zero_heavy_network(sum(widths), widths), xs)

    def test_live_columns_over_chunks_are_bit_identical(self, monkeypatch):
        # 64 columns, of which more than a chunk but not a whole number of
        # chunks are live on the block
        counts = kernel_inputs(monkeypatch)
        xs = _grid_points(SamplingConfig((Q(-5), Q(3, 7)), samples=BLOCK + 1), 0, BLOCK)
        assert_bit_identical(zero_heavy_network(67, (64, 3)), xs)
        assert CHUNK < counts[1] < 64 and counts[1] % CHUNK

    @pytest.mark.parametrize("relu", [False, True], ids=["output", "hidden"])
    @pytest.mark.parametrize(
        "inputs", [CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1, 3 * CHUNK + 5]
    )
    def test_row_kernel_adds_left_to_right(self, inputs, relu):
        # every column live, so each pass boundary of a wide row is reached
        rng = random.Random(inputs)
        row = [rng.choice([0.0, 1.0, -1.0, rng.uniform(-3, 3)]) for _ in range(inputs)]
        b = rng.uniform(-1, 1)

        def column(w: float) -> list[float]:
            # 40 points of far-apart magnitudes, where the order of the
            # additions shows, and zeros of both signs; 5 with infs and nans;
            # 5 where every term w*v is -0.0
            finite = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8) for _ in range(40)]
            finite = [math.copysign(0.0, v) if rng.random() < 0.1 else v for v in finite]
            specials = [
                rng.choice([math.inf, -math.inf, math.nan]) if rng.random() < 0.02 else 1.0
                for _ in range(5)
            ]
            return finite + specials + [-1.0 if w == 0.0 else math.copysign(0.0, -w)] * 5

        columns = [column(w) for w in row]
        expected = []
        for point in zip(*columns):
            total = 0
            for w, v in zip(row, point):
                total += w * v
            total += b
            expected.append(0.0 if relu and total <= 0.0 else total)
        got = verify._row_kernel(inputs, relu)(row, b, columns)
        assert list(map(float.hex, got)) == list(map(float.hex, expected))

    def test_at_most_two_passes_per_input_count_are_cached(self):
        # rows of every width to past three chunks, with and without relu:
        # a wide row reuses the passes of the narrow ones
        for inputs in range(1, 3 * CHUNK + 2):
            for relu in (False, True):
                verify._row_kernel(inputs, relu)([1.0] * inputs, 0.5, [[1.0]] * inputs)
        assert verify._list_pass.cache_info().currsize <= 2 * CHUNK

    @pytest.mark.parametrize("interval", ODD_INTERVALS)
    def test_integer_grid_is_the_rounded_fraction_grid(self, interval):
        for samples in (3, BLOCK + 1, 2 * BLOCK + 7):
            cfg = SamplingConfig(interval, samples=samples)
            low, high = cfg.interval
            h = (high - low) / (samples - 1)
            grid = [float(low + i * h) for i in range(samples)]
            assert _grid_points(cfg, 0, samples) == grid
            assert _grid_points(cfg, 1, samples - 1) == grid[1:-1]


    def test_dead_columns_are_skipped(self, monkeypatch):
        # on the first block of [-1, 6], from -1 to -0.857, only relu(2 - x)
        # of the six first-layer units is live, then two of the three
        # second-layer units and one of the two third-layer units
        counts = kernel_inputs(monkeypatch)
        cfg = SamplingConfig((-1, 6), samples=100_001)
        assert len(detect_knots_by_sampling(example_tight_network(), cfg)) == 83
        assert counts[:4] == [1, 1, 2, 1]


class TestOracleReport:
    def test_counts_exact_knots_outside_interval(self):
        net = example_tight_network()
        report = oracle_agreement(net, SamplingConfig((Q(0), Q(1)), samples=5001))
        # knots at 0 and 1 sit on the end points, where the grid takes no
        # second difference: they count as not compared, not as missed
        assert len(report.exact) == 11
        assert report.exact_outside_interval == 72
        assert 0 < report.exact[0] and report.exact[-1] < 1
        assert report.agree

    def test_exact_side_builds_no_rational(self, monkeypatch):
        # 7,775 knots, some closer than three steps of the default grid
        net = build_tight_network(Architecture((5, 5, 5, 5, 5), output_dim=2))
        cfg = SamplingConfig((-1, 5))
        with fractions_built(monkeypatch) as built:
            report = oracle_agreement(net, cfg)
            seen = (report.agree, report.crowded, report.mismatch())
        assert built == [0]
        assert seen[:2] == (False, 139)
        assert seen[2].endswith("(6.26e-05) is at most three grid steps (0.00018); "
                                "--samples 287498 or more separates them")

    @pytest.mark.parametrize("seed", range(16))
    def test_verdict_matches_rationals(self, seed):
        # the exact side against the same questions asked in Fractions
        rng = random.Random(seed)
        widths = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
        net = random_network(rng, Architecture(widths, output_dim=2))
        low = Q(rng.randint(-200, 50), rng.randint(1, 9))
        high = low + Q(rng.randint(1, 400), rng.randint(1, 9))
        cfg = SamplingConfig((low, high), samples=rng.choice([3, 11, 101, 1001]))
        report = oracle_agreement(net, cfg)
        exact = tuple(x for x in extract(net).output_knots if low < x < high)
        assert report.exact == exact
        steps = SEPARATION_STEPS * (high - low) / (cfg.samples - 1)
        gaps = [b - a for a, b in zip(exact, exact[1:])]
        close = [gap <= steps for gap in gaps]
        assert report.crowded == sum(
            left or right for left, right in zip([False, *close], [*close, False])
        )
        assert cfg.grid_step == float(high - low) / (cfg.samples - 1)
        if report.max_location_error is not None:
            assert report.max_location_error == max(
                abs(d - float(e)) for d, e in zip(report.detected, exact)
            )
        # with no detection the counts differ wherever there is a knot
        gap = min(gaps, default=None)
        message = verify.AgreementReport(cfg, (), report.exact_points, 0).mismatch()
        if gap is None or gap > steps:
            assert message == "sampling oracle disagrees with exact extraction"
        else:
            samples = int(SEPARATION_STEPS * (high - low) // gap) + 2
            assert f"exact knots ({float(gap):.3g}) is at most" in message
            assert f" {samples} " in message or "no sample count" in message


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

    # (max_numerator, max_denominator): ranges of size 1 (one bit drawn),
    # sizes 2 and 256 (powers of two: about half the draws rejected), 257
    # (just past one) and sizes with no bit boundary near
    DRAW_BOUNDS = [(0, 1), (1, 1), (10, 3), (100, 10), (3, 97), (1000, 2), (128, 256)]

    @pytest.mark.parametrize("bounds", DRAW_BOUNDS, ids=str)
    def test_draws_the_randint_networks(self, bounds):
        # every shape drawn in turn from one generator; randint draws from a
        # twin generator
        shapes = [
            Architecture(tuple(1 + (width + k) % 9 for k in range(depth)), output_dim=p)
            for depth in range(1, 5)
            for width in range(9)
            for p in range(1, 4)
        ]
        rng, ref_rng = random.Random(17), random.Random(17)
        for arch in shapes:
            net = random_network(rng, arch, *bounds)
            assert net == reference_random_network(ref_rng, arch, *bounds)
            assert rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("widths, trials", [((2, 2), 50), ((6, 3, 2), 20)], ids=str)
    def test_stress_extracts_the_random_networks_in_order(self, monkeypatch, widths, trials):
        # the contract the benchmark's checks rely on: the search draws its
        # trials with random_network, in order, from one random.Random(seed)
        arch = Architecture(widths, output_dim=2)
        seed = 11
        extracted = []

        def recording_extract(net):
            extracted.append(net)
            return extract(net)

        monkeypatch.setattr(verify, "extract", recording_extract)
        stress_bound(arch, trials, seed)
        rng = random.Random(seed)
        assert extracted == [random_network(rng, arch) for _ in range(trials)]

    @pytest.mark.parametrize(
        "widths, trials", [((2, 2), 100), ((8, 8, 8, 8), 8), ((32, 32), 8)], ids=str
    )
    def test_stress_matches_reference_loop(self, widths, trials):
        arch = Architecture(widths, output_dim=2)
        for seed in (0, 3, 1702):
            rng = random.Random(seed)
            counts = [
                len(extract(reference_random_network(rng, arch)).output_knots)
                for _ in range(trials)
            ]
            bound = knot_bound(arch)
            assert stress_bound(arch, trials, seed) == verify.StressReport(
                trials=trials,
                seed=seed,
                bound=bound,
                max_observed=max(counts),
                gap=bound - max(counts) if tightness_eligibility(arch) is not None else None,
            )

    @pytest.mark.parametrize(
        "bounds, name", [((-1, 10), "max_numerator"), ((100, 0), "max_denominator")]
    )
    def test_bad_bounds_rejected_before_drawing(self, bounds, name):
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(ValueError, match=name):
            random_network(rng, Architecture((2, 2)), *bounds)
        assert rng.getstate() == state

    def test_stress_search_builds_no_rational(self, monkeypatch):
        # random_network builds each layer from ints scaled to the lcm of
        # its denominators; extraction counts knots in ints
        with fractions_built(monkeypatch) as built:
            stress_bound(Architecture((8, 8, 8, 8), output_dim=2), 100, 3)
        assert built == [0]
