"""Independent checks on the exact machinery.

The sampling detector never touches the spline extraction path: it runs the
network forward in floating point on a dense grid and looks for second
differences that an affine function cannot produce. The stress search feeds
seeded random networks through extraction and checks the architectural knot
bound, which no network may exceed; for shapes where the bound is known to be
unattainable it records the observed shortfall as evidence (a randomized
search cannot prove nonexistence).
"""

from __future__ import annotations

import functools
import math
import random
from collections.abc import Callable
from dataclasses import dataclass, field

from .bounds import Architecture, knot_bound, tightness_eligibility
from .network import DenseLayer, ScalarInputNetwork, extract
from .rational import Rational, as_rational

SLOPE_CHANGE_TOLERANCE = 1e-6  # relative threshold of the sampling detector
SAMPLE_LIMIT = 10_000_001  # largest grid: its float values take about 80 MB per output
SEPARATION_STEPS = 3  # grid steps two knots need between them to be told apart
MAX_NUMERATOR, MAX_DENOMINATOR = 100, 10  # default bounds of a random parameter n/d


@dataclass(frozen=True, slots=True)
class SamplingConfig:
    """Uniform-grid settings for the floating-point knot detector."""

    interval: tuple[Rational, Rational]
    samples: int = 100_001

    def __post_init__(self) -> None:
        low, high = (as_rational(self.interval[0]), as_rational(self.interval[1]))
        object.__setattr__(self, "interval", (low, high))
        if low >= high:
            raise ValueError("interval must satisfy low < high")
        if self.samples < 3:
            raise ValueError("need at least 3 samples to form a second difference")
        if self.samples > SAMPLE_LIMIT:
            raise ValueError(f"samples must be at most {SAMPLE_LIMIT}, got {self.samples}")
        try:
            end = max(abs(float(low)), abs(float(high)))
            step = self.grid_step
        except OverflowError:
            raise ValueError(
                "interval does not fit in a float: its ends and its length must be "
                "below 1.8e308"
            ) from None
        # float spacing only grows with magnitude, so above the spacing at the
        # larger end every grid point rounds to a float of its own
        if step <= math.ulp(end):
            raise ValueError(
                f"grid step {step:.3g} is not above the float spacing {math.ulp(end):.3g} "
                f"at {end:.3g}: widen the interval or take fewer samples"
            )

    @property
    def interval_length(self) -> tuple[int, int]:
        """high - low as an int pair (n, d) for n/d, d > 0, not reduced."""
        low, high = self.interval
        return (
            high.numerator * low.denominator - low.numerator * high.denominator,
            low.denominator * high.denominator,
        )

    @property
    def grid_step(self) -> float:
        """float(high - low) / (samples - 1): the float of the length, as an
        int division rounds it, divided by the float of samples - 1."""
        length, den = self.interval_length
        return length / den / (self.samples - 1)


BLOCK = 2048  # grid points per block of the float forward pass
CHUNK = 32  # most inputs summed in one generated expression


@functools.cache
def _list_pass(inputs: int, relu: bool) -> Callable[..., list[float]]:
    """One list pass over ``zip`` of ``inputs`` columns of a block.

    The source is generated for the input count: a list comprehension that
    evaluates ``w0*v0 + w1*v1 + ... + b``, then relu if ``relu``. Python
    adds that expression left to right, as ``((w0*v0 + w1*v1) + ...) + b``.
    The weights and the bias are arguments, never text in the source;
    ``inputs`` is at most ``CHUNK``, so at most 2*``CHUNK`` passes are
    cached. The relu keeps a nan for the output check.
    """
    ws = "".join(f"w{k}, " for k in range(inputs))
    cs = "".join(f"c{k}, " for k in range(inputs))
    vs = "".join(f"v{k}, " for k in range(inputs))
    value = " + ".join([*(f"w{k} * v{k}" for k in range(inputs)), "b"])
    item = f"0.0 if (p := {value}) <= 0.0 else p" if relu else value
    source = (
        "def list_pass(row, b, columns):\n"
        f"    {ws}= row\n"
        f"    {cs}= columns\n"
        f"    return [{item} for {vs}in zip({cs})]\n"
    )
    namespace: dict = {}
    exec(source, namespace)
    return namespace["list_pass"]


def _row_kernel(inputs: int, relu: bool) -> Callable[..., list[float]]:
    """The kernel of a row of ``inputs`` weights: its weighted inputs added
    left to right, then the bias, then relu on hidden rows.

    A row of at most ``CHUNK`` inputs is one ``_list_pass``. CPython's
    compiler refuses an expression nested a few thousand levels deep, and
    each term of the sum is one level, so a wider row runs that pass over
    its first ``CHUNK`` inputs, then over the running sums, with weight
    1.0, and the next ``CHUNK - 1`` inputs; the last pass adds ``b`` and
    applies relu, the others add 0.0. The sums stay those from the integer
    0 that ``_float_forward`` asks for: ``1.0*a == a`` for every float,
    -0.0, inf and nan included, and adding 0.0 to the first pass's sum turns
    a -0.0 into exactly the partial sum from 0, never -0.0, after which
    adding 0.0 changes nothing.
    """
    if inputs <= CHUNK:
        return _list_pass(inputs, relu)
    stride = CHUNK - 1

    def kernel(row: list[float], b: float, columns: list[list[float]]) -> list[float]:
        sums = _list_pass(CHUNK, False)(row[:CHUNK], 0.0, columns[:CHUNK])
        for k in range(CHUNK, inputs, stride):
            last = k + stride >= inputs
            ws, cs = [1.0, *row[k : k + stride]], [sums, *columns[k : k + stride]]
            sums = _list_pass(len(ws), relu and last)(ws, b if last else 0.0, cs)
        return sums

    return kernel


def _float_layers(net: ScalarInputNetwork) -> list[tuple[bool, list[list[float]], list[float]]]:
    """Relu flag, float weights and float biases of each layer, the output layer last.

    Each float is (L*w) / L in the layer's integer form: Python rounds an
    int division correctly, so it is the float nearest w, as ``float(w)``
    gives it, and one too large raises ``OverflowError`` as that does.
    """
    layers = []
    for i, layer in enumerate((*net.hidden_layers, net.output_layer), start=1):
        relu = layer is not net.output_layer
        lcd = layer.lcd
        try:
            weights = [[w / lcd for w in row] for row in layer.scaled_weights]
            biases = [b / lcd for b in layer.scaled_biases]
        except OverflowError:
            name = f"hidden layer {i}" if relu else "output layer"
            raise ValueError(f"{name} has a weight or bias too large for a float") from None
        layers.append((relu, weights, biases))
    return layers


def _float_forward(
    layers: list[tuple[bool, list[list[float]], list[float]]], xs: list[float]
) -> list[list[float]]:
    """Plain-float forward pass over one block of grid points.

    ``layers`` comes from ``_float_layers``; the result is one value list per
    output. Layer by layer, the pass drops the input columns that are 0.0 on
    the whole block (keeping one if all are) and runs each row over the live
    ones through ``_row_kernel``, which chains the generated list pass over
    rows wider than ``CHUNK``: the weighted inputs added left to right, then
    the bias, then relu on hidden units. For any block size, the values must
    be bit-identical to a pass that evaluates one point at a time and adds
    every weighted input left to right from the integer 0 (not with
    ``sum``, which compensates floats from Python 3.12).
    Weights are finite (``_float_layers`` refuses the others), so a dead
    column adds ``w*0.0``, a zero; a column holding an inf or a nan is live.
    Adding a zero, like starting from 0, changes a total at most in the sign
    of a zero, which adding the bias, never -0.0, removes.
    ``reference_outputs`` in ``tests/test_verify.py`` is that pass, and the
    tests compare the two.
    """
    signal = [xs]
    for relu, weights, biases in layers:
        live = [k for k, column in enumerate(signal) if any(column)] or [0]
        kernel = _row_kernel(len(live), relu)
        signal = [signal[k] for k in live]
        signal = [kernel([row[k] for k in live], b, signal) for row, b in zip(weights, biases)]
    return signal


def _grid_points(cfg: SamplingConfig, first: int, last: int) -> list[float]:
    """Points first to last - 1 of the sampling grid.

    Point i is the float nearest low + i*h, with h = (high - low) /
    (samples - 1). For low = a/b and high = c/d it is one int division,
    (a*d*(samples - 1) + i*(c*b - a*d)) / (b*d*(samples - 1)), which Python
    rounds correctly: the same float as ``float(low + i*h)`` in exact
    rationals, at a fraction of the cost.
    """
    low, high = cfg.interval
    a, b = low.numerator, low.denominator
    c, d = high.numerator, high.denominator
    lengths = cfg.samples - 1
    start = a * d * lengths
    step = c * b - a * d
    den = b * d * lengths
    return [t / den for t in range(start + first * step, start + last * step, step)]


def detect_knots_by_sampling(
    net: ScalarInputNetwork, cfg: SamplingConfig
) -> list[float]:
    """Approximate knot locations of the network over the configured interval.

    A grid cell is flagged when, on any output, the discrete second difference
    exceeds ``SLOPE_CHANGE_TOLERANCE`` times that output's largest magnitude
    on the grid; runs of adjacent flagged cells (one knot usually straddles
    two) merge into a single detection at their midpoint. Detection is
    complete only when true knots are separated by more than
    ``SEPARATION_STEPS``, three, grid steps: a knot inside a grid cell flags
    the points at both ends of the cell, and two knots' flags merge unless
    an unflagged point lies between them. A knot on an end point of the
    interval is never detected: second differences are taken only at
    interior grid points.

    The network runs over blocks of ``BLOCK`` grid points
    (``_grid_points``), one layer at a time (``_float_forward``, which says
    why the blocks change no value). Only each output's values over the
    grid are kept, because its threshold needs its largest magnitude. An
    output with a value a float cannot hold raises ``ValueError``: no
    threshold can be taken over it.
    """
    # imported here: the array extension adds about 0.2 MB of resident
    # memory to every process that imports the package, and only this uses it
    from array import array

    n = cfg.samples
    layers = _float_layers(net)
    outputs = [array("d") for _ in range(net.output_dim)]
    for first in range(0, n, BLOCK):
        xs = _grid_points(cfg, first, min(first + BLOCK, n))
        for values, block in zip(outputs, _float_forward(layers, xs)):
            values.extend(block)

    flagged = bytearray(n)
    for k, ys in enumerate(outputs):
        # the sum finds an inf or a nan in one pass (max skips a nan that is
        # not first); only a sum that is not finite needs the value by value
        # check, which tells an overflowed sum of finite values from them
        if not math.isfinite(sum(ys)) and not all(map(math.isfinite, ys)):
            raise ValueError(f"output {k} overflows a float on the sampling grid")
        threshold = SLOPE_CHANGE_TOLERANCE * max(map(abs, ys))
        # memoryview slices share the values; array slices would copy them
        shifted = memoryview(ys)
        for i, (left, mid, right) in enumerate(zip(ys, shifted[1:], shifted[2:]), start=1):
            if abs(right - 2.0 * mid + left) > threshold:
                flagged[i] = 1

    detections: list[float] = []
    i = flagged.find(1)
    while i >= 0:
        end = flagged.find(0, i)  # flagged[n - 1] is never set
        first_point = _grid_points(cfg, i, i + 1)[0]
        last_point = _grid_points(cfg, end - 1, end)[0]
        detections.append((first_point + last_point) / 2.0)
        i = flagged.find(1, end)
    return detections


@dataclass(frozen=True, slots=True)
class AgreementReport:
    """Sampling detections compared against exact extraction, knot by knot.

    The report keeps what was observed: the grid (``config``), the
    detections, the exact knots strictly inside the sampled interval, as
    ascending reduced int pairs (p, q) for p/q with q > 0, and the count of
    the ``exact_outside_interval`` others, those on its end points included,
    which are not compared. The verdict is derived from them on each read,
    in ints.
    """

    config: SamplingConfig
    detected: tuple[float, ...]
    exact_points: tuple[tuple[int, int], ...]
    exact_outside_interval: int

    @property
    def exact(self) -> tuple[Rational, ...]:
        """The compared exact knots, as rationals built on each read."""
        return tuple(Rational(p, q) for p, q in self.exact_points)

    @property
    def max_location_error(self) -> float | None:
        """The largest distance from an exact knot to its detection; None
        unless the counts match and are nonzero."""
        if len(self.detected) != len(self.exact_points) or not self.exact_points:
            return None
        # p / q is an int division, rounded correctly: the float of p/q
        return max(abs(d - p / q) for d, (p, q) in zip(self.detected, self.exact_points))

    @property
    def agree(self) -> bool:
        """Every exact knot detected, each within one grid step."""
        error = self.max_location_error
        return len(self.detected) == len(self.exact_points) and (
            error is None or error <= self.config.grid_step
        )

    def _gaps_and_steps(self) -> tuple[list[tuple[int, int]], tuple[int, int]]:
        """The gaps between neighbouring exact knots, and ``SEPARATION_STEPS``
        grid steps, exactly: each an int pair (n, d) for n/d with d > 0."""
        points = self.exact_points
        gaps = [(p * s - r * q, q * s) for (r, s), (p, q) in zip(points, points[1:])]
        width, width_den = self.config.interval_length
        return gaps, (SEPARATION_STEPS * width, width_den * (self.config.samples - 1))

    @property
    def crowded(self) -> int:
        """The exact knots within ``SEPARATION_STEPS`` grid steps of a
        neighbour, which the grid cannot separate."""
        gaps, (steps, steps_den) = self._gaps_and_steps()
        close = [n * steps_den <= steps * d for n, d in gaps]
        return sum(left or right for left, right in zip([False, *close], [*close, False]))

    def summary(self) -> str:
        status = "agree" if self.agree else "MISMATCH"
        outside = (
            f", {self.exact_outside_interval} exact not compared"
            " (outside the interval or on an end point)"
            if self.exact_outside_interval
            else ""
        )
        return (
            f"{status}: detected {len(self.detected)}, exact {len(self.exact_points)}"
            f"{outside} (grid step {self.config.grid_step:.3g})"
        )

    def mismatch(self) -> str:
        """The message of a disagreement. When the counts differ and two
        exact knots are too close for the grid, it names their gap and the
        fewest samples whose grid separates every exact knot."""
        message = "sampling oracle disagrees with exact extraction"
        gaps, (steps, steps_den) = self._gaps_and_steps()
        if len(self.detected) == len(self.exact_points) or not gaps:
            return message
        gap, gap_den = gaps[0]
        for n, d in gaps[1:]:
            if n * gap_den < gap * d:
                gap, gap_den = n, d
        if gap * steps_den > steps * gap_den:
            return message
        # the fewest n whose step (high - low) / (n - 1) is below the gap
        # divided by SEPARATION_STEPS
        width, width_den = self.config.interval_length
        samples = SEPARATION_STEPS * width * gap_den // (width_den * gap) + 2
        separates = (
            f"--samples {samples} or more separates them"
            if samples <= SAMPLE_LIMIT
            else f"no sample count up to the limit of {SAMPLE_LIMIT} separates them"
        )
        return (
            f"{message}: the grid is too coarse, the smallest gap between exact knots "
            f"({gap / gap_den:.3g}) is at most three grid steps "
            f"({SEPARATION_STEPS * self.config.grid_step:.3g}); {separates}"
        )


def oracle_agreement(net: ScalarInputNetwork, cfg: SamplingConfig) -> AgreementReport:
    """Run the sampling detector against exact extraction on one interval.

    Only the knots strictly inside the interval are compared: the detector
    takes second differences at interior grid points, so it never flags an
    end point. The knots stay in the trace's int pairs: p/q lies inside
    (a/b, c/d) when a*q < p*b and p*d < c*q.
    """
    low, high = cfg.interval
    a, b, c, d = low.numerator, low.denominator, high.numerator, high.denominator
    trace = extract(net)
    nums, dens = trace.grids[-1]
    knots = [(nums[k], dens[k]) for k in trace.output_knot_indices]
    del trace, nums, dens  # only the knots are kept while sampling
    exact = tuple((p, q) for p, q in knots if a * q < p * b and p * d < c * q)
    detected = tuple(detect_knots_by_sampling(net, cfg))
    return AgreementReport(cfg, detected, exact, len(knots) - len(exact))


@dataclass(frozen=True, slots=True)
class StressReport:
    """Outcome of a seeded random search for bound violations."""

    trials: int
    seed: int
    bound: int
    max_observed: int
    gap: int | None  # bound - max_observed, reported when the bound is unattainable
    note: str = field(default="randomized search: evidence, not proof")


def random_network(
    rng: random.Random,
    arch: Architecture,
    max_numerator: int = MAX_NUMERATOR,
    max_denominator: int = MAX_DENOMINATOR,
) -> ScalarInputNetwork:
    """Network with seeded random rational parameters for the given shape.

    Each parameter is n/d with n uniform on [-max_numerator, max_numerator],
    then d uniform on [1, max_denominator]; weights come row by row, then
    biases, layer by layer. Each index is drawn as ``randint`` draws it from
    a ``random.Random``: k = size.bit_length() bits from ``getrandbits``,
    drawn again while not below the size. So a seed gives the networks it
    gave with ``randint`` and leaves ``rng`` in the same state.
    ``stress_bound`` calls this once per trial on one generator.

    A draw builds no rational. Each layer scales every drawn n/d to
    n*(L // d) over the lcm L of its denominators, and ``DenseLayer.from_integers``
    divides out the gcd of L and those ints: cheap, as no d exceeds
    max_denominator. Reduced pair by pair (``DenseLayer.from_ratios``), a
    ``random`` round's 40 draws took 13.5 ms, not 7.7 (best of 150, 2 cores).
    """
    if max_numerator < 0:
        raise ValueError(f"max_numerator must be non-negative, got {max_numerator}")
    if max_denominator < 1:
        raise ValueError(f"max_denominator must be at least 1, got {max_denominator}")
    getrandbits = rng.getrandbits
    numerators = 2 * max_numerator + 1
    n_bits, d_bits = numerators.bit_length(), max_denominator.bit_length()
    widths = arch.widths
    layers = []
    for rows, cols in [*zip(widths, (1, *widths)), (arch.output_dim, widths[-1])]:
        nums, dens = [], []
        for _ in range(rows * (cols + 1)):
            n = getrandbits(n_bits)
            while n >= numerators:
                n = getrandbits(n_bits)
            d = getrandbits(d_bits)
            while d >= max_denominator:
                d = getrandbits(d_bits)
            nums.append(n - max_numerator)
            dens.append(d + 1)
        lcd = math.lcm(*dens)
        scaled = [n * (lcd // d) for n, d in zip(nums, dens)]
        weights = rows * cols
        rows_of = (scaled[k : k + cols] for k in range(0, weights, cols))
        layers.append(DenseLayer.from_integers(lcd, rows_of, scaled[weights:]))
    return ScalarInputNetwork(tuple(layers[:-1]), layers[-1])


def stress_bound(arch: Architecture, trials: int, seed: int) -> StressReport:
    """Sample random networks of one shape and compare knot counts to the bound.

    Raises if any sample exceeds the bound (that would mean an extraction
    bug, not a counterexample). For shapes where the bound is unattainable,
    the report carries the observed gap as falsification evidence.
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    rng = random.Random(seed)
    bound = knot_bound(arch)
    max_observed = 0
    for trial in range(trials):
        net = random_network(rng, arch)
        count = len(extract(net).output_knot_indices)
        if count > bound:
            raise RuntimeError(
                f"bound violated: {count} > {bound} for widths {arch.widths} "
                f"(seed {seed}, trial {trial})"
            )
        max_observed = max(max_observed, count)
    unattainable = tightness_eligibility(arch) is not None
    return StressReport(
        trials=trials,
        seed=seed,
        bound=bound,
        max_observed=max_observed,
        gap=bound - max_observed if unattainable else None,
    )
