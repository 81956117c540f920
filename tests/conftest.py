from __future__ import annotations

import contextlib
import csv
import decimal
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from relu_knots import DenseLayer, LinearSpline, ScalarInputNetwork
from relu_knots.cli import CSV_COLUMNS
from relu_knots.network import extract as real_extract

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
nonzero_rationals = rationals.filter(lambda q: q != 0)
# zero weights and biases drawn often, next to small rationals
coefficients = st.one_of(st.just(Fraction(0)), rationals)


@st.composite
def splines(draw, max_breakpoints: int = 6) -> LinearSpline:
    slope = draw(rationals)
    intercept = draw(rationals)
    xs = draw(
        st.lists(rationals, unique=True, min_size=0, max_size=max_breakpoints)
    )
    deltas = draw(
        st.lists(nonzero_rationals, min_size=len(xs), max_size=len(xs))
    )
    return LinearSpline(slope, intercept, tuple(sorted(zip(xs, deltas))))


@st.composite
def network_layers(
    draw, min_depth: int = 1, min_width: int = 1, max_width: int = 3, values=coefficients
):
    """(weights, biases) lists of min_depth-3 hidden layers of width
    min_width to max_width, then of an output layer of width 1-2, every
    entry drawn from ``values``."""
    widths = draw(st.lists(st.integers(min_width, max_width), min_size=min_depth, max_size=3))
    shapes = list(zip(widths + [draw(st.integers(1, 2))], [1] + widths))
    return [
        (
            [[draw(values) for _ in range(cols)] for _ in range(rows)],
            [draw(values) for _ in range(rows)],
        )
        for rows, cols in shapes
    ]


def to_network(layers) -> ScalarInputNetwork:
    return ScalarInputNetwork(
        tuple(DenseLayer(w, b) for w, b in layers[:-1]), DenseLayer(*layers[-1])
    )


def single_unit_net() -> ScalarInputNetwork:
    """relu(x): one hidden unit, the identity as its output."""
    return ScalarInputNetwork(
        (DenseLayer(((Fraction(1),),), (Fraction(0),)),),
        DenseLayer(((Fraction(1),),), (Fraction(0),)),
    )


def seeded_points(seed: int, count: int, denominator_limit: int = 100) -> list[Fraction]:
    rng = random.Random(seed)
    return [
        Fraction(rng.randint(-1000, 1000), rng.randint(1, denominator_limit))
        for _ in range(count)
    ]


def reference_random_network(
    rng: random.Random, arch, max_numerator: int = 100, max_denominator: int = 10
) -> ScalarInputNetwork:
    """A network drawn with ``randint``: each parameter is
    ``Fraction(randint(-M, M), randint(1, D))``, weights row by row, then
    biases, layer by layer. ``random_network`` must draw the same networks
    and leave ``rng`` in the same state."""

    def value() -> Fraction:
        return Fraction(
            rng.randint(-max_numerator, max_numerator), rng.randint(1, max_denominator)
        )

    def layer(rows: int, cols: int) -> DenseLayer:
        return DenseLayer(
            tuple(tuple(value() for _ in range(cols)) for _ in range(rows)),
            tuple(value() for _ in range(rows)),
        )

    widths = arch.widths
    hidden = [layer(widths[0], 1)]
    for prev, width in zip(widths, widths[1:]):
        hidden.append(layer(width, prev))
    return ScalarInputNetwork(tuple(hidden), layer(arch.output_dim, widths[-1]))


def affine_combine(terms, constant=0) -> LinearSpline:
    """Exact ``sum(a_i * f_i) + constant`` in canonical form: jumps at a
    shared location are added, and jumps that cancel to zero are dropped,
    which is how knots disappear under degenerate combinations."""
    slope, intercept = Fraction(0), Fraction(constant)
    jumps: dict[Fraction, Fraction] = {}
    for coeff, f in terms:
        if coeff == 0:
            continue
        slope += coeff * f.initial_slope
        intercept += coeff * f.initial_intercept
        for x, delta in f.breakpoints:
            jumps[x] = jumps.get(x, 0) + coeff * delta
    return LinearSpline(slope, intercept, tuple((x, jumps[x]) for x in sorted(jumps) if jumps[x]))


def relu(f: LinearSpline) -> LinearSpline:
    """Exact spline of ``x -> max(0, f(x))`` in canonical form.

    The candidate knots of the output are the knots of ``f`` plus the roots
    where ``f`` strictly changes sign (one per crossing piece, including the
    two infinite rays). At each candidate the output's one-sided slopes are
    the corresponding slopes of ``f`` where ``f`` is positive on that side and
    zero where it is not; the jump between them is kept only when nonzero.
    A root that coincides with a knot therefore yields one merged breakpoint,
    and a piece lying identically on zero contributes no interior knots.
    """
    bps = f.breakpoints
    if not bps:
        if f.initial_slope == 0:
            return LinearSpline(0, max(Fraction(0), f.initial_intercept))
        root = -f.initial_intercept / f.initial_slope
        events = [(root, Fraction(0), f.initial_slope, f.initial_slope)]
    else:
        slopes = f.piece_slopes()
        values = f.knot_values()
        events = []  # (x, f(x), slope just left, slope just right)
        first_x, first_v = bps[0][0], values[0]
        s0 = slopes[0]
        # Root on the leftmost ray: f heads away from zero going left, so a
        # crossing exists exactly when the value at the first knot has the
        # same sign as the ray slope.
        if s0 != 0 and first_v != 0 and (first_v > 0) == (s0 > 0):
            events.append((first_x - first_v / s0, Fraction(0), s0, s0))
        for i, (x, _delta) in enumerate(bps):
            events.append((x, values[i], slopes[i], slopes[i + 1]))
            if i + 1 < len(bps):
                v_here, v_next = values[i], values[i + 1]
                if (v_here < 0 < v_next) or (v_next < 0 < v_here):
                    s = slopes[i + 1]
                    events.append((x - v_here / s, Fraction(0), s, s))
        last_x, last_v = bps[-1][0], values[-1]
        s_last = slopes[-1]
        if s_last != 0 and last_v != 0 and (last_v > 0) != (s_last > 0):
            events.append((last_x - last_v / s_last, Fraction(0), s_last, s_last))

    out_initial_slope = f.initial_slope if f.initial_slope < 0 else Fraction(0)
    breakpoints = []
    for x, v, left, right in events:
        out_left = left if (v > 0 or (v == 0 and left < 0)) else 0
        out_right = right if (v > 0 or (v == 0 and right > 0)) else 0
        if out_right != out_left:
            breakpoints.append((x, out_right - out_left))
    first_x, first_v = events[0][0], events[0][1]
    intercept = max(Fraction(0), first_v) - out_initial_slope * first_x
    return LinearSpline(out_initial_slope, intercept, tuple(breakpoints))


def combination(witness, units) -> LinearSpline:
    """The sawtooth a ``SawtoothWitness`` certifies, over the unit splines."""
    return affine_combine(zip(witness.combination_weights, units))


def sawtooth_range(f: LinearSpline):
    """(valley, peak) when ``f`` is a sawtooth, else None: slopes of opposite
    signs on every two neighbouring pieces (both rays included), so each
    knot is a strict valley or peak and neighbouring knot values differ, and
    knots at exactly two values, so at least 2 knots, the valleys level and
    the peaks level."""
    slopes, values = f.piece_slopes(), set(f.knot_values())
    if len(values) != 2 or any(s * t >= 0 for s, t in zip(slopes, slopes[1:])):
        return None
    return min(values), max(values)


def reference_layer(layer, units=(LinearSpline(1, 0),)) -> list[LinearSpline]:
    """The spline of every unit of ``layer``, one unit at a time: relu of
    the affine combination of ``units``, by default the input, the line x."""
    return [
        relu(affine_combine(zip(row, units), b)) for row, b in zip(layer.weights, layer.biases)
    ]


def reference_unit_splines(net) -> list[list[LinearSpline]]:
    """The spline of every hidden unit, layer by layer: ``reference_layer``
    of each layer on the one below."""
    layers = [reference_layer(net.hidden_layers[0])]
    for layer in net.hidden_layers[1:]:
        layers.append(reference_layer(layer, layers[-1]))
    return layers


ARITHMETIC_DUNDERS = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
    "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__",
    "__pow__", "__rpow__", "__neg__", "__abs__",
)


@contextlib.contextmanager
def rational_arithmetic_calls(monkeypatch):
    """Record, in the list it yields, the name of every ``Fraction``
    arithmetic method called inside the block. Rationals may be built,
    compared and read there; adding, multiplying or dividing one shows."""
    calls = []

    def counted(name):
        original = getattr(Fraction, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    with monkeypatch.context() as m:
        for name in ARITHMETIC_DUNDERS:
            m.setattr(Fraction, name, counted(name))
        yield calls


@contextlib.contextmanager
def fractions_built(monkeypatch):
    """Count, in the one-item list it yields, the ``Fraction``s built
    inside the block: the calls of ``Fraction.__new__``."""
    count = [0]
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", counted)
        yield count


def reference_spline_csv(splines, path) -> None:
    """The spline CSV computed in ``Fraction``s, the slow path that
    ``cli.write_spline_csv`` must match byte for byte: the knots' values
    and the pieces' slopes from ``knot_values`` and ``piece_slopes``, each
    cell rendered from the reduced rational."""
    context = decimal.Context(prec=20)

    def exact(q: Fraction) -> str:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    def approx(q: Fraction) -> str:
        return str(context.divide(decimal.Decimal(q.numerator), decimal.Decimal(q.denominator)))

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for k, f in enumerate(splines):
            slopes = f.piece_slopes()
            values = f.knot_values()
            if values:
                final_intercept = values[-1] - slopes[-1] * f.breakpoints[-1][0]
            else:
                final_intercept = f.initial_intercept
            rows = [("-inf", "-inf", f.initial_intercept, slopes[0], slopes[0])]
            rows += [
                (exact(x), approx(x), value, left, right)
                for x, value, left, right in zip(f.knots(), values, slopes, slopes[1:])
            ]
            rows.append(("+inf", "inf", final_intercept, slopes[-1], slopes[-1]))
            for x_rational, x_decimal, value, left, right in rows:
                writer.writerow(
                    [
                        k,
                        x_rational,
                        x_decimal,
                        exact(value),
                        approx(value),
                        exact(left),
                        exact(right),
                    ]
                )


def knot_union(splines) -> tuple:
    """The sorted knot locations of all the splines, each once."""
    return tuple(sorted({x for f in splines for x in f.knots()}))


def reference_extract(net) -> tuple[tuple[tuple, ...], tuple[LinearSpline, ...], tuple]:
    """Per-layer knot unions, output splines and the union of the outputs'
    knots from the unit-by-unit reference, the slow path that ``extract``
    must agree with."""
    layers = reference_unit_splines(net)
    outputs = tuple(
        affine_combine(zip(row, layers[-1]), b)
        for row, b in zip(net.output_layer.weights, net.output_layer.biases)
    )
    return tuple(knot_union(units) for units in layers), outputs, knot_union(outputs)


def same_as_reference(net, trace) -> bool:
    return (
        trace.per_layer_knot_union,
        trace.output_splines,
        trace.output_knots,
    ) == reference_extract(net)


@pytest.fixture(autouse=True)
def extractions_match_reference(monkeypatch):
    """Check every ``extract`` call a test makes against ``reference_extract``.

    The calls are recorded while the test runs and checked after it, so
    the reference adds nothing to the time a test measures itself.
    """
    seen = []

    def recording_extract(net):
        trace = real_extract(net)
        seen.append((net, trace))
        return trace

    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get("extract") is real_extract:
            monkeypatch.setattr(module, "extract", recording_extract)
    yield
    for net, trace in dict(seen).items():
        assert same_as_reference(net, trace), f"extract is not the reference on {net.widths}"
