from __future__ import annotations

import contextlib
import csv
import decimal
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from relu_knots import LinearSpline, affine_combine, relu
from relu_knots.cli import CSV_COLUMNS
from relu_knots.network import extract as real_extract

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
nonzero_rationals = rationals.filter(lambda q: q != 0)


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


def seeded_points(seed: int, count: int, denominator_limit: int = 100) -> list[Fraction]:
    rng = random.Random(seed)
    return [
        Fraction(rng.randint(-1000, 1000), rng.randint(1, denominator_limit))
        for _ in range(count)
    ]


def reference_unit_splines(net) -> list[list[LinearSpline]]:
    """The spline of every hidden unit, layer by layer, one unit at a time:
    relu of the affine combination of the layer below, the input being the
    line x."""
    layers = []
    units = [LinearSpline.line(1, 0)]
    for layer in net.hidden_layers:
        units = [
            relu(affine_combine(zip(row, units), b))
            for row, b in zip(layer.weights, layer.biases)
        ]
        layers.append(units)
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
