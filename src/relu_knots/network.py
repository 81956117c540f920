"""Dense scalar-input ReLU networks and exact spline extraction.

A network maps one real input through fully-connected ReLU layers to p
affine outputs. Because each unit applies max(0, .) to an affine combination
of piecewise-linear functions, every intermediate signal is a linear spline;
``extract`` computes those splines exactly, layer by layer, so that knots can
be counted rather than estimated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

from .bounds import Architecture
from .rational import Rational, RationalLike, as_rational, make_rational, scaled_rows
from .spline import LinearSpline, VectorSpline, affine_combine, relu


@dataclass(frozen=True, slots=True)
class DenseLayer:
    """Weights (rows = units) and biases of one fully-connected layer."""

    weights: tuple[tuple[Rational, ...], ...]
    biases: tuple[Rational, ...]
    # kept by ``integer_form`` on first use; it takes no part in ==, hash, repr or JSON
    _integer_form: tuple[int, tuple[tuple[int, ...], ...], tuple[int, ...]] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        rows = tuple(tuple(as_rational(w) for w in row) for row in self.weights)
        object.__setattr__(self, "weights", rows)
        object.__setattr__(self, "biases", tuple(as_rational(b) for b in self.biases))
        if not rows:
            raise ValueError("layer needs at least one unit")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("weight rows must all have the same length")
        if len(self.biases) != len(rows):
            raise ValueError(
                f"bias count {len(self.biases)} does not match unit count {len(rows)}"
            )

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def input_width(self) -> int:
        return len(self.weights[0])

    def integer_form(self) -> tuple[int, tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """The layer in integers: ``(L, L*weights, L*biases)``, where L is the
        least common denominator of every weight and bias."""
        if self._integer_form is None:
            lcd, (*rows, biases) = scaled_rows((*self.weights, self.biases))
            object.__setattr__(self, "_integer_form", (lcd, tuple(rows), biases))
        return self._integer_form


@dataclass(frozen=True, slots=True)
class ScalarInputNetwork:
    """Immutable deep ReLU network from one real input to p affine outputs."""

    hidden_layers: tuple[DenseLayer, ...]
    output_layer: DenseLayer

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_layers", tuple(self.hidden_layers))
        if not self.hidden_layers:
            raise ValueError("network needs at least one hidden layer")
        if self.hidden_layers[0].input_width != 1:
            raise ValueError("first hidden layer must take a single scalar input")
        prev = self.hidden_layers[0]
        for i, layer in enumerate(self.hidden_layers[1:], start=2):
            if layer.input_width != prev.size:
                raise ValueError(
                    f"hidden layer {i} expects {layer.input_width} inputs, "
                    f"previous layer has {prev.size} units"
                )
            prev = layer
        if self.output_layer.input_width != prev.size:
            raise ValueError(
                f"output layer expects {self.output_layer.input_width} inputs, "
                f"final hidden layer has {prev.size} units"
            )

    @property
    def depth(self) -> int:
        return len(self.hidden_layers)

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(layer.size for layer in self.hidden_layers)

    @property
    def output_dim(self) -> int:
        return self.output_layer.size

    @property
    def architecture(self) -> Architecture:
        return Architecture(self.widths, output_dim=self.output_dim)


def evaluate(net: ScalarInputNetwork, x: RationalLike) -> list[Rational]:
    """Exact forward pass at one input value.

    The pass runs in integers and divides once per output. The signal is a
    list of integer numerators s over one common denominator D, starting
    from x = s/D. A layer in its integer form (L, L*W, L*b) maps it to
    relu(L*W s + L*b D) over L*D. This is exact because relu is positively
    homogeneous: relu(L*z) = L*relu(z) for L > 0.
    """
    x = as_rational(x)
    signal = [x.numerator]
    den = x.denominator
    for layer in net.hidden_layers:
        lcd, rows, biases = layer.integer_form()
        signal = [
            pre if (pre := sum(map(mul, row, signal)) + b * den) > 0 else 0
            for row, b in zip(rows, biases)
        ]
        den *= lcd
    lcd, rows, biases = net.output_layer.integer_form()
    return [
        make_rational(sum(map(mul, row, signal)) + b * den, lcd * den)
        for row, b in zip(rows, biases)
    ]


@dataclass(frozen=True, slots=True)
class ExtractionTrace:
    """Everything the layer-by-layer extraction produced."""

    per_layer_neuron_splines: tuple[VectorSpline, ...]
    output_splines: VectorSpline
    per_layer_knot_union: tuple[tuple[Rational, ...], ...]

    def output_knot_union(self) -> list[Rational]:
        return self.output_splines.knot_union()


def extract(net: ScalarInputNetwork) -> ExtractionTrace:
    """Compute the exact spline of every unit and of every output.

    Unit k of the first layer is relu of the input line; deeper units apply
    relu to the affine combination of the previous layer's splines; outputs
    are affine combinations without relu. The result agrees with ``evaluate``
    at every point.
    """
    per_layer: list[VectorSpline] = []
    unions: list[tuple[Rational, ...]] = []
    current: list[LinearSpline] = []
    for i, layer in enumerate(net.hidden_layers):
        if i == 0:
            current = [
                relu(LinearSpline.line(row[0], b))
                for row, b in zip(layer.weights, layer.biases)
            ]
        else:
            previous = current
            current = [
                relu(affine_combine(zip(row, previous), b))
                for row, b in zip(layer.weights, layer.biases)
            ]
        vector = VectorSpline(tuple(current))
        per_layer.append(vector)
        unions.append(tuple(vector.knot_union()))
    outputs = VectorSpline(
        tuple(
            affine_combine(zip(row, current), b)
            for row, b in zip(net.output_layer.weights, net.output_layer.biases)
        )
    )
    return ExtractionTrace(tuple(per_layer), outputs, tuple(unions))
