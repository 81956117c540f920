"""Generators for networks whose spline attains the knot bound exactly.

The recipe: make the first layer's units combine into a sawtooth wave (all
slopes alternating in sign, all valleys level, all peaks level), then let
each further layer slice that wave at evenly spaced heights so every unit
keeps the incoming knots on one side and creates one new knot per affine
piece. The final hidden layer does not need to reproduce a sawtooth, only to
keep every knot and create new ones, which two units with mirrored signs
already achieve. Every builder returns exact rational parameters, and
``build_tight_network`` re-extracts the result to check that the advertised
knot count is actually reached.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import Architecture, knot_bound, tightness_eligibility
from .network import DenseLayer, ScalarInputNetwork, extract
from .rational import Rational, RationalLike, as_rational

# Output-layer magnification of the last sawtooth; any positive value works,
# and the tests pin the reference network built with this one.
FINAL_LAYER_SCALE = 7

# Heights of the first sawtooth's valleys and peaks, fixed by the first-layer
# parameters below (the x2 weight scaling makes the wave span exactly 1).
_FIRST_RANGE = (4, 5)


@dataclass(frozen=True, slots=True)
class SawtoothWitness:
    """Combination weights certifying which mix of a layer's units is a sawtooth.

    ``combination_weights[j]`` multiplies unit j of the layer just built;
    ``oscillation_range`` is that combination's exact (min, max) over its
    knots.
    """

    combination_weights: tuple[Rational, ...]
    oscillation_range: tuple[Rational, Rational]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "combination_weights", tuple(as_rational(a) for a in self.combination_weights)
        )
        low, high = self.oscillation_range
        object.__setattr__(self, "oscillation_range", (as_rational(low), as_rational(high)))

    @property
    def span(self) -> Rational:
        low, high = self.oscillation_range
        return high - low


def _alternating_weights(n: int) -> list[RationalLike]:
    # 3/2, -1, 1, -1, 1, ...: cumulative sums walk -1 -> 1/2 -> -1/2 -> 1/2 ...
    weights = []
    for k in range(1, n + 1):
        if k == 1:
            weights.append(Rational(3, 2))
        elif k % 2 == 0:
            weights.append(-1)
        else:
            weights.append(1)
    return weights


def build_first_layer_sawtooth(n1: int) -> tuple[DenseLayer, SawtoothWitness]:
    """First hidden layer whose units combine into a sawtooth with n1 knots.

    Unit j is a ramp with its knot at x = j - 1; unit 3 is reflected so the
    combination can slope downward again after its first rise, which is what
    makes alternation possible at all (and why n1 >= 3 is required).
    """
    if n1 < 3:
        raise ValueError(f"a sawtooth needs at least 3 first-layer units, got {n1}")
    weights = tuple((-1,) if j == 3 else (1,) for j in range(1, n1 + 1))
    biases = tuple(j - 1 if j == 3 else -(j - 1) for j in range(1, n1 + 1))
    alphas = tuple(2 * a for a in _alternating_weights(n1))
    witness = SawtoothWitness(alphas, _FIRST_RANGE)
    return DenseLayer(weights, biases), witness


def build_inductive_layer(
    prev: SawtoothWitness, n_i: int
) -> tuple[DenseLayer, SawtoothWitness]:
    """Hidden layer turning a sawtooth input into a sawtooth with maximal knots.

    Each unit k sees the previous sawtooth normalized to [0, 1] and offset by
    the unique threshold (2k - 1) / (2 n_i + 1), so it keeps every incoming
    knot on its positive side and creates one knot per piece; unit 3 is
    sign-flipped to keep the knots the others lose. The certified output
    combination oscillates between 4/(2 n_i + 1) and 5/(2 n_i + 1), moving by
    exactly 1/(2 n_i + 1) between consecutive knots.
    """
    if n_i < 3:
        raise ValueError(f"an inductive sawtooth layer needs at least 3 units, got {n_i}")
    low, _high = prev.oscillation_range
    span = prev.span
    if span <= 0:
        raise ValueError("previous sawtooth has a degenerate oscillation range")
    denom = 2 * n_i + 1
    weights = []
    biases = []
    for k in range(1, n_i + 1):
        sign = -1 if k == 3 else 1
        weights.append(tuple(sign * a / span for a in prev.combination_weights))
        biases.append(-sign * (low / span + Rational(2 * k - 1, denom)))
    witness = SawtoothWitness(
        tuple(_alternating_weights(n_i)), (Rational(4, denom), Rational(5, denom))
    )
    return DenseLayer(tuple(weights), tuple(biases)), witness


def build_final_layer(prev: SawtoothWitness, n_l: int) -> DenseLayer:
    """Last hidden layer: keep every knot, create the maximum, skip the sawtooth.

    Unit k applies sign (-1)^(k-1) to the scaled incoming sawtooth with a
    threshold at fraction k / (n_l + 1) of the oscillation range. Alternating
    signs preserve peak knots (odd units) and valley knots (even units), the
    strictly interior thresholds are all distinct, and so each unit creates
    one new knot per piece of the incoming wave, all at distinct locations.
    """
    if n_l < 2:
        raise ValueError(
            f"the final hidden layer needs at least 2 units to both keep and "
            f"create knots, got {n_l}"
        )
    low, _high = prev.oscillation_range
    span = prev.span
    if span <= 0:
        raise ValueError("previous sawtooth has a degenerate oscillation range")
    weights = []
    biases = []
    for k in range(1, n_l + 1):
        sign = -1 if k % 2 == 0 else 1
        threshold = low + Rational(k, n_l + 1) * span
        weights.append(tuple(sign * FINAL_LAYER_SCALE * a for a in prev.combination_weights))
        biases.append(-sign * FINAL_LAYER_SCALE * threshold)
    return DenseLayer(tuple(weights), tuple(biases))


def _distinct_knot_layer(n1: int) -> DenseLayer:
    # One knot per unit at x = 0, ..., n1 - 1; enough when there are no
    # further hidden layers.
    weights = tuple((1,) for _ in range(n1))
    biases = tuple(-(j - 1) for j in range(1, n1 + 1))
    return DenseLayer(weights, biases)


def _output_layer(n_last: int, p: int) -> DenseLayer:
    # Signs (-1)^(j+k) and biases k - 1; any choice works provided no slope
    # jump cancels, which build_tight_network checks after extraction.
    weights = tuple(
        tuple((-1) ** (j + k) for j in range(1, n_last + 1))
        for k in range(1, p + 1)
    )
    biases = tuple(k - 1 for k in range(1, p + 1))
    return DenseLayer(weights, biases)


def build_tight_network(arch: Architecture) -> ScalarInputNetwork:
    """A network of the given shape whose outputs have exactly the bound's knots."""
    reason = tightness_eligibility(arch)
    if reason is not None:
        raise ValueError(f"bound not attainable for widths {arch.widths}: {reason}")

    widths = arch.widths
    if len(widths) == 1:
        hidden: list[DenseLayer] = [_distinct_knot_layer(widths[0])]
    else:
        first, witness = build_first_layer_sawtooth(widths[0])
        hidden = [first]
        for n_i in widths[1:-1]:
            layer, witness = build_inductive_layer(witness, n_i)
            hidden.append(layer)
        hidden.append(build_final_layer(witness, widths[-1]))
    net = ScalarInputNetwork(tuple(hidden), _output_layer(widths[-1], arch.output_dim))

    expected = knot_bound(arch)
    trace = extract(net)
    count = len(trace.grids[-1][0])  # the points of the final grid
    for k, (_, _, knots, _) in enumerate(trace.outputs):
        if len(knots) != count:  # distinct indices into the final grid
            raise RuntimeError(f"output {k} cancelled a knot: {len(knots)} of {count} kept")
    if count != expected:
        raise RuntimeError(f"construction produced {count} knots, expected {expected}")
    return net


def example_tight_network() -> ScalarInputNetwork:
    """The bundled reference network: widths (6, 3, 2), two outputs, 83 knots."""
    return build_tight_network(Architecture((6, 3, 2), output_dim=2))
