"""Forward-facing reparameterization of single-hidden-layer networks.

Any shallow scalar-input ReLU network can be rewritten so that every unit is
a shifted ramp max(0, x - x_j) opening to the right, plus one explicit line.
The rewrite rests on the identity max(0, x) = max(0, -x) + x: units whose
input weight is negative have their ramp reflected, and the linear remainder
is absorbed into the line. The parameters are then directly interpretable:
x_j is the knot each unit contributes, s_kj the slope its ramp adds to output
k, and the line (c1, c0) completes the equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .network import ScalarInputNetwork
from .rational import Rational, RationalLike, as_rational, over_lcd


@dataclass(frozen=True, slots=True)
class CanonicalShallowForm:
    """Sorted knots x_j, ramp slope matrix s_kj, and per-output line (c1, c0).

    The form is held in integers, in lowest terms, as ``DenseLayer`` holds a
    layer: ``knot_lcd`` K is the least common denominator of the knots and
    ``scaled_knots`` holds K*x_j; ``lcd`` S is that of the slopes and the
    line, and row k of ``scaled_rows`` is S*(s_k1, ..., s_kn, c1_k, c0_k).
    ``knot_locations``, ``ray_slopes``, ``line_slope`` and ``line_intercept``
    build rationals on each read.

    ``folded_units`` lists original unit indices whose input weight was zero;
    such units are constants and were absorbed into the intercepts, since
    they contribute no knot. Duplicate knot locations are kept: the form is a
    reparameterization, not an analysis, and distinct units stay distinct.
    """

    knot_lcd: int
    scaled_knots: tuple[int, ...]
    lcd: int
    scaled_rows: tuple[tuple[int, ...], ...]
    folded_units: tuple[int, ...] = ()

    @property
    def knot_locations(self) -> tuple[Rational, ...]:
        return tuple(Rational(x, self.knot_lcd) for x in self.scaled_knots)

    @property
    def ray_slopes(self) -> tuple[tuple[Rational, ...], ...]:
        lcd = self.lcd
        return tuple(tuple(Rational(s, lcd) for s in row[:-2]) for row in self.scaled_rows)

    @property
    def line_slope(self) -> tuple[Rational, ...]:
        return tuple(Rational(row[-2], self.lcd) for row in self.scaled_rows)

    @property
    def line_intercept(self) -> tuple[Rational, ...]:
        return tuple(Rational(row[-1], self.lcd) for row in self.scaled_rows)


def to_forward_facing(net: ScalarInputNetwork) -> CanonicalShallowForm:
    """Rewrite a one-hidden-layer network in forward-facing form.

    For units with input weight w != 0: x_j = -b_j / w_j, s_kj = w2_kj * |w_j|,
    and the negative-weight units contribute w2_kj * w_j to the line slope and
    w2_kj * b_j to the intercept. Units with w = 0 output the constant
    max(0, b_j) and are folded into the intercepts.

    The rewrite runs on the layers' ints: with w_j = W_j/L1, b_j = B_j/L1 and
    w2_kj = V_kj/L2, x_j = -B_j/W_j, and every slope and line coefficient is
    an int over L1*L2; ``over_lcd`` brings each part to lowest terms.
    """
    if net.depth != 1:
        raise ValueError(
            f"forward-facing form is defined for one hidden layer, got {net.depth}"
        )
    hidden, out = net.hidden_layers[0], net.output_layer
    v = out.scaled_weights
    # L1*L2*(c1_k, c0_k) for each output k
    line = [[0, c * hidden.lcd] for c in out.scaled_biases]
    kept: list[tuple[int, int]] = []  # (unit index, |W_j|)
    knots: list[tuple[int, int]] = []  # x_j = -B_j/W_j over |W_j|
    folded: list[int] = []
    for j, ((w,), b) in enumerate(zip(hidden.scaled_weights, hidden.scaled_biases)):
        if w == 0:
            folded.append(j)
            if b > 0:
                for row, coeffs in zip(v, line):
                    coeffs[1] += row[j] * b
            continue
        if w < 0:
            for row, coeffs in zip(v, line):
                coeffs[0] += row[j] * w
                coeffs[1] += row[j] * b
        kept.append((j, abs(w)))
        knots.append((-b if w > 0 else b, abs(w)))

    knot_lcd, (scaled_knots,) = over_lcd([knots])
    units = sorted(zip(scaled_knots, kept))  # tied knots sort by unit index
    lcd = hidden.lcd * out.lcd
    lcd, scaled_rows = over_lcd(
        [(row[j] * w, lcd) for _, (j, w) in units] + [(c, lcd) for c in coeffs]
        for row, coeffs in zip(v, line)
    )
    scaled_knots = tuple(x for x, _ in units)
    return CanonicalShallowForm(knot_lcd, scaled_knots, lcd, scaled_rows, tuple(folded))


def eval_canonical(form: CanonicalShallowForm, x: RationalLike) -> list[Rational]:
    """Exact evaluation of the forward-facing form at x.

    The evaluation runs in integers and divides once per output. With
    x = n/d, the knots scaled by their least common denominator K give each
    ramp max(0, x - x_j) as the integer max(0, n*K - K*x_j*d) over K*d; the
    slopes and the line are scaled by their own LCD S, so every output is one
    integer over S*K*d. This is exact because the ramps are positively
    homogeneous: max(0, L*z) = L*max(0, z) for L > 0.
    """
    x = as_rational(x)
    n, d = x.numerator, x.denominator
    knot_lcd = form.knot_lcd
    nk = n * knot_lcd
    # the ramps, then the line's x and 1, all over K*d
    terms = [r if (r := nk - xj * d) > 0 else 0 for xj in form.scaled_knots]
    terms += (nk, knot_lcd * d)
    den = form.lcd * knot_lcd * d
    return [Rational(sum(map(mul, row, terms)), den) for row in form.scaled_rows]
