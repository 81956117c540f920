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

from dataclasses import dataclass, field
from operator import mul

from .network import ScalarInputNetwork
from .rational import ZERO, Rational, RationalLike, as_rational, scaled_rows


@dataclass(frozen=True, slots=True)
class CanonicalShallowForm:
    """Sorted knots x_j, ramp slope matrix s_kj, and per-output line (c1, c0).

    ``folded_units`` lists original unit indices whose input weight was zero;
    such units are constants and were absorbed into the intercepts, since
    they contribute no knot. Duplicate knot locations are kept: the form is a
    reparameterization, not an analysis, and distinct units stay distinct.
    """

    knot_locations: tuple[Rational, ...]
    ray_slopes: tuple[tuple[Rational, ...], ...]
    line_slope: tuple[Rational, ...]
    line_intercept: tuple[Rational, ...]
    folded_units: tuple[int, ...] = ()
    # kept by ``integer_form`` on first use; it takes no part in ==, hash or repr
    _integer_form: tuple[int, tuple[int, ...], int, tuple[tuple[int, ...], ...]] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        for name in ("knot_locations", "line_slope", "line_intercept"):
            object.__setattr__(self, name, tuple(map(as_rational, getattr(self, name))))
        object.__setattr__(
            self, "ray_slopes", tuple(tuple(map(as_rational, row)) for row in self.ray_slopes)
        )
        n = len(self.knot_locations)
        if any(len(row) != n for row in self.ray_slopes):
            raise ValueError("ray_slopes rows must match the number of knots")
        p = len(self.ray_slopes)
        if len(self.line_slope) != p or len(self.line_intercept) != p:
            raise ValueError("line coefficient lengths must match the output count")
        if any(
            a > b for a, b in zip(self.knot_locations, self.knot_locations[1:])
        ):
            raise ValueError("knot locations must be non-decreasing")

    def integer_form(self) -> tuple[int, tuple[int, ...], int, tuple[tuple[int, ...], ...]]:
        """The form in integers: ``(K, K*knots, S, rows)``. K is the least
        common denominator of the knots, S that of the slopes and the line,
        and row k is S*(ray slopes of output k, line slope, line intercept)."""
        if self._integer_form is None:
            knot_lcd, (knots,) = scaled_rows([self.knot_locations])
            lcd, rows = scaled_rows(
                (*slopes, c1, c0)
                for slopes, c1, c0 in zip(self.ray_slopes, self.line_slope, self.line_intercept)
            )
            object.__setattr__(self, "_integer_form", (knot_lcd, knots, lcd, rows))
        return self._integer_form


def to_forward_facing(net: ScalarInputNetwork) -> CanonicalShallowForm:
    """Rewrite a one-hidden-layer network in forward-facing form.

    For units with input weight w != 0: x_j = -b_j / w_j, s_kj = w2_kj * |w_j|,
    and the negative-weight units contribute w2_kj * w_j to the line slope and
    w2_kj * b_j to the intercept. Units with w = 0 output the constant
    max(0, b_j) and are folded into the intercepts.
    """
    if net.depth != 1:
        raise ValueError(
            f"forward-facing form is defined for one hidden layer, got {net.depth}"
        )
    hidden = net.hidden_layers[0]
    # each read of a layer's weights or biases builds its rationals
    w1 = [w for (w,) in hidden.weights]
    b1 = hidden.biases
    w2 = net.output_layer.weights
    p = len(w2)

    line_slope = [ZERO for _ in range(p)]
    line_intercept = list(net.output_layer.biases)
    kept: list[tuple[Rational, int]] = []  # (knot location, unit index)
    folded: list[int] = []
    for j, (w, b) in enumerate(zip(w1, b1)):
        if w == 0:
            folded.append(j)
            constant = max(ZERO, b)
            for k in range(p):
                line_intercept[k] += w2[k][j] * constant
            continue
        if w < 0:
            for k in range(p):
                line_slope[k] += w2[k][j] * w
                line_intercept[k] += w2[k][j] * b
        kept.append((-b / w, j))

    kept.sort(key=lambda pair: pair[0])  # stable: ties keep unit order
    knots = tuple(x for x, _ in kept)
    ray_slopes = tuple(tuple(row[j] * abs(w1[j]) for _, j in kept) for row in w2)
    return CanonicalShallowForm(
        knot_locations=knots,
        ray_slopes=ray_slopes,
        line_slope=tuple(line_slope),
        line_intercept=tuple(line_intercept),
        folded_units=tuple(folded),
    )


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
    knot_lcd, knots, lcd, rows = form.integer_form()
    nk = n * knot_lcd
    # the ramps, then the line's x and 1, all over K*d
    terms = [r if (r := nk - xj * d) > 0 else 0 for xj in knots]
    terms += (nk, knot_lcd * d)
    den = lcd * knot_lcd * d
    return [Rational(sum(map(mul, row, terms)), den) for row in rows]
