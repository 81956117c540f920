"""Dense scalar-input ReLU networks and exact spline extraction.

A network maps one real input through fully-connected ReLU layers to p
affine outputs. Because each unit applies max(0, .) to an affine combination
of piecewise-linear functions, every intermediate signal is a linear spline;
``extract`` computes those splines exactly, layer by layer, so that knots can
be counted rather than estimated.

Every knot of layer i is a knot of layer i-1 that was kept, or a new ReLU
root. So ``extract`` keeps one sorted grid per layer, the union U_i of its
units' knots, and a unit is its knots as indices into that grid with
integer slopes over one denominator per layer, D_i = L_1 ... L_i.

ReLU asks one question at every knot of a unit: the sign of its value
there. At a grid point p/q (reduced, q > 0) a layer-i value v gives an
integer N = v*D_i*q, the numerator ``evaluate`` reaches at p/q over
q*D_i. So ``_relu`` walks each unit's knots in ints, with an exact floor
division per knot, and builds a rational only for a new root.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import mul

from .bounds import Architecture
from .rational import Rational, RationalLike, as_rational, scaled_rows
from .spline import LinearSpline

# the most knots a hidden layer may have in ``extract``, and the largest
# bound ``build`` constructs: (45, 45, 45) has 97,335 knots and builds in
# 3.5 s and 90 MB on one x86 core
KNOT_LIMIT = 100_000


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
        Rational(sum(map(mul, row, signal)) + b * den, lcd * den)
        for row, b in zip(rows, biases)
    ]


# One spline on a layer's grid, times the layer's denominator D: its initial
# slope and intercept (ints), its knots (ascending grid indices) and the
# slope jumps at them (ints).
_Unit = tuple[int, int, list[int], list[int]]


@dataclass(frozen=True, slots=True)
class ExtractionTrace:
    """The outputs, the knot union U_i of every hidden layer, and the union
    of the outputs' knots.

    Each output is ``(slope, intercept, knots, jumps)`` in ints: the initial
    slope, the initial intercept and the slope jump at each knot, all over
    ``denominator``, and the knots as ascending indices into
    ``per_layer_knot_union[-1]``. Every jump is nonzero. On each piece the
    output is (S*x + c)/denominator with int S and c (see ``_relu``).
    """

    outputs: tuple[_Unit, ...]
    denominator: int
    per_layer_knot_union: tuple[tuple[Rational, ...], ...]
    output_knots: tuple[Rational, ...]

    @property
    def output_splines(self) -> tuple[LinearSpline, ...]:
        """The outputs as ``LinearSpline``s, built on each read."""
        grid, den = self.per_layer_knot_union[-1], self.denominator
        return tuple(
            LinearSpline(
                Rational(slope, den),
                Rational(intercept, den),
                tuple((grid[k], Rational(d, den)) for k, d in zip(knots, jumps)),
            )
            for slope, intercept, knots, jumps in self.outputs
        )

    def output_knot_union(self) -> list[Rational]:
        return list(self.output_knots)


# A new ReLU root: its location, and the grid range [lo, hi) of the points
# strictly between the neighbouring knots of its unit.
_Root = tuple[Rational, int, int]


def _combine(row: tuple[int, ...], units: list[_Unit], bias: int) -> _Unit:
    """``sum(row[j] * units[j]) + bias`` in ints; jumps that cancel are dropped."""
    slope, intercept = 0, bias
    jumps: dict[int, int] = {}
    for w, (s, c, knots, deltas) in zip(row, units):
        if w:
            slope += w * s
            intercept += w * c
            for k, d in zip(knots, deltas):
                jumps[k] = jumps.get(k, 0) + w * d
    knots = sorted(k for k, d in jumps.items() if d)
    return slope, intercept, knots, [jumps[k] for k in knots]


def _relu(unit: _Unit, nums: list[int], dens: list[int], roots: list[_Root]) -> _Unit:
    """``max(0, unit)`` on the grid of points nums[k]/dens[k]. A knot keeps
    its grid index. A root where the unit strictly changes sign is appended
    to ``roots`` and keyed by len(nums) + its position there, until
    ``_regrid`` places it.

    At a knot with value v, the one-sided slopes of the output are those of
    the unit where it is positive on that side, else 0, and the knot stays
    when they differ. A root always stays, with jump |slope|.

    The walk runs in ints. On each piece the unit is S*x + c with S and c
    ints: the input is 1*x + 0, and an integer combination of such pieces,
    or relu of one (the piece or 0), is one. So at a grid point p/q
    (reduced, q > 0) the value is N/q with N = S*p + c*q, the numerator
    ``evaluate`` reaches at p/q over q*D_i, and its sign is N's. Past a knot
    with jump d the intercept is c - d*p/q, an int again; as p and q are
    coprime, q divides d and the // is exact. A root is -c/S, the only
    rational the walk builds.
    """
    slope, intercept, knots, deltas = unit
    n = len(nums)
    # left of everything the output is the unit where it is positive, else 0
    out_slope = slope if slope < 0 else 0
    out_intercept = intercept if slope < 0 else max(0, intercept) if slope == 0 else 0
    out_knots: list[int] = []
    out_jumps: list[int] = []

    def root(lo: int, hi: int) -> None:  # -c/slope, on the current piece
        out_knots.append(n + len(roots))
        out_jumps.append(abs(slope))
        roots.append((Rational(-c, slope), lo, hi))

    # the sign at -inf (0 where the unit is flat there): a change of sign at
    # the first knot is the root on the left ray
    prev_k, c, prev_sign = -1, intercept, (slope < 0) - (slope > 0)
    for k, d in zip(knots, deltas):
        p, q = nums[k], dens[k]
        v = slope * p + c * q
        sign = (v > 0) - (v < 0)
        if sign * prev_sign < 0:
            root(prev_k + 1, k)
        right = slope + d
        out_left = slope if sign > 0 or (sign == 0 and slope < 0) else 0
        out_right = right if sign > 0 or (sign == 0 and right > 0) else 0
        if out_left != out_right:
            out_knots.append(k)
            out_jumps.append(out_right - out_left)
        prev_k, c, prev_sign, slope = k, c - d // q * p, sign, right
    if prev_sign * slope < 0:  # the root on the right ray
        root(prev_k + 1, n)
    return out_slope, out_intercept, out_knots, out_jumps


def _regrid(
    grid: list[Rational], roots: list[_Root], units: list[_Unit]
) -> tuple[list[Rational], list[_Unit]]:
    """The next grid, and the units re-keyed onto it.

    Each root is found by bisection inside its range. A root equal to a grid
    point is that point; the others are sorted within their grid cell. Grid
    points that no unit uses any more are dropped.
    """
    n = len(grid)
    used = [False] * n
    for _, _, knots, _ in units:
        for k in knots:
            if k < n:
                used[k] = True
    cells: dict[int, list[tuple[Rational, int]]] = {}  # new roots by grid cell
    on_grid = []
    for r, (x, lo, hi) in enumerate(roots, start=n):
        t = bisect_left(grid, x, lo, hi)
        if t < hi and grid[t] == x:
            used[t] = True
            on_grid.append((r, t))
        else:
            cells.setdefault(t, []).append((x, r))
    key = [0] * (n + len(roots))  # old grid index or root key -> new index
    points: list[Rational] = []
    for t in range(n + 1):
        for x, r in sorted(cells.get(t, ())):
            if not points or points[-1] != x:
                points.append(x)
            key[r] = len(points) - 1
        if t < n and used[t]:
            key[t] = len(points)
            points.append(grid[t])
    for r, t in on_grid:
        key[r] = key[t]
    return points, [(s, c, [key[k] for k in knots], d) for s, c, knots, d in units]


def extract(net: ScalarInputNetwork) -> ExtractionTrace:
    """Compute every output exactly, in ints on the final grid, and each
    hidden layer's knot union.

    The input is the line x on an empty grid. Each hidden layer combines the
    units below in integers, applies relu, and moves to a new grid; outputs
    are affine combinations without relu, and the union of their knots is
    read off the final grid by index. The result agrees with ``evaluate``
    at every point. A hidden layer of more than ``KNOT_LIMIT`` knots raises
    ``ValueError``.
    """
    grid: list[Rational] = []
    units: list[_Unit] = [(1, 0, [], [])]
    den = 1
    unions = []
    for i, layer in enumerate(net.hidden_layers, start=1):
        lcd, rows, biases = layer.integer_form()
        nums = [x.numerator for x in grid]
        dens = [x.denominator for x in grid]
        roots: list[_Root] = []
        units = [
            _relu(_combine(row, units, b * den), nums, dens, roots)
            for row, b in zip(rows, biases)
        ]
        del nums, dens  # not kept alive while the next grid is built
        den *= lcd
        grid, units = _regrid(grid, roots, units)
        if len(grid) > KNOT_LIMIT:
            raise ValueError(
                f"hidden layer {i} has {len(grid)} knots, above the limit of {KNOT_LIMIT}"
            )
        unions.append(tuple(grid))
    lcd, rows, biases = net.output_layer.integer_form()
    outputs = tuple(_combine(row, units, b * den) for row, b in zip(rows, biases))
    return ExtractionTrace(
        outputs,
        den * lcd,
        tuple(unions),
        tuple(grid[k] for k in sorted({k for _, _, knots, _ in outputs for k in knots})),
    )
