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

A grid point is a reduced int pair (p, q), q > 0, standing for p/q. ReLU
asks one question at every knot of a unit: the sign of its value there. At
p/q a layer-i value v gives an integer N = v*D_i*q, the numerator
``evaluate`` reaches at p/q over q*D_i. So ``_relu`` walks each unit's
knots in ints, with an exact floor division per knot, and appends each new
root as a reduced int pair. ``_regrid`` sorts a layer's roots once by their
floats, orders the roots whose floats are equal exactly, and merges them
into the grid in one pass, cross-multiplying. The walk builds no
rational: ``ExtractionTrace`` keeps the grids in ints and builds
``Fraction``s only when they are read.

``_combine`` sums a row's slope jumps in one list over the grid below, so a
row costs O(|U_{i-1}|) plus the knots of the units it weights. Every grid
point is a knot of some unit below (``_regrid`` drops the rest), so a row
with no zero weight reads each point at least once anyway. The knots it
returns are the grid's own index ints, shared by every unit, so the knot
lists of a layer hold no int of their own.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain, compress, groupby, islice
from math import gcd, inf, lcm
from operator import eq, mul

from .bounds import Architecture
from .rational import Rational, RationalLike, as_rational, over_lcd
from .spline import LinearSpline

# the most knots a hidden layer may have in ``extract``, and the largest
# bound ``build`` constructs: (45, 45, 45) has 97,335 knots, the longest
# grid ``_combine`` sums over, and ``relu-knots build 45 45 45 --p 2`` run
# as a subprocess takes 0.34 to 0.45 s of wall time and peaks at 51.3 to
# 51.4 MB resident (8 runs, Python 3.11, 2 shared x86 cores)
KNOT_LIMIT = 100_000


@dataclass(frozen=True, slots=True, init=False, repr=False)
class DenseLayer:
    """Weights (rows = units) and biases of one fully-connected layer.

    The layer is held in integers: ``lcd`` is the least common denominator
    L of every weight and bias, and ``scaled_weights`` and ``scaled_biases``
    are L*weights and L*biases. That form is unique to the rationals, so two
    layers are equal, and hash alike, exactly when their weights and biases
    are equal. ``weights`` and ``biases`` build rationals on each read.
    """

    lcd: int
    scaled_weights: tuple[tuple[int, ...], ...]
    scaled_biases: tuple[int, ...]

    def __init__(
        self, weights: Iterable[Iterable[RationalLike]], biases: Iterable[RationalLike]
    ) -> None:
        self._hold_ratios(
            [as_rational(v).as_integer_ratio() for v in row] for row in (*weights, biases)
        )

    @classmethod
    def from_ratios(
        cls, weights: Iterable[Iterable[tuple[int, int]]], biases: Iterable[tuple[int, int]]
    ) -> DenseLayer:
        """``DenseLayer`` of the n/d for int pairs (n, d), d >= 1, reduced or
        not, brought to lowest terms pair by pair without building a rational."""
        rows = [list(row) for row in (*weights, biases)]
        if (least := min((d for row in rows for _, d in row), default=1)) < 1:
            raise ValueError(f"denominator must be at least 1, got {least}")
        layer = object.__new__(cls)
        layer._hold_ratios(rows)
        return layer

    @classmethod
    def from_integers(
        cls, lcd: int, weights: Iterable[Iterable[int]], biases: Iterable[int]
    ) -> DenseLayer:
        """The layer of weights/lcd and biases/lcd, for ints and lcd >= 1,
        reduced by one gcd without building a rational: cheaper than
        ``from_ratios`` on the short denominators of ``random_network``, its
        one caller (see there), but slow on long ones."""
        if lcd < 1:
            raise ValueError(f"lcd must be at least 1, got {lcd}")
        rows = tuple(map(tuple, weights))
        biases = tuple(biases)
        g = gcd(lcd, *chain.from_iterable(rows), *biases)
        if g > 1:
            rows = tuple(tuple(w // g for w in row) for row in rows)
            lcd, biases = lcd // g, tuple(b // g for b in biases)
        layer = object.__new__(cls)
        layer._hold(lcd, rows, biases)
        return layer

    def _hold_ratios(self, rows: Iterable[Iterable[tuple[int, int]]]) -> None:
        """The one pair path: rows of (n, d), d > 0, biases last, in lowest terms."""
        lcd, (*rows, biases) = over_lcd(rows)
        self._hold(lcd, tuple(rows), biases)

    def _hold(self, lcd: int, rows: tuple[tuple[int, ...], ...], biases: tuple[int, ...]) -> None:
        """Check the shape and store the integer form."""
        if not rows:
            raise ValueError("layer needs at least one unit")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("weight rows must all have the same length")
        if len(biases) != len(rows):
            raise ValueError(f"bias count {len(biases)} does not match unit count {len(rows)}")
        object.__setattr__(self, "lcd", lcd)
        object.__setattr__(self, "scaled_weights", rows)
        object.__setattr__(self, "scaled_biases", biases)

    @property
    def weights(self) -> tuple[tuple[Rational, ...], ...]:
        lcd = self.lcd
        return tuple(tuple(Rational(w, lcd) for w in row) for row in self.scaled_weights)

    @property
    def biases(self) -> tuple[Rational, ...]:
        lcd = self.lcd
        return tuple(Rational(b, lcd) for b in self.scaled_biases)

    @property
    def size(self) -> int:
        return len(self.scaled_weights)

    @property
    def input_width(self) -> int:
        return len(self.scaled_weights[0])

    def __repr__(self) -> str:
        return f"DenseLayer(weights={self.weights!r}, biases={self.biases!r})"


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
        signal = [
            pre if (pre := sum(map(mul, row, signal)) + b * den) > 0 else 0
            for row, b in zip(layer.scaled_weights, layer.scaled_biases)
        ]
        den *= layer.lcd
    out = net.output_layer
    return [
        Rational(sum(map(mul, row, signal)) + b * den, out.lcd * den)
        for row, b in zip(out.scaled_weights, out.scaled_biases)
    ]


# One spline on a layer's grid, times the layer's denominator D: its initial
# slope and intercept (ints), its knots (ascending grid indices) and the
# slope jumps at them (ints).
_Unit = tuple[int, int, list[int], list[int]]

# A layer's grid: the numerators and the denominators of its points p/q,
# each reduced with q > 0, in ascending order of p/q.
_Grid = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True, slots=True)
class ExtractionTrace:
    """The outputs and the knot union U_i of every hidden layer, in ints.

    ``grids[i - 1]`` is U_i as ``(nums, dens)``: its points nums[k]/dens[k],
    reduced with positive denominators, ascending. Each output is
    ``(slope, intercept, knots, jumps)``: the initial slope, the initial
    intercept and the slope jump at each knot, all over ``denominator``,
    and the knots as ascending indices into ``grids[-1]``. Every jump is
    nonzero. On each piece the output is (S*x + c)/denominator with int S
    and c (see ``_relu``). The properties ``per_layer_knot_union``,
    ``output_knots`` and ``output_splines`` build rationals on each read.
    """

    outputs: tuple[_Unit, ...]
    denominator: int
    grids: tuple[_Grid, ...]

    @property
    def per_layer_knot_union(self) -> tuple[tuple[Rational, ...], ...]:
        """Each hidden layer's knot union U_i, ascending."""
        return tuple(tuple(map(Rational, *grid)) for grid in self.grids)

    @property
    def output_knot_indices(self) -> list[int]:
        """The union of the outputs' knots, as ascending indices into
        ``grids[-1]``."""
        return sorted({k for _, _, knots, _ in self.outputs for k in knots})

    @property
    def output_knots(self) -> tuple[Rational, ...]:
        """The sorted union of the outputs' knots."""
        nums, dens = self.grids[-1]
        return tuple(Rational(nums[k], dens[k]) for k in self.output_knot_indices)

    @property
    def output_splines(self) -> tuple[LinearSpline, ...]:
        """The outputs as ``LinearSpline``s."""
        (nums, dens), den = self.grids[-1], self.denominator
        return tuple(
            LinearSpline(
                Rational(slope, den),
                Rational(intercept, den),
                tuple(
                    (Rational(nums[k], dens[k]), Rational(d, den)) for k, d in zip(knots, jumps)
                ),
            )
            for slope, intercept, knots, jumps in self.outputs
        )

    def output_knot_union(self) -> list[Rational]:
        return list(self.output_knots)


# A new ReLU root: a and b of its location a/b, reduced with b > 0.
_Root = tuple[int, int]


def _combine(row: tuple[int, ...], units: list[_Unit], bias: int, points: list[int]) -> _Unit:
    """``sum(row[j] * units[j]) + bias`` in ints; jumps that cancel are dropped.

    The jumps are summed in one list over the grid below, and the knots are
    the objects of ``points``, its indices, whose sum is nonzero. A row
    costs O(|U_{i-1}|) plus the knots of the units it weights.
    """
    slope, intercept = 0, bias
    jumps = [0] * len(points)
    for w, (s, c, knots, deltas) in zip(row, units):
        if w:
            slope += w * s
            intercept += w * c
            for k, d in zip(knots, deltas):
                jumps[k] += w * d
    return slope, intercept, list(compress(points, jumps)), list(filter(None, jumps))


def _relu(
    unit: _Unit, nums: tuple[int, ...], dens: tuple[int, ...], roots: list[_Root]
) -> _Unit:
    """``max(0, unit)`` on the grid of points nums[k]/dens[k]. A knot keeps
    its grid index. A root where the unit strictly changes sign is appended
    to ``roots`` as its reduced pair (a, b) alone, and keyed by len(nums) +
    its position there until ``_regrid`` places it.

    At a knot with value v, the one-sided slopes of the output are those of
    the unit where it is positive on that side, else 0, and the knot stays
    when they differ. Every jump d that ``_combine`` hands over is nonzero,
    so where v > 0 the knot stays with its jump d and where v < 0 it goes;
    only at v == 0 are the two slopes compared. A root always stays, with
    jump |slope|.

    The walk runs in ints. On each piece the unit is S*x + c with S and c
    ints: the input is 1*x + 0, and an integer combination of such pieces,
    or relu of one (the piece or 0), is one. So at a grid point p/q the
    value is N/q with N = S*p + c*q, the numerator ``evaluate`` reaches at
    p/q over q*D_i, and its sign is N's. Past a knot with jump d the
    intercept is c - d*p/q, an int again; as p and q are coprime, q divides
    d and the // is exact. A root is -c/S: (-c/g, S/g) with g = gcd(c, S)
    where the unit rises through 0 (S > 0), and (c/g, -S/g) where it falls.
    """
    slope, intercept, knots, deltas = unit
    n = len(nums)
    # left of everything the output is the unit where it is positive, else 0
    out_slope = slope if slope < 0 else 0
    out_intercept = intercept if slope < 0 else max(0, intercept) if slope == 0 else 0
    out_knots: list[int] = []
    out_jumps: list[int] = []

    # the sign at -inf (0 where the unit is flat there): a change of sign at
    # the first knot is the root on the left ray
    prev_sign, c = (slope < 0) - (slope > 0), intercept
    for k, d in zip(knots, deltas):
        p, q = nums[k], dens[k]
        v = slope * p + c * q
        if v > 0:
            if prev_sign < 0:  # rising through 0: a root at -c/slope
                out_knots.append(n + len(roots))
                out_jumps.append(slope)
                g = gcd(c, slope)
                roots.append((-c // g, slope // g))
            out_knots.append(k)
            out_jumps.append(d)
            prev_sign = 1
        elif v < 0:
            if prev_sign > 0:  # falling through 0: a root at c/-slope
                out_knots.append(n + len(roots))
                out_jumps.append(-slope)
                g = gcd(c, slope)
                roots.append((c // g, -slope // g))
            prev_sign = -1
        else:
            out_left = slope if slope < 0 else 0
            out_right = slope + d if slope + d > 0 else 0
            if out_left != out_right:
                out_knots.append(k)
                out_jumps.append(out_right - out_left)
            prev_sign = 0
        c, slope = c - d // q * p, slope + d
    if prev_sign * slope < 0:  # the root on the right ray
        out_knots.append(n + len(roots))
        out_jumps.append(abs(slope))
        g = gcd(c, slope)
        roots.append((-c // g, slope // g) if slope > 0 else (c // g, -slope // g))
    return out_slope, out_intercept, out_knots, out_jumps


def _float_at(a: int, b: int) -> float:
    """a/b rounded to a float, or -inf or inf by a's sign where that overflows."""
    try:
        return a / b
    except OverflowError:
        return -inf if a < 0 else inf


def _ascending(roots: list[_Root]) -> list[int]:
    """The positions of ``roots`` in ascending order of a/b: sorted by float
    (see ``_regrid``), and each run of equal floats by its numerators over
    the run's least common denominator. The floats are freed on return,
    before ``_regrid`` builds the next grid."""
    try:
        at = [a / b for a, b in roots]
    except OverflowError:
        at = [_float_at(a, b) for a, b in roots]
    order = sorted(range(len(roots)), key=at.__getitem__)
    ordered = [at[r] for r in order]
    if any(map(eq, ordered, islice(ordered, 1, None))):
        start = 0
        for _, run in groupby(ordered):
            end = start + sum(1 for _ in run)
            if end - start > 1:
                lcd = lcm(*(roots[r][1] for r in order[start:end]))
                order[start:end] = sorted(
                    order[start:end], key=lambda r: roots[r][0] * (lcd // roots[r][1])
                )
            start = end
    return order


def _regrid(
    grid: _Grid, roots: list[_Root], units: list[_Unit]
) -> tuple[_Grid, list[int], list[_Unit]]:
    """The next grid, its indices ``points`` and the units re-keyed onto it.

    The roots are sorted once by the float of a/b. Python rounds an int
    division correctly, and rounding is monotone, so of two roots the one
    with the smaller float is the smaller: float order decides every pair
    but those whose floats are equal (roots that coincide, that lie within
    an ulp, or whose quotients overflow to the same infinity), and each run
    of equal floats is sorted exactly, by numerators over the run's least
    common denominator. One pass then merges the roots with the grid points
    that a unit still uses, cross-multiplying: before each root a/b come
    the points p/q with p*b <= a*q, and the rest follow the last root. A
    root equal to the last pair placed, a point or a root, merges with it.
    Grid points that no unit uses any more are dropped, so every point is a
    knot of some unit, which bounds ``_combine``'s walk over the grid.

    ``points`` holds one int object per new index, and every unit's knots
    are those same objects: ``_combine`` compresses over ``points``, so the
    knot lists of the next layer and of the outputs add no int of their own.
    """
    nums, dens = grid
    n = len(nums)
    used = [False] * n
    for _, _, knots, _ in units:
        for k in knots:
            if k < n:
                used[k] = True
    order = _ascending(roots)
    key = [0] * (n + len(roots))  # old grid index or root key -> new index
    new_nums: list[int] = []
    new_dens: list[int] = []
    points: list[int] = []  # the new indices, one int object per point
    kept = [(nums[t], dens[t], t) for t in range(n) if used[t]]
    kept.append((1, 0, n))  # +inf: p*b <= a*q never holds with q = 0 < b
    i = 0
    p, q, t = kept[0]
    for r in order:
        a, b = roots[r]
        while p * b <= a * q:  # the points at or left of a/b come first
            points.append(len(new_nums))
            new_nums.append(p)
            new_dens.append(q)
            key[t] = points[-1]
            i += 1
            p, q, t = kept[i]
        if not new_nums or new_nums[-1] != a or new_dens[-1] != b:  # else it merges
            points.append(len(new_nums))
            new_nums.append(a)
            new_dens.append(b)
        key[n + r] = points[-1]
    for p, q, t in kept[i:-1]:
        points.append(len(new_nums))
        new_nums.append(p)
        new_dens.append(q)
        key[t] = points[-1]
    units = [(s, c, [key[k] for k in knots], d) for s, c, knots, d in units]
    return (tuple(new_nums), tuple(new_dens)), points, units


def extract(net: ScalarInputNetwork) -> ExtractionTrace:
    """Compute every output exactly, in ints on the final grid, and each
    hidden layer's knot union.

    The input is the line x on an empty grid. Each hidden layer combines the
    units below in integers, applies relu, and moves to a new grid; outputs
    are affine combinations without relu. The result agrees with ``evaluate``
    at every point. A hidden layer of more than ``KNOT_LIMIT`` knots raises
    ``ValueError``.
    """
    grid: _Grid = ((), ())
    points: list[int] = []
    units: list[_Unit] = [(1, 0, [], [])]
    den = 1
    grids = []
    for i, layer in enumerate(net.hidden_layers, start=1):
        roots: list[_Root] = []
        units = [
            _relu(_combine(row, units, b * den, points), *grid, roots)
            for row, b in zip(layer.scaled_weights, layer.scaled_biases)
        ]
        den *= layer.lcd
        grid, points, units = _regrid(grid, roots, units)
        if len(grid[0]) > KNOT_LIMIT:
            raise ValueError(
                f"hidden layer {i} has {len(grid[0])} knots, above the limit of {KNOT_LIMIT}"
            )
        grids.append(grid)
    out = net.output_layer
    outputs = tuple(
        _combine(row, units, b * den, points)
        for row, b in zip(out.scaled_weights, out.scaled_biases)
    )
    return ExtractionTrace(outputs, den * out.lcd, tuple(grids))
