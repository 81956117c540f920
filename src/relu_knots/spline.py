"""Exact algebra of continuous piecewise-linear functions of one variable.

A :class:`LinearSpline` stores the leftmost line (its slope, and its value
extended to x = 0) together with an ascending list of breakpoints, each
carrying the jump in slope at that location:

    f(x) = initial_slope * x + initial_intercept
           + sum over breakpoints (x_j, d_j) of d_j * max(0, x - x_j)

Continuity is structural: only slope changes are stored, so every
representable function is continuous. Construction merges breakpoints at
equal locations and drops zero jumps, so a stored breakpoint is always a
genuine knot, i.e. a first-derivative discontinuity. Two splines are equal
as dataclasses exactly when they are equal as functions.

All values are exact rationals (see ``rational``); nothing here touches floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .rational import ZERO, Rational, RationalLike, as_rational

Breakpoint = tuple[Rational, Rational]


@dataclass(frozen=True, slots=True)
class LinearSpline:
    """Canonical exact representation of a continuous piecewise-linear function."""

    initial_slope: Rational
    initial_intercept: Rational
    breakpoints: tuple[Breakpoint, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "initial_slope", as_rational(self.initial_slope))
        object.__setattr__(self, "initial_intercept", as_rational(self.initial_intercept))
        cleaned = tuple(
            (as_rational(x), as_rational(delta)) for x, delta in self.breakpoints
        )
        object.__setattr__(self, "breakpoints", cleaned)
        prev = None
        for x, delta in cleaned:
            if delta == 0:
                raise ValueError(f"zero slope jump at x = {x}; not a knot")
            if prev is not None and x <= prev:
                raise ValueError(f"breakpoints not strictly increasing at x = {x}")
            prev = x

    @classmethod
    def _unchecked(
        cls,
        initial_slope: Rational,
        initial_intercept: Rational,
        breakpoints: tuple[Breakpoint, ...],
    ) -> LinearSpline:
        """A spline from rationals already in canonical form;
        ``__post_init__`` and its checks are skipped."""
        f = object.__new__(cls)
        object.__setattr__(f, "initial_slope", initial_slope)
        object.__setattr__(f, "initial_intercept", initial_intercept)
        object.__setattr__(f, "breakpoints", breakpoints)
        return f

    @classmethod
    def line(cls, slope: RationalLike, intercept: RationalLike) -> LinearSpline:
        return cls(as_rational(slope), as_rational(intercept))

    @classmethod
    def constant(cls, value: RationalLike) -> LinearSpline:
        return cls.line(0, value)

    def __call__(self, x: RationalLike) -> Rational:
        """Exact value at x; both pieces agree at a breakpoint by continuity."""
        x = as_rational(x)
        value = self.initial_slope * x + self.initial_intercept
        for bx, delta in self.breakpoints:
            if bx >= x:
                break
            value += delta * (x - bx)
        return value

    def piece_slopes(self) -> list[Rational]:
        """Slopes of the m + 1 pieces, leftmost ray first."""
        slopes = [self.initial_slope]
        for _, delta in self.breakpoints:
            slopes.append(slopes[-1] + delta)
        return slopes

    def knots(self) -> list[Rational]:
        """Knot locations; by canonicality these are exactly the breakpoints."""
        return [x for x, _ in self.breakpoints]

    def knot_values(self) -> list[Rational]:
        """Function values at the knots, computed in one left-to-right walk."""
        values: list[Rational] = []
        slope = self.initial_slope
        prev_x = None
        value = ZERO
        for x, delta in self.breakpoints:
            if prev_x is None:
                value = self.initial_slope * x + self.initial_intercept
            else:
                value += slope * (x - prev_x)
            values.append(value)
            slope += delta
            prev_x = x
        return values

    def knot_value_range(self) -> tuple[Rational, Rational]:
        """Exact (min, max) of the function over its knot locations.

        For a piecewise-linear function the bounded oscillation attains its
        extremes at knots, so this is the oscillation range once the two
        infinite rays are excluded.
        """
        values = self.knot_values()
        if not values:
            raise ValueError("knot_value_range undefined for a spline with no knots")
        return min(values), max(values)


def affine_combine(
    terms: Iterable[tuple[RationalLike, LinearSpline]],
    constant: RationalLike = ZERO,
) -> LinearSpline:
    """Exact linear combination ``sum(a_i * f_i) + constant`` in canonical form.

    Slope jumps at shared locations are added; jumps that cancel to zero are
    dropped, which is how knots disappear under degenerate combinations.
    """
    slope = ZERO
    intercept = as_rational(constant)
    jumps: dict[Rational, Rational] = {}
    for coeff, f in terms:
        coeff = as_rational(coeff)
        if coeff == 0:
            continue
        slope += coeff * f.initial_slope
        intercept += coeff * f.initial_intercept
        for x, delta in f.breakpoints:
            jumps[x] = jumps.get(x, ZERO) + coeff * delta
    breakpoints = tuple(
        (x, jumps[x]) for x in sorted(jumps) if jumps[x] != 0
    )
    return LinearSpline(slope, intercept, breakpoints)


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
            return LinearSpline.constant(max(ZERO, f.initial_intercept))
        root = -f.initial_intercept / f.initial_slope
        events = [(root, ZERO, f.initial_slope, f.initial_slope)]
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
            events.append((first_x - first_v / s0, ZERO, s0, s0))
        for i, (x, _delta) in enumerate(bps):
            events.append((x, values[i], slopes[i], slopes[i + 1]))
            if i + 1 < len(bps):
                v_here, v_next = values[i], values[i + 1]
                if (v_here < 0 < v_next) or (v_next < 0 < v_here):
                    s = slopes[i + 1]
                    events.append((x - v_here / s, ZERO, s, s))
        last_x, last_v = bps[-1][0], values[-1]
        s_last = slopes[-1]
        if s_last != 0 and last_v != 0 and (last_v > 0) != (s_last > 0):
            events.append((last_x - last_v / s_last, ZERO, s_last, s_last))

    out_initial_slope = f.initial_slope if f.initial_slope < 0 else ZERO
    breakpoints = []
    for x, v, left, right in events:
        out_left = left if (v > 0 or (v == 0 and left < 0)) else ZERO
        out_right = right if (v > 0 or (v == 0 and right > 0)) else ZERO
        if out_right != out_left:
            breakpoints.append((x, out_right - out_left))
    first_x, first_v = events[0][0], events[0][1]
    anchor = max(ZERO, first_v)
    intercept = anchor - out_initial_slope * first_x
    return LinearSpline(out_initial_slope, intercept, tuple(breakpoints))

