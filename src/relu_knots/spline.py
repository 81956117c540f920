"""Continuous piecewise-linear functions of one variable, in exact rationals.

A :class:`LinearSpline` stores the leftmost line (its slope, and its value
extended to x = 0) together with an ascending list of breakpoints, each
carrying the jump in slope at that location:

    f(x) = initial_slope * x + initial_intercept
           + sum over breakpoints (x_j, d_j) of d_j * max(0, x - x_j)

Continuity is structural: only slope changes are stored, so every
representable function is continuous. Construction rejects a zero jump and
breakpoints out of order, so a stored breakpoint is always a genuine knot,
i.e. a first-derivative discontinuity, and two splines are equal as
dataclasses exactly when they are equal as functions.

``extract`` computes in ints and builds splines only on request
(``ExtractionTrace.output_splines``) for the tests and the benchmark to read.
A line is ``LinearSpline(slope, intercept)``.
All values are exact rationals (see ``rational``); nothing here touches floats.
"""

from __future__ import annotations

from dataclasses import dataclass

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
