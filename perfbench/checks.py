"""Correctness checks computed apart from the program under test.

Nothing here imports ``relu_knots``. The knot bound is folded from the
formula in PAPER.md, splines are rebuilt from their exported rational
columns, and the exact point oracle (the program's ``evaluate``, or the
plain Fraction forward pass below) is passed in as a callable ``F`` that
maps a rational x to the list of output values.

Every checker returns a list of problems; an empty list means the check
passed.
"""

from __future__ import annotations

import csv
import io
import random
from bisect import bisect_right
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction as Q
from typing import Callable, Sequence

Oracle = Callable[[Q], Sequence[Q]]


def bound_prefixes(widths: Sequence[int]) -> list[int]:
    """Per-layer knot bounds: the fold of m -> (n + 1) m + n from m = 0."""
    prefixes, m = [], 0
    for n in widths:
        m = (n + 1) * m + n
        prefixes.append(m)
    return prefixes


def forward(layers: Sequence[tuple[list[list[Q]], list[Q]]], x: Q) -> list[Q]:
    """Plain Fraction forward pass; the last (weights, biases) pair is the
    affine output layer, every earlier one is followed by ReLU."""
    signal = [Q(x)]
    for i, (weights, biases) in enumerate(layers):
        pre = [sum((w * v for w, v in zip(row, signal)), b) for row, b in zip(weights, biases)]
        signal = pre if i == len(layers) - 1 else [max(Q(0), v) for v in pre]
    return signal


@dataclass
class Table:
    """One output's spline as exported: knots (x, value, left slope, right
    slope) plus the two rays as (slope, value of the ray line at x = 0)."""

    knots: list[tuple[Q, Q, Q, Q]]
    left_ray: tuple[Q, Q]
    right_ray: tuple[Q, Q]

    def xs(self) -> list[Q]:
        return [k[0] for k in self.knots]

    def __call__(self, x: Q) -> Q:
        """The function the table describes, rebuilt from its values."""
        knots = self.knots
        if not knots or x <= knots[0][0]:
            slope, at_zero = self.left_ray
            return slope * x + at_zero
        if x >= knots[-1][0]:
            slope, at_zero = self.right_ray
            return slope * x + at_zero
        i = bisect_right(self.xs(), x) - 1
        (x0, v0, _, _), (x1, v1, _, _) = knots[i], knots[i + 1]
        return v0 + (v1 - v0) * (x - x0) / (x1 - x0)


def parse_csv(text: str) -> tuple[list[Table], list[str]]:
    """Tables per output from ``analyze --csv`` text, plus format problems.

    Only the rational columns build the tables; each decimal column must
    agree with its rational column to the 20 significant digits it claims.
    """
    problems: list[str] = []
    rows = list(csv.DictReader(io.StringIO(text)))
    grouped: dict[int, list[dict]] = {}
    for row in rows:
        grouped.setdefault(int(row["output_index"]), []).append(row)
    tables = []
    for k in sorted(grouped):
        group = grouped[k]
        if len(group) < 2 or group[0]["x_rational"] != "-inf" or group[-1]["x_rational"] != "+inf":
            problems.append(f"output {k}: ray rows missing")
            continue
        knots = []
        for row in group[1:-1]:
            x, v = Q(row["x_rational"]), Q(row["value_rational"])
            knots.append((x, v, Q(row["left_slope_rational"]), Q(row["right_slope_rational"])))
            for col, exact in (("x_decimal", x), ("value_decimal", v)):
                if abs(Q(Decimal(row[col])) - exact) > abs(exact) * Q(1, 10**18) + Q(1, 10**40):
                    problems.append(f"output {k}: {col} {row[col]} != {exact}")
        rays = [(Q(r["left_slope_rational"]), Q(r["value_rational"])) for r in (group[0], group[-1])]
        for r in (group[0], group[-1]):
            if r["left_slope_rational"] != r["right_slope_rational"]:
                problems.append(f"output {k}: ray row with two slopes")
        tables.append(Table(knots, rays[0], rays[1]))
    return tables, problems


def check_table(table: Table, k: int = 0) -> list[str]:
    """Internal consistency: increasing knots, each a genuine slope change,
    and every piece's slope equal to the one its end values give."""
    problems = []
    knots = table.knots
    for (x, v, left, right) in knots:
        if left == right:
            problems.append(f"output {k}: no slope change at listed knot {x}")
    for (x0, v0, _, r0), (x1, v1, l1, _) in zip(knots, knots[1:]):
        if x1 <= x0:
            problems.append(f"output {k}: knots not increasing at {x1}")
            continue
        slope = (v1 - v0) / (x1 - x0)
        if not (slope == r0 == l1):
            problems.append(f"output {k}: piece [{x0}, {x1}] slope {slope} vs {r0}, {l1}")
    if knots:
        for (slope, at_zero), (x, v, left, right), side in (
            (table.left_ray, knots[0], "left"),
            (table.right_ray, knots[-1], "right"),
        ):
            if slope * x + at_zero != v or slope != (left if side == "left" else right):
                problems.append(f"output {k}: {side} ray does not meet knot {x}")
    elif table.left_ray != table.right_ray:
        problems.append(f"output {k}: knotless spline with two different rays")
    return problems


def smallest_gap(tables: Sequence[Table]) -> Q:
    xs = sorted({x for t in tables for x in t.xs()})
    gaps = [b - a for a, b in zip(xs, xs[1:])]
    return min(gaps) if gaps else Q(1)


def check_knots(F: Oracle, tables: Sequence[Table], picks: Sequence[tuple[int, int]]) -> list[str]:
    """At each picked (output, knot index), exact finite differences of F at
    h below half the smallest gap show the listed value and both slopes,
    and the slopes differ."""
    h = smallest_gap(tables) / 3
    problems = []
    for k, i in picks:
        x, v, left, right = tables[k].knots[i]
        f0, fl, fr = F(x)[k], F(x - h)[k], F(x + h)[k]
        got_left, got_right = (f0 - fl) / h, (fr - f0) / h
        if f0 != v:
            problems.append(f"output {k}: value at knot {x} is {f0}, listed {v}")
        if (got_left, got_right) != (left, right):
            problems.append(
                f"output {k}: slopes at {x} are {got_left}, {got_right}; listed {left}, {right}"
            )
        if got_left == got_right:
            problems.append(f"output {k}: no slope change at {x}")
    return problems


def interior_point(rng: random.Random, a: Q, b: Q) -> Q:
    """A seeded rational strictly between a and b."""
    return a + (b - a) * Q(rng.randint(1, 999), 1000)


def check_pieces(
    F: Oracle, tables: Sequence[Table], picks: Sequence[tuple[int, int]], rng: random.Random
) -> list[str]:
    """For each picked (output, piece index) between two knots, F at a seeded
    interior point is collinear with F at the piece's ends, and equals the
    rebuilt table there."""
    problems = []
    for k, i in picks:
        (x0, _, _, _), (x1, _, _, _) = tables[k].knots[i], tables[k].knots[i + 1]
        p = interior_point(rng, x0, x1)
        f0, f1, fp = F(x0)[k], F(x1)[k], F(p)[k]
        if fp != f0 + (f1 - f0) * (p - x0) / (x1 - x0):
            problems.append(f"output {k}: F not linear on [{x0}, {x1}] (kink near {p})")
        if tables[k](p) != fp:
            problems.append(f"output {k}: table gives {tables[k](p)} at {p}, F gives {fp}")
    return problems


def check_rebuild(F: Oracle, tables: Sequence[Table], points: Sequence[Q]) -> list[str]:
    """The rebuilt tables equal F at the given points."""
    problems = []
    for x in points:
        values = F(x)
        if len(values) != len(tables):
            return [f"F has {len(values)} outputs, tables {len(tables)}"]
        for k, t in enumerate(tables):
            if t(x) != values[k]:
                problems.append(f"output {k}: table gives {t(x)} at {x}, F gives {values[k]}")
    return problems


def probe_points(rng: random.Random, tables: Sequence[Table], count: int) -> list[Q]:
    """Seeded rationals spread over the knot range and one unit past each end."""
    xs = sorted({x for t in tables for x in t.xs()}) or [Q(0)]
    low, high = xs[0] - 1, xs[-1] + 1
    return [interior_point(rng, low, high) for _ in range(count)]


def all_picks(tables: Sequence[Table]) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Every (output, knot) and every (output, piece between knots)."""
    knots = [(k, i) for k, t in enumerate(tables) for i in range(len(t.knots))]
    pieces = [(k, i) for k, t in enumerate(tables) for i in range(len(t.knots) - 1)]
    return knots, pieces


def memo(F: Oracle) -> Oracle:
    """F with its values kept, since knots are also the ends of pieces."""
    seen: dict[Q, Sequence[Q]] = {}

    def cached(x: Q) -> Sequence[Q]:
        if x not in seen:
            seen[x] = F(x)
        return seen[x]

    return cached


def certify(
    F: Oracle,
    tables: Sequence[Table],
    rng: random.Random,
    *,
    sample: int | None,
    points: int = 16,
) -> list[str]:
    """Table consistency, then knots, pieces and rebuild against F.

    ``sample=None`` checks every knot and every piece; otherwise a seeded
    sample of that many knots and pieces.
    """
    problems = [p for k, t in enumerate(tables) for p in check_table(t, k)]
    F = memo(F)
    knots, pieces = all_picks(tables)
    if sample is not None:
        knots = rng.sample(knots, min(sample, len(knots)))
        pieces = rng.sample(pieces, min(sample, len(pieces)))
    problems += check_knots(F, tables, knots)
    problems += check_pieces(F, tables, pieces, rng)
    problems += check_rebuild(F, tables, probe_points(rng, tables, points))
    return problems


def check_count(tables: Sequence[Table], bound: int, *, exact: bool) -> list[str]:
    """The union of knots across outputs equals (exact) or stays within the bound."""
    count = len({x for t in tables for x in t.xs()})
    if count > bound or (exact and count != bound):
        return [f"{count} knots against bound {bound}"]
    return []
