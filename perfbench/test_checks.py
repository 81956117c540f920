"""The checkers reject broken outputs.

    python3 -m unittest discover -s perfbench -p "test_*.py"

The reference function is a small sawtooth written out by hand; ``F`` is its
exact evaluation. Each test breaks one thing, a knot dropped, a spurious knot
added or one CSV value perturbed, and shows that the checks catch it.
"""

from __future__ import annotations

import random
import unittest
from fractions import Fraction as Q

import checks

# knots at 0, 1, 3/2, 4 with values 0, 2, 1, 6; piece slopes 1 (left ray), 2, -2, 2, -1
KNOTS = [(Q(0), Q(0)), (Q(1), Q(2)), (Q(3, 2), Q(1)), (Q(4), Q(6))]
LEFT_SLOPE, RIGHT_SLOPE = Q(1), Q(-1)


def true_f(x: Q) -> Q:
    xs = [k[0] for k in KNOTS]
    if x <= xs[0]:
        return KNOTS[0][1] + LEFT_SLOPE * (x - xs[0])
    if x >= xs[-1]:
        return KNOTS[-1][1] + RIGHT_SLOPE * (x - xs[-1])
    for (x0, v0), (x1, v1) in zip(KNOTS, KNOTS[1:]):
        if x0 <= x <= x1:
            return v0 + (v1 - v0) * (x - x0) / (x1 - x0)
    raise AssertionError


def F(x: Q) -> list[Q]:
    return [true_f(Q(x))]


def csv_text(knots: list[tuple[Q, Q]], left=LEFT_SLOPE, right=RIGHT_SLOPE) -> str:
    """``analyze --csv`` text for one output with these knots and ray slopes."""
    slopes = [left] + [(v1 - v0) / (x1 - x0) for (x0, v0), (x1, v1) in zip(knots, knots[1:])] + [right]
    rows = ["output_index,x_rational,x_decimal,value_rational,value_decimal,"
            "left_slope_rational,right_slope_rational"]

    def dec(q):
        return f"{float(q):.17g}"

    first_at_zero = knots[0][1] - left * knots[0][0]
    rows.append(f"0,-inf,-inf,{first_at_zero},{dec(first_at_zero)},{left},{left}")
    for i, (x, v) in enumerate(knots):
        rows.append(f"0,{x},{dec(x)},{v},{dec(v)},{slopes[i]},{slopes[i + 1]}")
    last_at_zero = knots[-1][1] - right * knots[-1][0]
    rows.append(f"0,+inf,inf,{last_at_zero},{dec(last_at_zero)},{right},{right}")
    return "\n".join(rows) + "\n"


def all_problems(text: str, bound: int = len(KNOTS)) -> list[str]:
    tables, problems = checks.parse_csv(text)
    problems += checks.check_count(tables, bound, exact=True)
    return problems + checks.certify(F, tables, random.Random(0), sample=None)


class CheckerTests(unittest.TestCase):
    def test_true_spline_passes(self):
        self.assertEqual(all_problems(csv_text(KNOTS)), [])

    def test_dropped_knot_is_rejected(self):
        knots = KNOTS[:2] + KNOTS[3:]  # the valley at 3/2 is gone
        tables, _ = checks.parse_csv(csv_text(knots))
        self.assertTrue(checks.check_count(tables, len(KNOTS), exact=True))
        picks = checks.all_picks(tables)[1]
        self.assertTrue(checks.check_pieces(F, tables, picks, random.Random(0)))
        self.assertTrue(checks.check_rebuild(F, tables, [Q(3, 2)]))

    def test_spurious_knot_is_rejected(self):
        knots = sorted(KNOTS + [(Q(2), true_f(Q(2)))])  # on a straight piece
        tables, _ = checks.parse_csv(csv_text(knots))
        self.assertTrue(checks.check_table(tables[0]))
        self.assertTrue(checks.check_knots(F, tables, [(0, 3)]))
        self.assertTrue(checks.check_count(tables, len(KNOTS), exact=True))

    def test_perturbed_csv_value_is_rejected(self):
        lines = csv_text(KNOTS).splitlines()
        fields = lines[3].split(",")  # the knot at 1
        fields[3] = "21/10"  # value_rational was 2
        text = "\n".join(lines[:3] + [",".join(fields)] + lines[4:]) + "\n"
        tables, problems = checks.parse_csv(text)
        self.assertTrue(problems)  # its decimal column no longer agrees
        self.assertTrue(checks.check_table(tables[0]))  # pieces no longer join up
        self.assertTrue(checks.check_knots(F, tables, [(0, 1)]))
        self.assertTrue(all_problems(text))

    def test_perturbed_decimal_only_is_rejected(self):
        text = csv_text(KNOTS).replace(",1.5,", ",1.5000001,", 1)
        self.assertTrue(checks.parse_csv(text)[1])

    def test_bound_fold_matches_paper_examples(self):
        self.assertEqual(checks.bound_prefixes((6, 3, 2)), [6, 27, 83])
        self.assertEqual(checks.bound_prefixes((5, 5, 5, 5, 5))[-1], 7775)
        self.assertEqual(checks.bound_prefixes((8, 8, 8, 8)), [8, 80, 728, 6560])

    def test_forward_pass_is_relu_then_affine(self):
        layers = [([[Q(1)], [Q(-1)]], [Q(0), Q(1)]), ([[Q(1), Q(2)]], [Q(-1)])]
        # relu(x) + 2 relu(1 - x) - 1
        self.assertEqual(checks.forward(layers, Q(3)), [Q(2)])
        self.assertEqual(checks.forward(layers, Q(-1, 2)), [Q(2)])


if __name__ == "__main__":
    unittest.main()
