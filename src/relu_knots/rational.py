"""Exact rational scalars and their serialized forms.

Every value in this package is an exact rational: a ``fractions.Fraction``,
reduced, arbitrary precision, positive denominator. Where values come by
the thousand they stay in Python ints. A ``DenseLayer`` holds its weights
and biases, and ``canonical`` its forward-facing form, as ints over their
least common denominator; ``evaluate``, ``extract`` (every knot a reduced
int pair), ``eval_canonical``, the float oracle and the stress search
compute in ints, and the CLI prints them with ``format_ratio`` and
``decimal_str``. ``DenseLayer(...)`` reduces its rationals' int pairs one
by one through ``over_lcd``, and so do a network file's layers, read by
``parse_ratio`` as int pairs (``DenseLayer.from_ratios``); only drawn
layers use ``from_integers``.
Floats are rejected at the API boundary: knot existence is an equality
question (is a slope change zero, does a root coincide with a breakpoint)
and binary rounding would make the answers depend on how the inputs
happened to be written.
"""

from __future__ import annotations

import decimal
import math
import re
import sys
from collections.abc import Iterable
from fractions import Fraction

Rational = Fraction

ZERO = Rational(0)

# the context of every decimal_str division: 20 significant digits
_DECIMAL = decimal.Context(prec=20)

_RATIONAL_TEXT = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")

# accepted by as_rational everywhere a rational is expected
RationalLike = int | str | Rational


def as_rational(value: RationalLike) -> Rational:
    """Coerce an int, rational, or numeric string to an exact rational.

    Floats raise ``TypeError``: callers must decide how to rationalize them.
    """
    if isinstance(value, Rational):
        return value
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}; pass a rational, int, or 'num/den' string"
        )
    if isinstance(value, int):
        return Rational(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def over_lcd(
    rows: Iterable[Iterable[tuple[int, int]]],
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Rows of ratios n/d (d > 0) as rows of ints over their least common
    denominator: ``(L, L*rows)``, in lowest terms (L = 1 if there are none).
    Each ratio is reduced by its own gcd first. One gcd of L and every entry
    would give the same L, but its running gcd shrinks one long factor at a
    time, which takes seconds once the denominators run to thousands of
    digits."""
    rows = [[(n // (g := math.gcd(n, d)), d // g) for n, d in row] for row in rows]
    lcd = math.lcm(*[d for row in rows for _, d in row])
    return lcd, tuple(tuple([n * (lcd // d) for n, d in row]) for row in rows)


def parse_ratio(text: str) -> tuple[int, int]:
    """Parse ``"num/den"`` or ``"num"`` into the ints (num, den), den >= 1,
    as written, not reduced. No decimals, underscores or exponents: an
    exponent gets past ``int``'s digit limit and can take hours to expand."""
    match = _RATIONAL_TEXT.fullmatch(text)
    try:
        if match is None:
            raise ValueError
        num, den = int(match[1]), int(match[2] or 1)
        if den == 0:
            raise ValueError
    except ValueError as exc:
        shown = repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"
        raise ValueError(f"invalid rational {shown}") from exc
    return num, den


def parse_rational(text: str) -> Rational:
    """``parse_ratio`` of text, as a reduced rational."""
    return Rational(*parse_ratio(text))


def format_rational(value: Rational) -> str:
    """Render reduced ``"num/den"``, omitting the denominator when it is 1."""
    return format_ratio(value.numerator, value.denominator)


def format_ratio(num: int, den: int) -> str:
    """``format_rational`` of num/den (den > 0); ``ValueError`` past Python's digit limit."""
    g = math.gcd(num, den)
    if g != 1:
        num, den = num // g, den // g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # past Python's limit for printing an int
        raise digit_limit_error() from None


def digit_limit_error() -> ValueError:
    """The error of an int past Python's limit on writing an int as text."""
    return ValueError(f"an integer has more than {sys.get_int_max_str_digits()} digits")


def decimal_str(num: int, den: int) -> str:
    """num/den (den > 0) in decimal to 20 significant digits, for plotting;
    the rational string stays authoritative. The context takes the two ints
    exactly and rounds only their quotient, so the digits do not depend on
    whether the pair is reduced."""
    return str(_DECIMAL.divide(num, den))
