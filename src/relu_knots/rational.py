"""Exact rational scalars and their serialized forms.

Every value in this package is an exact rational: a ``fractions.Fraction``,
reduced, arbitrary precision, positive denominator. Where values come by
the thousand they stay in Python ints: ``evaluate`` and ``eval_canonical``
compute in ints, ``extract`` keeps every knot as a reduced int pair, the
CLI's knot reports and spline CSV read those pairs, and ``format_ratio``
and ``decimal_str`` render an int pair without building a rational.
Floats are rejected at the API boundary: knot existence is an equality
question (is a slope change zero, does a root coincide with a breakpoint)
and binary rounding would make the answers depend on how the inputs
happened to be written.
"""

from __future__ import annotations

import decimal
import math
import re
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


def scaled_rows(
    rows: Iterable[Iterable[Rational]],
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Rows of rationals as rows of ints over one denominator: ``(L, L*rows)``,
    where L is the least common denominator of every entry (1 if none)."""
    rows = [tuple(row) for row in rows]
    lcd = math.lcm(*(v.denominator for row in rows for v in row))
    return lcd, tuple(tuple(v.numerator * (lcd // v.denominator) for v in row) for row in rows)


def parse_rational(text: str) -> Rational:
    """Parse ``"num/den"`` or ``"num"``. No decimals, underscores or exponents:
    an exponent gets past ``int``'s digit limit and can take hours to expand."""
    match = _RATIONAL_TEXT.fullmatch(text)
    try:
        if match is None:
            raise ValueError
        return Rational(int(match[1]), int(match[2] or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational {text!r}") from exc


def format_rational(value: Rational) -> str:
    """Render reduced ``"num/den"``, omitting the denominator when it is 1."""
    return format_ratio(value.numerator, value.denominator)


def format_ratio(num: int, den: int) -> str:
    """``format_rational`` of num/den (den > 0), reduced with one gcd."""
    g = math.gcd(num, den)
    if g != 1:
        num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def decimal_str(num: int, den: int) -> str:
    """num/den (den > 0) in decimal to 20 significant digits, for plotting;
    the rational string stays authoritative. The context takes the two ints
    exactly and rounds only their quotient, so the digits do not depend on
    whether the pair is reduced."""
    return str(_DECIMAL.divide(num, den))
