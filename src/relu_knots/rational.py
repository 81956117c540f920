"""Exact rational scalars and their serialized forms.

Every value in this package is an exact rational: reduced, arbitrary
precision, positive denominator. The backing type is ``gmpy2.mpq`` when
gmpy2 is importable and ``fractions.Fraction`` otherwise; the two
interoperate and hash identically, so which one is active is invisible to
callers. Neither the tests nor the benchmark run the gmpy2 backend, and
``evaluate``, ``eval_canonical`` and ``extract`` do their arithmetic in
Python ints. Floats are rejected at the API boundary: knot existence is an
equality question (is a slope change zero, does a root coincide with a
breakpoint) and binary rounding would make the answers depend on how the
inputs happened to be written.
"""

from __future__ import annotations

import decimal
import math
from collections.abc import Iterable
from fractions import Fraction

# make_rational(num, den) is the one constructor of the backend type: it
# builds the reduced rational num/den from an int, a Fraction, or an int pair.
try:
    from gmpy2 import mpq as make_rational

    Rational = type(make_rational(0))
except ImportError:  # pragma: no cover - exercised only without gmpy2
    make_rational = Fraction
    Rational = Fraction

ZERO = make_rational(0)

# the context of every decimal_str division: 20 significant digits
_DECIMAL = decimal.Context(prec=20)

# accepted by as_rational everywhere a rational is expected
RationalLike = int | str | Fraction | Rational


def as_rational(value: int | str | Fraction | Rational) -> Rational:
    """Coerce an int, rational, or numeric string to the exact backend type.

    Floats raise ``TypeError``: callers must decide how to rationalize them.
    """
    if isinstance(value, Rational):
        return value
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}; pass a rational, int, or 'num/den' string"
        )
    if isinstance(value, (int, Fraction)):
        return make_rational(value)
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
    """Parse a rational written as ``"num/den"`` or ``"num"``."""
    try:
        return make_rational(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational {text!r}") from exc


def format_rational(value: Rational | Fraction) -> str:
    """Render reduced ``"num/den"``, omitting the denominator when it is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def decimal_str(value: Rational | Fraction) -> str:
    """Decimal rendering to 20 significant digits, for plotting; the rational
    string stays authoritative."""
    num, den = decimal.Decimal(int(value.numerator)), decimal.Decimal(int(value.denominator))
    return str(_DECIMAL.divide(num, den))
