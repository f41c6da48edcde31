"""Exact rational helpers shared across the package.

Every fractional quantity in this package is a ``fractions.Fraction``
(arbitrary precision, always in lowest terms, positive denominator).
No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

__all__ = ["format_rational", "is_positive_square", "parse_rational", "rational_sqrt"]


# Digits a numerator or a denominator may be written with, counted before
# int() converts them: CPython converts no string of more than 4,300 digits,
# and the bundled reference tables write at most 4.
RATIONAL_DIGIT_LIMIT = 1_000


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or a bare integer string into a Fraction (ValueError if
    malformed, or if p or q has more than RATIONAL_DIGIT_LIMIT digits)."""
    s = text.strip()
    if len(s) > RATIONAL_DIGIT_LIMIT and any(
        sum(map(str.isdigit, part)) > RATIONAL_DIGIT_LIMIT for part in s.split("/", 1)
    ):
        raise ValueError(f"a rational has more than the limit of {RATIONAL_DIGIT_LIMIT:,} digits")
    if "/" in s:
        num, den = map(int, s.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    return Fraction(int(s))


def format_rational(x: Fraction | int) -> str:
    """Render a rational as ``"p/q"`` in lowest terms, or ``"n"`` for integers.

    The sign always sits on the numerator.  ``int``, ``bool`` and ``Fraction``
    all carry ``numerator`` and ``denominator`` in lowest terms with a
    positive denominator, so they are read as they stand.
    """
    num, den = x.numerator, x.denominator
    return str(num) if den == 1 else f"{num}/{den}"


def _format_over(num: int, den: int) -> str:
    """``format_rational(Fraction(num, den))`` for ``den > 0``, reduced with
    one gcd and no Fraction."""
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def is_positive_square(x: Fraction | int) -> bool:
    """True iff ``x`` is a positive integer that is a perfect square.

    Zero, negatives and non-integral rationals all fail.  ``int``, ``bool``
    and ``Fraction`` all carry ``numerator`` and ``denominator``, so one path
    serves them all.  The denominator is read last: most values tested are
    positive integers that are not squares.
    """
    n = x.numerator
    return n > 0 and (r := isqrt(n)) * r == n and x.denominator == 1


def rational_sqrt(x: Fraction | int) -> Fraction:
    """Exact square root of a non-negative rational.

    Raises ValueError when the root is irrational; approximations are never
    produced.
    """
    f = Fraction(x)
    if f < 0:
        raise ValueError(f"square root of negative rational {f}")
    rn = isqrt(f.numerator)
    rd = isqrt(f.denominator)
    if rn * rn != f.numerator or rd * rd != f.denominator:
        raise ValueError(f"{f} is not the square of a rational")
    return Fraction(rn, rd)
