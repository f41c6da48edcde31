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
_RATIONAL_ERROR = f"a rational has more than the limit of {RATIONAL_DIGIT_LIMIT:,} digits"


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or a bare integer string into a Fraction (ValueError if
    malformed, or if p or q has more than RATIONAL_DIGIT_LIMIT digits)."""
    num, slash, den = text.strip().partition("/")
    p = _read_int(num, RATIONAL_DIGIT_LIMIT, _RATIONAL_ERROR)
    if not slash:
        return Fraction(p)
    q = _read_int(den, RATIONAL_DIGIT_LIMIT, _RATIONAL_ERROR)
    if q == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(p, q)


def _read_int(token: str, limit: int, error: str) -> int:
    """int(token), refused with ValueError(error) before any conversion when
    the number has more than ``limit`` digits.

    A token of at most ``limit`` characters goes straight to int().  A longer
    one has its sign and leading zeros dropped, and the digits left are
    counted, so leading zeros count for nothing and never meet CPython's own
    limit of 4,300 digits.  What is converted is the sign, one zero (so that
    a ``_`` after the zeros stays as valid as int() finds it) and the rest.
    A malformed token gets int's own text, its quoted token cut at 200
    characters as CPython cuts it.
    """
    if len(token) <= limit:
        return int(token)
    s = token.strip()
    body = s.lstrip("+-")
    digits = body.lstrip("0")
    if sum(map(str.isdigit, digits)) > limit:
        raise ValueError(error)
    try:
        return int(s[: len(s) - len(body)] + body[-len(digits) - 1 :])
    except ValueError:
        raise ValueError(f"invalid literal for int() with base 10: {token!r:.200}") from None


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


# _SQUARE_MOD_64[k] is True exactly when k is a square mod 64: 12 of the 64
# residues, so a non-square is most often refused before isqrt (bools, not
# bytes, so that the test answers a bool)
_SQUARE_MOD_64 = tuple(k in {i * i % 64 for i in range(64)} for k in range(64))


def is_positive_square(x: Fraction | int) -> bool:
    """True iff ``x`` is a positive integer that is a perfect square.

    Zero, negatives and non-integral rationals all fail.  ``int``, ``bool``
    and ``Fraction`` all carry ``numerator`` and ``denominator``, so one path
    serves them all.  The denominator is read last: most values tested are
    positive integers that are not squares.
    """
    n = x.numerator
    return (
        n > 0 and _SQUARE_MOD_64[n & 63]
        and (r := isqrt(n)) * r == n and x.denominator == 1
    )


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
