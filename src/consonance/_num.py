"""Scalar helpers shared across modules.

Values flowing through the package are either exact rationals (ints and
``fractions.Fraction``) or floats.  Python compares the two exactly, so
mixed arithmetic is safe.  These helpers hold formatting and the one
tolerance policy: a check over values that are all rational is exact
(:func:`tolerance` gives 0), and a check that sees any float allows
:data:`FLOAT_TOL` of rounding.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Scalar = int | float | Fraction

#: rounding slack of every float check in the package
FLOAT_TOL = 1e-12


def all_rational(values) -> bool:
    """True when every value is an int or a Fraction (never a bool)."""
    return all(
        issubclass(t, (int, Fraction)) and not issubclass(t, bool) for t in set(map(type, values))
    )


def tolerance(*groups) -> Scalar:
    """Slack for a check over ``groups`` of values: 0 when all are rational."""
    return 0 if all(all_rational(g) for g in groups) else FLOAT_TOL


def zero_like(values) -> Scalar:
    """Additive identity matching the flavor of ``values``."""
    return Fraction(0) if all_rational(values) else 0.0


def fmt_scalar(value: Scalar):
    """JSON form: rationals as "num/den" strings, floats as floats."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar value")
    if isinstance(value, int):
        return f"{value}/1"
    return float(value)


def to_float(value, what: str) -> float:
    """``float(value)`` for a value read from a file; ``ValueError`` when
    there is no such float (null, a list, an int beyond the float range)."""
    try:
        return float(value)
    except (TypeError, OverflowError):
        raise ValueError(f"{what} must be a number") from None


def json_list(value, what: str, kinds=(int, float)) -> tuple:
    """A JSON list of ``kinds`` (never bools) as a tuple; ``ValueError``
    names ``what`` otherwise."""
    if not isinstance(value, list) or not all(
        isinstance(v, kinds) and not isinstance(v, bool) for v in value
    ):
        raise ValueError(f"{what} must be a list of {' or '.join(k.__name__ for k in kinds)}")
    return tuple(value)


def parse_scalar(text) -> Scalar:
    """Inverse of :func:`fmt_scalar`; accepts "num/den" strings and numbers.

    Anything else -- null, a list, a bool, a string such as "1.0", a zero
    denominator -- raises ``ValueError``.
    """
    if isinstance(text, str):
        num, _, den = text.partition("/")
        try:
            num, den = int(num), int(den) if den else 1
        except ValueError:
            raise ValueError(f"a string must be an integer or \"num/den\", got {text!r}") from None
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        return to_float(text, "a contour value")
    raise ValueError(f"expected a number or a \"num/den\" string, got {text!r}")


def common_integers(values, cap: int = 1 << 40) -> tuple[list[int], int] | None:
    """Rescale rationals to a common denominator, as exact integers.

    Returns ``(numerators, denominator)`` with ``values[i] == num[i]/den``,
    or None when any value is a float or the common denominator exceeds
    ``cap``.  The 2^K kernels run on int64 numerators when this succeeds
    and their own headroom check passes, and otherwise -- the overflow
    fallback -- on an object array of the values themselves.
    """
    # a 2^K table repeats a few objects, so each distinct object is read once
    distinct = dict(zip(map(id, values), values))
    if not all_rational(distinct.values()):
        return None
    den = 1
    for d in {v.denominator for v in distinct.values()}:
        den = lcm(den, d)
        if den > cap:
            return None
    nums = {key: v.numerator * (den // v.denominator) for key, v in distinct.items()}
    return list(map(nums.__getitem__, map(id, values))), den
