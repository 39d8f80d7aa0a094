"""Test-only helpers shared by several test modules."""


def integer_coefficients_start(s, start: int = 0) -> bool:
    """True when every coefficient of the RationalSeries s from `start` on
    is a positive integer."""
    return all(c.denominator == 1 and c > 0 for c in s.coeffs[start:])
