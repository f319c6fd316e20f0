"""Exact rational scalar used throughout the library.

Every dimension is exact: computed over these rationals, or modulo a prime
only where the result meets a proven bound (see exact_linalg.rank); no
floating point ever enters a rank decision.  We use gmpy2.mpq when available (it is a
drop-in, much faster replacement) and fall back to fractions.Fraction.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - gmpy2 is normally installed
    from fractions import Fraction as Rat

ZERO = Rat(0)
ONE = Rat(1)


def rat(value) -> "Rat":
    """Coerce ints, strings like "a/b" or "a", and rationals to Rat."""
    return Rat(value)


def rat_str(value) -> str:
    """Serialize a rational as "a/b", or "a" when the denominator is 1."""
    return str(Rat(value))
