"""Exact rational scalar used throughout the library.

Rat, fractions.Fraction, stores coordinates and coefficients.  Elimination
and subspace bases are Python ints (see exact_linalg); rationals come back
only where Subspace.basis_vectors divides a reduced row by its pivot, and
no float enters a rank decision.
"""

from __future__ import annotations

from fractions import Fraction as Rat

ZERO = Rat(0)
ONE = Rat(1)


def rat(value) -> "Rat":
    """Coerce ints, strings like "a/b" or "a", and rationals to Rat."""
    return Rat(value)


def rat_str(value) -> str:
    """Serialize a rational as "a/b", or "a" when the denominator is 1."""
    return str(Rat(value))
