"""Exact rational scalar used throughout the library.

Rat stores coordinates and coefficients.  Elimination and subspace bases
are Python ints (see exact_linalg); rationals come back only where
Subspace.basis_vectors or inverse divide a reduced row by its pivot, and
no float enters a rank decision.  Rat is gmpy2.mpq with the `fast` extra
installed (no recorded check exercises it), else fractions.Fraction.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as Rat
except ImportError:  # gmpy2 is optional: the `fast` extra
    from fractions import Fraction as Rat

ZERO = Rat(0)
ONE = Rat(1)


def rat(value) -> "Rat":
    """Coerce ints, strings like "a/b" or "a", and rationals to Rat."""
    return Rat(value)


def rat_str(value) -> str:
    """Serialize a rational as "a/b", or "a" when the denominator is 1."""
    return str(Rat(value))
