"""Exact rational dense linear algebra.

Rank, nullspace and span over Q: the kernel every dimension computation
in the library reduces to.  _echelon is its one elimination, and it runs
on integers.  Each row is scaled to a primitive integer vector; a row is
cleared at a pivot column by (p/g)·row - (x/g)·pivot row, with
g = gcd(p, x), and divided by its content.  A subspace is stored as its
integer RREF: each rational RREF row scaled to its primitive integer
multiple with a positive pivot entry.  That form is canonical, so subspace
equality is a structural comparison.  Rationals appear only where a caller
reads them: Subspace.basis_vectors divides each row by its pivot entry.
Pivoting picks the first nonzero entry per column; exact arithmetic needs
no magnitude pivoting.

A rank whose caller knows a proven upper bound is first taken modulo a
word-size prime; the modular rank never exceeds the rank over Q, so when
it meets the bound it is the exact rank, and otherwise exact elimination
decides.  A caller that needs only to know whether the rank meets its
bound asks meets_bound, the modular check alone, which never eliminates.
Membership of a vector in a row space is such a rank: appending one row
raises the rank by at most one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .rational import ZERO, Rat, rat


# Prime for certified ranks: below 2**31, so the product of two residues
# fits in int64.
PRIME = 2**31 - 1


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix of rationals, stored as a tuple of row tuples.

    from_rows coerces entries to Rat; a matrix built directly may also hold
    Python ints, which are exact rationals too.
    """

    rows: int
    cols: int
    entries: tuple

    @classmethod
    def from_rows(cls, rows, cols=None):
        rows = [tuple(rat(x) for x in r) for r in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("rows have inconsistent lengths")
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            ncols = cols
        if cols is not None and rows and cols != ncols:
            raise ValueError("explicit column count disagrees with row length")
        return cls(len(rows), ncols, tuple(rows))


def _primitive(row):
    """An integer row divided by its content."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _all_int(row):
    """Whether every entry of row is a Python int; one C-level pass."""
    return {int}.issuperset(map(type, row))


def _integer_row(row):
    """The primitive integer vector on the line through a rational row."""
    if not _all_int(row):
        den = math.lcm(*(x.denominator for x in row))
        row = [x.numerator * (den // x.denominator) for x in row]
    return _primitive(row)


def _clear(row, prow, col):
    """row cleared at col, the pivot column of prow, keeping the row space
    the two span: (p/g)·row - (x/g)·prow over its content, where p and x
    are their entries at col and g = gcd(p, x)."""
    p, x = prow[col], row[col]
    g = math.gcd(p, x)
    p, x = p // g, x // g
    return _primitive([p * a - x * b for a, b in zip(row, prow)])


def _echelon(rows, max_rank=None):
    """Incremental integer elimination; returns [(pivot_col, row), ...].

    Primitive integer rows, each reduced against all previous pivots.
    Stops early once max_rank pivots are found (sound whenever the caller
    knows an upper bound on the rank that the remaining rows cannot exceed).
    """
    pivots = []
    for row in rows:
        if max_rank is not None and len(pivots) >= max_rank:
            break
        row = _integer_row(row)
        for col, prow in pivots:
            if row[col]:
                row = _clear(row, prow, col)
        for col, x in enumerate(row):
            if x:
                pivots.append((col, row))
                pivots.sort(key=lambda p: p[0])
                break
    return pivots


def _back_substitute(pivots):
    """Turn echelon pivot rows into canonical integer RREF rows: clear above
    each pivot by the same integer step, then make each pivot entry
    positive.  Returns [(pivot_col, row), ...] with primitive int rows."""
    for i in range(len(pivots) - 1, -1, -1):
        col, prow = pivots[i]
        for j in range(i):
            cj, rowj = pivots[j]
            if rowj[col]:
                pivots[j] = (cj, _clear(rowj, prow, col))
    return [(col, tuple(row) if row[col] > 0 else tuple(-x for x in row))
            for col, row in pivots]


def _rational_row(row):
    """A row with a leading nonzero entry, divided by that entry."""
    p = next(x for x in row if x)
    return tuple(Rat(x, p) if x else ZERO for x in row)


def _rank_mod_p(rows, ncols, stop):
    """Rank over F_PRIME of integer rows, counting no further than stop."""
    import numpy as np

    a = np.array([[x % PRIME for x in row] for row in rows], dtype=np.int64)
    a = a.reshape(len(rows), ncols)
    r = 0
    for col in range(ncols):
        if r == stop or r == len(rows):
            break
        nonzero = np.flatnonzero(a[r:, col])
        if not nonzero.size:
            continue
        piv = r + int(nonzero[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r, col:] = a[r, col:] * pow(int(a[r, col]), -1, PRIME) % PRIME
        below = np.flatnonzero(a[r + 1:, col]) + r + 1
        if below.size:
            a[below, col:] = (
                a[below, col:] - np.outer(a[below, col], a[r, col:])
            ) % PRIME
        r += 1
    return r


def meets_bound(m: Matrix, bound: int) -> bool:
    """Whether the rank of m is certified to equal bound, a proven upper
    bound on it, without exact elimination.

    Integer rows are reduced modulo PRIME as they are; a row that holds a
    non-int is first scaled to a primitive integer vector, which keeps the
    rank.  Rank mod p is at most the rank over Q, so a modular rank equal
    to bound proves the rank is bound.  False means the rank is below the
    bound, or the prime divides a minor.
    """
    rows = [r if _all_int(r) else _integer_row(r) for r in m.entries]
    return _rank_mod_p(rows, m.cols, bound) == bound


def rank(m: Matrix, bound=None) -> int:
    """Rank of m over Q.

    bound, when given, must be a proven upper bound on the rank.  Where
    meets_bound certifies it, it is the rank; otherwise exact elimination
    decides.  An unlucky prime can cost time, never a wrong answer.
    """
    if bound is not None and meets_bound(m, bound):
        return bound
    return len(_echelon(m.entries, max_rank=bound))


@dataclass(frozen=True)
class Subspace:
    """A linear subspace given by its canonical integer RREF basis: each
    row is the primitive integer multiple, with a positive pivot entry, of
    a row of the rational RREF (no zero rows).

    Two subspaces are equal iff their bases are literally equal, which is
    exactly why the basis is kept in this canonical form.
    """

    ambient_dim: int
    basis: Matrix

    def __post_init__(self):
        if self.basis.cols != self.ambient_dim:
            raise ValueError("basis width disagrees with ambient dimension")

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_vectors(self):
        """The rational RREF basis: each row divided by its pivot entry."""
        return [_rational_row(row) for row in self.basis.entries]


def span(vectors, ambient_dim: int) -> Subspace:
    """RREF span of a collection of coefficient vectors, by exact elimination.

    A caller that needs only the dimension should use rank instead.
    """
    vectors = list(vectors)
    for v in vectors:
        if len(v) != ambient_dim:
            raise ValueError(
                f"vector of length {len(v)} in ambient dimension {ambient_dim}"
            )
    reduced = [row for _, row in _back_substitute(_echelon(vectors))]
    return Subspace(ambient_dim, Matrix(len(reduced), ambient_dim, tuple(reduced)))


def nullspace(m: Matrix) -> Subspace:
    """Kernel of m, as a canonical integer RREF subspace of dimension
    cols - rank.

    The columns are eliminated in reverse order, so each reduced pivot row
    ends at its pivot column p: it is a positive multiple of e_p plus
    entries at free columns before p.  The kernel vector of a free column f
    takes L, the lcm of the pivot entries of the rows nonzero at f, at f,
    and -row[f]·(L / pivot) at each such row's pivot column, all after f;
    over its content it is primitive.  It leads at f with a positive entry
    and is zero at every other free column, so these vectors, ordered by f,
    are already the canonical basis of the kernel and need no second
    elimination.
    """
    last = m.cols - 1
    pivots = _back_substitute(_echelon([row[::-1] for row in m.entries]))
    # pivot rows are reversed: original column c sits at index last - c
    reduced = [(last - col, row) for col, row in pivots]
    free_cols = sorted(set(range(m.cols)).difference(col for col, _ in reduced))
    basis = []
    for f in free_cols:
        hits = [(col, row[last - col], row[last - f]) for col, row in reduced
                if row[last - f]]
        lcm = math.lcm(*(p for _, p, _ in hits))
        v = [0] * m.cols
        v[f] = lcm
        for col, p, x in hits:
            v[col] = -x * (lcm // p)
        basis.append(tuple(_primitive(v)))
    return Subspace(m.cols, Matrix(len(basis), m.cols, tuple(basis)))
