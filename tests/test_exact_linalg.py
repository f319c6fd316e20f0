"""Exact linear algebra kernel: rank, nullspace, span."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conefaces.exact_linalg import (
    PRIME,
    Matrix,
    Subspace,
    meets_bound,
    nullspace,
    rank,
    span,
)
from conefaces.rational import ZERO, rat

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=7
)


def matrices(max_rows=6, max_cols=6):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(rationals, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(Matrix.from_rows)
        )
    )


# integers around the certifying prime and past int64: they stress the
# reduction mod p, and PRIME + 1 or PRIME - 1 next to 1 or -1 makes
# matrices that are singular mod p only
integers = st.one_of(
    st.integers(-10, 10),
    st.sampled_from([PRIME, -PRIME, PRIME + 1, PRIME - 1, 3 * 2**64 + 5]),
)


def integer_matrices(max_rows=6, max_cols=6):
    """Matrices built directly from int rows, as hilbert_function builds them."""
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(integers, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(lambda rows: Matrix(r, c, tuple(map(tuple, rows))))
        )
    )


def rank_deficient(base):
    """Matrices with extra rows that are combinations of their first rows."""

    def extend(m, coeffs):
        extra = [
            [sum(a * row[j] for a, row in zip(cs, m.entries)) for j in range(m.cols)]
            for cs in coeffs
        ]
        return Matrix.from_rows(list(m.entries) + extra, cols=m.cols)

    return base.flatmap(
        lambda m: st.lists(
            st.lists(st.one_of(integers, rationals), min_size=m.rows, max_size=m.rows),
            max_size=4,
        ).map(lambda coeffs: extend(m, coeffs))
    )


def zero_columns(base):
    """Matrices with zero columns spliced in: their unit vectors are kernel
    vectors, and free columns sit between pivot columns."""

    def insert(m, positions):
        rows = [list(r) for r in m.entries]
        for pos in positions:
            for row in rows:
                row.insert(pos, ZERO)
        return Matrix.from_rows(rows, cols=m.cols + len(positions))

    return base.flatmap(
        lambda m: st.lists(st.integers(0, m.cols), max_size=3).map(
            lambda positions: insert(m, positions)
        )
    )


# kernel inputs: full-rank and rank-deficient, with zero columns, and the
# degenerate shapes with no rows or no columns
kernel_matrices = st.one_of(
    matrices(),
    integer_matrices(),
    rank_deficient(matrices(max_rows=3)),
    zero_columns(rank_deficient(matrices(max_rows=3, max_cols=4))),
    st.sampled_from([
        Matrix.from_rows([], cols=3),
        Matrix(2, 0, ((), ())),
        Matrix.from_rows([[0, 0, 0], [0, 0, 0]]),
    ]),
)


def test_from_rows_validates():
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix.from_rows([])
    empty = Matrix.from_rows([], cols=3)
    assert (empty.rows, empty.cols) == (0, 3)


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rank_nullity(m):
    assert rank(m) + nullspace(m).dim == m.cols


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_nullspace_vectors_annihilate(m):
    for v in nullspace(m).basis_vectors():
        assert not any(sum(a * b for a, b in zip(row, v)) for row in m.entries)


@given(kernel_matrices)
@settings(max_examples=120, deadline=None)
def test_nullspace_is_canonical(m):
    # nullspace builds its basis without a second elimination; it must
    # still be the RREF basis that span gives
    s = nullspace(m)
    assert s == span(s.basis_vectors(), m.cols)


def sympy_rows(sympy, rows):
    return [[sympy.Rational(x.numerator, x.denominator) for x in map(rat, row)]
            for row in rows]


def sympy_matrix(sympy, m):
    return sympy.Matrix(m.rows, m.cols, sum(sympy_rows(sympy, m.entries), []))


@given(kernel_matrices)
@settings(max_examples=100, deadline=None)
def test_nullspace_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    kernel = sympy_matrix(sympy, m).nullspace()
    expected = (
        sympy.Matrix.hstack(*kernel).T.rref()[0].tolist() if kernel else []
    )
    assert sympy_rows(sympy, nullspace(m).basis_vectors()) == expected


@given(kernel_matrices)
@settings(max_examples=100, deadline=None)
def test_span_matches_sympy_rref(m):
    sympy = pytest.importorskip("sympy")
    reduced = sympy_matrix(sympy, m).rref()[0].tolist() if m.rows and m.cols else []
    expected = [row for row in reduced if any(row)]
    assert sympy_rows(sympy, span(m.entries, m.cols).basis_vectors()) == expected


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_rank_invariant_under_transpose(m):
    assert rank(m) == rank(Matrix.from_rows(list(zip(*m.entries)), cols=m.rows))


@given(matrices(max_rows=5, max_cols=5))
@settings(max_examples=100, deadline=None)
def test_row_space_contains_rows(m):
    s = span(list(m.entries), m.cols)
    assert s.dim == rank(m)
    for row in m.entries:
        # a row of the space leaves its canonical basis unchanged
        assert span([*s.basis.entries, row], m.cols) == s


@given(
    st.one_of(
        matrices(),
        integer_matrices(),
        rank_deficient(matrices(max_rows=3)),
        rank_deficient(integer_matrices(max_rows=3)),
    ),
    st.integers(0, 3),
)
@settings(max_examples=300, deadline=None)
def test_certified_rank_matches_exact(m, slack):
    # slack 0: the bound is the rank and may be met mod p; slack > 0: the
    # bound cannot be met and exact elimination decides
    exact = rank(Matrix.from_rows(m.entries, cols=m.cols))
    assert rank(m, bound=exact + slack) == exact
    if slack:
        assert not meets_bound(m, exact + slack)


def test_certified_rank_survives_unlucky_prime():
    # the determinant is PRIME: rank 1 mod p misses the bound 2, yet the
    # rank over Q is 2
    for m in (
        Matrix.from_rows([[1, 1], [1, PRIME + 1]]),
        Matrix(2, 2, ((1, 1), (1, PRIME + 1))),
        Matrix.from_rows([[Fraction(1, 2), Fraction(1, 2)], [1, PRIME + 1]]),
    ):
        assert not meets_bound(m, 2)
        assert rank(m, bound=2) == rank(m) == 2


def assert_canonical(s):
    """Primitive int rows with a positive pivot entry, and zeros above and
    below each pivot."""
    rows = s.basis.entries
    pivots = []
    for row in rows:
        assert all(type(x) is int for x in row)
        assert math.gcd(*row) == 1
        col = next(j for j, x in enumerate(row) if x)
        assert row[col] > 0
        pivots.append(col)
    assert pivots == sorted(set(pivots))
    for i, col in enumerate(pivots):
        assert not any(row[col] for j, row in enumerate(rows) if j != i)


@given(kernel_matrices, st.data())
@settings(max_examples=100, deadline=None)
def test_bases_are_canonical_integer_rref(m, data):
    s = span(m.entries, m.cols)
    assert_canonical(s)
    assert_canonical(nullspace(m))
    # the stored basis depends on the subspace only
    scales = data.draw(st.lists(rationals.filter(bool), min_size=m.rows, max_size=m.rows))
    scaled = data.draw(st.permutations(
        [[c * x for x in row] for c, row in zip(scales, m.entries)]
    ))
    assert span(scaled, m.cols) == s


def test_subspace_equality_is_basis_equality():
    a = span([[1, 1, 0], [0, 1, 1]], 3)
    b = span([[1, 0, -1], [2, 1, -1]], 3)
    assert a == b
    assert a != span([[1, 0, 0]], 3)


def test_subspace_rejects_bad_width():
    with pytest.raises(ValueError):
        Subspace(3, Matrix.from_rows([[1, 0]]))
