"""Dense forms: monomial order, evaluation, calculus, products."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conefaces.polynomials import (
    Form,
    ProjectivePoint,
    derivative_rows,
    evaluate,
    gradient_eval,
    hessian_eval,
    linear_form,
    monomial_basis,
    monomial_index,
    multiply,
    space_dim,
)
from conefaces.rational import ZERO, rat

coords = st.integers(min_value=-6, max_value=6)


def points(n):
    return (
        st.lists(coords, min_size=n, max_size=n)
        .filter(lambda c: any(c))
        .map(lambda c: ProjectivePoint(tuple(c)))
    )


def forms(n, d):
    dim = space_dim(n, d)
    return st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
        min_size=dim,
        max_size=dim,
    ).map(lambda c: Form(n, d, tuple(c)))


def test_space_dim():
    assert space_dim(3, 2) == 6
    assert space_dim(4, 4) == 35
    assert space_dim(3, 6) == 28


def test_monomial_basis_graded_lex():
    basis = monomial_basis(3, 2)
    assert basis == ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    assert len(monomial_basis(4, 4)) == 35
    # lex-descending: each exponent tuple strictly dominates the next
    for a, b in zip(basis, basis[1:]):
        assert a > b
    assert monomial_index(3, 2)[(1, 0, 1)] == 2


def test_projective_point_canonical():
    p = ProjectivePoint((0, 2, 4))
    assert p.canonical() == (ZERO, rat(1), rat(2))
    assert p.canonical() == ProjectivePoint((0, 1, 2)).canonical()
    with pytest.raises(ValueError):
        ProjectivePoint((0, 0, 0))


def test_form_from_terms_roundtrip():
    f = Form.from_terms(3, 2, {(2, 0, 0): 1, (0, 1, 1): -3})
    assert f.terms() == {(2, 0, 0): rat(1), (0, 1, 1): rat(-3)}
    with pytest.raises(ValueError):
        Form.from_terms(3, 2, {(3, 0, 0): 1})


def test_form_add_scale_normalize():
    f = Form.from_terms(2, 2, {(2, 0): 2, (0, 2): 4})
    g = f + f.scale(-1)
    assert not any(g.coeffs)
    assert f.normalized().terms() == {(2, 0): rat(1), (0, 2): rat(2)}
    assert not any(Form(2, 2, (0, 0, 0)).normalized().coeffs)


def test_evaluate_known():
    f = Form.from_terms(3, 2, {(1, 1, 0): 1, (0, 0, 2): -1})
    assert evaluate(f, ProjectivePoint((2, 3, 1))) == rat(5)
    assert gradient_eval(f, ProjectivePoint((2, 3, 1))) == [rat(3), rat(2), rat(-2)]


def test_hessian_known():
    # f = x^2 y: fxx = 2y, fxy = 2x, elsewhere 0
    f = Form.from_terms(2, 3, {(2, 1): 1})
    h = hessian_eval(f, ProjectivePoint((3, 5)))
    assert h.entries == ((rat(10), rat(6)), (rat(6), ZERO))


@given(forms(3, 4), points(3))
@settings(max_examples=150, deadline=None)
def test_euler_identity(f, p):
    grad = gradient_eval(f, p)
    lhs = sum((c * g for c, g in zip(p.coords, grad)), ZERO)
    assert lhs == 4 * evaluate(f, p)


@given(forms(3, 2), forms(3, 2), points(3))
@settings(max_examples=150, deadline=None)
def test_multiply_matches_pointwise(f, g, p):
    assert evaluate(multiply(f, g), p) == evaluate(f, p) * evaluate(g, p)


@given(forms(3, 2), points(3))
@settings(max_examples=100, deadline=None)
def test_homogeneity(f, p):
    scaled = ProjectivePoint(tuple(3 * c for c in p.coords))
    assert evaluate(f, scaled) == rat(3) ** f.degree * evaluate(f, p)


@given(
    points(3),
    st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool),
    st.integers(min_value=2, max_value=4),
)
@settings(max_examples=100, deadline=None)
def test_derivative_rows_rescale(p, lam, d):
    # the matrix builders rely on this: rescaling a point scales its rows
    scaled = [lam * c for c in p.coords]
    for order in range(3):
        rows = derivative_rows(p.coords, d, order)
        assert len(rows) == space_dim(3, order)
        assert derivative_rows(scaled, d, order) == [
            tuple(lam ** (d - order) * x for x in row) for row in rows
        ]
    ints = ProjectivePoint(tuple(lam * c for c in p.coords)).integer_coords
    assert all(type(x) is int for x in ints) and math.gcd(*ints) == 1
    assert ProjectivePoint(ints).canonical() == p.canonical()
    with pytest.raises(ValueError):
        derivative_rows(p.coords, d, d + 1)


@given(forms(3, 2), forms(3, 3))
@settings(max_examples=60, deadline=None)
def test_multiply_matches_sympy(f, g):
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x1:4")

    def poly(form):
        terms = {exp: sympy.Rational(c) for exp, c in form.terms().items()}
        return sympy.Poly.from_dict(terms, *xs)

    product = (poly(f) * poly(g)).as_dict()
    expected = [product.get(exp, 0) for exp in monomial_basis(3, 5)]
    assert [sympy.Rational(c) for c in multiply(f, g).coeffs] == expected


def test_linear_form():
    f = linear_form([1, -2, 0])
    assert evaluate(f, ProjectivePoint((3, 1, 7))) == rat(1)
    with pytest.raises(ValueError):
        linear_form([0, 0])


def test_shape_mismatches_raise():
    with pytest.raises(ValueError):
        Form(3, 2, (rat(1),) * 5)
    f = Form(3, 2, (0,) * 6)
    with pytest.raises(ValueError):
        evaluate(f, ProjectivePoint((1, 1)))
    with pytest.raises(ValueError):
        f + Form(3, 3, (0,) * 10)
