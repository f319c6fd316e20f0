"""Dense homogeneous forms of fixed degree in n variables.

A Form is exactly its coefficient vector over the graded-lexicographic
list of degree-d monomials, so forms double as ambient-space vectors for
the subspaces computed elsewhere; there is no conversion layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .exact_linalg import Matrix, _integer_row
from .rational import Rat, ZERO, ONE, rat, rat_str


def space_dim(n: int, d: int) -> int:
    """dim of the space of degree-d forms in n variables."""
    return math.comb(n + d - 1, d)


@lru_cache(maxsize=None)
def monomial_basis(n: int, d: int) -> tuple:
    """All exponent vectors of degree d in n variables, graded-lex order.

    Lex-descending on exponent tuples with x1 > x2 > ... > xn; the list
    has length binomial(n+d-1, d).
    """
    if n < 1:
        raise ValueError("need at least one variable")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if n == 1:
        return ((d,),)
    out = []
    for e1 in range(d, -1, -1):
        for tail in monomial_basis(n - 1, d - e1):
            out.append((e1,) + tail)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(n: int, d: int) -> dict:
    return {exp: i for i, exp in enumerate(monomial_basis(n, d))}


@dataclass(frozen=True)
class ProjectivePoint:
    """A nonzero rational coordinate vector; canonical() identifies it up
    to scale.

    integer_coords is the primitive integer vector on the point's line,
    which matrix builders evaluate at (see derivative_rows).
    """

    coords: tuple
    integer_coords: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(rat(c) for c in self.coords))
        if not any(self.coords):
            raise ValueError("projective point must have a nonzero coordinate")
        object.__setattr__(self, "integer_coords", tuple(_integer_row(self.coords)))

    def __hash__(self):
        # equal coords give equal integer_coords, and ints hash faster
        # than Fractions
        return hash(self.integer_coords)

    @property
    def n(self) -> int:
        return len(self.coords)

    def canonical(self) -> tuple:
        """Representative with first nonzero coordinate scaled to 1.

        Used for distinctness checks only; evaluation never normalizes,
        since all vanishing conditions are scale-invariant by homogeneity.
        """
        lead = next(c for c in self.coords if c)
        return tuple(c / lead for c in self.coords)

    def to_json(self):
        return [rat_str(c) for c in self.coords]


@dataclass(frozen=True)
class Form:
    """Homogeneous polynomial as a dense graded-lex coefficient vector."""

    n: int
    degree: int
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(rat(c) for c in self.coeffs))
        if len(self.coeffs) != space_dim(self.n, self.degree):
            raise ValueError(
                f"expected {space_dim(self.n, self.degree)} coefficients, "
                f"got {len(self.coeffs)}"
            )

    @classmethod
    def from_terms(cls, n, degree, terms):
        """Build from {exponent tuple: coefficient}; omitted monomials are zero."""
        index = monomial_index(n, degree)
        coeffs = [ZERO] * space_dim(n, degree)
        for exp, c in terms.items():
            exp = tuple(exp)
            if exp not in index:
                raise ValueError(f"exponent {exp} is not a degree-{degree} monomial")
            coeffs[index[exp]] = coeffs[index[exp]] + rat(c)
        return cls(n, degree, tuple(coeffs))

    def terms(self):
        basis = monomial_basis(self.n, self.degree)
        return {exp: c for exp, c in zip(basis, self.coeffs) if c}

    def __add__(self, other: "Form") -> "Form":
        if (self.n, self.degree) != (other.n, other.degree):
            raise ValueError("can only add forms of the same shape")
        return Form(self.n, self.degree,
                    tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, c) -> "Form":
        c = rat(c)
        return Form(self.n, self.degree, tuple(c * a for a in self.coeffs))

    def normalized(self) -> "Form":
        """Scaled so the graded-lex-first nonzero coefficient is 1."""
        lead = next((c for c in self.coeffs if c), None)
        if lead is None:
            return self
        return self.scale(ONE / lead)

    def to_json(self):
        return {
            "n": self.n,
            "degree": self.degree,
            "terms": [
                {"exp": list(exp), "coef": rat_str(c)}
                for exp, c in self.terms().items()
            ],
        }


@lru_cache(maxsize=None)
def _derivative_plan(n: int, d: int, order: int) -> tuple:
    """For each alpha in monomial_basis(n, order), the nonzero entries of the
    row d^alpha x^e over e in monomial_basis(n, d), as triples (column of e,
    falling-factorial coefficient, index of e - alpha in degree d - order)."""
    index = monomial_index(n, d - order)
    plan = []
    for a in monomial_basis(n, order):
        entries = []
        for col, e in enumerate(monomial_basis(n, d)):
            if all(ei >= ai for ei, ai in zip(e, a)):
                coef = math.prod(math.perm(ei, ai) for ei, ai in zip(e, a))
                entries.append(
                    (col, coef, index[tuple(ei - ai for ei, ai in zip(e, a))])
                )
        plan.append(tuple(entries))
    return tuple(plan)


def derivative_rows(coords, d: int, order: int) -> list:
    """Rows of the order-th derivatives of the degree-d monomials at coords.

    For each multi-index alpha in monomial_basis(n, order) there is one row;
    its entry for e in monomial_basis(n, d) is d^alpha x^e at coords.  So
    order 0 gives the single value row, order 1 the n gradient rows (x1
    first) and order 2 the upper triangle of the Hessian, row by row.  A
    form's value, gradient or Hessian at a point is row . coeffs.

    Entries are exact in the type of the coordinates.  Matrix builders pass
    each point's integer_coords: rescaling a point by l multiplies each of
    its rows by l^(d - order), which changes no kernel or rank, and integer
    rows eliminate much faster than rational ones.
    """
    if not 0 <= order <= d:
        raise ValueError("derivative order must lie between 0 and the degree")
    m = d - order
    powers = [[c ** k for k in range(m + 1)] for c in coords]
    values = [
        math.prod(powers[i][k] for i, k in enumerate(exp) if k)
        for exp in monomial_basis(len(coords), m)
    ]
    ncols = space_dim(len(coords), d)
    rows = []
    for entries in _derivative_plan(len(coords), d, order):
        row = [0] * ncols
        for col, coef, k in entries:
            row[col] = coef * values[k]
        rows.append(tuple(row))
    return rows


@lru_cache(maxsize=None)
def _product_plan(n: int, a: int, b: int) -> tuple:
    """Per e of degree a, the column of x^e x^f in degree a + b per f of degree b."""
    index = monomial_index(n, a + b)
    return tuple(
        tuple(index[tuple(map(sum, zip(e, f)))] for f in monomial_basis(n, b))
        for e in monomial_basis(n, a)
    )


def product_rows(fs, hs, n: int, a: int, b: int) -> list:
    """Coefficient rows of f*h for f in fs (degree a) and h in hs (degree b),
    f-major; entries are exact in the type of the coefficients."""
    plan = _product_plan(n, a, b)
    hs = [[(j, x) for j, x in enumerate(h) if x] for h in hs]
    rows = []
    for f in fs:
        terms = [(plan[i], c) for i, c in enumerate(f) if c]
        for h in hs:
            row = [0] * space_dim(n, a + b)
            for cols, c in terms:
                for j, x in h:
                    row[cols[j]] += c * x
            rows.append(tuple(row))
    return rows


def _dot(row, coeffs) -> "Rat":
    return sum((a * c for a, c in zip(row, coeffs) if a and c), ZERO)


def evaluate(f: Form, p: ProjectivePoint) -> "Rat":
    if f.n != p.n:
        raise ValueError("form and point live in different variable counts")
    (row,) = derivative_rows(p.coords, f.degree, 0)
    return _dot(row, f.coeffs)


def gradient_eval(f: Form, p: ProjectivePoint):
    """Vector of partial derivatives of f evaluated at p."""
    if f.degree < 1:
        raise ValueError("gradient of a degree-0 form")
    if f.n != p.n:
        raise ValueError("form and point live in different variable counts")
    return [_dot(row, f.coeffs) for row in derivative_rows(p.coords, f.degree, 1)]


def hessian_eval(f: Form, p: ProjectivePoint) -> Matrix:
    """Symmetric n x n matrix of second partials of f at p."""
    if f.degree < 2:
        raise ValueError("Hessian of a form of degree < 2")
    if f.n != p.n:
        raise ValueError("form and point live in different variable counts")
    h = [[ZERO] * f.n for _ in range(f.n)]
    rows = derivative_rows(p.coords, f.degree, 2)
    for a, row in zip(monomial_basis(f.n, 2), rows):
        # the variables differentiated by, e.g. (1, 0, 1) -> j, k = 0, 2
        j, k = [i for i, ai in enumerate(a) for _ in range(ai)]
        h[j][k] = h[k][j] = _dot(row, f.coeffs)
    return Matrix.from_rows(h)


def multiply(f: Form, g: Form) -> Form:
    if f.n != g.n:
        raise ValueError("can only multiply forms in the same variables")
    (row,) = product_rows([f.coeffs], [g.coeffs], f.n, f.degree, g.degree)
    return Form(f.n, f.degree + g.degree, row)


def linear_form(v) -> Form:
    v = [rat(x) for x in v]
    if not any(v):
        raise ValueError("linear form of the zero vector")
    n = len(v)
    terms = {}
    for i, c in enumerate(v):
        exp = tuple(1 if j == i else 0 for j in range(n))
        terms[exp] = c
    return Form.from_terms(n, 1, terms)
