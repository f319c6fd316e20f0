"""Explicit point configurations and the forms attached to them.

Covers the partition point sets with their factoring bases and
interpolants, the six-point quadruple-hyperplane scheme in four variables,
and the seven-point plane scheme, including the degree-4 and degree-6
candidate forms that separate the symbolic square from the ordinary one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_linalg import Matrix, nullspace, rank
from .ideal_components import PointConfiguration
from .independence import independence_verdict
from .polynomials import (
    Form,
    ProjectivePoint,
    derivative_rows,
    evaluate,
    linear_form,
    monomial_basis,
    multiply,
    space_dim,
)
from .rational import ZERO, ONE, rat


class GenericityError(ValueError):
    """A genericity guard failed; the caller should perturb the configuration."""


# The quadruple covering of the six points: any two triples meet in one
# index, and each index lies in two triples.  Relabelling the points gives
# any other such covering.
DEFAULT_TRIPLES = ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6))


def snd_points(n: int, d: int, include_vertices: bool = False) -> PointConfiguration:
    """Partition points of d in n parts, excluding the coordinate points.

    With include_vertices=True returns the full set of partition points,
    whose vanishing ideal has no degree-d forms at all.
    """
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    points = []
    for exp in monomial_basis(n, d):
        if not include_vertices and max(exp) == d:
            continue
        points.append(ProjectivePoint(tuple(rat(e) for e in exp)))
    return PointConfiguration(n, tuple(points))


def _falling_product(n: int, d: int, i: int, count: int) -> Form:
    """Product over k < count of (d*x_i - k*M) with M the all-ones linear form."""
    m_vec = [ONE] * n
    xi = [ZERO] * n
    xi[i] = rat(d)
    result = None
    for k in range(count):
        factor = linear_form([a - k * b for a, b in zip(xi, m_vec)])
        result = factor if result is None else multiply(result, factor)
    if result is None:
        raise ValueError("empty product")
    return result


def snd_basis(n: int, d: int):
    """The factoring basis of the degree-d vanishing forms of snd_points(n, d).

    The i-th form is the full falling product in x_i; it takes the value d!
    at the i-th coordinate point and vanishes at the others.
    """
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    return [_falling_product(n, d, i, d) for i in range(n)]


def _kernel_vector(rows, ncols):
    ns = nullspace(Matrix(len(rows), ncols, tuple(rows)))
    if ns.dim != 1:
        raise GenericityError(
            f"expected a one-dimensional kernel, got dimension {ns.dim}"
        )
    return ns.basis_vectors()[0]


def _dual_vectors(vectors):
    """For each j, a vector orthogonal to every given row but the j-th.

    Each is column j of M⁻¹, M the matrix with these rows, up to a nonzero
    scale; the callers only test values at it for zero, which no scale
    changes.
    """
    n = len(vectors)
    # exact elimination: at this size it is cheaper than a modular rank,
    # and it keeps numpy out of a process that builds only this scheme
    if rank(Matrix(n, n, tuple(vectors))) != n:
        raise GenericityError("matrix is singular")
    return tuple(
        tuple(_kernel_vector(vectors[:j] + vectors[j + 1:], n)) for j in range(n)
    )


def _inner(u, v):
    return sum((a * b for a, b in zip(u, v)), ZERO)


@dataclass(frozen=True)
class SixPointScheme:
    """Six points in R^4 with a quadruple covering by spanned hyperplanes.

    The four quadrics factor through the covering's normal vectors, their
    pairwise products span the degree-4 ordinary square, and the product of
    the four hyperplane forms double-vanishes on the points without lying
    in that span.
    """

    gamma: PointConfiguration
    triples: tuple
    u: tuple
    v: tuple
    Q: tuple
    R: Form

    def to_json(self):
        from .rational import rat_str

        return {
            "gamma": self.gamma.to_json(),
            "triples": [list(t) for t in self.triples],
            "u": [[rat_str(c) for c in vec] for vec in self.u],
            "v": [[rat_str(c) for c in vec] for vec in self.v],
            "Q": [q.to_json() for q in self.Q],
            "R": self.R.to_json(),
        }


def six_point_scheme(g: PointConfiguration) -> SixPointScheme:
    """Build the scheme; general linear position is sufficient but stronger
    than necessary, so the constructor checks exactly what it uses: every
    covering triple spans a hyperplane, the normals form bases, and the 32
    cross inner products are nonzero."""
    if g.n != 4 or g.size != 6:
        raise ValueError("need exactly 6 points in 4 variables")
    complements = tuple(
        tuple(sorted(set(range(1, 7)) - set(t))) for t in DEFAULT_TRIPLES
    )

    def normal(triple):
        rows = [g.points[i - 1].coords for i in triple]
        return _kernel_vector(rows, 4)

    u = tuple(tuple(normal(t)) for t in DEFAULT_TRIPLES)
    v = tuple(tuple(normal(t)) for t in complements)
    u_dual = _dual_vectors(u)
    v_dual = _dual_vectors(v)

    # under general linear position these 32 inner products are all nonzero
    for i in range(4):
        for j in range(4):
            if not _inner(u[i], v_dual[j]):
                raise GenericityError(f"<u{i + 1}, v{j + 1}*> = 0")
            if not _inner(v[i], u_dual[j]):
                raise GenericityError(f"<v{i + 1}, u{j + 1}*> = 0")

    Q = tuple(
        multiply(linear_form(u[i]), linear_form(v[i])).normalized() for i in range(4)
    )
    R = linear_form(u[0])
    for i in range(1, 4):
        R = multiply(R, linear_form(u[i]))
    R = R.normalized()
    return SixPointScheme(
        gamma=g, triples=DEFAULT_TRIPLES, u=u, v=v, Q=Q, R=R
    )


@dataclass(frozen=True)
class SevenPointScheme:
    """Seven plane points with three line normals, three conics, and the
    singular cubic; R is the sextic separating the symbolic square."""

    gamma: PointConfiguration
    u: tuple
    K_conics: tuple
    K: Form
    Q: tuple
    R: Form

    def to_json(self):
        from .rational import rat_str

        return {
            "gamma": self.gamma.to_json(),
            "u": [[rat_str(c) for c in vec] for vec in self.u],
            "K_conics": [k.to_json() for k in self.K_conics],
            "K": self.K.to_json(),
            "Q": [q.to_json() for q in self.Q],
            "R": self.R.to_json(),
        }


CONIC_POINT_SETS = ((3, 4, 5, 6, 7), (1, 2, 5, 6, 7), (1, 2, 3, 4, 7))


def seven_point_scheme(g: PointConfiguration) -> SevenPointScheme:
    if g.n != 3 or g.size != 7:
        raise ValueError("need exactly 7 points in 3 variables")
    if independence_verdict(g, 3) != "yes":
        raise ValueError("the seven points must be 3-independent")

    def line_normal(i, j):
        return tuple(
            _kernel_vector([g.points[i - 1].coords, g.points[j - 1].coords], 3)
        )

    u = (line_normal(1, 2), line_normal(3, 4), line_normal(5, 6))
    u_dual = _dual_vectors(u)

    def rows_at(i, d, order):
        return derivative_rows(g.points[i - 1].integer_coords, d, order)

    conics = []
    for idxs in CONIC_POINT_SETS:
        rows = [rows_at(i, 2, 0)[0] for i in idxs]
        conics.append(Form(3, 2, tuple(_kernel_vector(rows, space_dim(3, 2)))).normalized())
    conics = tuple(conics)

    # the cubic through the first six points with a double point at the seventh
    rows = [rows_at(i, 3, 0)[0] for i in range(1, 7)] + rows_at(7, 3, 1)
    K = Form(3, 3, tuple(_kernel_vector(rows, space_dim(3, 3)))).normalized()

    # the conic guards are essential: a vanishing value breaks the basis
    # argument, so the failing pairs are named for the caller to perturb.
    # No guard is placed on K itself: when K factors through one of the
    # line forms it vanishes at a dual point by construction, yet the
    # product form below still double-vanishes there through the other
    # two line factors.
    failing = [
        (i, j)
        for i in range(3)
        for j in range(3)
        if i != j and not evaluate(conics[i], ProjectivePoint(u_dual[j]))
    ]
    if failing:
        named = ", ".join(f"K{i + 1}(u{j + 1}*) = 0" for i, j in failing)
        raise GenericityError(named)

    # Q_i = u_i·K_i vanishes on all seven points: u_i on the two points its
    # line passes through, K_i on the other five.  The points are
    # 3-independent, so dim I_3 = 10 - 7 = 3, and the Q_i span I_3 exactly
    # when they are independent.
    Q = tuple(multiply(linear_form(u[i]), conics[i]).normalized() for i in range(3))
    if rank(Matrix(3, space_dim(3, 3), tuple(q.coeffs for q in Q))) != 3:
        raise GenericityError("the cubics u_i·K_i do not span I_3")

    R = K
    for vec in u:
        R = multiply(R, linear_form(vec))
    R = R.normalized()
    return SevenPointScheme(
        gamma=g, u=u, K_conics=conics, K=K, Q=Q, R=R
    )


EXAMPLE_SIX_POINTS = PointConfiguration(
    4,
    (
        (0, 0, 1, 1),
        (0, 1, 0, 1),
        (0, 1, 1, 0),
        (1, 0, 0, 1),
        (1, 0, 1, 0),
        (1, 1, 0, 0),
    ),
)

SEVEN_POINTS_UNPERTURBED = PointConfiguration(
    3,
    (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 1, 0),
        (1, 0, 1),
        (0, 1, 1),
        (1, 1, 1),
    ),
)

SEVEN_POINTS_PERTURBED = PointConfiguration(
    3,
    (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, -2, 2),
        (1, 0, 1),
        (0, 1, 1),
        (1, 1, 1),
    ),
)
