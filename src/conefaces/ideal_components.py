"""Degree components of vanishing ideals of point configurations.

Computes I_d(Gamma), the degree-2d parts of the ordinary and symbolic
squares of I(Gamma), the initial degree alpha, and assembles the face
dimension report that the rest of the library revolves around.

The ordinary square is spanned by products I_a * I_b with a + b = e.
Because I(Gamma) is generated in degrees <= r + 1, r the regularity index,
only the splits with b between ceil(e/2) and max(ceil(e/2), r + 1) are
needed: at e = 2d with r < d, just I_d * I_d.  The rank of those products
is certified against their row count or dim I^(2)_e, whichever is less.
A form lies in the ordinary square exactly when its row, appended to the
products, leaves that rank unchanged; no basis of the square is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .exact_linalg import Matrix, Subspace, nullspace, rank
from .polynomials import ProjectivePoint, derivative_rows, product_rows, space_dim
from .rational import rat


@dataclass(frozen=True)
class PointConfiguration:
    """A finite set of pairwise distinct projective points in n >= 2
    variables."""

    n: int
    points: tuple
    # every cached function hashes its configuration, so it is hashed once
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # bool is an int too, and its values are below 2 anyway
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n!r}")
        points = tuple(
            p if isinstance(p, ProjectivePoint) else ProjectivePoint(tuple(p))
            for p in self.points
        )
        object.__setattr__(self, "points", points)
        if not points:
            raise ValueError("configuration must contain at least one point")
        for p in points:
            if p.n != self.n:
                raise ValueError("point dimension disagrees with configuration")
        seen = set()
        for p in points:
            key = p.canonical()
            if key in seen:
                raise ValueError(f"repeated projective point {key}")
            seen.add(key)
        object.__setattr__(self, "_hash", hash((self.n, points)))

    def __hash__(self):
        return self._hash

    @property
    def size(self) -> int:
        return len(self.points)

    def to_json(self):
        return {"n": self.n, "points": [p.to_json() for p in self.points]}

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or not {"n", "points"} <= data.keys():
            raise ValueError("a configuration needs the keys 'n' and 'points'")
        points = data["points"]
        if not isinstance(points, list) or not all(isinstance(p, list) for p in points):
            raise ValueError("'points' must be a list of coordinate lists")
        try:
            points = tuple(tuple(rat(c) for c in p) for p in points)
        except (TypeError, ZeroDivisionError, OverflowError):
            # "1/0", and Infinity or 1e400, which JSON reads as a float inf
            raise ValueError("point coordinates must be rationals") from None
        return cls(data["n"], points)


@lru_cache(maxsize=512)
def vanishing_component(g: PointConfiguration, d: int) -> Subspace:
    """I_d(Gamma): kernel of the point-evaluation matrix on degree-d forms."""
    return nullspace(_evaluation_matrix(g, d))


@lru_cache(maxsize=512)
def vanishing_dim(g: PointConfiguration, d: int) -> int:
    """dim I_d(Gamma) without materializing a kernel basis.

    The evaluation matrix has rank at most min(|Gamma|, dim H_{n,d}), which
    is the bound its certified rank is checked against.
    """
    m = _evaluation_matrix(g, d)
    return m.cols - rank(m, bound=min(m.rows, m.cols))


def _evaluation_matrix(g: PointConfiguration, d: int) -> Matrix:
    """One integer row of degree-d monomials per point of Gamma."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    rows = [derivative_rows(p.integer_coords, d, 0)[0] for p in g.points]
    return Matrix(len(rows), space_dim(g.n, d), tuple(rows))


@lru_cache(maxsize=512)
def symbolic_square_dim(g: PointConfiguration, e: int) -> int:
    """dim of the degree-e symbolic square without materializing a basis.

    At e = 2d, where Gamma satisfies condition 2 in degree d, double points
    impose independent conditions and the dimension is dim H_{n,2d} -
    n|Gamma|, with no rank.  Proof: at each s in Gamma, condition 2 gives a
    form q in H_d with q(s) = 1 and q = 0 on Gamma minus s, and forms q' in
    I_d whose gradients at s span s-perp (the n x dim I_d matrix M_s has
    rank n - 1).  The products q q' and q^2 vanish doubly on Gamma minus s.
    At s their gradients are q(s) grad q'(s), which span s-perp, and
    2 grad q(s), which lies outside s-perp because s . grad q(s) = d q(s)
    = d by Euler's identity.  So the n gradient functionals at s are
    independent on these forms, which all the other points' functionals
    annihilate, and the n|Gamma| functionals are independent on H_{n,2d}.

    Otherwise the n|Gamma| gradient rows have rank at most min(n|Gamma|,
    dim H_{n,e}), which is the bound their certified rank is checked
    against.
    """
    from .independence import condition2_holds

    if e >= 2 and e % 2 == 0 and condition2_holds(g, e // 2):
        return space_dim(g.n, e) - g.n * g.size
    m = _gradient_matrix(g, e)
    return m.cols - rank(m, bound=min(m.rows, m.cols))


def _gradient_matrix(g: PointConfiguration, e: int) -> Matrix:
    """The n integer gradient rows of degree-e monomials at each point of Gamma.

    Their kernel is the degree-e symbolic square: for a homogeneous form of
    positive degree, vanishing at s follows from the gradient vanishing
    there by Euler's identity, so evaluation rows would be redundant.
    """
    if e < 2:
        raise ValueError("degree must be at least 2")
    rows = [row for p in g.points for row in derivative_rows(p.integer_coords, e, 1)]
    return Matrix(len(rows), space_dim(g.n, e), tuple(rows))


def _square_matrix(g: PointConfiguration, e: int) -> Matrix:
    """Integer rows spanning the degree-e part of I(Gamma)^2.

    I(Gamma) is generated in degrees <= r + 1, r the regularity index
    (Eisenbud, The Geometry of Syzygies, GTM 229, ch. 4).  So for
    r + 1 <= b' <= b, I_b = S_{b-b'} I_{b'} and I_a I_b lies in
    I_{a+b-b'} I_{b'}: the splits a + b = e with ceil(e/2) <= b <=
    max(ceil(e/2), r + 1) and a >= alpha(Gamma) span every other.  The rows
    are the products of the integer bases of I_a and I_b over those
    splits; for a = b only the pairs i <= j.  For e = 2d and r < d they are
    the products of I_d alone.  An r >= e - alpha drops no split, so r is
    sought only below e - alpha.
    """
    if e < 2:
        raise ValueError("degree must be at least 2")
    low = alpha(g)
    top = max((e + 1) // 2, _regularity_index(g, e - low - 1) + 1)
    rows = []
    for a in range(max(low, e - top), e // 2 + 1):
        fa = vanishing_component(g, a).basis.entries
        if a == e - a:
            for i, f in enumerate(fa):
                rows += product_rows([f], fa[i:], g.n, a, a)
        else:
            fb = vanishing_component(g, e - a).basis.entries
            rows += product_rows(fa, fb, g.n, a, e - a)
    return Matrix(len(rows), space_dim(g.n, e), tuple(rows))


def _ordinary_square(g: PointConfiguration, e: int):
    """_square_matrix(g, e) and its certified rank.

    The rank is at most the row count, and at most dim I^(2)_e, since every
    product lies in the symbolic square; the lesser is its bound.  Where
    the products are independent, as in the strict-gap cases, the modular
    rank meets the row count.
    """
    m = _square_matrix(g, e)
    return m, rank(m, bound=min(m.rows, symbolic_square_dim(g, e)))


def in_ordinary_square(g: PointConfiguration, e: int, coeffs) -> bool:
    """Whether the degree-e form with these coefficients lies in I(Gamma)^2.

    Its row appended to _square_matrix raises the rank dim by at most one,
    so dim + 1 is a proven bound on the grown rank.  Where the modular rank
    meets it, the form is certified outside; otherwise exact elimination
    decides.
    """
    m, dim = _ordinary_square(g, e)
    if len(coeffs) != m.cols:
        raise ValueError("coefficient count disagrees with the degree")
    grown = Matrix(m.rows + 1, m.cols, (*m.entries, tuple(coeffs)))
    return rank(grown, bound=dim + 1) == dim


def ordinary_square_dim(g: PointConfiguration, e: int) -> int:
    """dim of the degree-e ordinary square without materializing a basis."""
    return _ordinary_square(g, e)[1]


def _regularity_index(g: PointConfiguration, limit: int) -> int:
    """The regularity index r, the least t >= 1 with HF_Gamma(t) = |Gamma|
    (from t on, the degree-t values at the points are independent), where
    r <= limit; limit + 1 where r is larger.  r can reach |Gamma| - 1, for
    collinear points, so the caller bounds the search by the degrees it
    reads."""
    t = 1
    while t <= limit and space_dim(g.n, t) - vanishing_dim(g, t) != g.size:
        t += 1
    return t


def alpha(g: PointConfiguration) -> int:
    """Smallest degree with a nonzero form vanishing on Gamma.

    The scan ends: with n >= 2, dim H_{n,d} grows without bound, and once
    it exceeds |Gamma| the evaluation matrix has a kernel.
    """
    d = 1
    while vanishing_dim(g, d) == 0:
        d += 1
    return d


@dataclass(frozen=True)
class FaceReport:
    """Exact dimensions of the ideal components behind a pair of cone faces."""

    n: int
    d: int
    gamma_size: int
    dim_Id: int
    dim_I2_2d: int
    dim_Isym2_2d: int
    alpha: int
    d_independent: str
    gap: int = field(default=0)

    def __post_init__(self):
        object.__setattr__(self, "gap", self.dim_Isym2_2d - self.dim_I2_2d)
        if self.gap < 0:
            raise ValueError("ordinary square exceeded symbolic square")

    def to_json(self):
        return {
            "n": self.n,
            "d": self.d,
            "gamma_size": self.gamma_size,
            "dim_Id": self.dim_Id,
            "dim_I2_2d": self.dim_I2_2d,
            "dim_Isym2_2d": self.dim_Isym2_2d,
            "alpha": self.alpha,
            "d_independent": self.d_independent,
            "gap": self.gap,
        }


def face_report(g: PointConfiguration, d: int) -> FaceReport:
    if d < 1:
        raise ValueError("degree must be at least 1")
    from .independence import independence_verdict

    e = 2 * d
    return FaceReport(
        n=g.n,
        d=d,
        gamma_size=g.size,
        dim_Id=vanishing_dim(g, d),
        dim_I2_2d=ordinary_square_dim(g, e),
        dim_Isym2_2d=symbolic_square_dim(g, e),
        alpha=alpha(g),
        d_independent=independence_verdict(g, d),
    )
