"""d-independence and general linear position tests.

The geometric half of d-independence (no forced extra common zeros) is
never decided by root finding.  Instead we use the Hilbert-function
criterion: the configuration is d-independent exactly when the Hilbert
polynomial of the quotient by the ideal generated by I_d equals the number
of points, and the Hilbert function is guaranteed to have stabilized at
degree (n-1)(d-1)+d whenever the set is d-independent.  Because the
converse stabilization bound is not effective, the verdict is tri-state.

Most sets settle below that window.  Let r be the regularity index of
Gamma, the least t with HF_Gamma(t) = |Gamma|; I(Gamma) is generated in
degrees <= r + 1 (Eisenbud, The Geometry of Syzygies, GTM 229, ch. 4).
So once the ideal generated by I_d fills I_k(Gamma) at some k >= r + 1,
it fills every larger degree too, and the Hilbert function is |Gamma|
from k on: one rank decides the whole window.

When condition 2 fails the verdict is "no" whatever the Hilbert function
says; independence_verdict then returns it without ranking any value, and
only is_d_independent, whose report prints the window, ranks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .exact_linalg import Matrix, meets_bound, rank
from .ideal_components import (
    PointConfiguration,
    _regularity_index,
    vanishing_component,
    vanishing_dim,
)
from .polynomials import derivative_rows, product_rows, space_dim


@dataclass(frozen=True)
class IndependenceReport:
    condition2: bool
    hilbert_values: tuple  # pairs (degree k, HF value)
    verdict: str  # "yes" | "no" | "indeterminate"
    stabilization_degree_used: int

    def to_json(self):
        return {
            "condition2": self.condition2,
            "hilbert_values": [list(kv) for kv in self.hilbert_values],
            "verdict": self.verdict,
            "stabilization_degree_used": self.stabilization_degree_used,
        }


@lru_cache(maxsize=1024)
def condition2_holds(g: PointConfiguration, d: int) -> bool:
    """Linear independence of single vanishing plus one double vanishing.

    True iff for every point s the evaluation rows at the other points
    together with the n gradient rows at s have full rank |Gamma| + n - 1.
    Cached, so that the verdict and the report compute it once.
    """
    target = g.size + g.n - 1
    if space_dim(g.n, d) < target:
        raise ValueError(
            f"H_{{{g.n},{d}}} has dimension {space_dim(g.n, d)} < {target}; "
            "the required codimension is unreachable"
        )
    values = [derivative_rows(p.integer_coords, d, 0)[0] for p in g.points]
    for i, s in enumerate(g.points):
        rows = values[:i] + values[i + 1:] + derivative_rows(s.integer_coords, d, 1)
        # target is the row count, so it bounds the rank
        m = Matrix(target, space_dim(g.n, d), tuple(rows))
        if rank(m, bound=target) != target:
            return False
    return True


def _ideal_matrix(g: PointConfiguration, d: int, k: int) -> Matrix:
    """Integer rows spanning the degree-k part of the ideal generated by I_d.

    They are the monomial multiples x^a q of a basis q of I_d: the products
    of the unit vectors of degree k - d with the basis, each q taken as a
    primitive integer vector.  They lie inside I_k(Gamma), whose dimension
    bounds their rank.
    """
    if k < d:
        raise ValueError("degree k must be at least d")
    basis = vanishing_component(g, d).integer_basis_vectors()
    count = space_dim(g.n, k - d)
    units = [[int(i == j) for j in range(count)] for i in range(count)]
    rows = product_rows(units, basis, g.n, k - d, d)
    # ints are exact rationals, so the rows need no coercion to Rat
    return Matrix(len(rows), space_dim(g.n, k), tuple(rows))


def hilbert_function(g: PointConfiguration, d: int, k: int) -> int:
    """Hilbert function at degree k of the quotient by the ideal generated
    by I_d, by a rank certified against dim I_k(Gamma)."""
    m = _ideal_matrix(g, d, k)
    return m.cols - rank(m, bound=vanishing_dim(g, k))


def _settled_values(g: PointConfiguration, d: int, k_star: int) -> dict:
    """Hilbert function values {k: HF(k)} at k* and, where it follows, k* + 1,
    for a set that satisfies condition 2.

    Condition 2 makes the degree-d value rows independent, so the
    regularity index r <= d.  The scan runs from max(d, r + 1) up to k*; the
    first degree whose value is |Gamma| fixes the values at k* and k* + 1 to
    |Gamma|.  Degrees below k* are never reported, so there the value is
    |Gamma| only where meets_bound certifies it, and any other outcome moves
    on with no rational elimination; k* itself is ranked exactly.
    """
    settled = {k_star: g.size, k_star + 1: g.size}
    first = max(d, _regularity_index(g, d) + 1)
    for k in range(first, k_star):
        if meets_bound(_ideal_matrix(g, d, k), vanishing_dim(g, k)):
            return settled
    if first > k_star:
        return {}
    value = hilbert_function(g, d, k_star)
    return settled if value == g.size else {k_star: value}


def _condition2(g: PointConfiguration, d: int) -> bool:
    try:
        return condition2_holds(g, d)
    except ValueError:
        # ambient space too small to reach the codimension: condition 2 fails
        return False


@lru_cache(maxsize=1024)
def is_d_independent(g: PointConfiguration, d: int) -> IndependenceReport:
    """Tri-state d-independence: condition 2 plus the Hilbert-function
    window k* .. k* + 1 (extended up to k* + n while it has not stabilized),
    k* = (n-1)(d-1) + d.

    When condition 2 holds, the Hilbert function is first scanned upward
    from max(d, r + 1), r the regularity index: once it reaches |Gamma| at
    some k <= k*, it stays |Gamma| (see the module docstring), and no
    window degree is ranked.  The window is ranked whatever condition 2
    says, since the report prints it.
    """
    cond2 = _condition2(g, d)
    k_star = (g.n - 1) * (d - 1) + d
    known = _settled_values(g, d, k_star) if cond2 else {}
    values = [
        (k, known[k] if k in known else hilbert_function(g, d, k))
        for k in (k_star, k_star + 1)
    ]
    used = k_star + 1
    # extend past an unstabilized window, up to k* + n, before giving up
    while values[-1][1] != values[-2][1] and used < k_star + g.n:
        used += 1
        values.append((used, hilbert_function(g, d, used)))

    stabilized = values[-1][1] == values[-2][1]
    if not cond2:
        verdict = "no"
    elif stabilized and values[-1][1] == g.size:
        verdict = "yes"
    elif stabilized and values[-1][1] > g.size:
        verdict = "no"
    else:
        verdict = "indeterminate"
    return IndependenceReport(
        condition2=cond2,
        hilbert_values=tuple(values),
        verdict=verdict,
        stabilization_degree_used=used,
    )


def independence_verdict(g: PointConfiguration, d: int) -> str:
    """is_d_independent(g, d).verdict, which is "no" as soon as condition 2
    fails: then no Hilbert function value is ranked.  Otherwise the report
    is computed, and cached for a later is_d_independent call."""
    return is_d_independent(g, d).verdict if _condition2(g, d) else "no"


def is_general_linear_position(g: PointConfiguration) -> bool:
    """No n points on a common hyperplane, projectively.

    For |Gamma| <= n this reads as linear independence of the coordinate
    vectors; for larger sets every n-subset must have rank n.
    """
    rows = [p.coords for p in g.points]
    if g.size <= g.n:
        return rank(Matrix.from_rows(rows, cols=g.n)) == g.size
    for subset in combinations(rows, g.n):
        if rank(Matrix.from_rows(subset, cols=g.n)) != g.n:
            return False
    return True
