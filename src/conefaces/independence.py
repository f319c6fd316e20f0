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
from k on: one rank decides the whole window.  Above r, dim I_k(Gamma) is
dim H_{n,k} - |Gamma| without a rank.  The argument does not use
condition 2, so the window is settled this one way for every set.

Condition 2 asks that, for every point s, the values at the other points
and the gradient at s be |Gamma| + n - 1 independent conditions on
degree-d forms.  By Euler's identity, sum_i s_i d_i f(s) = d f(s), so the
value row at s lies in the span of the gradient rows at s, and those rows
span what the value rows at all of Gamma and the gradient rows restricted
to their kernel I_d span.  The rank is then the rank of the values at
Gamma, at most |Gamma|, plus the rank of the n x dim I_d matrix
[d_i f_j(s)] over a basis f_j of I_d, at most n - 1 since its rows satisfy
sum_i s_i row_i = d f_j(s) = 0.  So condition 2 holds exactly when
dim I_d = dim H_{n,d} - |Gamma| and every such matrix has rank n - 1, and
never when |Gamma| + n - 1 > dim H_{n,d}.  When it fails the verdict is
"no" whatever the Hilbert function says; independence_verdict then
returns it without ranking any value, and only is_d_independent, whose
report prints the window, ranks it.

When condition 2 holds, double points impose independent conditions in
degree 2d, so dim I^(2)_2d = dim H_{n,2d} - n|Gamma|, the generic
Alexander-Hirschowitz count.  At each s, condition 2 gives q in H_d with
q(s) = 1 and q = 0 on Gamma minus s, and q' in I_d whose gradients at s
span s-perp.  The products q q' and q^2 vanish doubly on Gamma minus s;
at s their gradients are grad q'(s), spanning s-perp, and 2 grad q(s),
outside s-perp since s . grad q(s) = d.  So the n|Gamma| gradient
functionals are independent, and symbolic_square_dim reads the dimension
from condition 2 instead of ranking them.
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
    """Linear independence of single vanishing plus one double vanishing,
    decided from the integer basis of I_d as the module docstring shows:
    dim I_d = dim H_{n,d} - |Gamma|, and at every point s the n x dim I_d
    matrix of the basis partials at s has rank n - 1.  That rank is exact
    elimination of n rows, at most n - 1 integer pivots, which costs less
    than a modular attempt.  Cached, so that the verdict, the report and
    symbolic_square_dim compute it once.
    """
    free = space_dim(g.n, d) - g.size
    if free < g.n - 1 or vanishing_dim(g, d) != free:
        return False
    basis = vanishing_component(g, d).basis.entries
    for s in g.points:
        rows = tuple(
            tuple(sum(a * b for a, b in zip(grad, f) if a) for f in basis)
            for grad in derivative_rows(s.integer_coords, d, 1)
        )
        if rank(Matrix(g.n, free, rows)) != g.n - 1:
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
    basis = vanishing_component(g, d).basis.entries
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


@lru_cache(maxsize=1024)
def is_d_independent(g: PointConfiguration, d: int) -> IndependenceReport:
    """Tri-state d-independence: condition 2 plus the Hilbert-function
    window k* .. k* + 1 (extended up to k* + n while it has not stabilized),
    k* = (n-1)(d-1) + d.

    The window is settled the same way for every set, whatever condition 2
    says.  With r the regularity index, the unreported degrees
    max(d, r + 1) .. k* - 1 are checked by a certified modular rank alone,
    against dim I_k(Gamma) = dim H_{n,k} - |Gamma| for k > r: one value of
    |Gamma| there fixes the whole window at |Gamma| (see the module
    docstring).  Otherwise each window degree is ranked exactly,
    until a value of |Gamma| above r fixes the rest, and the walk stops
    at the first two consecutive values that agree.
    """
    k_star = (g.n - 1) * (d - 1) + d
    r = _regularity_index(g, k_star + g.n)
    settled = any(
        meets_bound(_ideal_matrix(g, d, k), space_dim(g.n, k) - g.size)
        for k in range(max(d, r + 1), k_star)
    )
    values = []
    for k in range(k_star, k_star + g.n + 1):
        value = g.size if settled else hilbert_function(g, d, k)
        settled = value == g.size and k > r
        values.append((k, value))
        if len(values) > 1 and values[-2][1] == value:
            break

    cond2 = condition2_holds(g, d)
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
        stabilization_degree_used=values[-1][0],
    )


def independence_verdict(g: PointConfiguration, d: int) -> str:
    """is_d_independent(g, d).verdict, which is "no" as soon as condition 2
    fails: then no Hilbert function value is ranked.  Otherwise the report
    is computed, and cached for a later is_d_independent call."""
    return is_d_independent(g, d).verdict if condition2_holds(g, d) else "no"


def is_general_linear_position(g: PointConfiguration) -> bool:
    """No n points on a common hyperplane, projectively: every
    min(|Gamma|, n) of the coordinate vectors are linearly independent."""
    k = min(g.size, g.n)
    return all(
        rank(Matrix(k, g.n, subset)) == k
        for subset in combinations([p.integer_coords for p in g.points], k)
    )
