"""Nonnegative-but-not-SOS certificate forms.

A certificate packages p = sum(Q_i^2) + eps*R together with two kinds of
evidence that must never be conflated: exact linear algebra showing p is
not a sum of squares (p double-vanishes on Gamma yet lies outside the
degree-2d ordinary square, where every SOS form vanishing on Gamma
lies), and a purely numeric, sampled lower bound supporting
nonnegativity.  The numeric part is evidence, never proof.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .exact_linalg import Matrix, nullspace
from .ideal_components import PointConfiguration, in_ordinary_square
from .polynomials import (
    Form,
    ProjectivePoint,
    evaluate,
    gradient_eval,
    hessian_eval,
    monomial_basis,
    multiply,
)
from .rational import Rat, ZERO, rat, rat_str

# projected gradient steps from each sample toward a local minimum
REFINE_STEPS = 200


@dataclass(frozen=True)
class Certificate:
    p: Form
    gamma: PointConfiguration
    epsilon: "Rat"
    vanishes_order2: bool
    in_ordinary_square: bool
    roundness: tuple  # per-point booleans for the SOS part
    numeric_min: float | None = None
    numeric_argmin: tuple | None = None

    @property
    def in_symbolic(self) -> bool:
        """Whether p lies in the symbolic square: the gradient rows at the
        points cut it out, the conditions check_double_vanishing tests, so
        this is vanishes_order2."""
        return self.vanishes_order2

    @property
    def not_sos(self) -> bool:
        """Exact verdict: p double-vanishes on Gamma but is outside the
        ordinary square, hence outside the SOS face."""
        return self.vanishes_order2 and not self.in_ordinary_square

    def to_json(self):
        return {
            "p": self.p.to_json(),
            "gamma": self.gamma.to_json(),
            "epsilon": rat_str(self.epsilon),
            "not_sos_proof": {
                "vanishes_order2": self.vanishes_order2,
                "in_symbolic": self.in_symbolic,
                "in_ordinary_square": self.in_ordinary_square,
            },
            "not_sos": self.not_sos,
            "roundness": list(self.roundness),
            "numeric_min": {
                "kind": "float",
                "value": self.numeric_min,
                "argmin": list(self.numeric_argmin) if self.numeric_argmin else None,
            },
        }


def check_double_vanishing(p: Form, g: PointConfiguration) -> bool:
    """True iff the gradient of p vanishes at every point of Gamma."""
    return all(not any(gradient_eval(p, s)) for s in g.points)


def roundness_at(p: Form, s: ProjectivePoint) -> bool:
    """Positive definiteness of the Hessian of p on the hyperplane s-perp.

    Requires p to vanish to order >= 2 at s.  Decided exactly via
    Sylvester's criterion on the integer basis of s-perp: scaling basis
    vectors by nonzero integers is a congruence, which keeps the verdict.
    """
    if evaluate(p, s) != 0 or any(gradient_eval(p, s)):
        raise ValueError("form must vanish to order at least 2 at the point")
    h = hessian_eval(p, s)
    perp = nullspace(Matrix.from_rows([s.coords], cols=s.n))
    b = perp.basis.entries
    m = [
        [
            sum(
                (b[i][a] * h.entries[a][c] * b[j][c] for a in range(s.n) for c in range(s.n)),
                ZERO,
            )
            for j in range(len(b))
        ]
        for i in range(len(b))
    ]
    return _positive_definite(m)


def _positive_definite(m) -> bool:
    """Sylvester's criterion in one elimination pass without row exchanges.

    The k-th pivot is the ratio of the k-th to the (k-1)-th leading minor,
    so every leading minor is positive iff every pivot is.
    """
    m = [list(row) for row in m]
    for k in range(len(m)):
        pivot = m[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, len(m)):
            c = m[i][k] / pivot
            if c:
                m[i] = [a - c * b for a, b in zip(m[i], m[k])]
    return True


def sos_part(Qs) -> Form:
    p = None
    for q in Qs:
        sq = multiply(q, q)
        p = sq if p is None else p + sq
    if p is None:
        raise ValueError("need at least one form")
    return p


def build_certificate(Qs, R: Form, epsilon, gamma: PointConfiguration,
                      samples: int = 0, seed: int = 0) -> Certificate:
    """Assemble p = sum(Q_i^2) + eps*R and populate all exact verdicts.

    With samples > 0, also attaches a sampled numeric minimum on the unit
    sphere.
    """
    epsilon = rat(epsilon)
    degrees = {q.degree for q in Qs}
    if len(degrees) != 1:
        raise ValueError("all squared forms must have the same degree")
    d = degrees.pop()
    if R.degree != 2 * d:
        raise ValueError("R must have degree twice the squared forms")
    base = sos_part(Qs)
    p = base + R.scale(epsilon)
    cert = Certificate(
        p=p,
        gamma=gamma,
        epsilon=epsilon,
        vanishes_order2=check_double_vanishing(p, gamma),
        in_ordinary_square=in_ordinary_square(gamma, 2 * d, p.coeffs),
        roundness=tuple(roundness_at(base, s) for s in gamma.points),
    )
    if samples > 0:
        value, point = numeric_min_on_sphere(p, samples, seed)
        cert = replace(cert, numeric_min=value, numeric_argmin=tuple(point))
    return cert


def numeric_min_on_sphere(p: Form, samples: int, seed: int = 0):
    """Seeded sampling plus projected gradient descent on the unit sphere.

    By homogeneity the sign of p on projective space matches its sign on
    the Euclidean sphere.  Double precision; returns (value, argmin).
    """
    # imported here, so that importing conefaces does not load numpy
    import numpy as np

    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    exps = np.array(monomial_basis(p.n, p.degree), dtype=int)
    coefs = np.array([float(c) for c in p.coeffs])
    n = p.n
    deg = p.degree

    def power_tables(x):
        # tables[i][k] = x_i ** k, vectorized over samples
        tables = []
        for i in range(n):
            col = np.empty((deg + 1, x.shape[0]))
            col[0] = 1.0
            for k in range(1, deg + 1):
                col[k] = col[k - 1] * x[:, i]
            tables.append(col)
        return tables

    def monomials(tables, e):
        out = tables[0][e[0]].copy()
        for i in range(1, n):
            out *= tables[i][e[i]]
        return out

    def values(x):
        tables = power_tables(x)
        total = np.zeros(x.shape[0])
        for e, c in zip(exps, coefs):
            if c:
                total += c * monomials(tables, e)
        return total

    def gradients(x):
        tables = power_tables(x)
        g = np.zeros_like(x)
        for e, c in zip(exps, coefs):
            if not c:
                continue
            for j in range(n):
                if e[j]:
                    de = e.copy()
                    de[j] -= 1
                    g[:, j] += c * e[j] * monomials(tables, de)
        return g

    x = rng.standard_normal((samples, n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    f = values(x)
    step = np.full(samples, 0.1)
    for _ in range(REFINE_STEPS):
        g = gradients(x)
        # project onto the tangent space of the sphere
        g -= (g * x).sum(axis=1, keepdims=True) * x
        cand = x - step[:, None] * g
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        f_cand = values(cand)
        better = f_cand < f
        x[better] = cand[better]
        f[better] = f_cand[better]
        step[~better] *= 0.5
    best = int(np.argmin(f))
    return float(f[best]), tuple(float(c) for c in x[best])
