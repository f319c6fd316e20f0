"""Partition point sets, the six-point scheme, and the seven-point scheme."""

import hashlib
import json
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conefaces.constructions import (
    DEFAULT_TRIPLES,
    EXAMPLE_SIX_POINTS,
    SEVEN_POINTS_PERTURBED,
    SEVEN_POINTS_UNPERTURBED,
    GenericityError,
    _dual_vectors,
    seven_point_scheme,
    six_point_scheme,
    snd_basis,
    snd_points,
)
from conefaces.exact_linalg import PRIME, Matrix, rank, span
from conefaces.ideal_components import (
    PointConfiguration,
    _square_matrix,
    vanishing_component,
)
from conefaces.polynomials import (
    Form,
    ProjectivePoint,
    evaluate,
    gradient_eval,
    space_dim,
)
from conefaces.rational import rat
from conefaces.sampling import random_configuration


def outside_square(g, e, f):
    """Whether f's row raises the rank of the rows spanning I^2_e."""
    m = _square_matrix(g, e)
    grown = Matrix.from_rows([*m.entries, f.coeffs], cols=m.cols)
    return rank(grown) == rank(m) + 1


def test_snd_points_counts():
    for n, d in [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]:
        pts = snd_points(n, d)
        assert pts.size == math.comb(n + d - 1, d) - n
        full = snd_points(n, d, include_vertices=True)
        assert full.size == math.comb(n + d - 1, d)
    with pytest.raises(ValueError):
        snd_points(1, 2)


def test_snd_basis_vanishes_and_hits_vertices():
    for n, d in [(3, 2), (3, 3), (4, 2)]:
        basis = snd_basis(n, d)
        pts = snd_points(n, d)
        for q in basis:
            for p in pts.points:
                assert evaluate(q, p) == 0
        for i, q in enumerate(basis):
            e = ProjectivePoint(tuple(rat(int(j == i)) for j in range(n)))
            assert evaluate(q, e) == rat(math.factorial(d))
            for j in range(n):
                if j != i:
                    other = ProjectivePoint(tuple(rat(int(k == j)) for k in range(n)))
                    assert evaluate(q, other) == 0


def test_snd_basis_spans_vanishing_component():
    for n, d in [(3, 2), (3, 3), (4, 2), (4, 3)]:
        v = vanishing_component(snd_points(n, d), d)
        assert v.dim == n
        assert span([q.coeffs for q in snd_basis(n, d)], space_dim(n, d)) == v


def test_six_point_scheme_example():
    scheme = six_point_scheme(EXAMPLE_SIX_POINTS)
    assert scheme.triples == DEFAULT_TRIPLES
    # Q_i = x_i (x_i - x_j - x_k - x_l) up to scale
    expected = {
        Form.from_terms(
            4,
            2,
            {
                tuple(2 * (m == i) for m in range(4)): 1,
                **{
                    tuple((m == i) + (m == j) for m in range(4)): -1
                    for j in range(4)
                    if j != i
                },
            },
        ).normalized()
        for i in range(4)
    }
    assert {q.normalized() for q in scheme.Q} == expected
    assert scheme.R == Form.from_terms(4, 4, {(1, 1, 1, 1): 1})


def test_six_point_scheme_properties():
    scheme = six_point_scheme(EXAMPLE_SIX_POINTS)
    # R separates: double-vanishes on the points without being a product
    for s in scheme.gamma.points:
        assert not any(gradient_eval(scheme.R, s))
    assert outside_square(EXAMPLE_SIX_POINTS, 4, scheme.R)
    for q in scheme.Q:
        assert all(evaluate(q, s) == 0 for s in scheme.gamma.points)


def test_six_point_scheme_random_glp():
    for seed in range(3):
        g = random_configuration(4, 6, seed=seed, glp=True)
        scheme = six_point_scheme(g)
        assert outside_square(g, 4, scheme.R)


def test_six_point_scheme_rejects_bad_input():
    with pytest.raises(ValueError):
        six_point_scheme(random_configuration(4, 5, seed=0))


def test_seven_point_scheme_perturbed():
    scheme = seven_point_scheme(SEVEN_POINTS_PERTURBED)
    g = scheme.gamma
    for q in scheme.Q:
        assert all(evaluate(q, s) == 0 for s in g.points)
    for s in g.points:
        assert not any(gradient_eval(scheme.R, s))
    assert outside_square(g, 6, scheme.R)
    # the Q_i span the cubic vanishing component
    assert span([q.coeffs for q in scheme.Q], space_dim(3, 3)) == vanishing_component(
        g, 3
    )


def test_seven_point_scheme_unperturbed_guard():
    with pytest.raises(GenericityError) as exc:
        seven_point_scheme(SEVEN_POINTS_UNPERTURBED)
    assert "K1(u3*) = 0" in str(exc.value)


def test_seven_point_scheme_rejects_bad_input():
    with pytest.raises(ValueError):
        seven_point_scheme(random_configuration(3, 6, seed=0))
    # six of the seven on a line: not 3-independent
    bad = PointConfiguration(
        3,
        (
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
            (1, 1, 0),
            (1, 2, 0),
            (1, 3, 0),
            (1, 4, 0),
        ),
    )
    with pytest.raises(ValueError):
        seven_point_scheme(bad)


def laplace_det(rows):
    """Determinant by expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0])
        if x
    )


square_rows = st.sampled_from([3, 4]).flatmap(
    lambda n: st.lists(
        st.tuples(*[st.integers(-5, 5)] * n), min_size=n, max_size=n
    ).map(tuple)
)


@given(square_rows)
@settings(max_examples=200, deadline=None)
def test_dual_vectors(rows):
    if not laplace_det(rows):
        with pytest.raises(GenericityError, match="^matrix is singular$"):
            _dual_vectors(rows)
        return
    duals = _dual_vectors(rows)
    assert len(duals) == len(rows)
    for j, w in enumerate(duals):
        assert any(w)
        for i, row in enumerate(rows):
            value = sum(a * b for a, b in zip(row, w))
            assert (value != 0) == (i == j)


def test_dual_vectors_rank_is_exact():
    # det = PRIME: singular modulo the certifying prime, not over Q
    rows = ((1, 1, 0), (1, PRIME + 1, 0), (0, 0, 1))
    assert laplace_det(rows) == PRIME
    assert len(_dual_vectors(rows)) == 3
    with pytest.raises(GenericityError, match="^matrix is singular$"):
        _dual_vectors(((1, 2, 3), (2, 4, 6), (0, 0, 1)))


@given(square_rows)
@settings(max_examples=50, deadline=None)
def test_dual_vectors_parallel_to_inverse_columns(rows):
    sympy = pytest.importorskip("sympy")
    assume(laplace_det(rows))
    inv = sympy.Matrix(rows).inv()
    for j, w in enumerate(_dual_vectors(rows)):
        col = [inv[i, j] for i in range(len(rows))]
        w = [sympy.Rational(x.numerator, x.denominator) for x in w]
        # every 2x2 minor of [w | col] vanishes
        assert all(
            w[a] * col[b] == w[b] * col[a]
            for a in range(len(w))
            for b in range(a + 1, len(w))
        )


def test_scheme_json():
    data = six_point_scheme(EXAMPLE_SIX_POINTS).to_json()
    assert set(data) == {"gamma", "triples", "u", "v", "Q", "R"}
    data = seven_point_scheme(SEVEN_POINTS_PERTURBED).to_json()
    assert set(data) == {"gamma", "u", "K_conics", "K", "Q", "R"}


def draw_points(n, size, bound, seed):
    """size distinct projective points in n variables, coordinates in
    [-bound, bound], drawn from a seeded generator."""
    rng = random.Random(f"{n}/{bound}/{seed}")
    points, seen = [], set()
    while len(points) < size:
        coords = tuple(rng.randint(-bound, bound) for _ in range(n))
        if any(coords):
            key = ProjectivePoint(coords).canonical()
            if key not in seen:
                seen.add(key)
                points.append(coords)
    return PointConfiguration(n, tuple(points))


# SHA-256 of every outcome of the corpus below: the scheme's JSON, or the
# message of the ValueError a guard raised.  Any change to a scheme, a
# guard or a guard's message changes it.
OUTCOME_CORPUS_SHA256 = (
    "d61e84a7a951aa36b8ac5ccb8958b3ed7227bc7598293d789f27d234f273f669"
)


def test_scheme_outcome_corpus():
    digest = hashlib.sha256()
    messages = set()
    for build, n, size in ((six_point_scheme, 4, 6), (seven_point_scheme, 3, 7)):
        for bound in (2, 3, 9):
            for seed in range(50):
                try:
                    scheme = build(draw_points(n, size, bound, seed))
                    out = json.dumps(scheme.to_json(), sort_keys=True)
                except ValueError as exc:
                    out = f"error: {exc}"
                    messages.add(str(exc))
                digest.update(out.encode() + b"\n")
    # the corpus reaches every guard
    for message in (
        "<u1, v1*> = 0",
        "K2(u3*) = 0, K3(u1*) = 0",
        "matrix is singular",
        "expected a one-dimensional kernel, got dimension 2",
        "the seven points must be 3-independent",
    ):
        assert message in messages, message
    assert digest.hexdigest() == OUTCOME_CORPUS_SHA256
