"""Vanishing-ideal components and the face dimension report."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conefaces import exact_linalg
from conefaces.certificates import sos_part
from conefaces.constructions import (
    EXAMPLE_SIX_POINTS,
    SEVEN_POINTS_PERTURBED,
    six_point_scheme,
)
from conefaces.exact_linalg import Matrix, nullspace, rank, span
from conefaces.gap_analysis import ternary_prediction
from conefaces.ideal_components import (
    FaceReport,
    PointConfiguration,
    _gradient_matrix,
    _regularity_index,
    _square_matrix,
    alpha,
    face_report,
    in_ordinary_square,
    ordinary_square_dim,
    symbolic_square_dim,
    vanishing_component,
    vanishing_dim,
)
from conefaces.polynomials import Form, evaluate, gradient_eval, multiply, space_dim
from conefaces.sampling import random_configuration


def configurations(n, max_size):
    # rational coordinates: matrix builders rescale each point to integers
    coord = st.builds(
        Fraction, st.integers(min_value=-5, max_value=5),
        st.integers(min_value=1, max_value=7),
    )
    coords = st.lists(coord, min_size=n, max_size=n).filter(lambda c: any(c))

    def build(point_lists):
        try:
            return PointConfiguration(n, tuple(tuple(p) for p in point_lists))
        except ValueError:
            return None

    return (
        st.lists(coords, min_size=1, max_size=max_size)
        .map(build)
        .filter(lambda g: g is not None)
    )


def on_curve(n, point_at, max_size):
    """Sets of distinct points point_at(t) for distinct integer parameters t."""
    return st.lists(
        st.integers(min_value=-6, max_value=6), min_size=1, max_size=max_size,
        unique=True,
    ).map(lambda ts: PointConfiguration(n, tuple(point_at(t) for t in ts)))


# a line and a conic in general coordinates: the regularity index of k
# points is k - 1 on the line and ceil((k - 1)/2) on the conic, and at least 1
PLANE_LINE = on_curve(3, lambda t: (1 + 2 * t, 3 - t, 2 + 5 * t), 7)
SPACE_LINE = on_curve(4, lambda t: (1 + t, 2 - 3 * t, t, 4 + t), 5)
PLANE_CONIC = on_curve(3, lambda t: (t * t + t + 1, 2 * t * t - 1, t * t - 3 * t), 7)


def symbolic_square_basis(g, e):
    """I^(2)_e as the kernel of the gradient rows at the points."""
    return nullspace(_gradient_matrix(g, e))


def ordinary_square_basis(g, e):
    """I^2_e as the span of the product rows."""
    m = _square_matrix(g, e)
    return span(m.entries, m.cols)


def test_point_configuration_validation():
    with pytest.raises(ValueError):
        PointConfiguration(3, ())
    with pytest.raises(ValueError):
        PointConfiguration(3, ((1, 0, 0), (2, 0, 0)))  # same projective point
    with pytest.raises(ValueError):
        PointConfiguration(3, ((1, 0),))
    g = PointConfiguration(2, ((1, 0), (0, 1)))
    assert PointConfiguration.from_json(g.to_json()) == g
    for data in (
        {"points": [[1, 0]]},
        {"n": 2},
        [[1, 0]],
        {"n": 2, "points": 5},
        {"n": 2, "points": [5]},
        {"n": 2, "points": [[1, None]]},
    ):
        with pytest.raises(ValueError):
            PointConfiguration.from_json(data)


def test_vanishing_component_single_point():
    g = PointConfiguration(3, ((1, 0, 0),))
    v = vanishing_component(g, 2)
    assert v.dim == space_dim(3, 2) - 1
    for f in [Form(3, 2, row) for row in v.basis.entries]:
        assert evaluate(f, g.points[0]) == 0


def test_symbolic_square_single_point():
    g = PointConfiguration(3, ((1, 1, 1),))
    s = symbolic_square_basis(g, 4)
    assert s.dim == space_dim(3, 4) - 3
    for f in [Form(3, 4, row) for row in s.basis.entries]:
        assert not any(gradient_eval(f, g.points[0]))


@given(configurations(3, 5))
@settings(max_examples=60, deadline=None)
def test_components_vanish_at_given_coordinates(g):
    # the kernels come from integer rescalings of the points; check them
    # against the rational coordinates as given
    v = vanishing_component(g, 2)
    s = symbolic_square_basis(g, 4)
    for f in [Form(3, 2, row) for row in v.basis.entries]:
        assert all(evaluate(f, p) == 0 for p in g.points)
    for f in [Form(3, 4, row) for row in s.basis.entries]:
        assert all(not any(gradient_eval(f, p)) for p in g.points)


def test_known_dimensions_six_points():
    r = face_report(EXAMPLE_SIX_POINTS, 2)
    assert (r.dim_Id, r.dim_I2_2d, r.dim_Isym2_2d, r.gap) == (4, 10, 11, 1)
    assert r.alpha == 2  # the six points span R^4, so no linear form vanishes


def test_known_dimensions_seven_points():
    r = face_report(SEVEN_POINTS_PERTURBED, 3)
    assert (r.dim_Id, r.gap) == (3, 1)
    assert r.d_independent == "yes"


def test_ordinary_square_uses_all_splits():
    # two plane points: alpha = 1, but I(Gamma) is generated in degrees
    # <= r + 1 = 2, so the rows are the products of I_2 alone; the 1+3
    # products must lie in their span
    g = PointConfiguration(3, ((1, 0, 0), (0, 1, 0)))
    assert alpha(g) == 1
    lin = Form(3, 1, vanishing_component(g, 1).basis.entries[0])
    cubics = [Form(3, 3, row) for row in vanishing_component(g, 3).basis.entries]
    for c in cubics:
        assert in_ordinary_square(g, 4, multiply(lin, c).coeffs)


@given(configurations(3, 5))
@settings(max_examples=120, deadline=None)
def test_containment_ordinary_in_symbolic(g):
    # every product row has zero gradient at every point
    gradients = _gradient_matrix(g, 4).entries
    for v in _square_matrix(g, 4).entries:
        assert not any(sum(a * b for a, b in zip(row, v)) for row in gradients)
    assert ordinary_square_dim(g, 4) <= symbolic_square_dim(g, 4)


@given(configurations(3, 5))
@settings(max_examples=120, deadline=None)
def test_symbolic_lower_bound(g):
    # each double zero imposes at most n linear conditions
    sym = symbolic_square_basis(g, 4)
    assert sym.dim >= space_dim(3, 4) - 3 * g.size


@given(configurations(3, 7))
@settings(max_examples=80, deadline=None)
def test_certified_dims_match_bases(g):
    assert vanishing_dim(g, 2) == vanishing_component(g, 2).dim
    assert symbolic_square_dim(g, 4) == symbolic_square_basis(g, 4).dim
    assert ordinary_square_dim(g, 4) == ordinary_square_basis(g, 4).dim


def all_splits_span(g, e):
    """I^2_e as the span of the products over every split alpha <= a <= e/2,
    with no use of the generation degree (for a = e - a, the pairs i <= j)."""
    products = []
    for a in range(alpha(g), e // 2 + 1):
        fa = [Form(g.n, a, row) for row in vanishing_component(g, a).basis.entries]
        fb = [Form(g.n, e - a, row)
              for row in vanishing_component(g, e - a).basis.entries]
        for i, f in enumerate(fa):
            products += [multiply(f, h).coeffs for h in fb[i if a == e - a else 0:]]
    return span(products, space_dim(g.n, e))


@given(
    st.one_of(configurations(3, 7), PLANE_LINE, PLANE_CONIC),
    st.integers(min_value=2, max_value=6),
)
@settings(max_examples=80, deadline=None)
def test_ordinary_square_matches_all_splits_plane(g, e):
    square = ordinary_square_basis(g, e)
    assert square == all_splits_span(g, e)
    assert ordinary_square_dim(g, e) == square.dim


@given(
    st.one_of(configurations(4, 5), SPACE_LINE),
    st.integers(min_value=2, max_value=6),
)
@settings(max_examples=15, deadline=None)
def test_ordinary_square_matches_all_splits_space(g, e):
    square = ordinary_square_basis(g, e)
    assert square == all_splits_span(g, e)
    assert ordinary_square_dim(g, e) == square.dim


def test_regularity_index():
    def line(k):
        return PointConfiguration(3, tuple((1 + 2 * t, 3 - t, 2 + 5 * t) for t in range(k)))

    def conic(k):
        return PointConfiguration(3, tuple((t * t, t, 1) for t in range(k)))

    assert [_regularity_index(line(k), 9) for k in range(1, 7)] == [1, 1, 2, 3, 4, 5]
    assert [_regularity_index(conic(k), 9) for k in range(1, 8)] == [1, 1, 1, 2, 2, 3, 3]
    assert _regularity_index(EXAMPLE_SIX_POINTS, 9) == 2
    assert _regularity_index(SEVEN_POINTS_PERTURBED, 9) == 3
    # past the limit the search stops at limit + 1
    assert [_regularity_index(line(6), limit) for limit in (0, 2, 4, 5)] == [1, 3, 5, 5]


def test_ordinary_square_rank_is_certified_in_strict_gap_cases(monkeypatch):
    # the products of I_d are independent in the paper's strict-gap cases,
    # so their modular rank meets the row count and no exact elimination
    # runs: six points in P^3, and generic plane sets of 7 points at d = 3
    # and of 11 and 12 points at d = 4
    plane = [
        (random_configuration(3, size, seed=0, d_independent=d), d)
        for size, d in ((7, 3), (11, 4), (12, 4))
    ]
    for g, d in plane + [(EXAMPLE_SIX_POINTS, 2)]:
        # fills the caches of the bases and of dim I^(2)
        ordinary_square_dim(g, 2 * d)

    def no_elimination(*args, **kwargs):
        raise AssertionError("exact elimination ran")

    monkeypatch.setattr(exact_linalg, "_echelon", no_elimination)
    assert ordinary_square_dim(EXAMPLE_SIX_POINTS, 4) == 10
    gaps = [symbolic_square_dim(g, 2 * d) - ordinary_square_dim(g, 2 * d) for g, d in plane]
    assert gaps == [1, 2, 3]
    assert gaps == [ternary_prediction(d, g.size)["predicted_gap"] for g, d in plane]


def test_ordinary_square_rank_falls_back_where_bound_cannot_be_met():
    # the ten products of I_2 span I^2_4 of dim 10 inside I^(2)_4 of dim
    # 11; checked against 11, which no modular rank can meet, their rank
    # is decided by exact elimination (ordinary_square_dim checks it
    # against the row count, 10, instead)
    quadrics = [Form(4, 2, row)
                for row in vanishing_component(EXAMPLE_SIX_POINTS, 2).basis.entries]
    products = Matrix.from_rows(
        [multiply(f, h).coeffs for i, f in enumerate(quadrics) for h in quadrics[i:]]
    )
    bound = symbolic_square_dim(EXAMPLE_SIX_POINTS, 4)
    assert bound == 11
    assert rank(products, bound=bound) == rank(products) == 10
    assert ordinary_square_basis(EXAMPLE_SIX_POINTS, 4).dim == 10
    assert ordinary_square_dim(EXAMPLE_SIX_POINTS, 4) == 10


# PRIME = 2 makes most modular ranks miss their bound, so exact elimination
# decides; the verdicts must not change
PRIMES = [exact_linalg.PRIME, 2]


@pytest.mark.parametrize("prime", PRIMES)
@given(configurations(3, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_in_ordinary_square_matches_exact_membership(prime, g, data):
    m = _square_matrix(g, 4)
    square = span(m.entries, m.cols)
    small = st.integers(min_value=-3, max_value=3)
    coeffs = data.draw(st.lists(small, min_size=m.rows, max_size=m.rows))
    inside = [sum(c * row[j] for c, row in zip(coeffs, m.entries))
              for j in range(m.cols)]
    other = data.draw(st.lists(
        st.one_of(small, st.fractions(-3, 3, max_denominator=5)),
        min_size=m.cols, max_size=m.cols,
    ))
    member = span([*square.basis.entries, other], m.cols) == square
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact_linalg, "PRIME", prime)
        assert in_ordinary_square(g, 4, inside)
        assert in_ordinary_square(g, 4, other) == member


@pytest.mark.parametrize("prime", PRIMES)
def test_in_ordinary_square_six_point_form(monkeypatch, prime):
    # R = x1 x2 x3 x4 double-vanishes on the six points without lying in
    # I^2_4; the SOS part does lie in it
    monkeypatch.setattr(exact_linalg, "PRIME", prime)
    scheme = six_point_scheme(EXAMPLE_SIX_POINTS)
    assert not in_ordinary_square(EXAMPLE_SIX_POINTS, 4, scheme.R.coeffs)
    assert in_ordinary_square(EXAMPLE_SIX_POINTS, 4, sos_part(scheme.Q).coeffs)
    with pytest.raises(ValueError):
        in_ordinary_square(EXAMPLE_SIX_POINTS, 4, scheme.Q[0].coeffs)


def test_face_report_without_the_window():
    # both sets fail condition 2, so the verdict is "no" with no Hilbert
    # function ranked; their windows never stabilize
    g = random_configuration(4, 8, seed=0)
    r = face_report(g, 2)
    assert (r.dim_Id, r.dim_I2_2d, r.dim_Isym2_2d, r.alpha) == (2, 3, 3, 2)
    assert r.d_independent == "no"
    g = PointConfiguration(5, (
        (0, -1, 0, 0, 0), (-1, -1, -1, 0, 1), (0, 0, -1, 0, 0),
        (-1, 0, 0, 0, -1), (-1, 1, -1, 1, 1), (-1, 1, 0, 0, -1),
        (-1, -1, -1, 0, 0), (0, -1, -1, 1, 0), (-1, 1, -1, 0, 1),
    ))
    r = face_report(g, 2)
    assert (r.dim_Id, r.dim_I2_2d, r.dim_Isym2_2d, r.alpha) == (6, 21, 27, 2)
    assert r.d_independent == "no"


def test_alpha_values():
    assert alpha(PointConfiguration(2, ((1, 0),))) == 1
    assert alpha(PointConfiguration(3, ((1, 0, 0), (0, 1, 0)))) == 1
    assert alpha(EXAMPLE_SIX_POINTS) == 2
    assert alpha(SEVEN_POINTS_PERTURBED) == 3


def test_face_report_rejects_bad_degree():
    with pytest.raises(ValueError):
        face_report(EXAMPLE_SIX_POINTS, 0)
    with pytest.raises(ValueError):
        vanishing_component(EXAMPLE_SIX_POINTS, 0)


def test_face_report_json_keys():
    data = face_report(EXAMPLE_SIX_POINTS, 2).to_json()
    assert data["gap"] == data["dim_Isym2_2d"] - data["dim_I2_2d"]
    assert data["d_independent"] in {"yes", "no", "indeterminate"}


def test_face_report_gap_nonnegative_guard():
    with pytest.raises(ValueError):
        FaceReport(
            n=3, d=2, gamma_size=1, dim_Id=1, dim_I2_2d=5, dim_Isym2_2d=4,
            alpha=1, d_independent="yes",
        )
