"""Vanishing-ideal components and the face dimension report."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conefaces.constructions import EXAMPLE_SIX_POINTS, SEVEN_POINTS_PERTURBED
from conefaces.exact_linalg import Matrix, contains, rank
from conefaces.ideal_components import (
    FaceReport,
    PointConfiguration,
    alpha,
    basis_forms,
    face_report,
    ordinary_square_component,
    ordinary_square_dim,
    symbolic_square_component,
    symbolic_square_dim,
    vanishing_component,
    vanishing_dim,
)
from conefaces.polynomials import evaluate, gradient_eval, multiply, space_dim


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
    for f in basis_forms(v, 3, 2):
        assert evaluate(f, g.points[0]) == 0


def test_symbolic_square_single_point():
    g = PointConfiguration(3, ((1, 1, 1),))
    s = symbolic_square_component(g, 4)
    assert s.dim == space_dim(3, 4) - 3
    for f in basis_forms(s, 3, 4):
        assert not any(gradient_eval(f, g.points[0]))


@given(configurations(3, 5))
@settings(max_examples=60, deadline=None)
def test_components_vanish_at_given_coordinates(g):
    # the kernels come from integer rescalings of the points; check them
    # against the rational coordinates as given
    v = vanishing_component(g, 2)
    s = symbolic_square_component(g, 4)
    for f in basis_forms(v, 3, 2):
        assert all(evaluate(f, p) == 0 for p in g.points)
    for f in basis_forms(s, 3, 4):
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
    # two plane points: alpha = 1, so degree-4 products include 1+3 splits
    g = PointConfiguration(3, ((1, 0, 0), (0, 1, 0)))
    assert alpha(g) == 1
    ordi = ordinary_square_component(g, 4)
    lin = basis_forms(vanishing_component(g, 1), 3, 1)[0]
    cubics = basis_forms(vanishing_component(g, 3), 3, 3)
    for c in cubics:
        assert contains(ordi, multiply(lin, c).coeffs)


@given(configurations(3, 5))
@settings(max_examples=120, deadline=None)
def test_containment_ordinary_in_symbolic(g):
    ordi = ordinary_square_component(g, 4)
    sym = symbolic_square_component(g, 4)
    assert ordi.dim <= sym.dim
    for v in ordi.basis.entries:
        assert contains(sym, v)


@given(configurations(3, 5))
@settings(max_examples=120, deadline=None)
def test_symbolic_lower_bound(g):
    # each double zero imposes at most n linear conditions
    sym = symbolic_square_component(g, 4)
    assert sym.dim >= space_dim(3, 4) - 3 * g.size


@given(configurations(3, 7))
@settings(max_examples=80, deadline=None)
def test_certified_dims_match_bases(g):
    assert vanishing_dim(g, 2) == vanishing_component(g, 2).dim
    assert symbolic_square_dim(g, 4) == symbolic_square_component(g, 4).dim
    assert ordinary_square_dim(g, 4) == ordinary_square_component(g, 4).dim


def test_ordinary_square_rank_falls_back_where_bound_cannot_be_met():
    # the products of I_2 span I^2_4 of dim 10 inside I^(2)_4 of dim 11;
    # their rank is checked against 11, which no modular rank can meet,
    # so exact elimination decides
    quadrics = basis_forms(vanishing_component(EXAMPLE_SIX_POINTS, 2), 4, 2)
    products = Matrix.from_rows(
        [multiply(f, h).coeffs for i, f in enumerate(quadrics) for h in quadrics[i:]]
    )
    bound = symbolic_square_dim(EXAMPLE_SIX_POINTS, 4)
    assert bound == 11
    assert rank(products, bound=bound) == rank(products) == 10
    assert ordinary_square_component(EXAMPLE_SIX_POINTS, 4).dim == 10
    assert ordinary_square_dim(EXAMPLE_SIX_POINTS, 4) == 10


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
