"""d-independence verdicts, Hilbert functions, general linear position."""

import pytest

from conefaces.constructions import (
    EXAMPLE_SIX_POINTS,
    SEVEN_POINTS_PERTURBED,
    SEVEN_POINTS_UNPERTURBED,
    snd_points,
)
from conefaces.exact_linalg import Matrix, rank
from conefaces.ideal_components import (
    PointConfiguration,
    basis_forms,
    face_report,
    vanishing_component,
    vanishing_dim,
)
from conefaces.independence import (
    condition2_holds,
    hilbert_function,
    is_d_independent,
    is_general_linear_position,
)
from conefaces.polynomials import Form, monomial_basis, multiply, space_dim
from conefaces.sampling import random_configuration

# four of the six points lie on x4 = 0, three of them collinear: any
# quadric through the three vanishes on their whole line, and the double
# vanishing conditions degenerate
DEPENDENT_SIX = PointConfiguration(
    4,
    (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (1, 1, 0, 0),
        (0, 0, 1, 0),
        (1, 0, 0, 1),
        (0, 1, 1, 1),
    ),
)


def test_condition2_small_space_raises():
    # |Gamma| + n - 1 = 8 > dim H_{3,2} = 6
    g = random_configuration(3, 6, seed=0)
    with pytest.raises(ValueError):
        condition2_holds(g, 2)


def test_condition2_known_cases():
    assert condition2_holds(EXAMPLE_SIX_POINTS, 2)
    assert condition2_holds(SEVEN_POINTS_PERTURBED, 3)


def test_hilbert_function_stabilizes_at_size():
    g = random_configuration(3, 4, seed=1)
    k_star = 2 * 2 + 3  # (n-1)(d-1) + d for n = d = 3
    assert hilbert_function(g, 3, k_star) == 4
    assert hilbert_function(g, 3, k_star + 1) == 4
    with pytest.raises(ValueError):
        hilbert_function(g, 3, 2)


def test_independent_verdicts():
    for g, d in [
        (EXAMPLE_SIX_POINTS, 2),
        (SEVEN_POINTS_PERTURBED, 3),
        (SEVEN_POINTS_UNPERTURBED, 3),
        (snd_points(3, 3), 3),
    ]:
        report = is_d_independent(g, d)
        assert report.verdict == "yes"
        assert report.condition2
        assert report.hilbert_values[-1][1] == g.size


def test_dependent_four_on_hyperplane():
    report = is_d_independent(DEPENDENT_SIX, 2)
    assert report.verdict == "no"
    assert not report.condition2


def test_hilbert_function_falls_back_where_bound_cannot_be_met():
    # HF > |Gamma| means the products of I_2 span less than I_k(Gamma), so
    # their rank misses its bound vanishing_dim(g, k) and exact elimination
    # decides
    g = DEPENDENT_SIX
    quadrics = basis_forms(vanishing_component(g, 2), 4, 2)
    for k in (5, 6):
        products = Matrix.from_rows(
            [multiply(Form.from_terms(4, k - 2, {exp: 1}), q).coeffs
             for exp in monomial_basis(4, k - 2) for q in quadrics]
        )
        exact = space_dim(4, k) - rank(products)
        assert exact > g.size
        assert space_dim(4, k) - exact < vanishing_dim(g, k)
        assert hilbert_function(g, 2, k) == exact


@pytest.mark.parametrize(
    "n, size, d, verdict, settled",
    [
        (4, 6, 2, "yes", 6),
        (3, 6, 3, "yes", 6),
        (3, 10, 4, "yes", 10),
        # condition 2 holds, but two cubics through 8 general plane points
        # meet in a ninth, and three quadrics through 7 general points in
        # P^3 in an eighth: the scan below k* never reaches |Gamma|
        (3, 8, 3, "no", 9),
        (4, 7, 2, "no", 8),
    ],
)
def test_hilbert_values_match_direct_ranks(n, size, d, verdict, settled):
    # values read off below the window equal the ranks at the window degrees
    g = random_configuration(n, size, seed=0)
    report = is_d_independent(g, d)
    assert report.condition2
    assert report.verdict == verdict
    assert report.hilbert_values[-1][1] == settled
    for k, value in report.hilbert_values:
        assert hilbert_function(g, d, k) == value


def test_four_coplanar_but_generic_is_still_independent():
    # coplanarity alone does not break 2-independence
    g = PointConfiguration(
        4,
        (
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (1, 1, 1, 0),
            (1, 0, 0, 1),
            (0, 1, 1, 1),
        ),
    )
    assert is_d_independent(g, 2).verdict == "yes"


def test_too_many_points_is_no():
    # 7 plane points cannot be 2-independent: dim H_{3,2} = 6 < 7 + 2
    g = random_configuration(3, 7, seed=3)
    assert is_d_independent(g, 2).verdict == "no"


def test_face_report_verdict_is_the_report_verdict():
    # the degenerate set of criterion 5 and a set too large for condition
    # 2 fail it; 8 general plane points pass it, and two cubics through
    # them meet in a ninth point
    for g, d, cond2 in (
        (DEPENDENT_SIX, 2, False),
        (random_configuration(3, 7, seed=3), 2, False),
        (random_configuration(3, 8, seed=0), 3, True),
    ):
        report = is_d_independent(g, d)
        assert report.condition2 == cond2
        assert face_report(g, d).d_independent == report.verdict == "no"


def test_verdict_fills_the_report_cache():
    # condition 2 holds, so face_report's verdict computes the whole report;
    # is_d_independent then reads it from the cache, and condition 2 is
    # computed once
    g = random_configuration(3, 8, seed=0)
    is_d_independent.cache_clear()
    fresh = is_d_independent(g, 3).to_json()
    is_d_independent.cache_clear()
    condition2_holds.cache_clear()
    verdict = face_report(g, 3).d_independent
    hits = is_d_independent.cache_info().hits
    report = is_d_independent(g, 3)
    assert is_d_independent.cache_info().hits == hits + 1
    assert condition2_holds.cache_info().misses == 1
    assert report.to_json() == fresh
    assert report.verdict == verdict


def test_report_json():
    data = is_d_independent(SEVEN_POINTS_PERTURBED, 3).to_json()
    assert data["verdict"] == "yes"
    assert all(len(kv) == 2 for kv in data["hilbert_values"])


def test_general_linear_position():
    assert is_general_linear_position(
        PointConfiguration(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
    )
    assert not is_general_linear_position(
        PointConfiguration(3, ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)))
    )
    # fewer points than variables: linear independence
    assert is_general_linear_position(PointConfiguration(3, ((1, 0, 0), (0, 1, 0))))
    assert not is_general_linear_position(
        PointConfiguration(3, ((1, 0, 0), (2, 0, 1), (1, 0, 2)))
    )


def test_example_six_points_not_glp():
    # s1 - s2 - s5 + s6 = 0, so four of the points span only a hyperplane
    assert not is_general_linear_position(EXAMPLE_SIX_POINTS)


def test_random_configuration_predicates():
    g = random_configuration(4, 6, seed=7, glp=True)
    assert is_general_linear_position(g)
    assert random_configuration(4, 6, seed=7, glp=True) == g  # deterministic
    g2 = random_configuration(3, 7, seed=2, d_independent=3)
    assert is_d_independent(g2, 3).verdict == "yes"
    with pytest.raises(ValueError):
        random_configuration(3, 8, d_independent=3)
