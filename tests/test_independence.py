"""d-independence verdicts, Hilbert functions, general linear position."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conefaces.constructions import (
    EXAMPLE_SIX_POINTS,
    SEVEN_POINTS_PERTURBED,
    SEVEN_POINTS_UNPERTURBED,
    snd_points,
)
from conefaces.exact_linalg import Matrix, rank
from conefaces.ideal_components import (
    PointConfiguration,
    _gradient_matrix,
    _regularity_index,
    face_report,
    symbolic_square_dim,
    vanishing_component,
    vanishing_dim,
)
from conefaces.independence import (
    condition2_holds,
    hilbert_function,
    is_d_independent,
    is_general_linear_position,
)
from conefaces.polynomials import (
    Form,
    ProjectivePoint,
    derivative_rows,
    monomial_basis,
    multiply,
    space_dim,
)
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


# five points on the line x3 = 0: every quadric through them contains it
COLLINEAR_FIVE = PointConfiguration(3, tuple((1, t, 0) for t in range(5)))


def condition2_full_rank(g, d):
    """Condition 2 as stated: for every point s, the value rows at the other
    points and the n gradient rows at s have full rank |Gamma| + n - 1,
    by exact elimination at the points' own coordinates."""
    target = g.size + g.n - 1
    if space_dim(g.n, d) < target:
        return False
    values = [derivative_rows(p.coords, d, 0)[0] for p in g.points]
    for i, s in enumerate(g.points):
        rows = values[:i] + values[i + 1:] + derivative_rows(s.coords, d, 1)
        if rank(Matrix.from_rows(rows)) != target:
            return False
    return True


@st.composite
def point_sets(draw):
    """(Gamma, d): random integer or rational points, points on a line or a
    plane conic, or more points than condition 2 can hold for."""
    kind = draw(st.sampled_from(
        ["integer", "rational", "collinear", "conic", "too_large"]
    ))
    # a line or a conic is special only in n >= 3 variables, and d + 1
    # points on a line fit the codimension count only from d = 2 on
    special = kind in ("collinear", "conic")
    n = draw(st.integers(3 if special else 2, 4))
    d = draw(st.integers(2 if kind == "collinear" else 1, 3))
    if kind == "rational":
        coord = st.fractions(-3, 3, max_denominator=4)
    else:
        coord = st.integers(-3, 3)
    vector = st.lists(coord, min_size=n, max_size=n)
    # |Gamma| + n - 1 <= dim H_{n,d} holds for every kind but the last
    fits = space_dim(n, d) - n + 1
    if kind == "collinear":
        # from d + 1 points on, every degree-d form through them contains
        # the line
        tail = st.lists(coord, min_size=n - 2, max_size=n - 2)
        a, b = draw(tail), draw(tail)
        coords = [
            [1, t] + [x + t * y for x, y in zip(a, b)]
            for t in range(draw(st.integers(d + 1, d + 2)))
        ]
    elif kind == "too_large":
        size = fits + 1 + draw(st.integers(0, 2))
        coords = draw(st.lists(vector, min_size=size, max_size=size))
    else:
        size = draw(st.integers(1, max(1, min(8, fits))))
        if kind == "conic":
            coords = [[1, t, t * t] + [0] * (n - 3) for t in range(size)]
        else:
            coords = draw(st.lists(vector, min_size=size, max_size=size))
    points = {}
    for c in coords:
        if any(c):
            points.setdefault(ProjectivePoint(tuple(c)).canonical(), c)
    assume(points)
    return PointConfiguration(n, tuple(points.values())), d


@given(point_sets())
@settings(max_examples=100, deadline=None)
def test_condition2_matches_full_rank_formulation(case):
    g, d = case
    assert condition2_holds(g, d) == condition2_full_rank(g, d)


def test_condition2_small_space_is_false():
    # |Gamma| + n - 1 = 8 > dim H_{3,2} = 6
    g = random_configuration(3, 6, seed=0)
    assert not condition2_holds(g, 2)


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


def test_collinear_three_in_p3_window():
    # I_2 of three collinear points cuts out their line, so HF grows by one
    # per degree and never reaches |Gamma|: every window rank misses its
    # bound vanishing_dim(g, k) and exact elimination decides each one
    g = PointConfiguration(4, ((-3, -1, -2, 2), (-1, 0, -2, 1), (1, 1, -2, 0)))
    report = is_d_independent(g, 2)
    assert report.hilbert_values == ((5, 6), (6, 7), (7, 8), (8, 9), (9, 10))
    assert not report.condition2
    assert report.verdict == "no"


def test_hilbert_function_falls_back_where_bound_cannot_be_met():
    # HF > |Gamma| means the products of I_2 span less than I_k(Gamma), so
    # their rank misses its bound vanishing_dim(g, k) and exact elimination
    # decides
    g = DEPENDENT_SIX
    quadrics = [Form(4, 2, row) for row in vanishing_component(g, 2).basis.entries]
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
    "g, d, condition2, verdict, settled",
    [
        pytest.param(random_configuration(4, 6, seed=0), 2, True, "yes", 6,
                     id="4-6-2-yes-6"),
        pytest.param(random_configuration(3, 6, seed=0), 3, True, "yes", 6,
                     id="3-6-3-yes-6"),
        pytest.param(random_configuration(3, 10, seed=0), 4, True, "yes", 10,
                     id="3-10-4-yes-10"),
        # condition 2 holds, but two cubics through 8 general plane points
        # meet in a ninth, and three quadrics through 7 general points in
        # P^3 in an eighth: the scan below k* never reaches |Gamma|
        pytest.param(random_configuration(3, 8, seed=0), 3, True, "no", 9,
                     id="3-8-3-no-9"),
        pytest.param(random_configuration(4, 7, seed=0), 2, True, "no", 8,
                     id="4-7-2-no-8"),
        # condition 2 fails, and the window is settled as for any set; on
        # the line, HF(4) = |Gamma| at the regularity index 4 fixes nothing
        pytest.param(DEPENDENT_SIX, 2, False, "no", 13, id="dependent-six-2-no"),
        pytest.param(COLLINEAR_FIVE, 2, False, "no", 8, id="collinear-five-2-no"),
    ],
)
def test_hilbert_values_match_direct_ranks(g, d, condition2, verdict, settled):
    # values read off below or inside the window equal the ranks at the
    # window degrees
    report = is_d_independent(g, d)
    assert report.condition2 == condition2
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
    # rational coordinates are ranked through their primitive integer vectors
    assert not is_general_linear_position(
        PointConfiguration(3, ((Fraction(1, 2), 1, 0), (Fraction(1, 3), 0, 1),
                               (Fraction(5, 6), 1, 1)))
    )
    assert is_general_linear_position(
        PointConfiguration(3, ((Fraction(1, 2), 1, 0), (Fraction(1, 3), 0, 1),
                               (Fraction(5, 6), 1, 2)))
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


def _distinct(n, coords):
    """The configuration of the nonzero, projectively distinct vectors."""
    points = {}
    for c in coords:
        if any(c):
            points.setdefault(ProjectivePoint(tuple(c)).canonical(), tuple(c))
    return PointConfiguration(n, tuple(points.values()))


def closed_form_sets():
    """(Gamma, d) for n = 2 .. 4 and d = 1 .. 3, with |Gamma| from 1 to one
    past the largest size condition 2 allows: random points, points with
    coordinates in {-1, 0, 1}, and points on a line or a rational normal
    curve; then sets where condition 2 fails for a known reason."""
    rng = random.Random(16)
    for n in (2, 3, 4):
        signs = [v for v in product((-1, 0, 1), repeat=n)
                 if any(v) and next(x for x in v if x) > 0]
        for d in (1, 2, 3):
            for size in range(1, space_dim(n, d) - n + 3):
                yield _distinct(n, [[rng.randint(-9, 9) for _ in range(n)]
                                    for _ in range(size)]), d
                if size <= len(signs):
                    yield _distinct(n, rng.sample(signs, size)), d
                ts = rng.sample(range(-6, 7), size) if size <= 13 else range(size)
                if size % 2:
                    a = [rng.randint(-3, 3) for _ in range(n)]
                    b = [rng.randint(-3, 3) for _ in range(n)]
                    curve = [[x + t * y for x, y in zip(a, b)] for t in ts]
                else:
                    curve = [[t ** i for i in range(n)] for t in ts]
                yield _distinct(n, curve), d
    yield DEPENDENT_SIX, 2
    yield COLLINEAR_FIVE, 2
    yield COLLINEAR_FIVE, 3
    # the Alexander-Hirschowitz exceptions at e = 2d: quadrics through
    # 2 .. n - 1 general points, and quartics through 5 points in P^2 and
    # 9 points in P^3
    yield random_configuration(4, 2, seed=1), 1
    yield random_configuration(4, 3, seed=1), 1
    yield random_configuration(3, 5, seed=1), 2
    yield random_configuration(4, 9, seed=1), 2


def test_symbolic_square_closed_form_matches_gradient_rank():
    # where condition 2 holds, symbolic_square_dim(g, 2d) is dim H_{n,2d}
    # - n|Gamma| without a rank; the exact gradient rank must agree there,
    # and everywhere else, where the certified rank is used
    held = failed = 0
    for g, d in closed_form_sets():
        m = _gradient_matrix(g, 2 * d)
        assert symbolic_square_dim(g, 2 * d) == m.cols - rank(m), (g, d)
        if condition2_holds(g, d):
            held += 1
        else:
            failed += 1
    assert held >= 100 and failed >= 50


@pytest.mark.parametrize(
    "g, d",
    [
        pytest.param(random_configuration(3, 5, seed=2), 2, id="random-3-5-2"),
        pytest.param(random_configuration(4, 6, seed=2), 2, id="random-4-6-2"),
        pytest.param(random_configuration(4, 7, seed=2), 2, id="random-4-7-2"),
        pytest.param(random_configuration(3, 8, seed=2), 3, id="random-3-8-3"),
        pytest.param(random_configuration(4, 3, seed=2), 3, id="random-4-3-3"),
        pytest.param(DEPENDENT_SIX, 2, id="dependent-six"),
        pytest.param(COLLINEAR_FIVE, 2, id="collinear-five"),
        pytest.param(PointConfiguration(3, tuple((t * t, t, 1) for t in range(6))),
                     2, id="conic-six"),
        pytest.param(_distinct(4, product((0, 1), repeat=4)), 2, id="cube-vertices"),
    ],
)
def test_vanishing_dim_above_regularity_index(g, d):
    # the settle scan of is_d_independent bounds its ranks by dim H_{n,k}
    # - |Gamma| at every k above the regularity index r
    k_star = (g.n - 1) * (d - 1) + d
    r = _regularity_index(g, k_star + g.n)
    assert r <= k_star + g.n
    for k in range(r + 1, k_star + g.n + 1):
        assert vanishing_dim(g, k) == space_dim(g.n, k) - g.size
