"""Closed-form gap bounds and the ternary prediction."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conefaces.gap_analysis import (
    GapProfile,
    ah_count,
    gap_profile,
    max_gap,
    max_independent_size,
    min_k_positive,
    naive_gap,
    ternary_prediction,
)
from conefaces.ideal_components import face_report, symbolic_square_dim
from conefaces.sampling import random_configuration


def test_naive_gap_known_values():
    # the bound at the maximizing k, spelled out
    assert naive_gap(4, 4, 6) == 35 - 24 - math.comb(5, 2)
    assert naive_gap(3, 6, 7) == 28 - 21 - math.comb(4, 2)


def test_naive_gap_range_validation():
    with pytest.raises(ValueError):
        naive_gap(3, 6, 0)
    with pytest.raises(ValueError):
        naive_gap(3, 6, 8)
    with pytest.raises(ValueError):
        naive_gap(3, 5, 1)


def test_max_gap_known():
    assert max_gap(4, 4) == (6, 1)
    assert max_gap(3, 6) == (7, 1)
    k, value = max_gap(3, 4)
    assert value == 0


def test_min_k_positive_known():
    for d in range(3, 7):
        assert min_k_positive(3, 2 * d) == math.comb(d + 1, 2) + 1
    assert min_k_positive(4, 4) == 6
    assert min_k_positive(3, 4) is None


@given(st.integers(2, 6), st.integers(2, 5))
@settings(max_examples=100, deadline=None)
def test_gap_bound_is_concave_and_bounded(n, d):
    two_d = 2 * d
    k_max = max_independent_size(n, d)
    values = [naive_gap(n, two_d, k) for k in range(1, k_max + 1)]
    assert max(values) == values[-1] == max_gap(n, two_d)[1]
    # concavity: second differences are constant and negative
    if len(values) >= 3:
        diffs = [b - a for a, b in zip(values, values[1:])]
        second = {b - a for a, b in zip(diffs, diffs[1:])}
        assert len(second) == 1 and next(iter(second)) < 0


@given(st.integers(2, 6), st.integers(1, 5), st.integers(1, 30))
@settings(max_examples=100, deadline=None)
def test_ah_count_nonnegative(n, d, k):
    assert ah_count(n, 2 * d, k) >= 0
    assert ah_count(n, 2 * d, k) >= math.comb(n + 2 * d - 1, 2 * d) - n * k


# The Alexander-Hirschowitz exceptions in n = 3, 4, 5 variables besides
# quadrics: there |Gamma| double points fail to impose independent conditions.
AH_EXCEPTIONS = {(3, 4, 5), (4, 4, 9), (5, 4, 14), (5, 3, 7)}


def test_symbolic_square_matches_alexander_hirschowitz():
    # Alexander-Hirschowitz (J. Algebraic Geom. 4, 1995): general double
    # points impose independent conditions, so the symbolic square has the
    # dimension ah_count, except for quadrics with 2 <= |Gamma| <= n - 1
    # and the listed (n, e, |Gamma|)
    for n in (3, 4, 5):
        for e in range(2, 7):
            for k in range(1, 16):
                g = random_configuration(n, k, seed=1000 * n + 100 * e + k)
                special = (e == 2 and 2 <= k <= n - 1) or (n, e, k) in AH_EXCEPTIONS
                expected = ah_count(n, e, k)
                if special:
                    assert symbolic_square_dim(g, e) != expected, (n, e, k)
                else:
                    assert symbolic_square_dim(g, e) == expected, (n, e, k)


def test_ternary_prediction():
    assert ternary_prediction(3, 5) == {"relation": "equal", "predicted_gap": 0}
    assert ternary_prediction(3, 6) == {"relation": "equal", "predicted_gap": 0}
    assert ternary_prediction(3, 7) == {"relation": "strict_gap", "predicted_gap": 1}
    assert ternary_prediction(4, 10) == {"relation": "equal", "predicted_gap": 0}
    assert ternary_prediction(4, 11) == {"relation": "strict_gap", "predicted_gap": 2}
    assert ternary_prediction(4, 12) == {"relation": "strict_gap", "predicted_gap": 3}
    assert ternary_prediction(3, 8)["relation"] == "out_of_range"
    with pytest.raises(ValueError):
        ternary_prediction(2, 3)
    with pytest.raises(ValueError):
        ternary_prediction(3, 0)


def test_gap_at_least_naive_bound_on_independent_sets():
    # on a d-independent set dim I^(2)_2d = dim H_{n,2d} - n|Gamma| and
    # I^2_2d is spanned by the products of I_d, at most
    # binomial(dim I_d + 1, 2) of them, so the gap is at least naive_gap
    for n, d in ((3, 3), (3, 4), (4, 2), (4, 3), (5, 2)):
        for k in range(1, max_independent_size(n, d) + 1):
            for seed in range(2):
                g = random_configuration(n, k, seed=seed, d_independent=d)
                assert face_report(g, d).gap >= naive_gap(n, 2 * d, k), (n, d, k, seed)


def test_quaternary_quartic_gaps():
    # generic sets in P^3 at d = 2: the gap is 0 up to five points and 1
    # at six, the paper's smallest strict gap
    assert [naive_gap(4, 4, k) for k in range(1, 7)] == [-14, -9, -5, -2, 0, 1]
    for k in range(1, 7):
        for seed in range(3):
            g = random_configuration(4, k, seed=seed, glp=True, d_independent=2)
            assert face_report(g, 2).gap == (1 if k == 6 else 0), (k, seed)


@pytest.mark.parametrize("d", [5, 6])
def test_ternary_prediction_matches_exact_gaps(d):
    # criterion 3 covers d = 3, 4; every admissible |Gamma| here
    for k in range(1, max_independent_size(3, d) + 1):
        g = random_configuration(3, k, seed=k, d_independent=d)
        assert face_report(g, d).gap == ternary_prediction(d, k)["predicted_gap"], k


def test_gap_profile():
    profile = gap_profile(3, 6)
    assert isinstance(profile, GapProfile)
    assert profile.k_max == 7
    assert profile.max_gap == 1
    assert profile.k_min_positive == 7
    assert profile.values[-1] == (7, 1)
    sliced = gap_profile(3, 6, (5, 7))
    assert [k for k, _ in sliced.values] == [5, 6, 7]
    with pytest.raises(ValueError):
        gap_profile(3, 6, (0, 7))
    data = profile.to_json()
    assert data["max_independent_hint"] == 7
