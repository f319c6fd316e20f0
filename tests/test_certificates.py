"""Certificates: exact not-SOS verdicts, roundness, numeric evidence."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conefaces
from conefaces.certificates import (
    _positive_definite,
    build_certificate,
    check_double_vanishing,
    numeric_min_on_sphere,
    roundness_at,
    sos_part,
)
from conefaces.constructions import (
    EXAMPLE_SIX_POINTS,
    SEVEN_POINTS_PERTURBED,
    seven_point_scheme,
    six_point_scheme,
)
from conefaces.polynomials import Form, ProjectivePoint


@pytest.fixture(scope="module")
def six():
    return six_point_scheme(EXAMPLE_SIX_POINTS)


@pytest.fixture(scope="module")
def seven():
    return seven_point_scheme(SEVEN_POINTS_PERTURBED)


def test_check_double_vanishing(six):
    assert check_double_vanishing(six.R, six.gamma)
    x1sq = Form.from_terms(4, 2, {(2, 0, 0, 0): 1})
    assert not check_double_vanishing(x1sq, six.gamma)


def test_roundness(six):
    base = sos_part(six.Q)
    for s in six.gamma.points:
        assert roundness_at(base, s)
    # x1^2 x2^2 has a degenerate Hessian restricted to (1,0,0,0)-perp
    flat = Form.from_terms(4, 4, {(2, 2, 0, 0): 1})
    assert not roundness_at(flat, ProjectivePoint((1, 0, 0, 0)))
    with pytest.raises(ValueError):
        roundness_at(Form.from_terms(4, 4, {(4, 0, 0, 0): 1}), ProjectivePoint((1, 1, 1, 1)))


@st.composite
def symmetric_matrices(draw):
    # B B^T + t I is positive definite for t > 0, semidefinite for t = 0
    # and indefinite for some t < 0; plain symmetric draws cover zero pivots
    k = draw(st.integers(min_value=1, max_value=5))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    a = [[draw(entry) for _ in range(k)] for _ in range(k)]
    if draw(st.booleans()):
        t = draw(st.fractions(min_value=-2, max_value=1, max_denominator=4))
        return [
            [sum(x * y for x, y in zip(a[i], a[j])) + (t if i == j else 0)
             for j in range(k)]
            for i in range(k)
        ]
    return [[a[min(i, j)][max(i, j)] for j in range(k)] for i in range(k)]


@given(symmetric_matrices())
@settings(max_examples=200, deadline=None)
def test_positive_definite_matches_sylvester(m):
    sympy = pytest.importorskip("sympy")
    sm = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                       for row in m])
    leading_minors = [sm[:k, :k].det() for k in range(1, len(m) + 1)]
    assert _positive_definite(m) == all(minor > 0 for minor in leading_minors)


def test_certificate_six(six):
    cert = build_certificate(list(six.Q), six.R, 1, six.gamma)
    assert cert.vanishes_order2
    assert cert.in_symbolic
    assert not cert.in_ordinary_square
    assert cert.not_sos
    assert all(cert.roundness)
    assert cert.numeric_min is None


def test_certificate_epsilon_zero_is_sos(six):
    cert = build_certificate(list(six.Q), six.R, 0, six.gamma)
    assert cert.in_ordinary_square
    assert not cert.not_sos


def test_certificate_seven(seven):
    cert = build_certificate(list(seven.Q), seven.R, 1, seven.gamma)
    assert cert.not_sos
    assert all(cert.roundness)


def test_certificate_numeric_attachment(six):
    cert = build_certificate(
        list(six.Q), six.R, 1, six.gamma, samples=500, seed=0
    )
    assert cert.numeric_min is not None
    assert cert.numeric_min >= -1e-9
    assert len(cert.numeric_argmin) == 4
    data = cert.to_json()
    assert data["numeric_min"]["kind"] == "float"
    assert data["not_sos"]


def test_certificate_degree_validation(six):
    with pytest.raises(ValueError):
        build_certificate([six.Q[0]], six.Q[0], 1, six.gamma)  # R has the wrong degree
    mixed = [six.Q[0], Form.from_terms(4, 3, {(1, 1, 1, 0): 1})]
    with pytest.raises(ValueError):
        build_certificate(mixed, six.R, 1, six.gamma)
    with pytest.raises(ValueError):
        sos_part([])


def test_numeric_min_deterministic(six):
    p = sos_part(six.Q)
    a = numeric_min_on_sphere(p, 200, seed=3)
    b = numeric_min_on_sphere(p, 200, seed=3)
    assert a == b
    with pytest.raises(ValueError):
        numeric_min_on_sphere(p, 0)


def test_numeric_min_finds_negative_values():
    # x1^4 - 3 x1^2 x2^2 is negative near the diagonal
    p = Form.from_terms(2, 4, {(4, 0): 1, (2, 2): -3})
    value, argmin = numeric_min_on_sphere(p, 500, seed=1)
    assert value < -0.4
    assert abs(sum(c * c for c in argmin) - 1.0) < 1e-9


def test_import_does_not_load_numpy():
    # numpy is loaded on first use by the numeric minimum and the modular rank
    src = str(Path(conefaces.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import sys, conefaces; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "False\n"
