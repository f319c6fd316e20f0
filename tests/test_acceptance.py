"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Exact criteria are asserted with zero tolerance; the only numeric assertion
(criterion 6) states its tolerance inline.
"""

import math
import sys
import time

import pytest

from conefaces.certificates import build_certificate, numeric_min_on_sphere
from conefaces.constructions import (
    EXAMPLE_SIX_POINTS,
    SEVEN_POINTS_PERTURBED,
    SEVEN_POINTS_UNPERTURBED,
    GenericityError,
    seven_point_scheme,
    six_point_scheme,
    snd_basis,
    snd_points,
)
from conefaces.exact_linalg import Matrix, nullspace, rank, span
from conefaces.gap_analysis import max_gap, min_k_positive, naive_gap, ternary_prediction
from conefaces.ideal_components import (
    PointConfiguration,
    _gradient_matrix,
    _square_matrix,
    face_report,
    vanishing_component,
)
from conefaces.independence import is_d_independent
from conefaces.polynomials import (
    Form,
    ProjectivePoint,
    evaluate,
    gradient_eval,
    linear_form,
    multiply,
    space_dim,
)
from conefaces.rational import rat
from conefaces.sampling import random_configuration


def _report(num, ok):
    print(
        f"criterion {num}: {'PASS' if ok else 'FAIL'}",
        file=sys.__stdout__,
        flush=True,
    )


def test_criterion_1_six_point_dimensions():
    ok = False
    try:
        start = time.monotonic()
        configs = [EXAMPLE_SIX_POINTS] + [
            random_configuration(4, 6, seed=seed, glp=True) for seed in range(20)
        ]
        for g in configs:
            r = face_report(g, 2)
            assert (r.dim_I2_2d, r.dim_Isym2_2d) == (10, 11)
        assert time.monotonic() - start < 5.0
        ok = True
    finally:
        _report(1, ok)


def test_criterion_2_smaller_configurations():
    ok = False
    try:
        expected = {5: (15, 15), 4: (19, 19), 3: (23, 23), 2: (27, 27)}
        for size, dims in expected.items():
            for seed in range(10):
                g = random_configuration(4, size, seed=seed, glp=True)
                r = face_report(g, 2)
                assert (r.dim_I2_2d, r.dim_Isym2_2d) == dims
        ok = True
    finally:
        _report(2, ok)


def test_criterion_3_ternary_gaps():
    ok = False
    try:
        for d, max_size in ((3, 7), (4, 12)):
            # record the predictions before touching the exact oracle
            predicted = {}
            for size in range(1, max_size + 1):
                pred = ternary_prediction(d, size)
                assert pred["relation"] in {"equal", "strict_gap"}
                predicted[size] = pred["predicted_gap"]
            if d == 3:
                assert predicted == {1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 1}
            else:
                assert predicted == {
                    **{k: 0 for k in range(1, 11)}, 11: 2, 12: 3,
                }
            for size in range(1, max_size + 1):
                for seed in range(10):
                    g = random_configuration(3, size, seed=seed, d_independent=d)
                    assert face_report(g, d).gap == predicted[size]
        ok = True
    finally:
        _report(3, ok)


def test_criterion_4_partition_point_sets():
    ok = False
    try:
        for n, d in [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2)]:
            full = snd_points(n, d, include_vertices=True)
            assert vanishing_component(full, d).dim == 0
            pts = snd_points(n, d)
            v = vanishing_component(pts, d)
            assert v.dim == n
            assert span([q.coeffs for q in snd_basis(n, d)], space_dim(n, d)) == v
        ok = True
    finally:
        _report(4, ok)


def test_criterion_5_independence_verdicts():
    ok = False
    try:
        for n, d in [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2)]:
            assert is_d_independent(snd_points(n, d), d).verdict == "yes"
        for seed in range(3):
            g = random_configuration(4, 6, seed=seed, glp=True)
            assert is_d_independent(g, 2).verdict == "yes"
        assert is_d_independent(SEVEN_POINTS_PERTURBED, 3).verdict == "yes"
        degenerate = PointConfiguration(
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
        assert is_d_independent(degenerate, 2).verdict == "no"
        ok = True
    finally:
        _report(5, ok)


def test_criterion_6_six_point_certificate():
    ok = False
    try:
        scheme = six_point_scheme(EXAMPLE_SIX_POINTS)
        expected_q = {
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
        assert {q.normalized() for q in scheme.Q} == expected_q
        assert scheme.R.normalized() == Form.from_terms(4, 4, {(1, 1, 1, 1): 1})
        # R's row raises the rank of the rows spanning I^2_4
        square = _square_matrix(EXAMPLE_SIX_POINTS, 4)
        grown = Matrix.from_rows([*square.entries, scheme.R.coeffs], cols=square.cols)
        assert rank(grown) == rank(square) + 1
        cert = build_certificate(
            list(scheme.Q), scheme.R, 1, scheme.gamma, samples=10_000, seed=0
        )
        assert cert.not_sos
        assert cert.numeric_min >= -1e-9
        ok = True
    finally:
        _report(6, ok)


def test_criterion_7_seven_point_certificate():
    ok = False
    try:
        scheme = seven_point_scheme(SEVEN_POINTS_PERTURBED)
        printed_q = {
            multiply(
                Form.from_terms(3, 2, {(1, 1, 0): 3, (1, 0, 1): -1, (0, 1, 1): -2}),
                linear_form([1, 1, -1]),
            ).normalized(),
            multiply(
                multiply(linear_form([0, 1, -1]), linear_form([1, 0, -1])),
                linear_form([2, 1, 0]),
            ).normalized(),
            multiply(
                linear_form([0, 0, 1]),
                Form.from_terms(
                    3, 2, {(2, 0, 0): 8, (0, 2, 0): 1, (1, 0, 1): -8, (0, 1, 1): -1}
                ),
            ).normalized(),
        }
        assert {q.normalized() for q in scheme.Q} == printed_q
        printed_r = linear_form([0, 0, -1])
        for factor in (
            [2, 1, 0], [2, 1, 0], [1, 1, -1], [0, 1, -1], [1, 0, -1],
        ):
            printed_r = multiply(printed_r, linear_form(factor))
        assert scheme.R.normalized() == printed_r.normalized()
        cert = build_certificate(list(scheme.Q), scheme.R, 1, scheme.gamma)
        assert cert.not_sos
        with pytest.raises(GenericityError) as exc:
            seven_point_scheme(SEVEN_POINTS_UNPERTURBED)
        assert "K1(u3*) = 0" in str(exc.value)
        ok = True
    finally:
        _report(7, ok)


def test_criterion_8_closed_form_gaps():
    ok = False
    try:
        assert max_gap(4, 4) == (6, 1)
        assert max_gap(3, 6) == (7, 1)
        assert max_gap(3, 4)[1] == 0
        for d in range(3, 7):
            assert min_k_positive(3, 2 * d) == math.comb(d + 1, 2) + 1
        assert min_k_positive(4, 4) == 6

        def binom(a, b):
            # independent of math.comb: factorial ratio
            if b < 0 or b > a:
                return 0
            return math.factorial(a) // (math.factorial(b) * math.factorial(a - b))

        for n in range(2, 6):
            for d in range(1, 6):
                top = binom(n + d - 1, d) - n
                for k in range(1, top + 1):
                    direct = (
                        binom(n + 2 * d - 1, 2 * d)
                        - k * n
                        - binom(binom(n + d - 1, d) - k + 1, 2)
                    )
                    assert naive_gap(n, 2 * d, k) == direct
        ok = True
    finally:
        _report(8, ok)


def test_criterion_9_property_suite():
    ok = False
    try:
        import random

        rng = random.Random(2024)

        # Euler identity: x . grad f = deg * f, 100 random forms and points
        for _ in range(100):
            n, d = rng.choice([(3, 3), (3, 4), (4, 2)])
            coeffs = tuple(rat(rng.randint(-9, 9)) for _ in range(space_dim(n, d)))
            f = Form(n, d, coeffs)
            coords = tuple(rng.randint(-9, 9) for _ in range(n))
            if not any(coords):
                coords = (1,) + coords[1:]
            p = ProjectivePoint(coords)
            grad = gradient_eval(f, p)
            assert sum(c * g for c, g in zip(p.coords, grad)) == d * evaluate(f, p)

        # rank-nullity on 100 random matrices
        for _ in range(100):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = Matrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            )
            assert rank(m) + nullspace(m).dim == cols

        # containment I^2 in I^(2), and the at-most-n-conditions lower bound
        for i in range(100):
            size = rng.randint(1, 5)
            g = random_configuration(3, size, seed=10_000 + i)
            gradients = _gradient_matrix(g, 4)
            for v in _square_matrix(g, 4).entries:
                assert not any(sum(a * b for a, b in zip(row, v))
                               for row in gradients.entries)
            assert nullspace(gradients).dim >= space_dim(3, 4) - 3 * g.size

        # scale and permutation invariance of the face report
        for i in range(100):
            size = rng.randint(2, 5)
            g = random_configuration(3, size, seed=20_000 + i)
            base = face_report(g, 2)
            scaled_points = []
            for p in g.points:
                c = rat(rng.randint(1, 7))
                if rng.random() < 0.5:
                    c = -c
                scaled_points.append(tuple(c * x for x in p.coords))
            order = list(range(size))
            rng.shuffle(order)
            h = PointConfiguration(3, tuple(scaled_points[j] for j in order))
            other = face_report(h, 2)
            assert (base.dim_Id, base.dim_I2_2d, base.dim_Isym2_2d) == (
                other.dim_Id,
                other.dim_I2_2d,
                other.dim_Isym2_2d,
            )
        ok = True
    finally:
        _report(9, ok)
