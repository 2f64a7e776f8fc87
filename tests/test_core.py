"""Frozen-value and property tests for the closed-form evaluation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellgreen.core import (
    BatchResult,
    Ellipsoid,
    ball_value,
    ball_value_batch,
    evaluate,
    evaluate_batch,
    membership,
    polydisc_value,
    weighted_am_gm,
)
from ellgreen.errors import DomainError, InputError


# ---------------------------------------------------------------------------
# frozen values (independent arithmetic in the comments)


def test_ball_center_symmetric_point():
    # p=(1,1), k=2, z=(0.5, 0.5): both keys 0.25, d=2, c_2 = 1/1,
    # value = 0.5 * 0.5 * sqrt(2) * sqrt(2) = 0.5
    ell = Ellipsoid(p=(1.0, 1.0), k=2)
    res = evaluate(ell, (0.5, 0.5))
    assert res.d == 2
    assert res.c_d == pytest.approx(1.0, rel=1e-15)
    assert res.value == pytest.approx(0.5, rel=1e-14)
    assert res.region == (0, 1)
    assert ball_value((0.5, 0.5), 2) == pytest.approx(0.5, rel=1e-14)


def test_ball_single_pole_frozen():
    # p=(1,1), k=1, z=(0.1, 0.9): r_1 = 1 - 0.81 = 0.19, q_1 = 0.5,
    # c_1 = 0.38, load = 0.02 <= 0.38, so d=1 and
    # value = 0.1 * sqrt(2 / 0.38) = 0.22941573387056177
    ell = Ellipsoid(p=(1.0, 1.0), k=1)
    res = evaluate(ell, (0.1, 0.9))
    assert res.d == 1
    assert res.r_d == pytest.approx(0.19, rel=1e-14)
    assert res.value == pytest.approx(0.22941573387056177, rel=1e-13)


def test_ball_second_coordinate_dominant():
    # p=(1,1), z=(0.1, 0.72): r_1 = 0.4816, c_1 = 0.9632; with k=2 the
    # s=2 condition reads 2*0.5184 > 1, so d=1 either way and
    # value = 0.1 * sqrt(2 / 0.9632) = 0.14409760442605876
    for k in (1, 2):
        res = evaluate(Ellipsoid(p=(1.0, 1.0), k=k), (0.1, 0.72))
        assert res.d == 1
        assert res.value == pytest.approx(0.14409760442605876, rel=1e-13)
        assert res.region == (0,)


def test_sort_reorders_by_key_not_modulus():
    # p=(2,1), z=(0.6, 0.3): keys 2*0.6^4 = 0.2592 and 1*0.09, so the
    # smaller-modulus coordinate sorts first despite the larger exponent
    ell = Ellipsoid(p=(2.0, 1.0), k=2)
    assert evaluate(ell, (0.6, 0.3)).perm == (1, 0)
    # coordinates past k keep their place after the sorted pole block
    ell3 = Ellipsoid(p=(2.0, 1.0, 1.0), k=2)
    assert evaluate(ell3, (0.6, 0.3, 0.1)).perm == (1, 0, 2)


def test_sort_is_stable_on_ties():
    ell = Ellipsoid(p=(1.0, 1.0, 1.0), k=3)
    assert evaluate(ell, (0.4, 0.4, 0.4)).perm == (0, 1, 2)


def test_zero_pole_coordinate_gives_zero_value():
    ell = Ellipsoid(p=(1.0, 1.0), k=1)
    res = evaluate(ell, (0.0, 0.5))
    assert res.value == 0.0
    assert res.d == 1


# ---------------------------------------------------------------------------
# input and domain validation


def test_invalid_domains_rejected():
    with pytest.raises(InputError):
        Ellipsoid(p=(), k=1)
    with pytest.raises(InputError):
        Ellipsoid(p=(1.0, -2.0), k=1)
    with pytest.raises(InputError):
        Ellipsoid(p=(1.0,), k=2)
    with pytest.raises(InputError):
        Ellipsoid(p=(1.0,), k=0)


def test_boundary_and_exterior_points_rejected():
    ell = Ellipsoid(p=(1.0, 1.0), k=1)
    with pytest.raises(DomainError):
        evaluate(ell, (1.0, 0.0))
    with pytest.raises(DomainError):
        evaluate(ell, (0.9, 0.9))
    inside, slack = membership(ell, (0.9, 0.9))
    assert not inside and slack < 0.0


def test_wrong_arity_rejected():
    ell = Ellipsoid(p=(1.0, 1.0), k=1)
    with pytest.raises(InputError):
        evaluate(ell, (0.5,))
    with pytest.raises(InputError):
        ball_value((0.5, 0.5), 3)


def test_batch_shape_validation():
    ell = Ellipsoid(p=(1.0, 1.0), k=1)
    with pytest.raises(InputError):
        evaluate_batch(ell, np.zeros((3, 3)))
    with pytest.raises(InputError):
        evaluate_batch(ell, np.array([[0.1, -0.2]]))


# ---------------------------------------------------------------------------
# scalar vs batch agreement


def test_batch_matches_scalar_on_random_points():
    rng = np.random.default_rng(42)
    ell = Ellipsoid(p=(0.7, 1.3, 2.1), k=2)
    rows = []
    while len(rows) < 200:
        m = rng.uniform(0.0, 0.8, 3)
        if membership(ell, [complex(v) for v in m])[0]:
            rows.append(m)
    rows = np.asarray(rows)
    batch = evaluate_batch(ell, rows)
    assert isinstance(batch, BatchResult)
    for i in range(rows.shape[0]):
        res = evaluate(ell, [complex(v) for v in rows[i]])
        assert batch.d[i] == res.d
        assert batch.value[i] == pytest.approx(res.value, rel=1e-13, abs=1e-300)
        assert batch.q_d[i] == pytest.approx(res.q_d, rel=1e-14)
        assert batch.r_d[i] == pytest.approx(res.r_d, rel=1e-14)
        np.testing.assert_array_equal(
            np.nonzero(batch.region[i])[0], np.asarray(res.region)
        )


def test_batch_flags_rows_outside():
    ell = Ellipsoid(p=(1.0, 1.0), k=1)
    batch = evaluate_batch(ell, np.array([[0.3, 0.4], [0.9, 0.9]]))
    assert batch.inside.tolist() == [True, False]
    assert np.isnan(batch.value[1]) and batch.d[1] == 0


def test_batch_outside_rows_warn_nothing():
    # r_1 = 1 - 1.44 < 0 makes log(c_1) invalid on this row; it is masked
    ell = Ellipsoid(p=(1.0, 1.0), k=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = evaluate_batch(ell, np.array([[0.1, 1.2], [0.0, 0.5]]))
    assert not batch.inside[0] and np.isnan(batch.value[0])
    assert batch.value[1] == 0.0


def test_negative_interior_tol_rejected():
    ell = Ellipsoid(p=(1.0, 1.0), k=1)
    with pytest.raises(InputError):
        evaluate_batch(ell, np.array([[0.9, 0.9]]), interior_tol=-1.0)


def test_ball_batch_matches_scalar():
    rng = np.random.default_rng(7)
    rows = rng.uniform(0.0, 0.5, size=(100, 3))
    got = ball_value_batch(rows, 2)
    for i in range(100):
        assert got[i] == pytest.approx(ball_value(rows[i], 2), rel=1e-13)


# ---------------------------------------------------------------------------
# invariance properties

_modulus = st.floats(min_value=0.0, max_value=0.55, allow_nan=False)


@given(st.lists(_modulus, min_size=2, max_size=4), st.integers(min_value=0, max_value=3))
@settings(max_examples=150, deadline=None)
def test_phase_invariance(moduli, quarter):
    n = len(moduli)
    scale = math.sqrt(max(sum(m * m for m in moduli), 1e-12))
    if scale >= 0.99:
        moduli = [m / (2.0 * scale) for m in moduli]
    ell = Ellipsoid(p=(1.0,) * n, k=1)
    base = evaluate(ell, [complex(m) for m in moduli])
    # exact for quarter turns: the rotated moduli are bit-identical
    rot = 1j ** quarter
    turned = evaluate(ell, [m * rot for m in moduli])
    assert turned.value == base.value
    assert turned.d == base.d


@given(
    st.lists(_modulus, min_size=2, max_size=4),
    st.lists(st.floats(min_value=0.0, max_value=2.0 * math.pi), min_size=4, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_phase_invariance_generic(moduli, phases):
    n = len(moduli)
    scale = math.sqrt(max(sum(m * m for m in moduli), 1e-12))
    if scale >= 0.99:
        moduli = [m / (2.0 * scale) for m in moduli]
    ell = Ellipsoid(p=(1.0,) * n, k=n)
    base = evaluate(ell, [complex(m) for m in moduli])
    z = [m * complex(math.cos(t), math.sin(t)) for m, t in zip(moduli, phases)]
    turned = evaluate(ell, z)
    assert turned.value == pytest.approx(base.value, rel=1e-12, abs=1e-15)
    assert turned.d == base.d


@given(st.permutations(range(3)), st.lists(_modulus, min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_permutation_equivariance_inside_pole_block(order, moduli):
    # permuting the pole coordinates (equal exponents) is a domain symmetry
    scale = math.sqrt(max(sum(m * m for m in moduli), 1e-12))
    if scale >= 0.99:
        moduli = [m / (2.0 * scale) for m in moduli]
    ell = Ellipsoid(p=(1.0, 1.0, 1.0), k=3)
    a = evaluate(ell, [complex(m) for m in moduli])
    b = evaluate(ell, [complex(moduli[j]) for j in order])
    assert b.value == pytest.approx(a.value, rel=1e-12, abs=1e-15)
    assert b.d == a.d


# ---------------------------------------------------------------------------
# weighted AM-GM helper


def test_weighted_am_gm_frozen():
    # values (2, 8), weights (1, 1): gm = 4, mean-power = 5^2 / 5 ... lhs
    # 2*8 = 16 vs ((2+8)/2)^2 = 25
    lhs, rhs = weighted_am_gm((2.0, 8.0), (1.0, 1.0))
    assert lhs == pytest.approx(16.0, rel=1e-14)
    assert rhs == pytest.approx(25.0, rel=1e-14)
    lhs, rhs = weighted_am_gm((0.5, 0.5), (1.0, 3.0))
    assert lhs == pytest.approx(0.0625, rel=1e-14)
    assert rhs == pytest.approx(0.0625, rel=1e-14)


def test_weighted_am_gm_zero_value():
    lhs, rhs = weighted_am_gm((0.0, 3.0), (1.0, 1.0))
    assert lhs == 0.0 and rhs == pytest.approx(2.25, rel=1e-14)


def test_weighted_am_gm_validation():
    with pytest.raises(InputError):
        weighted_am_gm((), ())
    with pytest.raises(InputError):
        weighted_am_gm((1.0,), (0.0,))
    with pytest.raises(InputError):
        weighted_am_gm((-1.0,), (1.0,))


@given(
    st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=1, max_size=5),
    st.lists(st.floats(min_value=1e-2, max_value=5.0), min_size=5, max_size=5),
)
@settings(max_examples=200, deadline=None)
def test_weighted_am_gm_inequality(values, weights):
    w = weights[: len(values)]
    lhs, rhs = weighted_am_gm(values, w)
    assert lhs <= rhs * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# polydisc product route


def test_polydisc_value_frozen():
    assert polydisc_value((0.3, 0.4), 1) == pytest.approx(0.3, rel=1e-15)
    assert polydisc_value((0.3, 0.4), 2) == pytest.approx(0.12, rel=1e-15)
    with pytest.raises(DomainError):
        polydisc_value((1.0, 0.4), 1)
