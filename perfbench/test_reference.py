"""Closed-form checks of the benchmark's reference value.

    python3 -m pytest perfbench/test_reference.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402


def interior_rows(rng, p, count, mass_hi=0.95):
    weights = rng.dirichlet(np.ones(len(p)), size=count)
    total = rng.uniform(0.05, mass_hi, count)
    return (weights * total[:, None]) ** (1.0 / (2.0 * np.asarray(p)))


def ball_formula(z, k):
    """The unit-ball closed form: first k moduli sorted ascending,
    d = max { s : s |z_s|^2 + sum_{j>s} |z_j|^2 <= 1 },
    R = (d / (1 - sum_{j>d} |z_j|^2))^(d/2) prod_{j<=d} |z_j|."""
    m = sorted(z[:k]) + list(z[k:])
    sq = [v * v for v in m]
    d = max(s for s in range(1, k + 1) if s * sq[s - 1] + math.fsum(sq[s:]) <= 1.0)
    return (d / (1.0 - math.fsum(sq[d:]))) ** (d / 2.0) * math.prod(m[:d])


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_unit_ball_closed_form(n):
    rng = np.random.default_rng(n)
    p = np.ones(n)
    for k in range(1, n + 1):
        x = interior_rows(rng, p, 200)
        got = reference.extremal_value(x, p, k)
        want = np.array([ball_formula(list(row), k) for row in x])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [1, 2, 4, 7, 12])
def test_monomial_case_k_equals_n(n):
    """Equal loads 2 p_j |z_j|^(2 p_j) = L below 1/q put every coordinate in
    the active set, where R = prod |z_j| (2 p_j / c)^(1/(2 p_j)), c = 1/q."""
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        p = rng.uniform(0.1, 4.0, n)
        q = np.sum(1.0 / (2.0 * p))
        load = rng.uniform(0.05, 0.99) / q
        x = (load / (2.0 * p)) ** (1.0 / (2.0 * p))
        c = 1.0 / q
        want = math.prod(float(xj * (2.0 * pj / c) ** (1.0 / (2.0 * pj))) for xj, pj in zip(x, p))
        got = reference.extremal_value(x[None, :], p, n)[0]
        assert got == pytest.approx(want, rel=1e-12)


def test_exactly_zero_on_pole_hyperplanes():
    rng = np.random.default_rng(7)
    for n in (2, 3, 6, 12, 16):
        p = rng.uniform(0.1, 4.0, n)
        k = int(rng.integers(1, n + 1))
        x = interior_rows(rng, p, 50)
        x[np.arange(50), rng.integers(0, k, 50)] = 0.0
        assert np.all(reference.extremal_value(x, p, k) == 0.0)


def test_polydisc_limit_as_exponents_grow():
    """Equal exponents P: R decreases in P towards prod_{j<=k} |z_j|, the
    gap shrinking like 1/P."""
    rng = np.random.default_rng(11)
    n = 3
    x = interior_rows(rng, np.ones(n), 100, mass_hi=0.85)
    for k in range(1, n + 1):
        ladder = np.array([reference.extremal_value(x, np.full(n, P), k)
                           for P in (1, 2, 4, 8, 16, 32, 64, 128, 256)])
        assert np.all(np.diff(ladder, axis=0) <= 1e-12)
        gap = ladder - np.prod(x[:, :k], axis=1)
        assert np.all(gap[-1] >= -1e-12)
        assert np.all(gap[-1] <= 0.51 * gap[-2] + 1e-12)
        assert np.all(gap[-1] <= 0.01 * np.prod(x[:, :k], axis=1) + 1e-12)


@pytest.mark.parametrize("k", [1, 3, 6, 10])
def test_prefix_form_equals_exhaustive_search(k):
    rng = np.random.default_rng(200 + k)
    for n in (k, k + 2):
        p = rng.uniform(0.1, 4.0, n)
        x = interior_rows(rng, p, 300)
        np.testing.assert_allclose(
            reference.prefix_value(x, p, k), reference.extremal_value(x, p, k), rtol=1e-12, atol=0.0
        )


def test_rows_outside_have_no_containing_set():
    p = np.array([1.0, 2.0, 0.5])
    x = np.array([[0.9, 0.9, 0.9]])
    assert reference.slack(x, p)[0] < 0.0
    assert np.isinf(reference.extremal_value(x, p, 2)[0])
