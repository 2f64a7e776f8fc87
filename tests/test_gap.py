"""Barrier window, chord point, exclusion demo, shifted pole, family search."""

import math

import numpy as np
import pytest

from ellgreen.core import Ellipsoid, evaluate, membership
from ellgreen.errors import DomainError, HypothesisNotMet, InputError
from ellgreen.gap import (
    FAMILY_NAMES,
    ObstructionWindow,
    _ProfileScorer,
    _family_log_h,
    barrier,
    barrier_minus_one,
    barrier_prime,
    candidate_family_search,
    chord_margin,
    concavity_window,
    exclusion_demo,
    find_chord_point,
    pole_slope_diagnostics,
    pole_slope_quadratic,
    shifted_pole_certificate,
    stationary_pole,
)


# ---------------------------------------------------------------------------
# barrier


def test_barrier_frozen_values():
    assert barrier(0.0, 0.5, 1.0) == 1.0
    # 0.25^0.5 = 0.5, so (1 - 0.5)^(-1) = 2
    assert barrier(0.25, 0.5, 1.0) == pytest.approx(2.0, rel=1e-14)
    assert barrier_minus_one(0.25, 0.5, 1.0) == pytest.approx(1.0, rel=1e-14)
    # tiny argument: phi - 1 ~ q t^p without cancellation
    t = 1e-30
    assert barrier_minus_one(t, 0.5, 2.0) == pytest.approx(2.0 * t ** 0.5, rel=1e-12)


def test_barrier_domain_checks():
    with pytest.raises(DomainError):
        barrier(1.0, 0.5, 1.0)
    with pytest.raises(DomainError):
        barrier(-0.1, 0.5, 1.0)
    with pytest.raises(DomainError):
        barrier(np.array([0.5, 1.5]), 0.5, 1.0)


def test_barrier_prime_matches_central_difference():
    p, q = 0.7, 1.5
    for t in (0.01, 0.1, 0.4, 0.8):
        h = 1e-6 * t
        fd = (barrier(t + h, p, q) - barrier(t - h, p, q)) / (2.0 * h)
        assert barrier_prime(t, p, q) == pytest.approx(fd, rel=1e-7)


def test_concavity_window_near_closed_form_inflection():
    # phi' decreases up to the inflection t* with t*^p = (1-p)/(1+qp);
    # the scan grid resolves that point to about a grid step
    for p, q in ((0.5, 1.0), (0.3, 2.0), (0.8, 0.25)):
        t_star = ((1.0 - p) / (1.0 + q * p)) ** (1.0 / p)
        b = concavity_window(p, q)
        assert 0.9 * t_star <= b <= 1.05 * t_star
    with pytest.raises(InputError):
        concavity_window(1.2, 1.0)


def test_find_chord_point_halving_grid():
    p, q = 0.5, 1.0
    b = concavity_window(p, q)
    c, margin = find_chord_point(p, q, b)
    assert margin > 0.0
    assert chord_margin(2.0 * c, p, q, b) <= 0.0  # first success on the grid
    # for this pair the halving scan lands at b/64
    assert c == pytest.approx(b / 64.0, rel=1e-15)


def test_find_chord_point_hard_pair():
    # p close to 1 and small q: the barrier is almost affine near 0 and
    # the chord point is pushed far down, but stays well above the floor
    p, q = 0.9, 0.25
    b = concavity_window(p, q)
    c, margin = find_chord_point(p, q, b)
    assert margin > 0.0
    assert 1e-25 < c < 1e-19


def test_concavity_window_refuses_inflection_below_grid():
    # for p near 1 the inflection ((1-p)/(1+qp))^(1/p) lies below the
    # first grid point, so the slope already rises at the first step
    with pytest.raises(HypothesisNotMet, match="p=0.999999"):
        concavity_window(0.999999, 0.5)


def test_find_chord_point_refuses_below_floor():
    # the chord point (q b / 2)^(1/(1-p)) exists but is far below 1e-60
    for q in (0.05, 0.5, 5.0):
        b = concavity_window(0.99, q)
        with pytest.raises(HypothesisNotMet, match="1e-60 floor"):
            find_chord_point(0.99, q, b)
        with pytest.raises(HypothesisNotMet, match=f"q={q}, b="):
            ObstructionWindow.find(0.99, q)


def test_obstruction_window_find_and_validation():
    w = ObstructionWindow.find(0.5, 1.0)
    assert 0.0 < w.c < w.b < 1.0 and w.margin > 0.0
    payload = w.to_payload()
    assert set(payload) == {"p", "q", "b", "c", "margin"}
    with pytest.raises(InputError):
        ObstructionWindow(p=0.5, q=1.0, b=0.1, c=0.2, margin=1.0)
    with pytest.raises(InputError):
        ObstructionWindow(p=0.5, q=1.0, b=0.2, c=0.1, margin=-1.0)


# ---------------------------------------------------------------------------
# exclusion demo


def test_exclusion_constant_candidate_peaks_at_zero():
    w = ObstructionWindow.find(0.5, 1.0)
    gen = iter([np.array([0.7 + 0.0j])])
    rep = exclusion_demo(0.5, 1.0, w, gen, trials=1, samples=2_000, seed=0)
    assert rep.passed and rep.measured == 0.0


def test_exclusion_identity_candidate_peaks_past_c():
    # f(t) = t: t/phi is increasing on the window, argmax at b >= c
    w = ObstructionWindow.find(0.5, 1.0)
    gen = iter([np.array([1.0 + 0.0j, 0.0j])])
    rep = exclusion_demo(0.5, 1.0, w, gen, trials=1, samples=2_000, seed=0)
    assert rep.passed


def test_exclusion_random_candidates_pass_and_collect():
    w = ObstructionWindow.find(0.6, 0.5)
    rep = exclusion_demo(0.6, 0.5, w, trials=50, samples=2_000, seed=3, collect=2)
    assert rep.passed, rep.witness
    assert len(rep.details["profiles"]["ratios"]) == 2
    assert rep.check == "exclusion-p0.6-q0.5"


def test_exclusion_counts_polished_trials():
    # a constant peaks at 0, within one grid spacing of the forbidden
    # interval, so it is polished; t peaks at b >= c + spacing and is not
    w = ObstructionWindow.find(0.5, 1.0)
    gen = iter([np.array([0.7 + 0.0j]), np.array([1.0 + 0.0j, 0.0j])])
    rep = exclusion_demo(0.5, 1.0, w, gen, trials=2, samples=2_000, seed=0)
    assert rep.passed
    assert rep.details["polished"] == 1


def test_exclusion_needs_two_samples():
    w = ObstructionWindow.find(0.6, 0.5)
    with pytest.raises(InputError):
        exclusion_demo(0.6, 0.5, w, trials=1, samples=1, seed=0)


# ---------------------------------------------------------------------------
# shifted pole


def test_stationary_pole_frozen():
    # a=2, c=1, b=1, t=0.8: r = 0.8 + 0.8*0.2/0.4 = 1.2
    assert stationary_pole(2.0, 1.0, 1.0, 0.8) == pytest.approx(1.2, abs=1e-15)


def test_stationary_pole_domain_gates():
    with pytest.raises(DomainError):
        stationary_pole(2.0, 1.0, 1.0, 0.5)  # t^c below a/(a+c)
    with pytest.raises(DomainError):
        stationary_pole(2.0, 1.0, 1.0, 1.5)
    with pytest.raises(InputError):
        stationary_pole(-2.0, 1.0, 1.0, 0.8)


def test_stationary_pole_approaches_one():
    for a, c in ((2.0, 1.0), (0.6, 0.4), (1.0, 3.0)):
        r = stationary_pole(a, c, 1.0, 1.0 - 1e-6)
        assert abs(r - 1.0) <= 1e-4


def test_pole_slope_quadratic_closed_forms():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a = float(rng.uniform(0.05, 5.0))
        c = float(rng.uniform(0.05, 5.0))
        tau = a / (a + c)
        scale = max(1.0, a, c * c)
        assert pole_slope_quadratic(a, c, tau) == pytest.approx(
            -a * c * c / (a + c), rel=1e-12, abs=1e-12 * scale
        )
        assert pole_slope_quadratic(a, c, 1.0) == pytest.approx(
            -c * c, rel=1e-12, abs=1e-12 * scale
        )
        diag = pole_slope_diagnostics(a, c)
        assert abs(diag.identity_residual) <= 1e-12 * scale * (a + c)


def test_pole_slope_diagnostics_vertex_window():
    diag = pole_slope_diagnostics(2.0, 1.0)
    # vertex u0 = (4+1-1)/6 = 2/3 equals tau here, so it is not interior
    assert diag.vertex == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert diag.at_vertex is None
    diag2 = pole_slope_diagnostics(1.0, 0.5)
    assert diag2.at_vertex is not None


def test_shifted_pole_certificate_frozen_instance():
    # p1=1, p2=0.5 make a=2, c=1; z0=0.8 with b=1 gives r=1.2 directly
    cert = shifted_pole_certificate(1.0, 0.5, 0.8)
    assert cert.family == "shifted-pole"
    assert cert.pole is not None
    assert cert.pole.b == 1.0
    assert cert.pole.r == pytest.approx(1.2, abs=1e-12)
    assert cert.moduli_sorted[0] == pytest.approx(math.sqrt(0.1), rel=1e-14)
    assert cert.d == 1
    # witness attains the closed-form value at the base point
    w = cert.witness(cert.z)
    assert abs(w) == pytest.approx(cert.base_value, rel=1e-12)


def test_shifted_pole_gates():
    with pytest.raises(HypothesisNotMet):
        shifted_pole_certificate(1.0, 0.5, 0.5)  # t0^c = 0.5 <= tau = 2/3
    with pytest.raises(HypothesisNotMet):
        shifted_pole_certificate(0.01, 0.2, 0.9)  # both exponent gates fail
    with pytest.raises(InputError):
        shifted_pole_certificate(1.0, 0.5, 1.2)
    with pytest.raises(InputError):
        shifted_pole_certificate(1.0, 0.5, 0.8, b=-1.0)


def test_shifted_pole_small_exponents_double_b():
    # p2 < 1/2 with the quadratic gate satisfied: b=1 may sit below the
    # unit circle and the weight doubles until the pole clears it
    cert = shifted_pole_certificate(1.0, 0.3, 0.9)
    assert cert.pole is not None
    assert cert.pole.r >= 1.0 + 1e-9
    assert cert.base_value > 0.0


# ---------------------------------------------------------------------------
# family search


def test_family_search_convex_case_closes():
    ell = Ellipsoid(p=(1.0, 1.0), k=1)
    res = candidate_family_search(ell, (0.3 + 0j, 0.5 + 0j))
    assert res.complete
    assert res.gap >= 0.0
    assert res.gap <= 1e-5
    assert res.family in FAMILY_NAMES


def test_family_search_nonconvex_gap_persists():
    # small tail modulus with p=0.3 beyond the pole: every family stays
    # short of the closed-form value by a visible margin
    ell = Ellipsoid(p=(1.0, 0.3), k=1)
    res = candidate_family_search(ell, (0.05 + 0j, 0.1 + 0j))
    assert res.complete
    assert res.gap >= 1e-6
    assert res.lower_bound < res.reference


def test_family_search_never_exceeds_reference():
    rng = np.random.default_rng(14)
    for _ in range(10):
        p1 = float(rng.uniform(0.2, 2.0))
        p2 = float(rng.uniform(0.2, 2.0))
        m1 = float(rng.uniform(0.05, 0.4))
        m2 = float(rng.uniform(0.05, 0.6))
        ell = Ellipsoid(p=(p1, p2), k=1)
        z = (complex(m1), complex(m2))
        if not membership(ell, z)[0]:
            continue
        if evaluate(ell, z).d != 1:
            continue
        res = candidate_family_search(ell, z, budget=3_000)
        assert res.lower_bound <= res.reference + 1e-9


def test_family_search_head_monomial_when_tail_inactive():
    ell = Ellipsoid(p=(0.6, 0.6), k=2)
    res = candidate_family_search(ell, (0.5 + 0j, 0.1 + 0j))
    assert res.family == "head-monomial"
    assert res.gap == 0.0 and res.complete


def test_family_search_input_validation():
    ell = Ellipsoid(p=(1.0, 1.0, 1.0), k=1)
    with pytest.raises(InputError):
        candidate_family_search(ell, (0.3 + 0j, 0.4 + 0j, 0.4 + 0j))  # two tails
    with pytest.raises(InputError):
        candidate_family_search(
            Ellipsoid(p=(1.0, 1.0), k=1), (0.3 + 0j, 0.4 + 0j), families=("bogus",)
        )
    with pytest.raises(InputError):
        candidate_family_search(Ellipsoid(p=(1.0, 1.0), k=1), (0.0j, 0.4 + 0j))


@pytest.mark.parametrize("budget", [1, 2, 33, 500, 3000])
def test_family_search_budget_exhaustion(budget):
    # a full search of this point scores about 6,000 parameter points
    ell = Ellipsoid(p=(1.0, 1.0), k=1)
    res = candidate_family_search(ell, (0.3 + 0j, 0.5 + 0j), budget=budget)
    assert not res.complete
    assert res.evals <= budget
    assert sum(f.evals for f in res.per_family) == res.evals
    assert res.lower_bound <= res.reference


def _dense_log_h(name, is_hyper, m, x, r, t):
    """log|h(t)| of each family written from its closed form."""
    e = 1.0 if is_hyper else 0.0
    if name == "power-shift":
        h = t ** e * (t + x) ** m
    elif name == "binomial-power":
        h = t ** e * (1.0 + t) ** x
    elif name == "outer-pole":
        h = t ** m * (r - t) ** x
    else:
        h = t ** m * (t + x) / (1.0 + x * t)
    with np.errstate(divide="ignore"):
        return np.log(h)


# (family, m, swept parameter, fixed pole r)
_SCORER_POINTS = (
    ("power-shift", 0, 0.0, 0.0), ("power-shift", 2, 0.3, 0.0), ("power-shift", 5, 2.5, 0.0),
    ("binomial-power", 0, 0.5, 0.0), ("binomial-power", 0, 30.0, 0.0),
    ("outer-pole", 0, -50.0, 2.0), ("outer-pole", 3, -0.4, 1.0 + 1e-6),
    ("outer-pole", 1, -5.0, 1.2),
    ("mobius-factor", 0, 0.6, 0.0), ("mobius-factor", 1, 0.0, 0.0),
    ("mobius-factor", 4, 0.9, 0.0),
)


@pytest.mark.parametrize("q_d, two_p, t0", [(0.5, 0.6, 0.1), (0.5, 2.0, 0.5), (1.5, 1.2, 0.3)])
@pytest.mark.parametrize("is_hyper", [False, True])
def test_profile_scorer_matches_dense_grid(q_d, two_p, t0, is_hyper):
    # the batched scorer against an independent dense t-grid sup: never
    # above R * profile(t0) / (dense_sup * (1 + 1e-6)), and close to it
    t = np.concatenate([np.linspace(0.0, 1.0 - 1e-9, 200_001), [t0]])
    log_rd = q_d * np.log1p(-(t ** two_p))
    for name in FAMILY_NAMES:
        rows = [pt for pt in _SCORER_POINTS if pt[0] == name]
        m = np.array([pt[1] for pt in rows], dtype=float)
        x = np.array([pt[2] for pt in rows])
        r = np.array([pt[3] for pt in rows])
        scorer = _ProfileScorer(reference=1.0, q_d=q_d, two_p=two_p, t0=t0, budget=100)
        got = scorer.score(_family_log_h(name, is_hyper), m, x, r)
        assert scorer.evals == len(rows)
        for i, (_, m_i, x_i, r_i) in enumerate(rows):
            logs = _dense_log_h(name, is_hyper, m_i, x_i, r_i, t) + log_rd
            bound = math.exp(logs[-1] - logs.max()) / (1.0 + 1e-6)
            assert got[i] <= bound * (1.0 + 1e-9), (name, m_i, x_i, r_i)
            assert got[i] >= bound * (1.0 - 1e-6), (name, m_i, x_i, r_i)


def test_family_search_payload():
    ell = Ellipsoid(p=(1.0, 1.0), k=1)
    res = candidate_family_search(ell, (0.3 + 0j, 0.5 + 0j), budget=500)
    payload = res.to_payload()
    assert set(payload) >= {"reference", "lower_bound", "gap", "family", "per_family"}
    assert all({"family", "lower_bound", "evals"} <= set(f) for f in payload["per_family"])
