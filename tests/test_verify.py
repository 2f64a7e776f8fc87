"""Verification bundles and randomized suites at reduced budgets.

The acceptance module runs the same suites at their contract scales; here
the budgets are small enough to keep the default test run quick while
still exercising every code path.
"""

import numpy as np
import pytest

from ellgreen.certificates import green_certificate, mobius_certificate
from ellgreen.core import Ellipsoid
from ellgreen.verify import (
    VerifyConfig,
    _draw_cert_point,
    _log_scaled_gradient,
    _random_domain,
    _sup_rows,
    suite_ball,
    suite_continuity,
    suite_green,
    suite_mobius,
    suite_polydisc,
    suite_shifted_pole,
    suite_soundness,
    verify_bundle,
    verify_certificate,
)
from ellgreen.errors import InputError

_CHECK_ORDER = (
    "stationarity", "argmax-location", "argmax-value", "bounded", "base-value"
)


def test_bundle_order_and_pass_green():
    cert = green_certificate(Ellipsoid(p=(1.0, 1.0), k=2), (0.1, 0.72))
    reports = verify_bundle(cert, seed=1)
    assert tuple(r.check for r in reports) == _CHECK_ORDER
    for r in reports:
        assert r.passed, (r.check, r.measured, r.tolerance)


def test_bundle_pass_mobius():
    cert = mobius_certificate(Ellipsoid(p=(1.0, 1.0), k=2), (0.1, 0.72))
    for r in verify_bundle(cert, seed=2):
        assert r.passed, (r.check, r.measured, r.tolerance)


def test_bundle_tiny_exponent_point():
    # small exponents force tiny interior moduli; the log-space gradient
    # and the log-domain argmax pass both have to hold up here
    ell = Ellipsoid(p=(0.12, 3.5, 0.4), k=1)
    z = (0.3 + 0j, 0.4 + 0j, 1e-6 + 0j)
    cert, reports = verify_certificate(ell, z, "green", seed=3)
    for r in reports:
        assert r.passed, (r.check, r.measured, r.tolerance)


def test_verify_certificate_rejects_unknown_kind():
    with pytest.raises(InputError):
        verify_certificate(Ellipsoid(p=(1.0, 1.0), k=1), (0.3, 0.4), "best")


def test_log_scaled_gradient_exact_on_log_linear_terms():
    # f(t) = sum a_j log t_j has scaled gradient exactly a
    a = np.array([0.7, -2.3])

    def objective(rows: np.ndarray) -> np.ndarray:
        return (a[None, :] * np.log(rows)).sum(axis=1)

    g = _log_scaled_gradient(objective, np.array([1e-8, 0.5]))
    assert np.abs(g - a).max() < 1e-9


def test_log_scaled_gradient_skips_zero_coordinates():
    def objective(rows: np.ndarray) -> np.ndarray:
        return rows.sum(axis=1)

    g = _log_scaled_gradient(objective, np.array([0.0, 0.25]))
    assert g[0] == 0.0
    assert g[1] == pytest.approx(0.25, rel=1e-6)  # t * df/dt at t = 0.25


def test_suite_ball_small():
    for rep in suite_ball(points=2_000, n_range=(2, 3), seed=4):
        assert rep.passed, (rep.check, rep.measured)


def test_suite_soundness_small():
    for rep in suite_soundness(trials=200, seed=5):
        assert rep.passed, (rep.check, rep.measured)


def test_suite_continuity_small():
    for rep in suite_continuity(segments=10, samples_per_segment=2_000, seed=6):
        assert rep.passed, (rep.check, rep.measured)


def test_suite_polydisc_small():
    for rep in suite_polydisc(points=20, seed=7):
        assert rep.passed, (rep.check, rep.measured)


def test_suite_green_small():
    reports = suite_green(bundles=40, seed=8)
    for rep in reports:
        assert rep.passed, (rep.check, rep.measured, rep.details.get("failures"))
    assert reports[-1].check == "green-alpha-nonnegative"


def test_suite_mobius_small():
    for rep in suite_mobius(bundles=40, seed=9):
        assert rep.passed, (rep.check, rep.measured, rep.details.get("failures"))


def test_suite_shifted_pole_small():
    reports = suite_shifted_pole(count=10, seed=10)
    for rep in reports:
        assert rep.passed, (rep.check, rep.measured)
    r_rep = reports[-1]
    assert r_rep.check == "shifted-pole-r-above-one"
    assert r_rep.measured >= 1.0


def test_verify_config_documents_log_space_step():
    assert "log" in VerifyConfig.__doc__


# ---------------------------------------------------------------------------
# profiles with two or more free tail moduli


def _multi_tail_mobius():
    # coupled tail moduli: ten fixed coordinate sweeps used to stall 2.6e-4
    # short of the peak here, against the 1e-4 argmax tolerance
    ell = Ellipsoid(p=(2.6164341209413093, 0.716576093185044, 0.5242637942433217), k=2)
    return mobius_certificate(ell, (0.8384, 0.1093, 0.3839))


def test_multi_tail_reproducer_passes_and_converges():
    cert = _multi_tail_mobius()
    assert len(cert.base_tail) == 2
    reports = verify_bundle(cert, seed=0)
    for r in reports:
        assert r.passed, (r.check, r.measured, r.tolerance)
    details = reports[1].details
    assert details["converged"] is True
    assert 1 < details["sweeps"] < VerifyConfig().optimizer.refine_sweeps
    assert details["evals"] > 0


def test_multi_tail_scan():
    rng = np.random.default_rng(20261020)
    worst = {"green": 0.0, "mobius": 0.0}
    made = {"green": 0, "mobius": 0}
    ranges = {"green": (0.1, 4.0), "mobius": (0.5, 4.0)}
    builders = {"green": green_certificate, "mobius": mobius_certificate}
    while min(made.values()) < 200:
        for kind in ("green", "mobius"):
            ell = _random_domain(rng, n_max=5, p_range=ranges[kind])
            cert = builders[kind](ell, _draw_cert_point(ell, rng))
            if len(cert.base_tail) < 2 or made[kind] >= 200:
                continue
            made[kind] += 1
            reports = verify_bundle(cert, seed=int(rng.integers(0, 2**31)))
            for r in reports:
                assert r.passed, (kind, r.check, r.measured, ell.p, ell.k, cert.z)
            assert reports[1].details["converged"], (kind, ell.p, ell.k, cert.z)
            worst[kind] = max(worst[kind], reports[1].measured)
    print(f"multi-tail scan, 200 + 200 bundles: worst argmax-location "
          f"green {worst['green']:.3g}, mobius {worst['mobius']:.3g}")


# ---------------------------------------------------------------------------
# boundary rows of the bounded check


@pytest.mark.parametrize(
    "p",
    [(0.1, 0.1), (0.3, 0.3, 0.3), (1.0, 1.0), (2.0, 2.0, 2.0), (4.0, 4.0),
     (0.1, 0.2, 0.3), (3.5, 4.0), (0.1, 4.0, 1.0, 2.0, 0.3)],
)
def test_sup_rows_land_on_their_slacks(p):
    z = tuple((0.1 / len(p)) ** (1.0 / (2.0 * q)) for q in p)
    cert = green_certificate(Ellipsoid(p=p, k=1), z)
    cfg = VerifyConfig(sup_samples=512)
    rows = _sup_rows(cert, cfg, np.random.default_rng(11))
    take = cfg.sup_samples // 4
    assert rows.shape[0] == cfg.sup_samples + take * len(cfg.sup_slacks)
    mass = (rows ** (2.0 * np.asarray(cert.p_sorted))[None, :]).sum(axis=1)
    for i, slack in enumerate(cfg.sup_slacks):
        pushed = mass[cfg.sup_samples + i * take: cfg.sup_samples + (i + 1) * take]
        assert np.abs((1.0 - pushed) / slack - 1.0).max() < 1e-2, (p, slack)
