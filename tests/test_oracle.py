"""Samplers, maximizer, finite differences, continuity scan, ladders.

Also audits that this module stays independent of the certificate code:
agreement between oracle and certificates is only evidence if neither
imports the other's construction.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from ellgreen.certificates import green_certificate
from ellgreen.core import Ellipsoid, evaluate_batch
from ellgreen.errors import InputError, InvariantViolation
from ellgreen.oracle import (
    OptimizerConfig,
    VerificationReport,
    bracket_max,
    continuity_scan,
    fd_gradient,
    golden_max,
    maximize_profile,
    polydisc_ladder,
    polydisc_limit_reports,
    sample_cube_rejection_moduli,
    sample_interior,
    sample_interior_moduli,
    transition_segments,
)
from ellgreen.verify import VerifyConfig, _sup_rows


def test_oracle_imports_only_core_and_errors():
    src = Path(__file__).resolve().parents[1] / "src" / "ellgreen" / "oracle.py"
    tree = ast.parse(src.read_text())
    internal = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            internal.add(node.module)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ellgreen"):
            internal.add(node.module.split(".", 1)[1])
    assert internal <= {"core", "errors"}


# ---------------------------------------------------------------------------
# samplers


def test_interior_sampler_stays_inside_and_covers():
    rng = np.random.default_rng(5)
    ell = Ellipsoid(p=(0.3, 1.5, 2.0), k=1)
    rows = sample_interior_moduli(ell, 10_000, rng)
    mass = (rows ** (2.0 * np.asarray(ell.p))).sum(axis=1)
    assert float(mass.max()) < 1.0
    # no coordinate is starved: each spreads over a wide modulus range
    for j in range(3):
        lo, hi = np.quantile(rows[:, j], [0.1, 0.9])
        assert hi - lo > 0.1


def test_interior_sampler_respects_slack_floor():
    rng = np.random.default_rng(6)
    ell = Ellipsoid(p=(1.0, 1.0), k=1)
    rows = sample_interior_moduli(ell, 2_000, rng, slack_floor=0.3)
    mass = (rows ** 2).sum(axis=1)
    assert float(mass.max()) <= 0.7 + 1e-12


def test_complex_sampler_phases():
    rng = np.random.default_rng(7)
    pts = sample_interior(Ellipsoid(p=(1.0, 1.0), k=1), 500, rng)
    assert pts.dtype.kind == "c"
    # phases should not cluster on the real axis
    assert float(np.abs(pts.imag).max()) > 0.01


def test_cube_rejection_ok_for_moderate_exponents():
    rng = np.random.default_rng(8)
    ell = Ellipsoid(p=(1.0, 2.0), k=1)
    rows = sample_cube_rejection_moduli(ell, 3_000, rng)
    assert rows.shape == (3_000, 2)
    mass = (rows ** (2.0 * np.asarray(ell.p))).sum(axis=1)
    assert float(mass.max()) < 1.0


def test_cube_rejection_collapses_for_tiny_exponents():
    rng = np.random.default_rng(9)
    ell = Ellipsoid(p=(0.05, 0.05, 0.05, 0.05), k=1)
    with pytest.raises(InvariantViolation):
        sample_cube_rejection_moduli(ell, 64, rng, max_rounds=3)


def test_sup_sampler_brushes_boundary():
    rng = np.random.default_rng(10)
    cert = green_certificate(Ellipsoid(p=(1.0, 0.7), k=1), (0.3, 0.4))
    rows = _sup_rows(cert, VerifyConfig(sup_samples=512), rng)
    two_p = 2.0 * np.asarray(cert.p_sorted)
    mass = (rows ** two_p[None, :]).sum(axis=1)
    assert float(mass.max()) < 1.0
    assert float(mass.max()) > 1.0 - 1e-3  # pushed rows get close


# ---------------------------------------------------------------------------
# maximization


def test_golden_max_quadratic():
    x, v = golden_max(lambda t: -(t - 0.3) ** 2, 0.0, 1.0, tol=1e-12)
    assert x == pytest.approx(0.3, abs=1e-9)
    assert v == pytest.approx(0.0, abs=1e-16)


def test_maximize_profile_separable():
    target = np.array([0.2, 0.7, 0.45])

    def objective(rows: np.ndarray) -> np.ndarray:
        return -((rows - target[None, :]) ** 2).sum(axis=1)

    peak = maximize_profile(objective, [(0.0, 1.0)] * 3)
    assert np.abs(peak.x - target).max() < 1e-6
    assert peak.value == pytest.approx(0.0, abs=1e-12)
    assert peak.converged
    assert peak.evals > 0 and peak.sweeps >= 1


def test_maximize_profile_resolves_tiny_argmax():
    # argmax many decades below the linear golden tolerance; the log-domain
    # pass must still land it to relative precision
    t_star = 1.58e-11

    def objective(rows: np.ndarray) -> np.ndarray:
        t = rows[:, 0]
        with np.errstate(divide="ignore"):
            lt = np.where(t > 0.0, np.log(np.where(t > 0.0, t, 1.0)), -np.inf)
        return 2e-4 * lt - t ** 0.27 / (1.58e-11) ** 0.27 * 2e-4 / 0.27
    # stationarity: d/dlog t = 2e-4 - (2e-4/0.27)*0.27*(t/t*)^0.27 = 0 at t*

    x = maximize_profile(objective, [(0.0, 1.0)]).x
    assert abs(math.log(x[0] / t_star)) < 1e-3


def _coupled(rows: np.ndarray) -> np.ndarray:
    # a narrow ridge along x = y, peak at (0.617, 0.617) off the coarse
    # grid: coordinate sweeps zig-zag up it slowly
    x, y = rows[:, 0], rows[:, 1]
    return -((x - y) ** 2) * 30.0 - (x + y - 1.234) ** 2


def test_maximize_profile_reports_sweep_cap():
    capped = maximize_profile(_coupled, [(0.0, 1.0)] * 2, OptimizerConfig(refine_sweeps=1))
    assert capped.sweeps == 1
    assert capped.converged is False
    full = maximize_profile(_coupled, [(0.0, 1.0)] * 2, OptimizerConfig(refine_sweeps=10_000))
    assert full.converged is True
    assert 1 < full.sweeps < 10_000
    assert np.abs(full.x - 0.617).max() < 1e-5
    assert full.evals > capped.evals


def test_maximize_profile_whole_grid_outside():
    # every grid point, box corners included, is outside; the search starts
    # from the box midpoint and still finds the feasible sliver around it
    def sliver(rows: np.ndarray) -> np.ndarray:
        x = rows[:, 0]
        inside = np.abs(x - 0.5) < 0.01
        return np.where(inside, -((x - 0.505) ** 2), -np.inf)

    peak = maximize_profile(sliver, [(0.0, 1.0)], OptimizerConfig(grid=4))
    assert abs(peak.x[0] - 0.505) < 1e-6
    assert peak.converged

    # a feasible set hugging the lower corner, as for a profile with small
    # exponents: the grid's zeros give log 0 and its other points lie
    # outside, and so does the midpoint; the fallback ray toward the corner
    # finds a start from which the sweeps reach the peak at (1e-3, 1e-3)
    def corner(rows: np.ndarray) -> np.ndarray:
        inside = (rows ** 0.25).sum(axis=1) < 0.5
        with np.errstate(divide="ignore"):
            val = np.log(rows).sum(axis=1) - 1e3 * rows.sum(axis=1)
        return np.where(inside, val, -np.inf)

    peak = maximize_profile(corner, [(0.0, 1.0)] * 2, OptimizerConfig(grid=16))
    assert np.abs(peak.x - 1e-3).max() < 1e-6
    assert peak.converged


def test_bracket_max_runs_brackets_independently():
    centers = np.array([0.1, 0.5, 0.93])
    calls = []

    def f(t: np.ndarray) -> np.ndarray:
        calls.append(t.shape)
        return -((t - centers[:, None]) ** 2)

    x, fx = bracket_max(f, np.zeros(3), np.ones(3), tol=1e-10)
    assert np.abs(x - centers).max() < 1e-10
    assert np.all(fx <= 0.0)
    assert all(shape == (3, calls[0][1]) for shape in calls)
    assert len(calls) <= 10


def test_bracket_max_stops_below_float_spacing():
    # tolerances finer than the float spacing at the argmax cannot be met;
    # the search must stop once its brackets no longer narrow
    calls = []

    def f(t: np.ndarray) -> np.ndarray:
        calls.append(t.shape)
        return -((t - np.array([[0.7], [-690.3]])) ** 2)

    x, _ = bracket_max(f, np.array([0.0, -700.0]), np.array([1.0, -680.0]), tol=1e-17)
    assert np.abs(x - np.array([0.7, -690.3])).max() < 1e-12
    assert len(calls) <= 20

    peak = maximize_profile(
        lambda rows: -((rows - 0.3) ** 2).sum(axis=1), [(0.0, 1.0)],
        OptimizerConfig(step_tol=1e-17),
    )
    assert abs(peak.x[0] - 0.3) < 1e-12


def test_maximize_profile_rejects_nan():
    def objective(rows: np.ndarray) -> np.ndarray:
        out = rows[:, 0].copy()
        out[rows[:, 0] > 0.5] = np.nan
        return out

    with pytest.raises(InvariantViolation):
        maximize_profile(objective, [(0.0, 1.0)])


def test_optimizer_config_validation():
    with pytest.raises(InputError):
        OptimizerConfig(grid=1)
    with pytest.raises(InputError):
        OptimizerConfig(grid=10, step_tol=0.2)  # above the grid spacing
    cfg = OptimizerConfig(grid=8, step_tol=1e-3)
    assert cfg.grid == 8


def test_fd_gradient_matches_analytic():
    def objective(rows: np.ndarray) -> np.ndarray:
        x, y = rows[:, 0], rows[:, 1]
        return np.sin(x) + x * y

    g = fd_gradient(objective, np.array([0.4, 0.2]), step=1e-6)
    assert g[0] == pytest.approx(math.cos(0.4) + 0.2, abs=1e-8)
    assert g[1] == pytest.approx(0.4, abs=1e-8)


def test_fd_gradient_shrinks_step_near_domain_edge():
    def objective(rows: np.ndarray) -> np.ndarray:
        x = rows[:, 0]
        return np.where(x < 0.5 + 1e-6, x, -np.inf)

    g = fd_gradient(objective, np.array([0.5]), step=1e-5)
    assert g[0] == pytest.approx(1.0, abs=1e-5)


def test_fd_gradient_gives_up_cleanly():
    def objective(rows: np.ndarray) -> np.ndarray:
        return np.full(rows.shape[0], -np.inf)

    with pytest.raises(InvariantViolation):
        fd_gradient(objective, np.array([0.5]))


# ---------------------------------------------------------------------------
# continuity and transitions


def test_continuity_scan_detects_branch_change():
    # p=(1,1), k=2, segment (0.1, 0.70) -> (0.1, 0.74): the s=2 condition
    # 2|z2|^2 <= 1 flips at |z2| = sqrt(0.5), so d goes 2 -> 1 inside
    ell = Ellipsoid(p=(1.0, 1.0), k=2)
    scan = continuity_scan(ell, (0.1, 0.70), (0.1, 0.74), samples=4_000)
    assert scan["d_path"][0] == 2 and scan["d_path"][-1] == 1
    assert len(scan["transitions"]) == 1
    t_star = scan["transitions"][0]["t"]
    crossing = 0.70 + t_star * 0.04
    assert crossing == pytest.approx(math.sqrt(0.5), abs=1e-4)
    assert scan["max_jump"] < 1e-4


def test_continuity_scan_rejects_exiting_segment():
    ell = Ellipsoid(p=(1.0, 1.0), k=2)
    with pytest.raises(InputError):
        continuity_scan(ell, (0.1, 0.1), (0.9, 0.9))


def test_transition_segments_straddle_changes():
    rng = np.random.default_rng(12)
    ell = Ellipsoid(p=(1.0, 1.7, 0.8), k=3)
    made = 0
    for a, b, d0, d1 in transition_segments(ell, 5, rng):
        assert d0 != d1
        batch = evaluate_batch(ell, np.stack([a, b]))
        assert batch.inside.all()
        made += 1
    assert made == 5


# ---------------------------------------------------------------------------
# polydisc ladder


def test_polydisc_ladder_monotone_to_product():
    for k in (1, 2):
        reps = polydisc_limit_reports((0.3, 0.4), k)
        assert reps[0].passed, reps[0]
        assert reps[1].passed, reps[1]
        assert reps[1].measured >= 0.0


def test_polydisc_ladder_skips_tight_rungs():
    # |z| close to 1 in one coordinate: the P=1 ball excludes the point
    ladder = polydisc_ladder((0.99, 0.5), 1)
    assert ladder[0][0] > 1.0
    assert ladder[-1][0] == 256.0


def test_polydisc_ladder_skips_rung_inside_the_gate_band():
    # on the P=1 ball the slack is about 5e-15: positive, yet not above the
    # interior gate, so that rung is skipped rather than raising
    ladder = polydisc_ladder((0.6, math.sqrt(0.64 - 5e-15)), 2)
    assert [P for P, _ in ladder] == [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]


def test_polydisc_reports_empty_ladder_rejected():
    with pytest.raises(InputError):
        polydisc_limit_reports((0.999999, 0.999999), 1, exponents=(1,))


# ---------------------------------------------------------------------------
# report payloads


def test_report_payload_keys():
    rep = VerificationReport(
        check="demo", passed=True, measured=0.5, tolerance=1.0, samples=3, seed=9
    )
    payload = rep.to_payload()
    assert payload["check"] == "demo"
    assert payload["pass"] is True
    assert "details" not in payload
    rep2 = VerificationReport(
        check="demo", passed=False, measured=2.0, tolerance=1.0, details={"x": 1}
    )
    assert rep2.to_payload()["details"] == {"x": 1}
