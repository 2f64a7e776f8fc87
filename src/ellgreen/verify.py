"""Certificate verification bundles and the randomized check suites.

A bundle runs five checks against one certificate, in this order:

1. stationarity      finite-difference gradient of the log profile at the
                     base tail moduli is ~0;
2. argmax-location   an independent maximizer puts the profile peak at the
                     base tail moduli;
3. argmax-value      the peak value does not exceed the normalizer M;
4. bounded           the witness stays below 1 on sampled domain points,
                     including rows pushed close to the boundary with the
                     tail phases aligned against the witness (its worst
                     case);
5. base-value        witness(z) reproduces the closed-form value.

The suites draw random domains and points and aggregate worst measured
numbers across many bundles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .certificates import (
    GreenCertificate,
    MobiusCertificate,
    _CertificateBase,
    _tail_power_log,
    green_certificate,
    mobius_certificate,
)
from .core import Ellipsoid, ball_value_batch, evaluate, evaluate_batch
from .errors import InputError, InvariantViolation
from .oracle import (
    OptimizerConfig,
    VerificationReport,
    continuity_scan,
    maximize_profile,
    polydisc_limit_reports,
    sample_cube_rejection_moduli,
    sample_interior_moduli,
    transition_segments,
)

_BUNDLE_CHECKS = ("stationarity", "argmax-location", "argmax-value", "bounded", "base-value")
# Newton stop for _push_to_mass: relative step size, and a cap that only a
# broken solve reaches
_PUSH_TOL = 1e-13
_PUSH_MAX_ITER = 100


@dataclass(frozen=True)
class VerifyConfig:
    """Tolerances and budgets for a verification bundle.

    fd_step is a multiplicative (log-space) step: stationarity is measured
    as the gradient with respect to log-moduli, which keeps the check
    exact on the log-singular tail terms and well conditioned even when a
    base modulus is tiny (small exponents force tiny interior moduli).
    """

    grad_tol: float = 1e-6
    fd_step: float = 1e-6
    argmax_tol: float = 1e-4
    value_rel_tol: float = 1e-8
    base_rel_tol: float = 1e-10
    bound_tol: float = 1.0 - 1e-12
    sup_samples: int = 2048
    sup_slacks: tuple[float, ...] = (1e-2, 1e-4)
    optimizer: OptimizerConfig = field(
        default_factory=lambda: OptimizerConfig(
            grid=12, refine_sweeps=200, starts=3, step_tol=1e-9, max_evals=40_000
        )
    )


def _aligned_log_witness(cert: _CertificateBase, rows: np.ndarray) -> np.ndarray:
    """log of the witness modulus on sorted-frame moduli rows, with every
    tail phase aligned to make the modulus largest (exact for the
    power-law witness, the worst case for the holomorphic ones)."""
    d = cert.d
    head = rows[:, :d]
    tail = rows[:, d:]
    const = -cert.log_M + cert._head_log()
    with np.errstate(divide="ignore", invalid="ignore"):
        head_log = np.where(
            head > 0.0, np.log(np.where(head > 0.0, head, 1.0)), -np.inf
        ).sum(axis=1)
    if isinstance(cert, GreenCertificate):
        tail_log = _tail_power_log(tail, np.asarray(cert.tail_exponents))
    elif isinstance(cert, MobiusCertificate) and cert.family == "shifted-pole":
        pp = cert.pole
        assert pp is not None
        t = tail[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            tail_log = np.where(t > 0.0, np.log(np.where(t > 0.0, t, 1.0)), -np.inf)
        tail_log = tail_log - (pp.b / pp.a) * np.log(pp.r - t)
    else:
        assert isinstance(cert, MobiusCertificate)
        n_hyper = max(0, cert.ell.k - d)
        alpha = np.asarray(cert.alpha)
        tail_log = (alpha[None, :] * tail).sum(axis=1)
        if n_hyper:
            hy = tail[:, :n_hyper]
            with np.errstate(divide="ignore", invalid="ignore"):
                tail_log = tail_log + np.where(
                    hy > 0.0, np.log(np.where(hy > 0.0, hy, 1.0)), -np.inf
                ).sum(axis=1)
    return const + head_log + tail_log


def _sorted_frame_domain(cert: _CertificateBase) -> Ellipsoid:
    return Ellipsoid(p=cert.p_sorted, k=cert.ell.k)


def _push_to_mass(rows: np.ndarray, two_p: np.ndarray, mass: float) -> np.ndarray:
    """Scale each row by e^s so that sum_j (e^s t_j)^(2 p_j) equals mass.

    Newton on s for log-mass: log sum_j exp(2 p_j (log t_j + s)) is convex
    and increasing in s, so after at most one overshoot the iterates fall
    monotonically onto the root; it stops once every row's step is below
    _PUSH_TOL relative to 1 + |s|, which takes about ten steps.  All-zero
    rows cannot be scaled and come back unchanged.
    """
    with np.errstate(divide="ignore"):
        log_terms = two_p[None, :] * np.log(rows)
    ok = np.isfinite(log_terms).any(axis=1)
    # coordinates along axis 0: numpy reduces over a short trailing axis slowly
    log_terms = np.ascontiguousarray(log_terms[ok].T)
    s = np.zeros(log_terms.shape[1])
    target = math.log(mass)
    for _ in range(_PUSH_MAX_ITER):
        e = log_terms + two_p[:, None] * s[None, :]
        top = e.max(axis=0)
        w = np.exp(e - top[None, :])
        total = w.sum(axis=0)
        step = (target - top - np.log(total)) / ((two_p @ w) / total)
        s += step
        if (np.abs(step) < _PUSH_TOL * (1.0 + np.abs(s))).all():
            break
    else:
        raise InvariantViolation(
            f"boundary push to mass {mass} still moving after {_PUSH_MAX_ITER} Newton steps"
        )
    out = rows.copy()
    out[ok] *= np.exp(s)[:, None]
    return out


def _sup_rows(cert: _CertificateBase, cfg: VerifyConfig, rng: np.random.Generator) -> np.ndarray:
    """Sorted-frame moduli rows across the domain, thickened near the boundary:
    for each of cfg.sup_slacks, a quarter as many bulk rows again, each
    scaled onto the level set where the boundary mass is 1 - slack."""
    ell_s = _sorted_frame_domain(cert)
    bulk = sample_interior_moduli(ell_s, cfg.sup_samples, rng)
    two_p = 2.0 * np.asarray(ell_s.p)
    take = max(cfg.sup_samples // 4, 8)
    pushed = [
        _push_to_mass(bulk[rng.integers(0, bulk.shape[0], size=take)], two_p, 1.0 - slack)
        for slack in cfg.sup_slacks
    ]
    rows = np.vstack([bulk] + pushed)
    mass = (rows ** two_p[None, :]).sum(axis=1)
    return rows[mass < 1.0]


def _log_scaled_gradient(
    objective, t: np.ndarray, *, step: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient with respect to log t_j (that is,
    t_j * d/dt_j).  Multiplicative probes make the log-power terms of a
    profile exactly linear, so the estimate stays accurate for tiny t_j.
    Coordinates at 0 have scaled derivative 0 by definition."""
    grad = np.zeros(t.shape[0])
    up = math.exp(step)
    down = math.exp(-step)
    for j, tj in enumerate(t):
        if tj == 0.0:
            continue
        plus = t.copy()
        minus = t.copy()
        plus[j] = tj * up
        minus[j] = tj * down
        fp = float(objective(plus[None, :])[0])
        fm = float(objective(minus[None, :])[0])
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise InvariantViolation(
                f"profile not finite next to the base point at coordinate {j}"
            )
        grad[j] = (fp - fm) / (2.0 * step)
    return grad


def verify_bundle(
    cert: _CertificateBase,
    cfg: VerifyConfig = VerifyConfig(),
    *,
    seed: int = 0,
) -> list[VerificationReport]:
    """Run the five checks on one certificate, fixed order, never short-circuits."""
    rng = np.random.default_rng(seed)
    reports: list[VerificationReport] = []
    t0 = np.asarray(cert.base_tail)
    dims = t0.shape[0]

    grad = (
        _log_scaled_gradient(cert.log_profile, t0, step=cfg.fd_step)
        if dims else np.zeros(0)
    )
    gnorm = float(np.abs(grad).max()) if dims else 0.0
    reports.append(
        VerificationReport(
            check="stationarity", passed=gnorm <= cfg.grad_tol, measured=gnorm,
            tolerance=cfg.grad_tol, witness=t0.tolist(), seed=seed,
        )
    )

    bounds = [(0.0, 1.0)] * dims
    peak = maximize_profile(cert.log_profile, bounds, cfg.optimizer)
    xhat, log_peak = peak.x, peak.value
    loc_err = float(np.abs(xhat - t0).max()) if dims else 0.0
    reports.append(
        VerificationReport(
            check="argmax-location", passed=loc_err <= cfg.argmax_tol, measured=loc_err,
            tolerance=cfg.argmax_tol, witness=xhat.tolist(), seed=seed,
            details={"evals": peak.evals, "sweeps": peak.sweeps, "converged": peak.converged},
        )
    )

    # peak/M - 1; the optimizer may slightly beat the base point on float dust
    excess = math.expm1(log_peak - cert.log_M) if math.isfinite(log_peak) else -1.0
    reports.append(
        VerificationReport(
            check="argmax-value", passed=excess <= cfg.value_rel_tol, measured=excess,
            tolerance=cfg.value_rel_tol, witness=xhat.tolist(), seed=seed,
        )
    )

    rows = _sup_rows(cert, cfg, rng)
    log_w = _aligned_log_witness(cert, rows)
    idx = int(np.argmax(log_w))
    sup_val = float(np.exp(log_w[idx]))
    reports.append(
        VerificationReport(
            check="bounded", passed=sup_val <= cfg.bound_tol, measured=sup_val,
            tolerance=cfg.bound_tol, witness=rows[idx].tolist(),
            samples=rows.shape[0], seed=seed,
        )
    )

    w = cert.witness(cert.z)
    base = abs(w) if isinstance(w, complex) else w
    rel = abs(base - cert.base_value) / cert.base_value
    reports.append(
        VerificationReport(
            check="base-value", passed=rel <= cfg.base_rel_tol, measured=rel,
            tolerance=cfg.base_rel_tol, witness=base, seed=seed,
        )
    )
    return reports


def verify_certificate(
    ell: Ellipsoid,
    z: Sequence[complex],
    which: str = "green",
    cfg: VerifyConfig = VerifyConfig(),
    *,
    seed: int = 0,
):
    """Build the named certificate at z and verify it; returns (cert, reports)."""
    if which == "green":
        cert = green_certificate(ell, z)
    elif which == "mobius":
        cert = mobius_certificate(ell, z)
    else:
        raise InputError(f"unknown certificate kind {which!r} (green or mobius)")
    return cert, verify_bundle(cert, cfg, seed=seed)


# ---------------------------------------------------------------------------
# randomized suites


def _aggregate(check: str, worsts: list[float], tol: float, samples: int,
               seed: int, details: dict | None = None, *, larger_is_worse: bool = True) -> VerificationReport:
    measured = (max(worsts) if larger_is_worse else min(worsts)) if worsts else 0.0
    passed = measured <= tol if larger_is_worse else measured >= tol
    return VerificationReport(
        check=check, passed=passed, measured=measured, tolerance=tol,
        samples=samples, seed=seed, details=details or {},
    )


def suite_ball(
    *,
    points: int = 100_000,
    n_range: Sequence[int] = (2, 3, 4, 5),
    tol: float = 1e-12,
    seed: int = 0,
) -> list[VerificationReport]:
    """Exponent-1 domains: general evaluation agrees with the plain-power
    form of the value on random interior points, per (n, k)."""
    reports = []
    for n in n_range:
        for k in range(1, n + 1):
            rng = np.random.default_rng(seed + 1000 * n + k)
            ell = Ellipsoid(p=(1.0,) * n, k=k)
            rows = sample_cube_rejection_moduli(ell, points, rng)
            got = evaluate_batch(ell, rows).value
            want = ball_value_batch(rows, k)
            diff = float(np.abs(got - want).max())
            reports.append(
                VerificationReport(
                    check=f"ball-consistency-n{n}-k{k}", passed=diff <= tol,
                    measured=diff, tolerance=tol, samples=points, seed=seed,
                )
            )
    return reports


def _random_domain(rng: np.random.Generator, *, n_max: int = 5,
                   p_range: tuple[float, float] = (0.1, 4.0)) -> Ellipsoid:
    n = int(rng.integers(2, n_max + 1))
    k = int(rng.integers(1, n + 1))
    p = tuple(float(rng.uniform(*p_range)) for _ in range(n))
    return Ellipsoid(p=p, k=k)


def _draw_cert_point(
    ell: Ellipsoid, rng: np.random.Generator, *, mass_floor: float = 1e-4, slack: float = 0.15
) -> np.ndarray:
    """Interior complex point with every coordinate's boundary mass
    |z_j|^(2 p_j) kept above a floor, so logs and profile probes stay well
    conditioned.  A floor on mass (not modulus) stays feasible for every
    exponent range: n * mass_floor stays far below the total budget."""
    p = np.asarray(ell.p)
    for _ in range(200):
        m = sample_interior_moduli(ell, 64, rng, slack_floor=slack)
        mass = m ** (2.0 * p[None, :])
        ok = np.nonzero((mass >= mass_floor).all(axis=1))[0]
        if ok.size:
            row = m[ok[0]]
            phases = rng.uniform(0.0, 2.0 * math.pi, size=ell.n)
            return row * np.exp(1j * phases)
    raise InputError("could not draw a well-conditioned certificate base point")


def suite_soundness(
    *,
    trials: int = 1000,
    tol: float = 1e-12,
    seed: int = 0,
) -> list[VerificationReport]:
    """Branch-index soundness on random domains and points: the selection
    inequality holds at d, fails just past d, and the value dominates the
    product of the pole-coordinate moduli."""
    rng = np.random.default_rng(seed)
    worst_at_d: list[float] = []
    worst_past_d: list[float] = []
    worst_product: list[float] = []
    for _ in range(trials):
        ell = _random_domain(rng)
        z = _draw_cert_point(ell, rng, mass_floor=0.0, slack=0.02)
        res = evaluate(ell, z)
        zs = [abs(z[j]) for j in res.perm]
        ps = [ell.p[j] for j in res.perm]
        d = res.d
        load_d = 2.0 * ps[d - 1] * zs[d - 1] ** (2.0 * ps[d - 1])
        worst_at_d.append(load_d - res.c_d)  # must be <= 0
        if d < ell.k:
            q = res.q_d + 1.0 / (2.0 * ps[d])
            r = res.r_d - zs[d] ** (2.0 * ps[d])
            load_next = 2.0 * ps[d] * zs[d] ** (2.0 * ps[d])
            worst_past_d.append(r / q - load_next)  # must be < 0
        prod = 1.0
        for j in range(ell.k):
            prod *= abs(z[j])
        worst_product.append(prod - res.value)  # must be <= 0
    return [
        _aggregate("branch-inequality-at-d", worst_at_d, tol, trials, seed),
        _aggregate("branch-inequality-past-d", worst_past_d, tol, trials, seed),
        _aggregate("value-dominates-pole-product", worst_product, tol, trials, seed),
    ]


def suite_continuity(
    *,
    segments: int = 100,
    samples_per_segment: int = 10_000,
    jump_tol: float = 1e-6,
    seed: int = 0,
    n: int = 3,
    k: int | None = None,
) -> list[VerificationReport]:
    """Engineered branch-crossing segments: the value may not jump and the
    branch index must actually change inside each segment."""
    rng = np.random.default_rng(seed)
    ell = Ellipsoid(p=(1.0, 1.7, 0.8, 2.5, 1.2)[:n], k=k if k is not None else n)
    worst_jump = 0.0
    worst_seg = None
    missing_transitions = 0
    made = 0
    for a, b, d0, d1 in transition_segments(ell, segments, rng):
        scan = continuity_scan(ell, a, b, samples=samples_per_segment)
        if scan["max_jump"] > worst_jump:
            worst_jump = scan["max_jump"]
            worst_seg = {"a": a.tolist(), "b": b.tolist(), "d": [d0, d1]}
        if not scan["transitions"]:
            missing_transitions += 1
        made += 1
    return [
        VerificationReport(
            check="crossing-continuity", passed=worst_jump <= jump_tol,
            measured=worst_jump, tolerance=jump_tol, witness=worst_seg,
            samples=made * samples_per_segment, seed=seed,
        ),
        VerificationReport(
            check="crossing-has-transition", passed=missing_transitions == 0,
            measured=float(missing_transitions), tolerance=0.0,
            samples=made, seed=seed,
        ),
    ]


def suite_polydisc(
    *,
    points: int = 100,
    n: int = 3,
    seed: int = 0,
) -> list[VerificationReport]:
    """Equal-exponent ladders through random ball points, all k.

    Total mass is kept at or below 0.85: the residual gap at exponent 256
    is about product * (k/512) * log k, which then stays below the 1e-3
    gate even for the extremal near-equal-moduli draw at k = 3.
    """
    rng = np.random.default_rng(seed)
    worst_increase: list[float] = []
    worst_gap: list[float] = []
    count = 0
    for _ in range(points):
        k = int(rng.integers(1, n + 1))
        ell = Ellipsoid(p=(1.0,) * n, k=k)
        z = _draw_cert_point(ell, rng, mass_floor=1e-3, slack=0.15)
        reps = polydisc_limit_reports(z, k)
        worst_increase.append(reps[0].measured)
        worst_gap.append(reps[1].measured)
        count += 1
        if reps[1].measured < -1e-12:
            worst_gap.append(1.0)  # a limit below the product would be a real bug
    return [
        _aggregate("polydisc-ladder-monotone", worst_increase, 1e-12, count, seed),
        _aggregate("polydisc-ladder-gap", worst_gap, 1e-3, count, seed),
    ]


class _BundleTally:
    """Worst measured number per bundle check across a suite, the first
    failures, and the maximizer's spend summed over the argmax searches."""

    def __init__(self) -> None:
        self.worst: dict[str, float] = {c: -math.inf for c in _BUNDLE_CHECKS}
        self.failures: list[dict] = []
        self.evals = 0
        self.sweeps = 0
        self.not_converged = 0
        self.bundles = 0

    def add(self, reports: list[VerificationReport], failure_info: dict) -> None:
        self.bundles += 1
        for rep in reports:
            self.worst[rep.check] = max(self.worst[rep.check], rep.measured)
            if not rep.passed and len(self.failures) < 10:
                self.failures.append({"check": rep.check, "measured": rep.measured, **failure_info})
            if rep.check == "argmax-location":
                self.evals += rep.details["evals"]
                self.sweeps = max(self.sweeps, rep.details["sweeps"])
                self.not_converged += not rep.details["converged"]

    def reports(self, prefix: str, cfg: VerifyConfig, seed: int) -> list[VerificationReport]:
        """One report per bundle check.  The argmax-location report's details
        give the maximizer's total evaluations, its most sweeps in one
        bundle, and whether every search converged."""
        tols = {
            "stationarity": cfg.grad_tol,
            "argmax-location": cfg.argmax_tol,
            "argmax-value": cfg.value_rel_tol,
            "bounded": cfg.bound_tol,
            "base-value": cfg.base_rel_tol,
        }
        out = []
        for c in _BUNDLE_CHECKS:
            details = {"failures": [f for f in self.failures if f["check"] == c]}
            if c == "argmax-location":
                details.update(evals=self.evals, sweeps=self.sweeps,
                               converged=self.not_converged == 0)
            out.append(VerificationReport(
                check=f"{prefix}-{c}", passed=self.worst[c] <= tols[c],
                measured=self.worst[c], tolerance=tols[c], samples=self.bundles,
                seed=seed, details=details,
            ))
        return out


def _suite_bundles(
    which: str,
    *,
    bundles: int,
    p_range: tuple[float, float],
    cfg: VerifyConfig,
    seed: int,
    n_max: int = 5,
) -> list[VerificationReport]:
    rng = np.random.default_rng(seed)
    tally = _BundleTally()
    alpha_floor = 0.0
    for _ in range(bundles):
        ell = _random_domain(rng, n_max=n_max, p_range=p_range)
        z = _draw_cert_point(ell, rng)
        cert, reports = verify_certificate(
            ell, z, which, cfg, seed=int(rng.integers(0, 2**31))
        )
        alpha_floor = min(alpha_floor, min(cert.alpha, default=0.0))
        tally.add(reports, {"p": list(ell.p), "k": ell.k,
                            "z": [[c.real, c.imag] for c in cert.z]})
    out = tally.reports(which, cfg, seed)
    out.append(
        VerificationReport(
            check=f"{which}-alpha-nonnegative", passed=alpha_floor >= 0.0,
            measured=alpha_floor, tolerance=0.0, samples=bundles, seed=seed,
        )
    )
    return out


def suite_green(
    *, bundles: int = 1000, cfg: VerifyConfig = VerifyConfig(), seed: int = 0
) -> list[VerificationReport]:
    """Power-law witnesses across random domains, exponents in [0.1, 4]."""
    return _suite_bundles("green", bundles=bundles, p_range=(0.1, 4.0), cfg=cfg, seed=seed)


def suite_mobius(
    *, bundles: int = 1000, cfg: VerifyConfig = VerifyConfig(), seed: int = 0
) -> list[VerificationReport]:
    """Holomorphic witnesses; exponents in [0.5, 4] so the profile peak
    provably sits at the base point."""
    return _suite_bundles("mobius", bundles=bundles, p_range=(0.5, 4.0), cfg=cfg, seed=seed)


def suite_shifted_pole(
    *, count: int = 100, cfg: VerifyConfig = VerifyConfig(), seed: int = 0
) -> list[VerificationReport]:
    """Two-variable shifted-pole certificates over random admissible
    (p1, p2, t0); every bundle check must pass and the pole stays past 1."""
    from .gap import shifted_pole_certificate  # late import keeps gap optional here

    rng = np.random.default_rng(seed)
    tally = _BundleTally()
    min_r = math.inf
    made = 0
    attempts = 0
    while made < count:
        attempts += 1
        if attempts > 50 * count:
            raise InputError("could not draw enough admissible pole parameters")
        p1 = float(rng.uniform(0.3, 2.0))
        p2 = float(rng.uniform(0.15, 2.0))
        if not (p2 >= 0.5 or 8.0 * p1 + 4.0 * p2 * (1.0 - p2) > 1.0):
            continue
        a, c = 2.0 * p1, 2.0 * p2
        tau = a / (a + c)
        u = float(rng.uniform(0.1, 0.9))
        t0 = (tau + u * (1.0 - tau)) ** (1.0 / c)
        if t0 ** c <= tau or not 0.0 < t0 < 1.0:
            continue
        cert = shifted_pole_certificate(p1, p2, t0)
        assert cert.pole is not None
        min_r = min(min_r, cert.pole.r)
        tally.add(verify_bundle(cert, cfg, seed=int(rng.integers(0, 2**31))),
                  {"p": [p1, p2], "t0": t0})
        made += 1
    out = tally.reports("shifted-pole", cfg, seed)
    out.append(
        VerificationReport(
            check="shifted-pole-r-above-one", passed=min_r >= 1.0,
            measured=min_r, tolerance=1.0, samples=made, seed=seed,
        )
    )
    return out
