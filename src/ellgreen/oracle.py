"""Independent numerical checks: samplers, a derivative-free maximizer,
finite differences, continuity scans, and the polydisc limit ladder.

Everything here treats the quantity under test as a black box (a callable
or an evaluation routine from core); nothing imports the certificate
construction code, so agreement between the two is evidence, not
circularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import Ellipsoid, evaluate, evaluate_batch, polydisc_value
from .errors import DomainError, InputError, InvariantViolation

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class VerificationReport:
    """One named check with its measured number against a tolerance."""

    check: str
    passed: bool
    measured: float
    tolerance: float
    witness: object = None
    samples: int = 0
    seed: int | None = None
    details: dict = field(default_factory=dict)

    def to_payload(self) -> dict:
        out = {
            "check": self.check,
            "pass": bool(self.passed),
            "measured": self.measured,
            "tolerance": self.tolerance,
            "witness": self.witness,
            "samples": self.samples,
            "seed": self.seed,
        }
        if self.details:
            out["details"] = self.details
        return out


@dataclass(frozen=True)
class OptimizerConfig:
    """Budget knobs for the coarse-grid plus golden-section maximizer."""

    grid: int = 16
    refine_sweeps: int = 8
    starts: int = 4
    step_tol: float = 1e-7
    max_evals: int = 400_000

    def __post_init__(self) -> None:
        if self.grid < 2 or self.refine_sweeps < 1 or self.starts < 1:
            raise InputError("grid >= 2, refine_sweeps >= 1, starts >= 1 required")
        if not 0.0 < self.step_tol < 1.0 / self.grid:
            raise InputError("step_tol must sit below the coarse grid spacing")


# ---------------------------------------------------------------------------
# samplers


def sample_interior_moduli(
    ell: Ellipsoid,
    count: int,
    rng: np.random.Generator,
    *,
    slack_floor: float = 0.0,
) -> np.ndarray:
    """Moduli rows strictly inside the domain, with per-coordinate spread.

    Coordinates are filled in a fresh random order per row, each drawn
    uniformly over the modulus range the remaining budget allows, so no
    coordinate is systematically starved (a fixed order would push later
    ones toward 0).  Vectorized over rows: the loop runs over fill
    positions, not samples.
    """
    n = ell.n
    p = np.asarray(ell.p)
    perm = np.argsort(rng.random((count, n)), axis=1)
    left = (1.0 - slack_floor) * rng.uniform(0.05, 1.0, count)  # vary total mass too
    out = np.zeros((count, n))
    rows = np.arange(count)
    for pos in range(n):
        j = perm[:, pos]
        two_p = 2.0 * p[j]
        cap = np.where(left > 0.0, np.maximum(left, 0.0) ** (1.0 / two_p), 0.0)
        m = rng.uniform(0.0, 1.0, count) * cap
        out[rows, j] = m
        left = np.maximum(left - m ** two_p, 0.0)
    return out


def sample_interior(
    ell: Ellipsoid,
    count: int,
    rng: np.random.Generator,
    *,
    slack_floor: float = 0.0,
) -> np.ndarray:
    """Complex interior points: sampled moduli with independent phases."""
    moduli = sample_interior_moduli(ell, count, rng, slack_floor=slack_floor)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=moduli.shape)
    return moduli * np.exp(1j * phases)


def sample_cube_rejection_moduli(
    ell: Ellipsoid,
    count: int,
    rng: np.random.Generator,
    *,
    slack_floor: float = 1e-9,
    max_rounds: int = 60,
) -> np.ndarray:
    """Interior moduli by vectorized rejection from the unit cube.

    Fast for exponents around 1 and above; for very small exponents the
    acceptance rate collapses and the permutation sampler should be used
    instead.
    """
    two_p = 2.0 * np.asarray(ell.p)
    rows = []
    have = 0
    for _ in range(max_rounds):
        draw = rng.uniform(0.0, 1.0, size=(max(count, 1024), ell.n))
        mass = (draw ** two_p[None, :]).sum(axis=1)
        keep = draw[mass < 1.0 - slack_floor]
        if keep.size:
            rows.append(keep)
            have += keep.shape[0]
        if have >= count:
            break
    if have < count:
        raise InvariantViolation(
            f"cube rejection kept {have}/{count} rows; exponents too small for it"
        )
    return np.vstack(rows)[:count]


# ---------------------------------------------------------------------------
# maximization


def golden_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> tuple[float, float]:
    """Golden-section maximum of a scalar function on [lo, hi]."""
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    it = 0
    while b - a > tol and it < max_iter:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        it += 1
    x = (a + b) / 2.0
    return x, f(x)


def maximize_profile(
    objective: Callable[[np.ndarray], np.ndarray],
    bounds: Sequence[tuple[float, float]],
    cfg: OptimizerConfig = OptimizerConfig(),
) -> tuple[np.ndarray, float]:
    """Coarse grid plus per-coordinate golden refinement from the top starts.

    objective maps an (m, dims) array to (m,) values; -inf marks points
    outside the domain.  Returns (argmax, value).  NaN from the objective
    is a bug in the quantity under test and raises with the offending
    point as witness.
    """
    dims = len(bounds)
    if dims == 0:
        val = float(objective(np.zeros((1, 0)))[0])
        return np.zeros(0), val
    res = max(2, min(cfg.grid, int(cfg.max_evals ** (1.0 / dims))))
    axes = [np.linspace(lo, hi, res) for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    vals = np.asarray(objective(grid), dtype=float)
    if np.isnan(vals).any():
        bad = grid[int(np.argmax(np.isnan(vals)))]
        raise InvariantViolation(f"objective returned NaN at {bad.tolist()}")
    order = np.argsort(vals)[::-1]
    starts = [grid[i].copy() for i in order[: cfg.starts] if np.isfinite(vals[i])]
    if not starts:
        # whole grid outside the domain; fall back to the box midpoint
        starts = [np.array([(lo + hi) / 2.0 for lo, hi in bounds])]

    def scalar(x: np.ndarray) -> float:
        v = float(objective(x[None, :])[0])
        if math.isnan(v):
            raise InvariantViolation(f"objective returned NaN at {x.tolist()}")
        return v

    best_x, best_v = starts[0].copy(), scalar(starts[0])
    for start in starts:
        x = start.copy()
        fx = scalar(x)
        for _ in range(cfg.refine_sweeps):
            moved = 0.0
            for j in range(dims):
                lo, hi = bounds[j]
                span = (hi - lo) / max(res - 1, 1)

                def line(t: float, j=j, x=x) -> float:
                    y = x.copy()
                    y[j] = t
                    return scalar(y)

                # local bracket respects a multimodal landscape; the full-range
                # pass rescues nearly flat axes where the grid argmax is noise
                for a, b in (
                    (max(lo, x[j] - span), min(hi, x[j] + span)),
                    (lo, hi),
                ):
                    xj, fj = golden_max(line, a, b, tol=cfg.step_tol)
                    if fj > fx:
                        moved = max(moved, abs(xj - x[j]))
                        x[j] = xj
                        fx = fj
                if hi > 0.0:
                    # linear-scale golden cannot resolve an argmax that sits
                    # many decades below its tolerance, and even a tiny
                    # absolute miss there can shift a shared budget term by
                    # far more; a log-domain pass gives relative precision
                    s_lo = math.log(max(lo, 1e-300))
                    s_hi = math.log(hi)
                    sj, fj = golden_max(
                        lambda s: line(min(math.exp(s), hi)),
                        s_lo,
                        s_hi,
                        tol=cfg.step_tol,
                    )
                    if fj > fx:
                        xj = min(math.exp(sj), hi)
                        moved = max(moved, abs(xj - x[j]))
                        x[j] = xj
                        fx = fj
            if moved < cfg.step_tol:
                break
        if fx > best_v:
            best_x, best_v = x.copy(), fx
    return best_x, best_v


def fd_gradient(
    objective: Callable[[np.ndarray], np.ndarray],
    point: np.ndarray,
    *,
    step: float | np.ndarray = 1e-6,
) -> np.ndarray:
    """Central-difference gradient; shrinks the step once per coordinate if
    a probe leaves the domain (-inf), then gives up with an error."""
    x = np.asarray(point, dtype=float)
    dims = x.shape[0]
    steps = np.broadcast_to(np.asarray(step, dtype=float), (dims,)).copy()
    grad = np.empty(dims)
    for j in range(dims):
        h = steps[j]
        for attempt in range(2):
            plus = x.copy()
            minus = x.copy()
            plus[j] += h
            minus[j] = max(minus[j] - h, 0.0)
            fp = float(objective(plus[None, :])[0])
            fm = float(objective(minus[None, :])[0])
            if math.isfinite(fp) and math.isfinite(fm):
                grad[j] = (fp - fm) / (plus[j] - minus[j])
                break
            h /= 16.0
        else:
            raise InvariantViolation(
                f"cannot take a finite difference at coordinate {j} of {x.tolist()}"
            )
    return grad


# ---------------------------------------------------------------------------
# continuity and limits


def continuity_scan(
    ell: Ellipsoid,
    a: Sequence[float],
    b: Sequence[float],
    *,
    samples: int = 10_000,
) -> dict:
    """Sample the value along the modulus segment [a, b] and report the
    largest adjacent jump and every branch-index transition."""
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    ts = np.linspace(0.0, 1.0, samples)
    rows = a_arr[None, :] + ts[:, None] * (b_arr - a_arr)[None, :]
    batch = evaluate_batch(ell, rows)
    if not batch.inside.all():
        raise InputError("continuity segment leaves the domain")
    jumps = np.abs(np.diff(batch.value))
    worst = int(np.argmax(jumps)) if jumps.size else 0
    trans = np.nonzero(np.diff(batch.d) != 0)[0]
    return {
        "max_jump": float(jumps.max()) if jumps.size else 0.0,
        "max_jump_at": float(ts[worst]),
        "d_path": batch.d,
        "transitions": [
            {"t": float(ts[i]), "d_before": int(batch.d[i]), "d_after": int(batch.d[i + 1])}
            for i in trans
        ],
        "values": batch.value,
    }


def polydisc_ladder(
    z: Sequence[complex],
    k: int,
    *,
    exponents: Sequence[float] = (1, 2, 4, 8, 16, 32, 64, 128, 256),
) -> list[tuple[float, float]]:
    """(P, value) pairs for the equal-exponent domains through z.

    Rungs where z fails evaluate's interior gate for that exponent are
    skipped (small exponents shrink the domain).
    """
    n = len(z)
    out = []
    for P in exponents:
        try:
            value = evaluate(Ellipsoid(p=(float(P),) * n, k=k), z).value
        except DomainError:
            continue
        out.append((float(P), value))
    return out


def polydisc_limit_reports(
    z: Sequence[complex],
    k: int,
    *,
    exponents: Sequence[float] = (1, 2, 4, 8, 16, 32, 64, 128, 256),
    monotone_tol: float = 1e-12,
    gap_tol: float = 1e-3,
) -> list[VerificationReport]:
    """Check the equal-exponent values decrease to the polydisc product."""
    ladder = polydisc_ladder(z, k, exponents=exponents)
    if not ladder:
        raise InputError("point lies outside every ladder domain")
    vals = [v for _, v in ladder]
    worst_increase = max(
        (vals[i + 1] - vals[i] for i in range(len(vals) - 1)), default=0.0
    )
    target = polydisc_value(z, k)
    gap = vals[-1] - target
    return [
        VerificationReport(
            check="polydisc-ladder-monotone",
            passed=worst_increase <= monotone_tol,
            measured=worst_increase,
            tolerance=monotone_tol,
            samples=len(ladder),
            details={"ladder": [[P, v] for P, v in ladder]},
        ),
        VerificationReport(
            check="polydisc-ladder-gap",
            # the log-space value and the plain product can differ by an ulp
            passed=-1e-12 <= gap <= gap_tol,
            measured=gap,
            tolerance=gap_tol,
            details={"target": target, "final": vals[-1], "final_exponent": ladder[-1][0]},
        ),
    ]


def transition_segments(
    ell: Ellipsoid,
    count: int,
    rng: np.random.Generator,
    *,
    length: float = 1e-3,
    max_attempts: int = 10_000,
) -> Iterator[tuple[np.ndarray, np.ndarray, int, int]]:
    """Short interior modulus segments straddling a branch-index change.

    Draws interior pairs with different d, bisects the crossing, then
    emits a segment of the given length centered there, re-drawing until
    the whole segment is interior.  Yields (a, b, d_at_a, d_at_b).
    """
    made = 0
    attempts = 0
    while made < count:
        attempts += 1
        if attempts > max_attempts:
            raise InvariantViolation(
                f"could not build {count} crossing segments in {max_attempts} draws"
            )
        pair = sample_interior_moduli(ell, 2, rng, slack_floor=0.05)
        ra = evaluate_batch(ell, pair[:1])
        rb = evaluate_batch(ell, pair[1:])
        da, db = int(ra.d[0]), int(rb.d[0])
        if da == db:
            continue
        lo, hi = 0.0, 1.0
        a_arr, b_arr = pair[0], pair[1]

        def d_at(t: float) -> int:
            row = a_arr + t * (b_arr - a_arr)
            return int(evaluate_batch(ell, row[None, :]).d[0])

        for _ in range(60):
            mid = (lo + hi) / 2.0
            if d_at(mid) == da:
                lo = mid
            else:
                hi = mid
        t_star = (lo + hi) / 2.0
        seg_a = a_arr + max(t_star - length / 2.0, 0.0) * (b_arr - a_arr)
        seg_b = a_arr + min(t_star + length / 2.0, 1.0) * (b_arr - a_arr)
        seg = np.stack([seg_a, seg_b])
        batch = evaluate_batch(ell, seg)
        if not batch.inside.all():
            continue
        d0, d1 = int(batch.d[0]), int(batch.d[1])
        if d0 == d1:
            continue  # bisection landed on a spurious flicker; redraw
        made += 1
        yield seg_a, seg_b, d0, d1
