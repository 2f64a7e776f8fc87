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
# samples per bracket and stage in bracket_max; odd, so each stage keeps the
# previous best on its grid, and each stage cuts a bracket 16-fold
_STAGE_POINTS = 33
# fractions of the way from the lower corner to the box midpoint, tried when
# no coarse grid point is inside the domain
_FALLBACK_RAY = np.logspace(0.0, -30.0, 61)


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
    """Knobs for maximize_profile: points per axis of the coarse grid
    (fewer if the grid would exceed max_evals points), how many of its
    best points start a search, and the coordinate sweeps of batched
    bracket searches (bracket_max) run from each start.

    A start stops when a sweep moves it by less than step_tol (the bracket
    width each search runs down to); refine_sweeps is only a cap on the
    sweeps, and a run that hits it reports converged=False.
    """

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
    f: Callable,
    lo: float | np.ndarray,
    hi: float | np.ndarray,
    *,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> tuple:
    """Golden-section maxima on [lo, hi], one search per bracket, in lockstep.

    With scalar lo and hi, f maps a float to a float and the result is the
    pair (x, f(x)) of floats.  With arrays of brackets, f(rows, x) takes the
    indices of the brackets being sampled and one abscissa for each, and
    returns their values; after the two interior points, each step samples
    one point per bracket still wider than tol, so a bracket costs what its
    own scalar search would.  Every search stops after max_iter steps; the
    result is each final bracket's midpoint and the value there.
    """
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0
    if scalar:
        def g(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
            return np.array([f(float(x[0]))], dtype=float)
    else:
        g = f
    a = np.atleast_1d(np.array(lo, dtype=float))
    b = np.atleast_1d(np.array(hi, dtype=float))
    every = np.arange(a.size)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = np.asarray(g(every, c), dtype=float)
    fd = np.asarray(g(every, d), dtype=float)
    for _ in range(max_iter):
        live = np.flatnonzero(b - a > tol)
        if not live.size:
            break
        left = fc[live] >= fd[live]
        keep, move = live[left], live[~left]
        # left: the maximum lies in [a, d]; else in [c, b]
        b[keep], d[keep], fd[keep] = d[keep], c[keep], fc[keep]
        a[move], c[move], fc[move] = c[move], d[move], fd[move]
        c[keep] = b[keep] - _GOLDEN * (b[keep] - a[keep])
        d[move] = a[move] + _GOLDEN * (b[move] - a[move])
        vals = np.asarray(g(live, np.where(left, c[live], d[live])), dtype=float)
        fc[keep] = vals[left]
        fd[move] = vals[~left]
    x = (a + b) / 2.0
    fx = np.asarray(g(every, x), dtype=float)
    if scalar:
        return float(x[0]), float(fx[0])
    return x, fx


def bracket_max(
    f: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    *,
    tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Maximize independent 1-D functions, one per bracket [lo_b, hi_b], at once.

    f maps a (b, m) array of abscissae (row i samples bracket i) to (b, m)
    values.  Each stage samples every bracket at _STAGE_POINTS evenly spaced
    points in one call to f and shrinks each bracket to the two grid cells
    around its best sample, a 16-fold cut; the grid has a center point, so
    the best sample of a stage is sampled again in the next and the best
    value never drops.  Stops once every shrunk bracket is narrower than
    tol: for a unimodal function the returned argmax is then within tol
    of the true one.  A tol below the float spacing at the argmax cannot
    be met; the search then stops as soon as a stage narrows no bracket.
    Returns (argmax, max value), one entry per bracket.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    rows = np.arange(lo.shape[0])
    frac = np.linspace(0.0, 1.0, _STAGE_POINTS)
    last = _STAGE_POINTS - 1
    width = hi - lo
    while True:
        t = lo[:, None] + width[:, None] * frac[None, :]
        vals = f(t)
        best = np.argmax(vals, axis=1)
        lo = t[rows, np.maximum(best - 1, 0)]
        hi = t[rows, np.minimum(best + 1, last)]
        # once a bracket is a few float spacings wide it stops narrowing
        narrowed = hi - lo
        if narrowed.max(initial=0.0) < tol or not (narrowed < width).any():
            return t[rows, best], vals[rows, best]
        width = narrowed


@dataclass(frozen=True)
class ProfileMax:
    """What maximize_profile found and what it spent.

    evals counts objective rows (coarse grid included); sweeps counts the
    coordinate sweeps of the longest-running start; converged is False if
    some start was still moving by step_tol or more when the refine_sweeps
    cap ended it.
    """

    x: np.ndarray
    value: float
    evals: int
    sweeps: int
    converged: bool


def maximize_profile(
    objective: Callable[[np.ndarray], np.ndarray],
    bounds: Sequence[tuple[float, float]],
    cfg: OptimizerConfig = OptimizerConfig(),
) -> ProfileMax:
    """Coarse grid, then coordinate sweeps of batched bracket searches from
    the top starts.

    objective maps an (m, dims) array to (m,) values; -inf marks points
    outside the domain.  NaN from the objective is a bug in the quantity
    under test and raises with the offending point as witness.

    All starts run in lockstep.  For each coordinate, every start's local
    bracket (one grid cell either side), full-range bracket and log-scale
    bracket go through bracket_max together, so each stage is one
    objective call.  A start stops when a whole sweep moves it by less
    than step_tol; refine_sweeps only caps the sweeps, and the result says
    whether the cap was reached.  With one coordinate a single sweep is
    final: a second would repeat the same full-range searches.
    """
    evals = 0

    def checked(rows: np.ndarray) -> np.ndarray:
        nonlocal evals
        vals = np.asarray(objective(rows), dtype=float)
        evals += rows.shape[0]
        nan = np.isnan(vals)
        if nan.any():
            bad = rows[int(np.argmax(nan))]
            raise InvariantViolation(f"objective returned NaN at {bad.tolist()}")
        return vals

    dims = len(bounds)
    if dims == 0:
        val = float(checked(np.zeros((1, 0)))[0])
        return ProfileMax(np.zeros(0), val, evals, 0, True)
    res = max(2, min(cfg.grid, int(cfg.max_evals ** (1.0 / dims))))
    axes = [np.linspace(lo, hi, res) for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    vals = checked(grid)
    order = np.argsort(vals)[::-1][: cfg.starts]
    order = order[np.isfinite(vals[order])]
    if order.size:
        xs, fxs = grid[order].copy(), vals[order].copy()
    else:
        # whole grid outside the domain, as when the feasible set hugs the
        # lower corner between grid points: start from the best point of a
        # log-spaced ray from the box midpoint down toward the lower corner
        lo_c = np.array([lo for lo, _ in bounds])
        mid = np.array([(lo + hi) / 2.0 for lo, hi in bounds])
        ray = lo_c + _FALLBACK_RAY[:, None] * (mid - lo_c)[None, :]
        ray_vals = checked(ray)
        i = int(np.argmax(ray_vals))
        xs, fxs = ray[i:i + 1].copy(), ray_vals[i:i + 1].copy()

    active = np.ones(xs.shape[0], dtype=bool)
    sweeps = 0
    while active.any() and sweeps < cfg.refine_sweeps:
        sweeps += 1
        idx = np.flatnonzero(active)
        moved = np.zeros(idx.size)
        for j in range(dims):
            lo, hi = bounds[j]
            span = (hi - lo) / max(res - 1, 1)
            xj = xs[idx, j]
            # local brackets respect a multimodal landscape; the full-range
            # pass rescues nearly flat axes where the grid argmax is noise
            kinds = [
                (np.maximum(lo, xj - span), np.minimum(hi, xj + span)),
                (np.full(idx.size, lo), np.full(idx.size, hi)),
            ]
            if hi > 0.0:
                # a linear-scale search cannot resolve an argmax many decades
                # below its tolerance, and even a tiny absolute miss there can
                # shift a shared budget term by far more; a log-domain
                # bracket gives relative precision
                kinds.append((
                    np.full(idx.size, math.log(max(lo, 1e-300))),
                    np.full(idx.size, math.log(hi)),
                ))
            log_scale = np.repeat(np.arange(len(kinds)) == 2, idx.size)
            base = np.tile(xs[idx], (len(kinds), 1))

            def line(t: np.ndarray) -> np.ndarray:
                x = np.where(log_scale[:, None], np.minimum(np.exp(t), hi), t)
                rows = np.repeat(base, t.shape[1], axis=0)
                rows[:, j] = x.ravel()
                return checked(rows).reshape(t.shape)

            t_best, f_best = bracket_max(
                line,
                np.concatenate([a for a, _ in kinds]),
                np.concatenate([b for _, b in kinds]),
                tol=cfg.step_tol,
            )
            t_best = np.where(log_scale, np.minimum(np.exp(t_best), hi), t_best)
            t_best = t_best.reshape(len(kinds), idx.size)
            f_best = f_best.reshape(len(kinds), idx.size)
            pick = np.argmax(f_best, axis=0)
            cand = t_best[pick, np.arange(idx.size)]
            f_cand = f_best[pick, np.arange(idx.size)]
            better = f_cand > fxs[idx]
            moved = np.maximum(moved, np.where(better, np.abs(cand - xj), 0.0))
            xs[idx[better], j] = cand[better]
            fxs[idx[better]] = f_cand[better]
        active[idx] = (moved >= cfg.step_tol) & (dims > 1)
    best = int(np.argmax(fxs))
    return ProfileMax(xs[best].copy(), float(fxs[best]), evals, sweeps, not active.any())


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
