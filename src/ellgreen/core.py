"""Closed-form evaluation of the Green/Moebius value for coordinate-hyperplane poles.

The domain is the complex ellipsoid

    E = { z in C^n : sum_j |z_j|^(2 p_j) < 1 },    p_j > 0,

and the pole set is the union of the first k coordinate hyperplanes
{z_1 = 0} u ... u {z_k = 0} intersected with E.  The value at an interior
point z is a piecewise product:

    sort the first k coordinates so the keys p_j |z_j|^(2 p_j) are
    nondecreasing, put

        q_s = sum_{j<=s} 1/(2 p_j),
        r_s = 1 - sum_{j>s} |z_j|^(2 p_j),
        c_s = r_s / q_s,

    select d = max { s in 1..k : 2 p_s |z_s|^(2 p_s) <= c_s }, and return

        value = prod_{j<=d} |z_j| * (2 p_j / c_d)^(1/(2 p_j)).

Only moduli enter anywhere, so the value is invariant under coordinate
phase rotations.  Products of powers are accumulated in log space.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, InputError, InvariantViolation

logger = logging.getLogger(__name__)

# Interior gate: rows with slack at or below this are not evaluated.
# membership() itself reports the raw sign of the slack.
INTERIOR_TOL = 1e-14

Point = Sequence[complex]


@dataclass(frozen=True)
class Ellipsoid:
    """Exponent vector p and pole count k (poles are the first k hyperplanes)."""

    p: tuple[float, ...]
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", tuple(float(v) for v in self.p))
        if not self.p:
            raise InputError("exponent vector must be nonempty")
        if any(not math.isfinite(v) or v <= 0.0 for v in self.p):
            raise InputError(f"exponents must be positive finite, got {self.p}")
        if not isinstance(self.k, int) or not 1 <= self.k <= len(self.p):
            raise InputError(f"k must be an integer in 1..{len(self.p)}, got {self.k}")

    @property
    def n(self) -> int:
        return len(self.p)


@dataclass(frozen=True)
class EvalResult:
    value: float
    d: int
    perm: tuple[int, ...]  # perm[i] = original index of sorted slot i (0-based)
    q_d: float
    r_d: float
    c_d: float
    region: tuple[int, ...]  # original 0-based indices entering the product


def _moduli(z: Point, n: int) -> list[float]:
    zt = list(z)
    if len(zt) != n:
        raise InputError(f"point has {len(zt)} coordinates, expected {n}")
    out = []
    for c in zt:
        try:
            out.append(abs(complex(c)))
        except (TypeError, ValueError) as exc:
            raise InputError(f"coordinate {c!r} is not a number") from exc
    return out


def membership(ell: Ellipsoid, z: Point) -> tuple[bool, float]:
    """Return (inside, slack) with slack = 1 - sum_j |z_j|^(2 p_j)."""
    m = _moduli(z, ell.n)
    slack = 1.0 - math.fsum(mj ** (2.0 * pj) for mj, pj in zip(m, ell.p))
    return slack > 0.0, slack


def not_interior(slack: float, interior_tol: float) -> DomainError:
    """The error for a point whose slack fails the interior gate."""
    return DomainError(f"point not interior (slack {slack:.3e} <= {interior_tol:.0e})")


def evaluate(ell: Ellipsoid, z: Point, *, interior_tol: float = INTERIOR_TOL) -> EvalResult:
    """One-row view of evaluate_batch at a complex point.

    Raises DomainError unless the slack exceeds interior_tol.
    The value is exactly 0.0 when some z_j = 0 with j <= k.
    """
    res = evaluate_batch(ell, np.array([_moduli(z, ell.n)]), interior_tol=interior_tol)
    if not res.inside[0]:
        raise not_interior(float(res.slack[0]), interior_tol)
    return EvalResult(
        value=float(res.value[0]),
        d=int(res.d[0]),
        perm=tuple(int(j) for j in res.order[0]) + tuple(range(ell.k, ell.n)),
        q_d=float(res.q_d[0]),
        r_d=float(res.r_d[0]),
        c_d=float(res.c_d[0]),
        region=tuple(int(j) for j in np.flatnonzero(res.region[0])),
    )


def ball_value(z: Point, k: int) -> float:
    """Independent route for the unit-ball case (all exponents 1).

    With the first k moduli sorted ascending, picks
    d = max { s : s |z_s|^2 + sum_{j>s} |z_j|^2 <= 1 } and returns
    (d / (1 - sum_{j>d} |z_j|^2))^(d/2) * prod_{j<=d} |z_j|.
    Deliberately uses plain powers, not the log-space general path.
    """
    zt = list(z)
    n = len(zt)
    if not isinstance(k, int) or not 1 <= k <= n:
        raise InputError(f"k must be in 1..{n}, got {k}")
    m = [abs(complex(c)) for c in zt]
    if math.fsum(v * v for v in m) >= 1.0:
        raise DomainError("point not inside the unit ball")
    ms = sorted(m[:k]) + m[k:]
    sq = [v * v for v in ms]
    d = 0
    for s in range(1, k + 1):
        if s * sq[s - 1] + math.fsum(sq[s:]) <= 1.0:
            d = s
    if d == 0:
        raise InvariantViolation("no admissible index for interior ball point")
    tail = math.fsum(sq[d:])
    prod = 1.0
    for j in range(d):
        prod *= ms[j]
    return (d / (1.0 - tail)) ** (d / 2.0) * prod


def polydisc_value(z: Point, k: int) -> float:
    """Unit-polydisc value: the plain product of the first k moduli."""
    zt = list(z)
    n = len(zt)
    if not isinstance(k, int) or not 1 <= k <= n:
        raise InputError(f"k must be in 1..{n}, got {k}")
    m = [abs(complex(c)) for c in zt]
    if max(m) >= 1.0:
        raise DomainError("point not inside the unit polydisc")
    prod = 1.0
    for j in range(k):
        prod *= m[j]
    return prod


def weighted_am_gm(a: Sequence[float], w: Sequence[float]) -> tuple[float, float]:
    """Return (prod a_j^w_j, (sum w_j a_j / sum w_j)^(sum w_j)).

    Requires a_j >= 0 and w_j > 0.  lhs <= rhs always, with equality iff
    all a_j coincide; both sides are formed in log space.
    """
    av = [float(v) for v in a]
    wv = [float(v) for v in w]
    if len(av) != len(wv) or not av:
        raise InputError("weights and values must be nonempty and equal length")
    if any(v < 0.0 or not math.isfinite(v) for v in av):
        raise InputError("values must be nonnegative finite")
    if any(v <= 0.0 or not math.isfinite(v) for v in wv):
        raise InputError("weights must be positive finite")
    wsum = math.fsum(wv)
    mean = math.fsum(wj * aj for wj, aj in zip(wv, av)) / wsum
    rhs = 0.0 if mean == 0.0 else math.exp(wsum * math.log(mean))
    if min(av) == 0.0:
        return 0.0, rhs
    lhs = math.exp(math.fsum(wj * math.log(aj) for wj, aj in zip(wv, av)))
    return lhs, rhs


@dataclass(frozen=True)
class BatchResult:
    """Vectorized evaluation over a matrix of moduli (one point per row).

    Rows failing the interior gate get inside=False and NaN statistics.
    order is the stable key sort of the first k coordinates (order[i, s] =
    original index of sorted slot s), region a boolean mask over the first
    k original coordinates.
    """

    value: np.ndarray
    d: np.ndarray
    q_d: np.ndarray
    r_d: np.ndarray
    c_d: np.ndarray
    slack: np.ndarray
    inside: np.ndarray
    order: np.ndarray
    region: np.ndarray


# Rows outside the domain may overflow, or take the log of c <= 0; they are
# masked to NaN at the end.  On interior rows the only such event is log(0)
# at a zero pole modulus, which gives the exact value 0.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def evaluate_batch(ell: Ellipsoid, moduli: np.ndarray, *, interior_tol: float = INTERIOR_TOL) -> BatchResult:
    """The branch rule and product of the module docstring over an (m, n)
    moduli array: the one implementation that evaluate() and the CLI use.

    Ties in the key sort keep input order, so degenerate inputs stay
    deterministic.  d is the literal maximum of the satisfied set; a
    non-contiguous satisfied set cannot occur for exact arithmetic and is
    logged if float ties produce one.
    """
    x = np.asarray(moduli, dtype=float)
    if x.ndim != 2 or x.shape[1] != ell.n:
        raise InputError(f"moduli must be (m, {ell.n}), got {x.shape}")
    if np.any(x < 0.0) or not np.all(np.isfinite(x)):
        raise InputError("moduli must be nonnegative finite")
    if not interior_tol >= 0.0:
        raise InputError(f"interior tolerance must be >= 0, got {interior_tol}")
    m_rows = x.shape[0]
    k = ell.k
    p = np.asarray(ell.p)

    y = x ** (2.0 * p)
    total = y.sum(axis=1)
    slack = 1.0 - total
    inside = slack > interior_tol

    keys = p[:k] * y[:, :k]
    order = np.argsort(keys, axis=1, kind="stable")
    y_h = np.take_along_axis(y[:, :k], order, axis=1)
    p_h = p[order]
    x_h = np.take_along_axis(x[:, :k], order, axis=1)

    inv2p = 1.0 / (2.0 * p_h)
    q = np.cumsum(inv2p, axis=1)
    # r_s = 1 - (total - prefix_s) = slack' + prefix_s with the full sum removed
    prefix = np.cumsum(y_h, axis=1)
    r = 1.0 - (total[:, None] - prefix)
    c = r / q
    load = 2.0 * p_h * y_h
    cond = load <= c

    any_true = cond.any(axis=1)
    last_true = k - 1 - np.argmax(cond[:, ::-1], axis=1)
    d = np.where(any_true, last_true + 1, 0)
    if np.any(inside & ~any_true):
        # The s=1 condition is equivalent to interiority, so this cannot happen.
        idx = int(np.argmax(inside & ~any_true))
        raise InvariantViolation(f"no branch satisfied for interior row {idx}")

    prefix_len = np.where(cond.all(axis=1), k, np.argmin(cond, axis=1))
    noncontiguous = inside & (prefix_len != d)
    if np.any(noncontiguous):
        logger.warning("non-contiguous branch candidate sets in %d rows", int(noncontiguous.sum()))

    d_safe = np.maximum(d, 1)
    gather = (d_safe - 1)[:, None]
    q_d = np.take_along_axis(q, gather, axis=1)[:, 0]
    r_d = np.take_along_axis(r, gather, axis=1)[:, 0]
    c_d = np.take_along_axis(c, gather, axis=1)[:, 0]

    log_x = np.log(x_h)
    terms = log_x + (np.log(2.0 * p_h) - np.log(c_d)[:, None]) * inv2p
    active = np.arange(k)[None, :] < d[:, None]
    log_value = np.where(active, terms, 0.0).sum(axis=1)
    value = np.exp(log_value)

    region = np.zeros((m_rows, k), dtype=bool)
    np.put_along_axis(region, order, active, axis=1)

    nan = np.nan
    value = np.where(inside, value, nan)
    q_d = np.where(inside, q_d, nan)
    r_d = np.where(inside, r_d, nan)
    c_d = np.where(inside, c_d, nan)
    d = np.where(inside, d, 0)
    region &= inside[:, None]
    return BatchResult(
        value=value, d=d, q_d=q_d, r_d=r_d, c_d=c_d, slack=slack, inside=inside,
        order=order, region=region,
    )


def ball_value_batch(moduli: np.ndarray, k: int) -> np.ndarray:
    """Vectorized ball_value over an (m, n) moduli array (interior rows only)."""
    x = np.asarray(moduli, dtype=float)
    if x.ndim != 2 or not 1 <= k <= x.shape[1]:
        raise InputError("need an (m, n) array with 1 <= k <= n")
    sq = x * x
    if np.any(sq.sum(axis=1) >= 1.0):
        raise DomainError("some row is not inside the unit ball")
    xs = np.sort(x[:, :k], axis=1)
    sq_h = xs * xs
    total = sq.sum(axis=1)
    prefix = np.cumsum(sq_h, axis=1)
    tail = total[:, None] - prefix
    s = np.arange(1, k + 1)[None, :]
    ok = s * sq_h + tail <= 1.0
    d = k - np.argmax(ok[:, ::-1], axis=1)
    tail_d = np.take_along_axis(tail, (d - 1)[:, None], axis=1)[:, 0]
    active = np.arange(k)[None, :] < d[:, None]
    prod = np.where(active, xs, 1.0).prod(axis=1)
    return (d / (1.0 - tail_d)) ** (d / 2.0) * prod
