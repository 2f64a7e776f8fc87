"""Independent reference for the extremal value R(z) on a complex ellipsoid.

R(z) is the smallest value over the nonempty subsets S of the pole
coordinates {1..k} whose polydisc embedding contains z.  With

    y_j = |z_j|^(2 p_j),
    c_S = (1 - sum_{j not in S} y_j) / sum_{j in S} 1/(2 p_j),

S contains z when 2 p_j y_j <= c_S for every j in S, and its value is

    V_S = prod_{j in S} |z_j| (2 p_j / c_S)^(1/(2 p_j)).

For k <= EXHAUSTIVE_MAX_K every subset is searched.  For larger k the
minimum is taken over the prefixes of the pole coordinates ordered by
p_j y_j.  There is no branch rule (the minimum is taken over every
containing set) and nothing is formed in log space, so agreement with
ellgreen's sorted-prefix, log-space evaluation is evidence, not a copy.

V_S is formed as P_S c_S^(-q_S) with P_S = prod |z_j| (2 p_j)^(1/(2 p_j))
and q_S = sum 1/(2 p_j), and as (P_S^(1/q_S) / c_S)^(q_S) where the power
alone over- or underflows (q_S reaches 80 on the benchmark's domains).
"""

from __future__ import annotations

import numpy as np

EXHAUSTIVE_MAX_K = 10

# Cap on rows * subsets elements held at once by the exhaustive search.
_CHUNK_ELEMENTS = 1 << 20


def slack(moduli: np.ndarray, p: np.ndarray) -> np.ndarray:
    """1 - sum_j |z_j|^(2 p_j) per row; positive exactly inside the domain."""
    x = np.asarray(moduli, dtype=float)
    return 1.0 - (x ** (2.0 * np.asarray(p, dtype=float))).sum(axis=1)


def _embedding_value(prod_s: np.ndarray, q_s: np.ndarray, c_s: np.ndarray) -> np.ndarray:
    """prod_s * c_s^(-q_s), redone as (prod_s^(1/q_s) / c_s)^q_s where the
    power alone overflows or underflows."""
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        scale = c_s ** -q_s
        value = prod_s * scale
        bad = ~np.isfinite(scale) | (scale == 0.0)
        if bad.any():
            q_b = np.broadcast_to(q_s, value.shape)[bad]
            c_b = np.broadcast_to(c_s, value.shape)[bad]
            value[bad] = (np.broadcast_to(prod_s, value.shape)[bad] ** (1.0 / q_b) / c_b) ** q_b
    return value


def _exhaustive(x: np.ndarray, p: np.ndarray, k: int) -> np.ndarray:
    """Every nonempty subset, built by doubling: column s of the per-subset
    arrays belongs to the subset whose bitmask is s (bit j = coordinate j)."""
    two_p = 2.0 * p[:k]
    inv2p = 1.0 / two_p
    y = x ** (2.0 * p)
    total = y.sum(axis=1)
    load = two_p * y[:, :k]                           # 2 p_j y_j
    g = x[:, :k] * two_p ** inv2p                     # |z_j| (2 p_j)^(1/(2 p_j))
    member = (np.arange(1, 1 << k)[:, None] >> np.arange(k)[None, :]) & 1
    q_s = member @ inv2p
    subsets = 1 << k
    out = np.empty(x.shape[0])
    step = max(1, _CHUNK_ELEMENTS // subsets)
    for lo in range(0, x.shape[0], step):
        hi = min(lo + step, x.shape[0])
        y_s = np.zeros((hi - lo, subsets))
        worst = np.full((hi - lo, subsets), -np.inf)
        prod_s = np.ones((hi - lo, subsets))
        for j in range(k):
            half = slice(0, 1 << j)
            fill = slice(1 << j, 2 << j)
            np.add(y_s[:, half], y[lo:hi, j, None], out=y_s[:, fill])
            np.maximum(worst[:, half], load[lo:hi, j, None], out=worst[:, fill])
            np.multiply(prod_s[:, half], g[lo:hi, j, None], out=prod_s[:, fill])
        c_s = (1.0 - total[lo:hi, None] + y_s[:, 1:]) / q_s
        value = _embedding_value(prod_s[:, 1:], q_s, c_s)
        value[(worst[:, 1:] > c_s) | (c_s <= 0.0)] = np.inf
        out[lo:hi] = value.min(axis=1)
    return out


def prefix_value(moduli: np.ndarray, p, k: int) -> np.ndarray:
    """The minimum over prefixes of the pole coordinates in p_j y_j order
    only, for any k (O(k) work per row)."""
    x = np.asarray(moduli, dtype=float)
    p = np.asarray(p, dtype=float)
    y = x ** (2.0 * p)
    total = y.sum(axis=1)
    order = np.argsort(p[:k] * y[:, :k], axis=1, kind="stable")
    y_o = np.take_along_axis(y[:, :k], order, axis=1)
    p_o = p[:k][order]
    two_p = 2.0 * p_o
    inv2p = 1.0 / two_p
    q_s = np.cumsum(inv2p, axis=1)
    c_s = (1.0 - total[:, None] + np.cumsum(y_o, axis=1)) / q_s
    # the load of a prefix's last member is its largest, by the ordering
    contains = (two_p * y_o <= c_s) & (c_s > 0.0)
    g = np.take_along_axis(x[:, :k], order, axis=1) * two_p ** inv2p
    value = _embedding_value(np.cumprod(g, axis=1), q_s, c_s)
    return np.where(contains, value, np.inf).min(axis=1)


def extremal_value(moduli: np.ndarray, p, k: int) -> np.ndarray:
    """R over the rows of an (m, n) array of moduli strictly inside the domain.

    Rows outside the domain have no containing subset and come back as inf.
    """
    x = np.asarray(moduli, dtype=float)
    p_arr = np.asarray(p, dtype=float)
    if x.ndim != 2 or x.shape[1] != p_arr.shape[0] or not 1 <= k <= p_arr.shape[0]:
        raise ValueError(f"need (m, {p_arr.shape[0]}) moduli and 1 <= k <= n")
    if k <= EXHAUSTIVE_MAX_K:
        return _exhaustive(x, p_arr, k)
    return prefix_value(x, p_arr, k)


def active_set(moduli, p, k: int) -> tuple[int, ...]:
    """The containing subset of smallest value at one interior point
    (0-based indices), by exhaustive search."""
    x = [float(v) for v in moduli]
    pv = [float(v) for v in p]
    y = [xj ** (2.0 * pj) for xj, pj in zip(x, pv)]
    best, best_set = np.inf, ()
    for mask in range(1, 1 << k):
        s = [j for j in range(k) if mask >> j & 1]
        c = (1.0 - sum(y) + sum(y[j] for j in s)) / sum(1.0 / (2.0 * pv[j]) for j in s)
        if c <= 0.0 or any(2.0 * pv[j] * y[j] > c for j in s):
            continue
        value = float(np.prod([x[j] * (2.0 * pv[j] / c) ** (1.0 / (2.0 * pv[j])) for j in s]))
        if value < best:
            best, best_set = value, tuple(s)
    return best_set
