"""Extremal certificates witnessing the closed-form value at a base point.

Two kinds of competitor are assembled from the sorted frame of the base
point z (head = the d coordinates entering the product, tail = the rest):

- a log-plurisubharmonic witness u on E with linear vanishing at the pole
  hyperplanes, built from a power-law tail factor
      v(t) = prod_{hyper tail} t_j^(1+alpha_j) * prod_{other tail} t_j^alpha_j;
- a holomorphic witness f on E with |f| < 1 vanishing on the pole set,
  built from an exponential tail factor
      h(w) = prod_{hyper tail} w_j e^(alpha_j w_j) * prod_{other tail} e^(alpha_j w_j)
  or, in the two-variable shifted-pole family, h(w) = w / (r - w)^(b/a).

The free exponents alpha make the real profile

    profile(t) = tail_factor(t) * r_d(t)^(q_d),
    r_d(t) = 1 - sum_{tail} t_j^(2 p_j),

stationary at the base tail moduli; M is the profile value there and
normalizes the witness so that witness(z) equals the closed-form value.
All products of powers are accumulated in log space.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import Ellipsoid, EvalResult, Point, evaluate, membership
from .errors import DomainError, InfeasibleCertificate, InputError, InvariantViolation

# Negative alpha beyond this is a selection bug, not float dust.
_ALPHA_DUST = 1e-9


def _phase(c: complex) -> float:
    return cmath.phase(c) if c != 0 else 0.0


def _tail_power_log(t: np.ndarray, expo: np.ndarray) -> np.ndarray:
    """sum_j expo_j * log t_j over rows, with the 0 * log(0) = 0 convention."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lt = np.where(t > 0.0, np.log(np.where(t > 0.0, t, 1.0)), -np.inf)
        contrib = np.where(expo[None, :] == 0.0, 0.0, expo[None, :] * lt)
    return contrib.sum(axis=1)


def _log_rd(t: np.ndarray, two_p: np.ndarray, q_d: float) -> np.ndarray:
    """q_d * log(1 - sum t^(2p)) over rows; -inf outside the tail domain."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = 1.0 - (t ** two_p[None, :]).sum(axis=1)
        out = np.where(r > 0.0, np.log(np.where(r > 0.0, r, 1.0)), -np.inf)
    return q_d * out


@dataclass(frozen=True)
class _CertificateBase:
    """Shared frame data; tail arrays are in sorted-frame order."""

    ell: Ellipsoid
    z: tuple[complex, ...]
    perm: tuple[int, ...]
    d: int
    p_sorted: tuple[float, ...]
    moduli_sorted: tuple[float, ...]
    q_d: float
    r_d: float
    c_d: float
    base_value: float
    M: float
    log_M: float

    @property
    def tail_indices(self) -> tuple[int, ...]:
        """Original 0-based indices of the tail coordinates, certificate order."""
        return self.perm[self.d:]

    @property
    def base_tail(self) -> tuple[float, ...]:
        return self.moduli_sorted[self.d:]

    @property
    def tail_dims(self) -> int:
        return self.ell.n - self.d

    def _head_log(self) -> float:
        # log of prod (2 p_j)^(1/(2 p_j)) plus q_d^q_d, shared by both witnesses
        return math.fsum(
            math.log(2.0 * pj) / (2.0 * pj) for pj in self.p_sorted[: self.d]
        ) + self.q_d * math.log(self.q_d)

    def _sorted_point(self, zeta: Point) -> list[complex]:
        zt = [complex(c) for c in zeta]
        if len(zt) != self.ell.n:
            raise InputError(f"point has {len(zt)} coordinates, expected {self.ell.n}")
        return [zt[j] for j in self.perm]

    def _check_inside(self, zeta: Point) -> None:
        inside, slack = membership(self.ell, zeta)
        if not inside:
            raise DomainError(f"witness argument not inside the domain (slack {slack})")

    def _tail_array(self, t: Sequence[float] | np.ndarray) -> np.ndarray:
        arr = np.atleast_2d(np.asarray(t, dtype=float))
        if arr.shape[1] != self.tail_dims:
            raise InputError(f"tail has {arr.shape[1]} coordinates, expected {self.tail_dims}")
        return arr


@dataclass(frozen=True)
class GreenCertificate(_CertificateBase):
    """Power-law tail witness; valid for every exponent vector."""

    alpha: tuple[float, ...] = ()

    @property
    def tail_exponents(self) -> tuple[float, ...]:
        """Exponent on each tail modulus: 1 + alpha on pole tails, alpha beyond."""
        k = self.ell.k
        return tuple(
            a + 1.0 if self.d + i < k else a for i, a in enumerate(self.alpha)
        )

    def tail_factor(self, zeta_tail: Sequence[complex]) -> float:
        """v at a tail point of the reduced domain (moduli only matter)."""
        t = np.array([[abs(complex(c)) for c in zeta_tail]])
        if t.shape[1] != self.tail_dims:
            raise InputError(f"tail has {t.shape[1]} coordinates, expected {self.tail_dims}")
        two_p = 2.0 * np.asarray(self.p_sorted[self.d:])
        if float((t ** two_p).sum()) >= 1.0:
            raise DomainError("tail point not inside the reduced domain")
        return float(np.exp(_tail_power_log(t, np.asarray(self.tail_exponents)))[0])

    def log_profile(self, t: np.ndarray) -> np.ndarray:
        """log(v(t) * r_d(t)^q_d) over rows of an (m, tail_dims) array."""
        arr = self._tail_array(t)
        expo = np.asarray(self.tail_exponents)
        two_p = 2.0 * np.asarray(self.p_sorted[self.d:])
        return _tail_power_log(arr, expo) + _log_rd(arr, two_p, self.q_d)

    def profile(self, t: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.log_profile(t))

    def witness(self, zeta: Point) -> float:
        """u at a full point of E (original coordinate order)."""
        self._check_inside(zeta)
        zs = self._sorted_point(zeta)
        head = [abs(c) for c in zs[: self.d]]
        if min(head, default=1.0) == 0.0:
            return 0.0
        tail = np.array([[abs(c) for c in zs[self.d:]]])
        log_tail = float(_tail_power_log(tail, np.asarray(self.tail_exponents))[0])
        log_u = (
            -self.log_M
            + self._head_log()
            + math.fsum(math.log(v) for v in head)
            + log_tail
        )
        return math.exp(log_u) if math.isfinite(log_u) else 0.0

    def to_payload(self) -> dict:
        return {
            "family": "green-power",
            "z": [[c.real, c.imag] for c in self.z],
            "value": self.base_value,
            "d": self.d,
            "tail": [j + 1 for j in self.tail_indices],
            "alpha": list(self.alpha),
            "M": self.M,
            "feasible": True,
            "degenerate": [],
        }


@dataclass(frozen=True)
class PoleProfileParams:
    """Parameters of the shifted-pole tail h(w) = w / (r - w)^(b/a).

    a and c are the doubled exponents of the two coordinates, t0 the base
    tail modulus, tau = a / (a + c) the stationarity-domain threshold.
    """

    a: float
    c: float
    t0: float
    b: float
    r: float
    tau: float

    def __post_init__(self) -> None:
        if min(self.a, self.c, self.b) <= 0.0:
            raise InputError("a, c, b must be positive")
        if not 0.0 < self.t0 < 1.0:
            raise InputError("t0 must lie in (0, 1)")
        if self.r < 1.0:
            raise InputError(f"pole location must satisfy r >= 1, got {self.r}")
        if self.t0 ** self.c <= self.tau:
            raise InputError("t0^c must exceed tau = a / (a + c)")


@dataclass(frozen=True)
class MobiusCertificate(_CertificateBase):
    """Holomorphic tail witness; family 'exp' or 'shifted-pole'."""

    family: str = "exp"
    alpha: tuple[float, ...] = ()
    feasible: bool = True
    degenerate: tuple[int, ...] = ()  # original indices whose factor collapsed
    phases: tuple[float, ...] = ()  # base-point tail phases, certificate order
    pole: PoleProfileParams | None = None

    def _require_usable(self) -> None:
        if not self.feasible:
            raise InfeasibleCertificate(
                f"certificate infeasible (alpha = {self.alpha}); cannot act as a witness"
            )
        if self.degenerate:
            raise InfeasibleCertificate(
                f"boundary-degenerate at coordinates {[j + 1 for j in self.degenerate]}; "
                "profile maximum is not at the base point"
            )

    def _tail_log_h_moduli(self, t: np.ndarray) -> np.ndarray:
        if self.family == "shifted-pole":
            pp = self.pole
            assert pp is not None
            with np.errstate(divide="ignore", invalid="ignore"):
                lt = np.where(t > 0.0, np.log(np.where(t > 0.0, t, 1.0)), -np.inf)
            return (lt - (pp.b / pp.a) * np.log(pp.r - t)).sum(axis=1)
        k = self.ell.k
        n_hyper = max(0, k - self.d)
        alpha = np.asarray(self.alpha)
        with np.errstate(divide="ignore", invalid="ignore"):
            lt = np.where(t > 0.0, np.log(np.where(t > 0.0, t, 1.0)), -np.inf)
        out = alpha[None, :] * t
        if n_hyper:
            out[:, :n_hyper] += lt[:, :n_hyper]
        return out.sum(axis=1)

    def tail_factor(self, zeta_tail: Sequence[complex]) -> complex:
        """h at a complex tail point; |h(zeta)| <= h(|zeta|) since alpha >= 0."""
        self._require_usable()
        w = [complex(c) for c in zeta_tail]
        if len(w) != self.tail_dims:
            raise InputError(f"tail has {len(w)} coordinates, expected {self.tail_dims}")
        two_p = np.asarray([2.0 * p for p in self.p_sorted[self.d:]])
        if float((np.abs(np.array(w)) ** two_p).sum()) >= 1.0:
            raise DomainError("tail point not inside the reduced domain")
        if self.family == "shifted-pole":
            pp = self.pole
            assert pp is not None
            return w[0] * cmath.exp(-(pp.b / pp.a) * cmath.log(pp.r - w[0]))
        k = self.ell.k
        out = complex(1.0)
        for i, wi in enumerate(w):
            out *= cmath.exp(self.alpha[i] * wi)
            if self.d + i < k:
                out *= wi
        return out

    def log_profile(self, t: np.ndarray) -> np.ndarray:
        """log(h(t) * r_d(t)^q_d) on nonnegative tail moduli rows."""
        arr = self._tail_array(t)
        two_p = 2.0 * np.asarray(self.p_sorted[self.d:])
        return self._tail_log_h_moduli(arr) + _log_rd(arr, two_p, self.q_d)

    def profile(self, t: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.log_profile(t))

    def witness(self, zeta: Point) -> complex:
        """f at a full point of E (original coordinate order); |f| < 1 on E."""
        self._require_usable()
        self._check_inside(zeta)
        zs = self._sorted_point(zeta)
        pref = math.exp(self._head_log() - self.log_M)
        head = complex(1.0)
        for c in zs[: self.d]:
            head *= c
        rotated = [
            c * cmath.exp(-1j * th) for c, th in zip(zs[self.d:], self.phases)
        ]
        if self.family == "shifted-pole":
            pp = self.pole
            assert pp is not None
            w = rotated[0]
            h = w * cmath.exp(-(pp.b / pp.a) * cmath.log(pp.r - w))
        else:
            k = self.ell.k
            h = complex(1.0)
            for i, wi in enumerate(rotated):
                h *= cmath.exp(self.alpha[i] * wi)
                if self.d + i < k:
                    h *= wi
        return pref * head * h

    def to_payload(self) -> dict:
        payload = {
            "family": f"mobius-{self.family}",
            "z": [[c.real, c.imag] for c in self.z],
            "value": self.base_value,
            "d": self.d,
            "tail": [j + 1 for j in self.tail_indices],
            "alpha": list(self.alpha) if self.family == "exp" else None,
            "M": self.M,
            "feasible": self.feasible,
            "degenerate": [j + 1 for j in self.degenerate],
        }
        if self.pole is not None:
            pp = self.pole
            payload["pole"] = {
                "a": pp.a, "c": pp.c, "t0": pp.t0, "b": pp.b, "r": pp.r, "tau": pp.tau,
            }
        return payload


def _base_frame(ell: Ellipsoid, z: Point) -> tuple[EvalResult, list[complex], list[float], list[float]]:
    res = evaluate(ell, z)
    zt = [complex(c) for c in z]
    zs = [zt[j] for j in res.perm]
    ps = [ell.p[j] for j in res.perm]
    ms = [abs(c) for c in zs]
    if min(ms[: res.d], default=1.0) == 0.0:
        raise InputError("certificate needs a nonzero base value (head coordinate is 0)")
    return res, zs, ps, ms


def _clamp_alpha(raw: list[float], what: str) -> list[float]:
    out = []
    for a in raw:
        if a < -_ALPHA_DUST:
            raise InvariantViolation(f"{what} exponent {a} is negative beyond float dust")
        out.append(0.0 if a < 0.0 else a)
    return out


def green_certificate(ell: Ellipsoid, z: Point) -> GreenCertificate:
    """Build the power-law tail witness at z.

    The tail exponents come from stationarity of the profile at |z_tail|:
    alpha_j = 2 p_j q_d |z_j|^(2 p_j) / r_d  (minus 1 on pole tails), all
    nonnegative because of how d was selected.
    """
    res, zs, ps, ms = _base_frame(ell, z)
    d, k, n = res.d, ell.k, ell.n
    raw = []
    for i in range(d, n):
        load = 2.0 * ps[i] * ms[i] ** (2.0 * ps[i])
        a = load * res.q_d / res.r_d
        raw.append(a - 1.0 if i < k else a)
    alpha = _clamp_alpha(raw, "green tail")

    expo = [alpha[i - d] + (1.0 if i < k else 0.0) for i in range(d, n)]
    log_v = math.fsum(
        e * math.log(ms[d + j]) for j, e in enumerate(expo) if e != 0.0 and ms[d + j] > 0.0
    )
    if any(e > 0.0 and ms[d + j] == 0.0 for j, e in enumerate(expo)):
        log_v = -math.inf
    log_M = log_v + res.q_d * math.log(res.r_d)
    if not math.isfinite(log_M):
        raise InvariantViolation("degenerate normalization for a nonzero base value")
    return GreenCertificate(
        ell=ell, z=tuple(complex(c) for c in z), perm=res.perm, d=d,
        p_sorted=tuple(ps), moduli_sorted=tuple(ms),
        q_d=res.q_d, r_d=res.r_d, c_d=res.c_d, base_value=res.value,
        M=math.exp(log_M), log_M=log_M, alpha=tuple(alpha),
    )


def mobius_certificate(ell: Ellipsoid, z: Point) -> MobiusCertificate:
    """Build the exponential tail witness at z.

    alpha_j = 2 p_j q_d |z_j|^(2 p_j - 1) / r_d, minus 1/|z_j| on pole
    tails (computed as the power-law alpha over |z_j| to avoid
    cancellation).  Feasibility (all alpha >= 0) is recorded as data; the
    profile maximum actually sitting at |z_tail| additionally needs
    p_j >= 1/2 on the tail and is the oracle's job to check.  Tail
    coordinates at 0 whose exponent would blow up are marked degenerate
    with their factor frozen to exp(0 * w).
    """
    res, zs, ps, ms = _base_frame(ell, z)
    d, k, n = res.d, ell.k, ell.n
    raw: list[float] = []
    degenerate: list[int] = []
    for i in range(d, n):
        mi = ms[i]
        if i < k:
            load = 2.0 * ps[i] * mi ** (2.0 * ps[i])
            a_pow = load * res.q_d / res.r_d - 1.0
            if mi == 0.0:
                degenerate.append(res.perm[i])
                raw.append(0.0)
            else:
                raw.append(a_pow / mi)
        else:
            if mi == 0.0 and 2.0 * ps[i] < 1.0:
                degenerate.append(res.perm[i])
                raw.append(0.0)
            else:
                raw.append(2.0 * ps[i] * res.q_d * mi ** (2.0 * ps[i] - 1.0) / res.r_d)
    alpha = []
    feasible = True
    for a in raw:
        if a < 0.0:
            if a >= -_ALPHA_DUST:
                a = 0.0
            else:
                feasible = False
        alpha.append(a)

    log_h = math.fsum(
        (math.log(ms[i]) if i < k else 0.0) + alpha[i - d] * ms[i]
        for i in range(d, n)
        if not (i < k and ms[i] == 0.0)
    )
    if any(i < k and ms[i] == 0.0 for i in range(d, n)):
        log_h = -math.inf
    log_M = log_h + res.q_d * math.log(res.r_d)
    return MobiusCertificate(
        ell=ell, z=tuple(complex(c) for c in z), perm=res.perm, d=d,
        p_sorted=tuple(ps), moduli_sorted=tuple(ms),
        q_d=res.q_d, r_d=res.r_d, c_d=res.c_d, base_value=res.value,
        M=math.exp(log_M) if math.isfinite(log_M) else 0.0, log_M=log_M,
        family="exp", alpha=tuple(alpha), feasible=feasible,
        degenerate=tuple(degenerate),
        phases=tuple(_phase(c) for c in zs[d:]),
    )


@dataclass(frozen=True)
class PolydiscEmbedding:
    """Analytic disc-polydisc embedding through z along the head coordinates.

    Maps the unit polydisc D^d into the ellipsoid by scaling head slot j
    with (c_d / (2 p_j))^(1/(2 p_j)) and pinning the tail at z; the base
    point is hit at the preimage whose modulus product equals the value.
    """

    ell: Ellipsoid
    z: tuple[complex, ...]
    perm: tuple[int, ...]
    d: int
    c_d: float
    scale: tuple[float, ...]
    _sorted_z: tuple[complex, ...] = field(repr=False, default=())

    @property
    def preimage(self) -> tuple[complex, ...]:
        return tuple(self._sorted_z[i] / self.scale[i] for i in range(self.d))

    def __call__(self, zeta_head: Sequence[complex]) -> tuple[complex, ...]:
        w = [complex(c) for c in zeta_head]
        if len(w) != self.d:
            raise InputError(f"embedding takes {self.d} coordinates, got {len(w)}")
        if any(abs(c) >= 1.0 for c in w):
            raise DomainError("argument must lie in the open unit polydisc")
        out_sorted = [w[i] * self.scale[i] for i in range(self.d)] + list(self._sorted_z[self.d:])
        out: list[complex] = [0j] * self.ell.n
        for slot, orig in enumerate(self.perm):
            out[orig] = out_sorted[slot]
        return tuple(out)


def polydisc_embedding(ell: Ellipsoid, z: Point, d: int | None = None) -> PolydiscEmbedding:
    res = evaluate(ell, z)
    if d is not None and d != res.d:
        raise InputError(f"d = {d} does not match the branch index {res.d} at z")
    zt = [complex(c) for c in z]
    zs = [zt[j] for j in res.perm]
    ps = [ell.p[j] for j in res.perm]
    log_c = math.log(res.c_d)
    scale = tuple(
        math.exp((log_c - math.log(2.0 * ps[i])) / (2.0 * ps[i])) for i in range(res.d)
    )
    return PolydiscEmbedding(
        ell=ell, z=tuple(zt), perm=res.perm, d=res.d, c_d=res.c_d,
        scale=scale, _sorted_z=tuple(zs),
    )


@dataclass(frozen=True)
class MonomialWitness:
    """Scaled coordinate monomial, extremal when every coordinate is active."""

    ell: Ellipsoid
    z: tuple[complex, ...]
    coefficient: float
    base_value: float

    def __call__(self, zeta: Point) -> complex:
        w = [complex(c) for c in zeta]
        if len(w) != self.ell.n:
            raise InputError(f"point has {len(w)} coordinates, expected {self.ell.n}")
        out = complex(self.coefficient)
        for c in w:
            out *= c
        return out


def monomial_witness(ell: Ellipsoid, z: Point) -> MonomialWitness:
    """Witness f(zeta) = prod_j zeta_j (2 p_j / c_d)^(1/(2 p_j)); needs d = k = n at z."""
    res = evaluate(ell, z)
    if res.d != ell.n:
        raise InputError(
            f"monomial witness needs every coordinate active (d = k = n); got d = {res.d}, "
            f"k = {ell.k}, n = {ell.n}"
        )
    log_c = math.log(res.c_d)
    log_coeff = math.fsum(
        (math.log(2.0 * pj) - log_c) / (2.0 * pj) for pj in ell.p
    )
    return MonomialWitness(
        ell=ell, z=tuple(complex(c) for c in z),
        coefficient=math.exp(log_coeff), base_value=res.value,
    )

