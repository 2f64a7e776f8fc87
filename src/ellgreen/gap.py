"""Nonconvex-side tooling.

When some exponent p_j < 1/2 sits beyond the pole coordinates, holomorphic
competitors provably cannot keep up with the log-plurisubharmonic value.
This module provides the numeric machinery behind that gap:

- the barrier phi(t) = (1 - t^p)^(-q), its concavity window [0, b], and a
  chord point c in (0, b) whose slack forbids ratio maxima in (0, c);
- an exclusion demo scanning |f(t)| / phi(t) for random polynomial
  candidates, expecting the argmax at 0 or past c;
- the two-variable shifted-pole certificate h(w) = w / (r - w)^(b/a),
  whose pole location r(t) makes the profile peak at a chosen t0, with the
  slope quadratic alpha(u) that controls r' < 0;
- a lower-bound search over four explicit holomorphic tail families,
  sup-normalized so it can never exceed the closed-form value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .certificates import MobiusCertificate, PoleProfileParams
from .core import Ellipsoid, evaluate
from .errors import DomainError, HypothesisNotMet, InputError, InvariantViolation
from .oracle import VerificationReport, golden_max, maximize_profile

# ---------------------------------------------------------------------------
# barrier and obstruction window


def _check_unit_interval(t: np.ndarray | float) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if np.any((arr < 0.0) | (arr >= 1.0)):
        raise DomainError("barrier argument must lie in [0, 1)")
    return arr


def barrier(t: np.ndarray | float, p: float, q: float) -> np.ndarray | float:
    """(1 - t^p)^(-q), evaluated as exp(-q log1p(-t^p)) for accuracy."""
    arr = _check_unit_interval(t)
    out = np.exp(-q * np.log1p(-(arr ** p)))
    return float(out) if np.isscalar(t) else out


def barrier_minus_one(t: np.ndarray | float, p: float, q: float) -> np.ndarray | float:
    """barrier(t) - 1 without cancellation; ~ q t^p for small t."""
    arr = _check_unit_interval(t)
    out = np.expm1(-q * np.log1p(-(arr ** p)))
    return float(out) if np.isscalar(t) else out


def barrier_prime(t: np.ndarray | float, p: float, q: float) -> np.ndarray | float:
    """p q t^(p-1) (1 - t^p)^(-q-1); +inf at t = 0 when p < 1."""
    arr = _check_unit_interval(t)
    with np.errstate(divide="ignore"):
        out = p * q * arr ** (p - 1.0) * np.exp(-(q + 1.0) * np.log1p(-(arr ** p)))
    return float(out) if np.isscalar(t) else out


def concavity_window(p: float, q: float) -> float:
    """Largest scan-grid b with the barrier slope strictly decreasing on (0, b].

    Strict decrease of phi' on a fine geometric grid is the testable proxy
    for concavity of phi there.
    """
    if not 0.0 < p < 1.0:
        raise InputError(f"p must lie in (0, 1), got {p}")
    if q <= 0.0:
        raise InputError(f"q must be positive, got {q}")
    grid = np.geomspace(1e-6, 1.0 - 1e-9, 1000)
    deriv = barrier_prime(grid, p, q)
    rising = np.nonzero(np.diff(deriv) >= 0.0)[0]
    b = float(grid[rising[0]]) if rising.size else float(grid[-1])
    if b < 1e-8:
        raise InvariantViolation(
            f"no concavity window above 1e-8 for p={p}, q={q}; the slope should "
            "decrease near 0 for every p in (0,1)"
        )
    return b


def chord_margin(c: float, p: float, q: float, b: float) -> float:
    """Slack of 1 + (b/c)(phi(c) - 1) > phi(b) + 2, via the minus-one form."""
    return (b / c) * barrier_minus_one(c, p, q) - barrier_minus_one(b, p, q) - 2.0


def find_chord_point(p: float, q: float, b: float) -> tuple[float, float]:
    """First c on the halving grid b/2, b/4, ... with positive chord slack.

    The slack grows without bound as c decreases (the chord slope blows
    up), so the scan terminates; the 1e-60 floor turns a logic error into
    a loud failure instead of a hang.
    """
    c = b / 2.0
    while c > 1e-60:
        margin = chord_margin(c, p, q, b)
        if margin > 0.0:
            return c, float(margin)
        c /= 2.0
    raise InvariantViolation(
        f"no chord point found above 1e-60 for p={p}, q={q}, b={b}"
    )


@dataclass(frozen=True)
class ObstructionWindow:
    """Barrier window (b, c) whose chord slack forbids ratio maxima in (0, c)."""

    p: float
    q: float
    b: float
    c: float
    margin: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise InputError(f"p must lie in (0, 1), got {self.p}")
        if self.q <= 0.0:
            raise InputError(f"q must be positive, got {self.q}")
        if not 0.0 < self.c < self.b < 1.0:
            raise InputError(f"need 0 < c < b < 1, got c={self.c}, b={self.b}")
        if self.margin <= 0.0:
            raise InputError(f"chord slack must be positive, got {self.margin}")

    @classmethod
    def find(cls, p: float, q: float) -> "ObstructionWindow":
        b = concavity_window(p, q)
        c, margin = find_chord_point(p, q, b)
        return cls(p=p, q=q, b=b, c=c, margin=margin)

    def to_payload(self) -> dict:
        return {"p": self.p, "q": self.q, "b": self.b, "c": self.c, "margin": self.margin}


def random_polynomials(
    rng: np.random.Generator, *, max_degree: int = 10
) -> Iterator[np.ndarray]:
    """Random polynomial coefficient rows (highest power first), each
    coefficient uniform on the closed unit disc."""
    while True:
        deg = int(rng.integers(0, max_degree + 1))
        radii = np.sqrt(rng.uniform(0.0, 1.0, deg + 1))
        angles = rng.uniform(0.0, 2.0 * math.pi, deg + 1)
        coeffs = radii * np.exp(1j * angles)
        if np.any(coeffs != 0):
            yield coeffs


def exclusion_demo(
    p: float,
    q: float,
    window: ObstructionWindow,
    generator: Iterator[np.ndarray] | None = None,
    *,
    trials: int = 200,
    samples: int = 10_000,
    seed: int = 0,
    collect: int = 0,
) -> VerificationReport:
    """Scan |f(t)| / phi(t) on [0, b] for random candidates f; the argmax
    must sit at 0 (within 1e-6) or at modulus >= c - 1e-6, never inside.

    The grid argmax is polished by a golden-section pass over its bracket
    before classification, since the grid spacing exceeds the 1e-6 slack.
    """
    if samples < 2:
        raise InputError(f"exclusion scan needs samples >= 2, got {samples}")
    rng = np.random.default_rng(seed)
    gen = generator if generator is not None else random_polynomials(rng)
    t = np.linspace(0.0, window.b, samples)
    phi = np.asarray(barrier(t, p, q))
    spacing = window.b / (samples - 1)
    lower_gate = window.c - 1e-6
    violations = 0
    witness = None
    profiles: list[list[float]] = []
    for i in range(trials):
        coeffs = next(gen)
        ratio = np.abs(np.polyval(coeffs, t)) / phi
        j = int(np.argmax(ratio))
        loc = float(t[j])
        if collect and len(profiles) < collect:
            profiles.append(ratio.tolist())
        # polishing can move the argmax by at most one bracket
        if loc - spacing >= lower_gate or loc + spacing <= 1e-6:
            continue

        def scalar_ratio(x: float, coeffs=coeffs) -> float:
            return float(abs(np.polyval(coeffs, x)) / barrier(x, p, q))

        lo = t[max(j - 1, 0)]
        hi = t[min(j + 1, samples - 1)]
        loc, _ = golden_max(scalar_ratio, float(lo), float(hi), tol=1e-10)
        if not (loc <= 1e-6 or loc >= lower_gate):
            violations += 1
            if witness is None:
                witness = {"candidate": i, "argmax": loc, "coeffs": [[c.real, c.imag] for c in coeffs]}
    details: dict = {"b": window.b, "c": window.c, "margin": window.margin}
    if profiles:
        details["profiles"] = {"t": t.tolist(), "phi": phi.tolist(), "ratios": profiles}
    return VerificationReport(
        check=f"exclusion-p{p}-q{q}", passed=violations == 0,
        measured=float(violations), tolerance=0.0, witness=witness,
        samples=trials, seed=seed, details=details,
    )


# ---------------------------------------------------------------------------
# two-variable shifted-pole certificate


def stationary_pole(a: float, c: float, b: float, t: float) -> float:
    """Pole location r making t a stationary point of t^a (1-t^c) / (r-t)^b.

    r(t) = t + b t (1 - t^c) / ((a+c) t^c - a); needs t^c > a/(a+c) for a
    positive denominator.  r(t) -> 1 as t -> 1.
    """
    if min(a, c, b) <= 0.0:
        raise InputError("a, c, b must be positive")
    if not 0.0 < t < 1.0:
        raise DomainError(f"t must lie in (0, 1), got {t}")
    tc = t ** c
    denom = (a + c) * tc - a
    if denom <= 0.0:
        raise DomainError(
            f"t^c = {tc} must exceed a/(a+c) = {a / (a + c)} for a stationary pole"
        )
    one_minus_tc = -math.expm1(c * math.log(t))
    return t + b * t * one_minus_tc / denom


def pole_slope_quadratic(a: float, c: float, u: float) -> float:
    """alpha(u) = -(a+c) u^2 + (2a+c-c^2) u - a, the numerator quadratic
    controlling the sign of r'(t) at u = t^c."""
    return -(a + c) * u * u + (2.0 * a + c - c * c) * u - a


@dataclass(frozen=True)
class PoleSlopeDiagnostics:
    """Values of the slope quadratic at the points the sign analysis uses."""

    a: float
    c: float
    at_tau: float          # alpha(a/(a+c)); closed form -a c^2 / (a+c)
    at_one: float          # alpha(1); closed form -c^2
    vertex: float          # u0 = (2a+c-c^2) / (2(a+c))
    at_vertex: float | None  # alpha(u0) when u0 lies in (tau, 1), else None
    identity_residual: float  # 4(a+c) alpha(u0) - c^2 (1+c^2-4a-2c), ~0 always


def pole_slope_diagnostics(a: float, c: float) -> PoleSlopeDiagnostics:
    if a <= 0.0 or c <= 0.0:
        raise InputError("a and c must be positive")
    tau = a / (a + c)
    vertex = (2.0 * a + c - c * c) / (2.0 * (a + c))
    at_vertex = pole_slope_quadratic(a, c, vertex)
    residual = 4.0 * (a + c) * at_vertex - c * c * (1.0 + c * c - 4.0 * a - 2.0 * c)
    return PoleSlopeDiagnostics(
        a=a, c=c,
        at_tau=pole_slope_quadratic(a, c, tau),
        at_one=pole_slope_quadratic(a, c, 1.0),
        vertex=vertex,
        at_vertex=at_vertex if tau < vertex < 1.0 else None,
        identity_residual=residual,
    )


def shifted_pole_certificate(
    p1: float, p2: float, z0: float, *, b: float = 1.0
) -> MobiusCertificate:
    """Two-variable certificate with tail factor w / (r - w)^(b/a).

    Both coordinates are pole coordinates; the branch keeps only the
    first, and z0 is the second (tail) modulus.  The base point's first
    coordinate is chosen small enough to pin the branch at 1.  b doubles
    until the stationary pole clears 1 and an independent scan confirms
    the profile peak is at z0.
    """
    if p1 <= 0.0 or p2 <= 0.0:
        raise InputError("exponents must be positive")
    if not 0.0 < z0 < 1.0:
        raise InputError(f"z0 must lie in (0, 1), got {z0}")
    if b <= 0.0:
        raise InputError(f"b must be positive, got {b}")
    a = 2.0 * p1
    c = 2.0 * p2
    tau = a / (a + c)
    if not (p2 >= 0.5 or 8.0 * p1 + 4.0 * p2 * (1.0 - p2) > 1.0):
        raise HypothesisNotMet(
            f"needs p2 >= 1/2 or 8 p1 + 4 p2 (1 - p2) > 1; got p1={p1}, p2={p2}"
        )
    t0 = z0
    if t0 ** c <= tau:
        raise HypothesisNotMet(
            f"needs t0^c > a/(a+c): t0^c = {t0 ** c}, a/(a+c) = {tau}"
        )

    one_minus_t0c = -math.expm1(c * math.log(t0))
    x1 = 0.5 * min((p2 / p1) * t0 ** c, one_minus_t0c)  # keeps sort order and interiority
    m1 = x1 ** (1.0 / a)
    ell = Ellipsoid(p=(p1, p2), k=2)
    z = (complex(m1), complex(t0))
    res = evaluate(ell, z)
    if res.d != 1 or res.perm != (0, 1):
        raise InvariantViolation(
            f"base point construction should pin d=1 with identity order; got "
            f"d={res.d}, perm={res.perm}"
        )

    bb = b
    for _ in range(41):
        r = stationary_pole(a, c, bb, t0)
        if r >= 1.0 + 1e-9:
            pole = PoleProfileParams(a=a, c=c, t0=t0, b=bb, r=r, tau=tau)
            log_M = (
                math.log(t0) - (bb / a) * math.log(r - t0)
                + res.q_d * math.log(res.r_d)
            )
            cert = MobiusCertificate(
                ell=ell, z=z, perm=res.perm, d=1,
                p_sorted=(p1, p2), moduli_sorted=(m1, t0),
                q_d=res.q_d, r_d=res.r_d, c_d=res.c_d, base_value=res.value,
                M=math.exp(log_M), log_M=log_M,
                family="shifted-pole", alpha=(), feasible=True,
                degenerate=(), phases=(0.0,), pole=pole,
            )
            peak = maximize_profile(cert.log_profile, [(0.0, 1.0)])
            if abs(float(peak.x[0]) - t0) <= 1e-4:
                return cert
        bb *= 2.0
    raise InvariantViolation(
        f"no pole weight up to {bb / 2.0} produced a confirmed peak at t0={t0} "
        f"(p1={p1}, p2={p2})"
    )


# ---------------------------------------------------------------------------
# candidate family lower-bound search

FAMILY_NAMES = ("power-shift", "binomial-power", "outer-pole", "mobius-factor")


@dataclass(frozen=True)
class FamilyOutcome:
    name: str
    params: dict
    lower_bound: float
    evals: int


@dataclass(frozen=True)
class FamilySearchResult:
    reference: float      # closed-form value at z
    lower_bound: float    # best sup-normalized family value
    gap: float            # reference - lower_bound, >= ~0
    family: str | None
    params: dict
    complete: bool
    evals: int
    per_family: tuple[FamilyOutcome, ...]

    def to_payload(self) -> dict:
        return {
            "reference": self.reference, "lower_bound": self.lower_bound,
            "gap": self.gap, "family": self.family, "params": self.params,
            "complete": self.complete, "evals": self.evals,
            "per_family": [
                {"family": f.name, "params": f.params,
                 "lower_bound": f.lower_bound, "evals": f.evals}
                for f in self.per_family
            ],
        }


class _ProfileScorer:
    """Sup-normalized value of one tail family along the active coordinate.

    score(log_h) = R * profile(t0) / (sup_t profile(t) * (1 + 1e-6)) with
    profile(t) = h(t) (1 - t^(2 p)) ^ q_d; the sup always includes t0, so a
    score can never exceed R.
    """

    def __init__(self, reference: float, q_d: float, two_p: float, t0: float):
        self.reference = reference
        self.q_d = q_d
        self.two_p = two_p
        self.t0 = t0
        self.grid = np.linspace(0.0, 1.0 - 1e-9, 513)
        self.log_rd_grid = q_d * np.log1p(-(self.grid ** two_p))
        self.log_rd_t0 = q_d * math.log1p(-(t0 ** two_p))
        self.evals = 0

    def score(self, log_h: Callable[[np.ndarray], np.ndarray]) -> float:
        self.evals += 1
        logs = log_h(self.grid) + self.log_rd_grid
        j = int(np.nanargmax(logs))

        def scalar(x: float) -> float:
            return float(log_h(np.array([x]))[0]) + self.q_d * math.log1p(-(x ** self.two_p))

        lo = self.grid[max(j - 1, 0)]
        hi = self.grid[min(j + 1, self.grid.size - 1)]
        _, polished = golden_max(scalar, float(lo), float(hi), tol=1e-12)
        at_t0 = float(log_h(np.array([self.t0]))[0]) + self.log_rd_t0
        log_sup = max(float(logs[j]), polished, at_t0)
        return self.reference * math.exp(at_t0 - log_sup) / (1.0 + 1e-6)


def _family_log_h(
    name: str, is_hyper: bool, m: int, params: dict
) -> Callable[[np.ndarray], np.ndarray]:
    """Boundary modulus profile log|h(t)| on t in [0, 1); every family takes
    its circle maximum on the positive real axis."""
    def log_t(t: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.where(t > 0.0, np.log(np.where(t > 0.0, t, 1.0)), -np.inf)

    if name == "power-shift":
        r = params["r"]
        e = 1 if is_hyper else 0

        def f(t: np.ndarray) -> np.ndarray:
            out = np.zeros_like(t)
            if e:
                out = out + log_t(t)
            if m:
                with np.errstate(divide="ignore"):
                    out = out + m * np.where(t + r > 0.0, np.log(np.maximum(t + r, 1e-300)), -np.inf)
            return out
        return f
    if name == "binomial-power":
        alpha = params["alpha"]
        e = 1 if is_hyper else 0

        def f(t: np.ndarray) -> np.ndarray:
            out = alpha * np.log1p(t)
            if e:
                out = out + log_t(t)
            return out
        return f
    if name == "outer-pole":
        alpha, r = params["alpha"], params["r"]

        def f(t: np.ndarray) -> np.ndarray:
            out = alpha * np.log(r - t)
            if m:
                out = out + m * log_t(t)
            return out
        return f
    if name == "mobius-factor":
        delta = params["delta"]

        def f(t: np.ndarray) -> np.ndarray:
            with np.errstate(divide="ignore"):
                blend = np.where(
                    t + delta > 0.0, np.log(np.maximum(t + delta, 1e-300)), -np.inf
                ) - np.log1p(delta * t)
            out = blend
            if m:
                out = out + m * log_t(t)
            return out
        return f
    raise InputError(f"unknown family {name!r}; choose from {FAMILY_NAMES}")


def candidate_family_search(
    ell: Ellipsoid,
    z: Sequence[complex],
    families: Sequence[str] = FAMILY_NAMES,
    budget: int = 20_000,
    *,
    seed: int = 0,
) -> FamilySearchResult:
    """Best holomorphic lower bound over the four explicit tail families.

    Works on points where exactly one branch-tail coordinate is nonzero
    (the families are one-variable); the head contribution is resolved
    exactly, so only the tail profile is searched.  When the tail factor
    multiplies a pole coordinate it always carries a vanishing zeta
    factor.  budget caps the number of scored parameter points; running
    out returns the best so far flagged incomplete.
    """
    for name in families:
        if name not in FAMILY_NAMES:
            raise InputError(f"unknown family {name!r}; choose from {FAMILY_NAMES}")
    res = evaluate(ell, z)
    if res.value == 0.0:
        raise InputError("search needs a nonzero reference value at z")
    ms = [abs(complex(zj)) for zj in z]
    ms_sorted = [ms[j] for j in res.perm]
    ps_sorted = [ell.p[j] for j in res.perm]
    active = [i for i in range(res.d, ell.n) if ms_sorted[i] > 0.0]
    if len(active) > 1:
        raise InputError(
            "search supports at most one nonzero tail coordinate; "
            f"found {len(active)}"
        )
    if not active:
        # no tail freedom: the scaled coordinate monomial is already extremal
        return FamilySearchResult(
            reference=res.value, lower_bound=res.value, gap=0.0,
            family="head-monomial", params={}, complete=True, evals=0,
            per_family=(),
        )
    slot = active[0]
    is_hyper = slot < ell.k
    scorer = _ProfileScorer(
        reference=res.value, q_d=res.q_d,
        two_p=2.0 * ps_sorted[slot], t0=ms_sorted[slot],
    )

    best = {"value": -math.inf, "family": None, "params": {}}
    outcomes: list[FamilyOutcome] = []
    complete = True

    def consider(name: str, m: int, params: dict, fam_best: dict) -> float:
        val = scorer.score(_family_log_h(name, is_hyper, m, params))
        record = dict(params)
        record["m"] = m
        if val > fam_best["value"]:
            fam_best.update(value=val, params=record)
        if val > best["value"]:
            best.update(value=val, family=name, params=record)
        return val

    def refine_1d(name: str, m: int, key: str, lo: float, hi: float,
                  fixed: dict, fam_best: dict, points: int = 33) -> None:
        grid = np.linspace(lo, hi, points)
        vals = []
        for x in grid:
            if scorer.evals >= budget:
                return
            vals.append(consider(name, m, {**fixed, key: float(x)}, fam_best))
        j = int(np.argmax(vals))
        a = grid[max(j - 1, 0)]
        c = grid[min(j + 1, points - 1)]

        def line(x: float) -> float:
            if scorer.evals >= budget:
                return -math.inf
            return consider(name, m, {**fixed, key: float(x)}, fam_best)

        golden_max(line, float(a), float(c), tol=1e-10, max_iter=60)

    for name in families:
        fam_best = {"value": -math.inf, "params": {}}
        start_evals = scorer.evals
        if name == "power-shift":
            for m in range(0, 9):
                if scorer.evals >= budget:
                    break
                refine_1d(name, m, "r", 0.0, 3.0, {}, fam_best)
        elif name == "binomial-power":
            # e.g. the exponent solving stationarity in fully convex cases
            refine_1d(name, 0, "alpha", 1e-3, 60.0, {}, fam_best, points=65)
        elif name == "outer-pole":
            for m in range(1 if is_hyper else 0, 9):
                if scorer.evals >= budget:
                    break
                for r in (1.0 + 1e-6, 1.05, 1.2, 1.5, 2.0, 3.0, 4.0):
                    if scorer.evals >= budget:
                        break
                    refine_1d(name, m, "alpha", -60.0, -1e-3, {"r": r}, fam_best, points=17)
        elif name == "mobius-factor":
            for m in range(1 if is_hyper else 0, 9):
                if scorer.evals >= budget:
                    break
                refine_1d(name, m, "delta", 0.0, 1.0, {}, fam_best)
        if scorer.evals >= budget:
            complete = False
        if math.isfinite(fam_best["value"]):
            outcomes.append(
                FamilyOutcome(
                    name=name, params=fam_best["params"],
                    lower_bound=fam_best["value"],
                    evals=scorer.evals - start_evals,
                )
            )
        if not complete:
            break

    lower = best["value"] if math.isfinite(best["value"]) else 0.0
    return FamilySearchResult(
        reference=res.value, lower_bound=lower, gap=res.value - lower,
        family=best["family"], params=best["params"], complete=complete,
        evals=scorer.evals, per_family=tuple(outcomes),
    )
