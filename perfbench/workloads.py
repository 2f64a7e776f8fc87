"""The four closed-loop workloads: input generators, timed calls, output checks.

Every workload is a sequence of rounds.  A round is a fixed list of
operations whose inputs are drawn from the run's seeded generator before
any of them is timed.  Each operation has one timed call into ellgreen's
public API and one untimed check of its output; the check compares against
reference.py or against properties recomputed here, never against stored
output.  The program sees only the generated inputs.

ellgreen is reached through module attributes at call time (core.evaluate_batch,
not a name bound at import), so the tracer's patches apply.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ellgreen import certificates, cli, core, gap, verify

import reference

# Interior gate of ellgreen's evaluate/evaluate_batch (core.INTERIOR_TOL).
INTERIOR_TOL = 1e-14
# Rows whose slack lies this close to the gate have no reliable inside/outside
# answer in floating point; their membership is not compared.
GATE_BAND = 1e-12
REL_TOL = 1e-10
P_RANGE = (0.1, 4.0)        # exponents are drawn uniformly from here


@dataclass
class Op:
    """One timed call and the untimed check of what it returned.

    check returns a list of problems (empty when the output is correct).
    items is the work the call does in the workload's unit.
    """

    call: Callable[[], object]
    check: Callable[[object], list]
    items: int = 1


# ---------------------------------------------------------------------------
# samplers (the benchmark's own; ellgreen's samplers are under test)


def draw_moduli(
    rng: np.random.Generator, p: np.ndarray, count: int, mass_lo: float, mass_hi: float
) -> np.ndarray:
    """Rows whose boundary masses y_j = |z_j|^(2 p_j) split a total drawn
    uniformly from [mass_lo, mass_hi] by flat Dirichlet weights; a total
    above 1 puts the row outside the domain."""
    weights = rng.dirichlet(np.ones(p.shape[0]), size=count)
    total = rng.uniform(mass_lo, mass_hi, count)
    return (weights * total[:, None]) ** (1.0 / (2.0 * p))


def boundary_moduli(rng: np.random.Generator, p: np.ndarray, count: int, slack: float) -> np.ndarray:
    """Interior rows at the given slack from the boundary."""
    weights = rng.dirichlet(np.ones(p.shape[0]), size=count)
    return (weights * (1.0 - slack)) ** (1.0 / (2.0 * p))


def with_phases(rng: np.random.Generator, moduli: np.ndarray) -> np.ndarray:
    return moduli * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, moduli.shape))


def rel_tolerance(moduli: np.ndarray, p: np.ndarray, k: int) -> np.ndarray:
    """Per-row tolerance for comparing R with the reference.

    Both routes form c = r / q with r = 1 - (mass outside the set), in
    different orders; its rounding error, relative to r >= slack, is
    raised to the power q <= sum_{j<=k} 1/(2 p_j).  Away from the
    boundary this is REL_TOL.
    """
    s = np.maximum(reference.slack(moduli, p), 1e-300)
    q = float(np.sum(1.0 / (2.0 * p[:k])))
    return REL_TOL + 64.0 * np.finfo(float).eps * q / s


def value_problems(got: np.ndarray, moduli: np.ndarray, p: np.ndarray, k: int, want: np.ndarray, what: str) -> list:
    tol = rel_tolerance(moduli, p, k)
    zero = want == 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(got - want) / np.where(zero, 1.0, np.abs(want))
    ok = np.where(zero, got == 0.0, np.isfinite(got) & (rel <= tol))
    if ok.all():
        return []
    i = int(np.argmin(ok))
    return [f"{what}: {int((~ok).sum())} values off the reference, first row {i}: "
            f"got {got[i]!r}, reference {want[i]!r}, p={p.tolist()}, k={k}"]


def inside_by_slack(moduli: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(inside, decided): the benchmark's own slack test against the gate."""
    s = reference.slack(moduli, p)
    return s > INTERIOR_TOL, np.abs(s - INTERIOR_TOL) > GATE_BAND


# ---------------------------------------------------------------------------
# eval-batch

SMALL_ROWS = 1024           # 16-128 KiB of moduli: cache-resident
SMALL_BLOCKS_PER_ROUND = 8
LARGE_BYTES = 8 << 20       # moduli bytes of a large block: twice the 4 MiB L2
LARGE_SAMPLE = 2048         # large-block rows also checked by exhaustive search
BATCH_MASS = (0.02, 1.25)   # about a fifth of the rows fall outside
POLE_ZERO_SHARE = 0.02      # rows with one pole coordinate set to 0


def batch_block(rng: np.random.Generator, p: np.ndarray, k: int, rows: int) -> np.ndarray:
    x = draw_moduli(rng, p, rows, *BATCH_MASS)
    hit = np.nonzero(rng.random(rows) < POLE_ZERO_SHARE)[0]
    x[hit, rng.integers(0, k, hit.size)] = 0.0
    return x


def check_batch(res, x: np.ndarray, p: np.ndarray, k: int, large: bool) -> list:
    """Inside mask against the slack test, NaN outside, every inside value
    against the reference.  Large blocks are checked row by row against the
    reference's prefix form and on LARGE_SAMPLE evenly spaced rows against
    its exhaustive search, which costs 2^k per row."""
    problems = []
    inside, decided = inside_by_slack(x, p)
    wrong = (res.inside != inside) & decided
    if wrong.any():
        return [f"inside mask differs from the slack test in {int(wrong.sum())} rows"]
    if not np.all(np.isnan(res.value[~res.inside])):
        problems.append("rows outside the domain carry a value")
    rows = np.nonzero(res.inside)[0]
    if large:
        want = reference.prefix_value(x[rows], p, k)
        problems += value_problems(res.value[rows], x[rows], p, k, want, "batch (prefix form)")
        if rows.size > LARGE_SAMPLE:
            rows = rows[np.linspace(0, rows.size, LARGE_SAMPLE, endpoint=False).astype(int)]
    want = reference.extremal_value(x[rows], p, k)
    return problems + value_problems(res.value[rows], x[rows], p, k, want, "batch")


class EvalBatch:
    """core.evaluate_batch on blocks of moduli over random domains.

    Round r uses n = 2 + (r mod 15) and k = 1 + (7 r mod n), so every run
    walks the same shapes in the same order whatever the seed (the cost of
    a block grows with k); each p_j is uniform on [0.1, 4].  A round is
    SMALL_BLOCKS_PER_ROUND blocks of SMALL_ROWS rows, then one block of
    LARGE_BYTES / (8 n) rows.
    """

    name = "eval-batch"

    def __init__(self, workdir: Path):
        self.round_index = 0

    def warmup(self, rng: np.random.Generator) -> list:
        # the widest shape (n = k = 16) sets the peak memory of every run
        return [self._op(rng, np.full(16, 1.0), 16, LARGE_BYTES // (8 * 16), large=True)]

    def make_round(self, rng: np.random.Generator) -> list:
        r = self.round_index
        self.round_index += 1
        n = 2 + r % 15
        k = 1 + 7 * r % n
        p = rng.uniform(*P_RANGE, n)
        ops = [self._op(rng, p, k, SMALL_ROWS, large=False) for _ in range(SMALL_BLOCKS_PER_ROUND)]
        ops.append(self._op(rng, p, k, LARGE_BYTES // (8 * n), large=True))
        return ops

    def _op(self, rng, p: np.ndarray, k: int, rows: int, *, large: bool) -> Op:
        ell = core.Ellipsoid(p=tuple(p.tolist()), k=k)
        x = batch_block(rng, p, k, rows)
        return Op(
            call=lambda: core.evaluate_batch(ell, x),
            check=lambda res: check_batch(res, x, p, k, large),
            items=rows,
        )


# ---------------------------------------------------------------------------
# cli-requests

EVALS_PER_ROUND = 9
EVAL_POINTS = 32
EVAL_MASS = (0.02, 1.1)
SWEEP_SIDE = 18             # 324 grid cells
SWEEP_BASE_MASS = (0.0, 0.5)
SWEEP_AXIS_MASS = 1.1       # axis values reach past the boundary


def check_eval_output(code: int, out: Path, x: np.ndarray, p: np.ndarray, k: int) -> list:
    if code != 0:
        return [f"eval exited {code}"]
    records = [json.loads(line) for line in out.read_text().splitlines()]
    if len(records) != x.shape[0]:
        return [f"eval wrote {len(records)} records for {x.shape[0]} points"]
    inside, decided = inside_by_slack(x, p)
    problems = []
    got = np.full(x.shape[0], np.nan)
    for i, rec in enumerate(records):
        if not decided[i]:
            continue
        if inside[i] != ("R" in rec) or inside[i] == ("error" in rec):
            problems.append(f"point {i}: inside={bool(inside[i])} but record keys {sorted(rec)}")
            continue
        if inside[i]:
            got[i] = rec["R"]
            region = rec["region"]
            if rec["d"] != len(region) or not all(1 <= j <= k for j in region):
                problems.append(f"point {i}: d={rec['d']} with region {region} (k={k})")
    rows = np.nonzero(inside & decided)[0]
    want = reference.extremal_value(x[rows], p, k)
    return problems + value_problems(got[rows], x[rows], p, k, want, "eval R")


def check_sweep_output(code: int, out: Path, grid: np.ndarray, p: np.ndarray, k: int) -> list:
    if code != 0:
        return [f"sweep exited {code}"]
    n = p.shape[0]
    table = list(csv.reader(out.read_text().splitlines()))
    if table[0] != [f"z{j + 1}" for j in range(n)] + ["R", "d", "region"]:
        return [f"sweep header {table[0]}"]
    body = table[1:]
    if len(body) != grid.shape[0]:
        return [f"sweep wrote {len(body)} rows for {grid.shape[0]} cells"]
    written = np.array([[float(v) for v in row[:n]] for row in body])
    if not np.allclose(written, grid, rtol=1e-15, atol=0.0):
        return ["sweep moduli columns differ from the requested grid"]
    inside, decided = inside_by_slack(grid, p)
    problems = []
    got = np.full(grid.shape[0], np.nan)
    for i, row in enumerate(body):
        if not decided[i]:
            continue
        tail = row[n:]
        if not inside[i]:
            if tail != ["", "", ""]:
                problems.append(f"cell {i} outside the domain has cells {tail}")
            continue
        if "" in tail:
            problems.append(f"cell {i} inside the domain has empty cells")
            continue
        got[i] = float(tail[0])
        region = tail[2].split(";")
        if int(tail[1]) != len(region) or not all(1 <= int(j) <= k for j in region):
            problems.append(f"cell {i}: d={tail[1]} with region {tail[2]} (k={k})")
    rows = np.nonzero(inside & decided)[0]
    want = reference.extremal_value(grid[rows], p, k)
    return problems + value_problems(got[rows], grid[rows], p, k, want, "sweep R")


class CliRequests:
    """In-process ellgreen.cli.main calls, one request at a time.

    A round is EVALS_PER_ROUND eval requests of EVAL_POINTS points with
    random phases (about a tenth outside the domain) and one sweep over a
    SWEEP_SIDE x SWEEP_SIDE modulus grid that runs past the boundary.
    Domains: n uniform on 2..8, k on 1..n, p_j on [0.1, 4].  Config files are
    written when the round is drawn; --out names a file in the work dir.
    """

    name = "cli-requests"

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def _paths(self, slot: int) -> tuple[Path, Path]:
        """Config and output file of a round's slot; a round is drawn only
        after the previous one has been checked, so slots are reused."""
        return self.workdir / f"req{slot}.json", self.workdir / f"out{slot}.txt"

    def warmup(self, rng: np.random.Generator) -> list:
        return [self._eval(rng, 0), self._sweep(rng, 1)]

    def make_round(self, rng: np.random.Generator) -> list:
        return [self._eval(rng, i) for i in range(EVALS_PER_ROUND)] + [self._sweep(rng, EVALS_PER_ROUND)]

    def _domain(self, rng) -> tuple[np.ndarray, int]:
        n = int(rng.integers(2, 9))
        return rng.uniform(*P_RANGE, n), int(rng.integers(1, n + 1))

    def _eval(self, rng, slot: int) -> Op:
        p, k = self._domain(rng)
        x = draw_moduli(rng, p, EVAL_POINTS, *EVAL_MASS)
        z = with_phases(rng, x)
        cfg, out = self._paths(slot)
        cfg.write_text(json.dumps({"p": p.tolist(), "k": k, "points": [[[c.real, c.imag] for c in row] for row in z.tolist()]}))
        argv = ["eval", "--config", str(cfg), "--out", str(out)]
        return Op(call=lambda: cli.main(argv),
                  check=lambda code: check_eval_output(code, out, x, p, k))

    def _sweep(self, rng, slot: int) -> Op:
        p, k = self._domain(rng)
        n = p.shape[0]
        a1, a2 = (int(a) for a in rng.choice(n, size=2, replace=False))
        base = draw_moduli(rng, p, 1, *SWEEP_BASE_MASS)[0]
        v1, v2 = (np.sort(rng.uniform(0.0, SWEEP_AXIS_MASS ** (1.0 / (2.0 * p[a])), SWEEP_SIDE))
                  for a in (a1, a2))
        grid = np.repeat(base[None, :], SWEEP_SIDE * SWEEP_SIDE, axis=0)
        grid[:, a1] = np.repeat(v1, SWEEP_SIDE)
        grid[:, a2] = np.tile(v2, SWEEP_SIDE)
        spec = {"axes": [a1 + 1, a2 + 1], "values": [v1.tolist(), v2.tolist()],
                "base": base.tolist()}
        cfg, out = self._paths(slot)
        cfg.write_text(json.dumps({"p": p.tolist(), "k": k, "sweep": spec}))
        argv = ["sweep", "--config", str(cfg), "--out", str(out)]
        return Op(call=lambda: cli.main(argv),
                  check=lambda code: check_sweep_output(code, out, grid, p, k))


# ---------------------------------------------------------------------------
# certify

GREEN_PER_ROUND = 3
MOBIUS_PER_ROUND = 3
SHIFTED_PER_ROUND = 1
CERT_N = (2, 5)
CERT_MASS = (0.05, 0.85)     # slack at least 0.15 at the base point
CERT_MASS_FLOOR = 1e-4       # every |z_j|^(2 p_j) above this: well conditioned
PROBE_BULK = 16
PROBE_SLACKS = (1e-2, 1e-4, 1e-6)
PROBE_PER_SLACK = 8
PROBE_ZEROS = 4


def cert_domain_point(rng: np.random.Generator, p_lo: float) -> tuple[np.ndarray, int, np.ndarray]:
    """(p, k, moduli) with n uniform on CERT_N, exponents uniform on
    [p_lo, 4], k = n - 1 or n, and a base point where every coordinate's mass
    is at least CERT_MASS_FLOOR and exactly one coordinate lies outside the
    active set: the certificate's profile has one free tail modulus.

    verify_bundle's maximizer stalls now and then on profiles with two or
    more free tail moduli (see CHANGES.md), so those are left out.
    """
    n = int(rng.integers(CERT_N[0], CERT_N[1] + 1))
    while True:
        k = int(rng.integers(max(n - 1, 1), n + 1))
        p = rng.uniform(p_lo, P_RANGE[1], n)
        x = draw_moduli(rng, p, 1, *CERT_MASS)[0]
        if np.all(x ** (2.0 * p) >= CERT_MASS_FLOOR) and len(reference.active_set(x, p, k)) == n - 1:
            return p, k, x


def witness_probes(rng: np.random.Generator, p: np.ndarray, k: int, z: np.ndarray) -> tuple[list, list]:
    """Interior points for the |witness| < 1 check, each once with random
    phases and once with the base point's phases (the holomorphic witnesses'
    worst case), and points with a zero pole coordinate."""
    rows = [draw_moduli(rng, p, PROBE_BULK, 0.0, 1.0)]
    rows += [boundary_moduli(rng, p, PROBE_PER_SLACK, s) for s in PROBE_SLACKS]
    x = np.vstack(rows)
    aligned = x * np.exp(1j * np.angle(z))[None, :]
    probes = list(with_phases(rng, x)) + list(aligned)
    zeros = []
    for row in with_phases(rng, draw_moduli(rng, p, PROBE_ZEROS, 0.0, 1.0)):
        row[int(rng.integers(0, k))] = 0.0
        zeros.append(row)
    return probes, zeros


def check_certificate(out, p: np.ndarray, k: int, z: np.ndarray, probes: list, zeros: list) -> list:
    cert, reports = out
    problems = [f"bundle check {r.check} failed: measured {r.measured}" for r in reports if not r.passed]
    if len(reports) != 5:
        problems.append(f"bundle returned {len(reports)} reports")
    x = np.abs(z)[None, :]
    want = reference.extremal_value(x, p, k)
    problems += value_problems(np.array([cert.base_value]), x, p, k, want, "base_value")
    problems += value_problems(np.array([abs(cert.witness(tuple(z)))]), x, p, k, want, "|witness(z)|")
    worst = max(abs(cert.witness(tuple(w))) for w in probes)
    if not worst < 1.0:
        problems.append(f"|witness| reaches {worst} inside the domain")
    for w in zeros:
        if cert.witness(tuple(w)) != 0.0:
            problems.append(f"witness nonzero on a pole hyperplane at {w.tolist()}")
    return problems


def check_shifted(out, p: np.ndarray, probes: list, zeros: list) -> list:
    cert, _ = out
    problems = [] if cert.pole.r >= 1.0 else [f"pole r = {cert.pole.r} < 1"]
    z = np.array(cert.z)
    return problems + check_certificate(out, p, 2, z, probes, zeros)


def shifted_params(rng: np.random.Generator) -> tuple[float, float, float]:
    """(p1, p2, t0) meeting shifted_pole_certificate's hypotheses."""
    while True:
        p1 = float(rng.uniform(0.3, 2.0))
        p2 = float(rng.uniform(0.15, 2.0))
        if not (p2 >= 0.5 or 8.0 * p1 + 4.0 * p2 * (1.0 - p2) > 1.0):
            continue
        a, c = 2.0 * p1, 2.0 * p2
        tau = a / (a + c)
        t0 = (tau + float(rng.uniform(0.1, 0.9)) * (1.0 - tau)) ** (1.0 / c)
        if t0 ** c > tau and 0.0 < t0 < 1.0:
            return p1, p2, t0


class Certify:
    """Build a certificate at a well-conditioned random base point and run
    verify_bundle on it.

    A round is GREEN_PER_ROUND green certificates (p_j on [0.1, 4]) and
    MOBIUS_PER_ROUND Mobius certificates (p_j on [0.5, 4]), both at points
    drawn by cert_domain_point, then SHIFTED_PER_ROUND two-variable
    shifted-pole certificates.
    """

    name = "certify"

    def __init__(self, workdir: Path):
        pass

    def warmup(self, rng: np.random.Generator) -> list:
        return [self._cert(rng, "green", 0.1), self._shifted(rng)]

    def make_round(self, rng: np.random.Generator) -> list:
        ops = [self._cert(rng, "green", 0.1) for _ in range(GREEN_PER_ROUND)]
        ops += [self._cert(rng, "mobius", 0.5) for _ in range(MOBIUS_PER_ROUND)]
        ops += [self._shifted(rng) for _ in range(SHIFTED_PER_ROUND)]
        return ops

    def _cert(self, rng, kind: str, p_lo: float) -> Op:
        p, k, x = cert_domain_point(rng, p_lo)
        ell = core.Ellipsoid(p=tuple(p.tolist()), k=k)
        z = with_phases(rng, x)
        seed = int(rng.integers(0, 2**31))
        probes, zeros = witness_probes(rng, p, k, z)

        def call():
            build = certificates.green_certificate if kind == "green" else certificates.mobius_certificate
            cert = build(ell, tuple(z))
            return cert, verify.verify_bundle(cert, seed=seed)

        return Op(call=call, check=lambda out: check_certificate(out, p, k, z, probes, zeros))

    def _shifted(self, rng) -> Op:
        p1, p2, t0 = shifted_params(rng)
        p = np.array([p1, p2])
        seed = int(rng.integers(0, 2**31))
        probes, zeros = witness_probes(rng, p, 2, np.ones(2))

        def call():
            cert = gap.shifted_pole_certificate(p1, p2, t0)
            return cert, verify.verify_bundle(cert, seed=seed)

        return Op(call=call, check=lambda out: check_shifted(out, p, probes, zeros))


# ---------------------------------------------------------------------------
# gap-search

GAP_TRIALS = 200             # `ellgreen gap` defaults
GAP_SAMPLES = 10_000
GAP_BUDGET = 20_000


def chord_slack(p: float, q: float, b: float, c: float) -> float:
    """1 + (b/c)(phi(c) - 1) - phi(b) - 2 with phi(t) = (1 - t^p)^(-q).

    phi - 1 is formed as expm1(-q log1p(-t^p)): c can be so small that
    t^p is near 1e-12, where (1 - t^p)^(-q) - 1 keeps only a few digits.
    """
    def phi_minus_one(t: float) -> float:
        return math.expm1(-q * math.log1p(-(t ** p)))
    return (b / c) * phi_minus_one(c) - phi_minus_one(b) - 2.0


def check_gap(out, p: np.ndarray, k: int, j_small: int, x: np.ndarray) -> list:
    window, report, search = out
    problems = []
    q = float(np.sum(1.0 / (2.0 * p[:k])))
    if window.p != 2.0 * p[j_small] or abs(window.q - q) > 1e-12 * q:
        problems.append(f"window (p={window.p}, q={window.q}) is not (2 p_j={2 * p[j_small]}, q_d={q})")
    slack = chord_slack(window.p, window.q, window.b, window.c)
    if not slack > 0.0:
        problems.append(f"chord slack {slack} at b={window.b}, c={window.c} is not positive")
    if not report.passed or report.measured != 0.0:
        problems.append(f"exclusion scan reports {report.measured} violations")
    want = float(reference.extremal_value(x[None, :], p, k)[0])
    problems += value_problems(np.array([search.reference]), x[None, :], p, k, np.array([want]), "search reference")
    if not search.lower_bound <= want:
        problems.append(f"family lower bound {search.lower_bound} exceeds R = {want}")
    return problems


class GapSearch:
    """The `ellgreen gap` pipeline on random nonconvex domains.

    n is uniform on 2..4 and k on 1..n-1; pole exponents are uniform on
    [0.5, 4], one tail coordinate (the trigger) has p_j uniform on
    [0.15, 0.45] and the other tail exponents are uniform on [0.1, 4].  The
    base point has pole moduli uniform on [0.02, 0.08], the trigger modulus
    uniform on [0.05, 0.15] and every other tail coordinate 0, redrawn until
    all k pole coordinates are active.  A round is one run: evaluate,
    ObstructionWindow.find, exclusion_demo and candidate_family_search with
    the `ellgreen gap` defaults.
    """

    name = "gap-search"

    def __init__(self, workdir: Path):
        pass

    def warmup(self, rng: np.random.Generator) -> list:
        return self.make_round(rng, trials=5, samples=1000, budget=100)

    def make_round(self, rng: np.random.Generator, *, trials: int = GAP_TRIALS,
                   samples: int = GAP_SAMPLES, budget: int = GAP_BUDGET) -> list:
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n))
        p = np.concatenate([rng.uniform(0.5, 4.0, k), rng.uniform(0.1, 4.0, n - k)])
        j_small = int(rng.integers(k, n))
        p[j_small] = rng.uniform(0.15, 0.45)
        while True:
            x = np.zeros(n)
            x[:k] = rng.uniform(0.02, 0.08, k)
            x[j_small] = rng.uniform(0.05, 0.15)
            y = x ** (2.0 * p)
            c_full = (1.0 - y[k:].sum()) / np.sum(1.0 / (2.0 * p[:k]))
            if np.all(2.0 * p[:k] * y[:k] <= c_full):
                break
        ell = core.Ellipsoid(p=tuple(p.tolist()), k=k)
        z = tuple(complex(v) for v in x)
        seed = int(rng.integers(0, 2**31))

        def call():
            res = core.evaluate(ell, z)
            window = gap.ObstructionWindow.find(p=2.0 * ell.p[j_small], q=res.q_d)
            report = gap.exclusion_demo(window.p, window.q, window, trials=trials,
                                        samples=samples, seed=seed, collect=3)
            search = gap.candidate_family_search(ell, z, budget=budget, seed=seed)
            return window, report, search

        return [Op(call=call, check=lambda out: check_gap(out, p, k, j_small, x))]


WORKLOADS = {w.name: w for w in (EvalBatch, CliRequests, Certify, GapSearch)}
