"""Command-line front end.

Subcommands: eval, sweep, verify, certify, gap.  All take a JSON config
file (--config), with --seed / --out / --tol overrides.  Exit codes:
0 success, 1 verification failure, 2 input or domain error, 3 hypothesis
gate refusal.  Reports are JSON lines; sweeps and gap tables are CSV with
LF line endings and 17 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Any, Sequence, TextIO

import numpy as np

from .core import INTERIOR_TOL, Ellipsoid, evaluate, evaluate_batch, not_interior
from .errors import (
    DomainError,
    HypothesisNotMet,
    InfeasibleCertificate,
    InputError,
    InvariantViolation,
)

_FLOAT_FMT = "{:.17g}"


def _fmt(x: float) -> str:
    return _FLOAT_FMT.format(float(x))


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"config {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise InputError(f"config {path} must be a JSON object")
    return cfg


def _require_domain(cfg: dict) -> Ellipsoid:
    if "p" not in cfg:
        raise InputError("config field 'p': missing (list of positive exponents)")
    if "k" not in cfg:
        raise InputError("config field 'k': missing (number of pole coordinates)")
    p = cfg["p"]
    if not isinstance(p, list) or not p:
        raise InputError("config field 'p': must be a non-empty list of numbers")
    try:
        p_t = tuple(float(v) for v in p)
    except (TypeError, ValueError) as exc:
        raise InputError(f"config field 'p': {exc}") from exc
    if not isinstance(cfg["k"], int):
        raise InputError("config field 'k': must be an integer")
    return Ellipsoid(p=p_t, k=cfg["k"])


def _int_field(cfg: dict, name: str, default: int, minimum: int) -> int:
    value = cfg.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise InputError(f"config field '{name}': must be an integer >= {minimum}")
    return value


def _seed(cfg: dict, args: argparse.Namespace) -> int:
    return args.seed if args.seed is not None else _int_field(cfg, "seed", 0, 0)


def _parse_complex(entry: Any, where: str) -> complex:
    if isinstance(entry, (int, float)):
        return complex(float(entry), 0.0)
    if (
        isinstance(entry, list) and len(entry) == 2
        and all(isinstance(v, (int, float)) for v in entry)
    ):
        return complex(float(entry[0]), float(entry[1]))
    raise InputError(f"config field '{where}': expected a number or [re, im] pair")


def _parse_points(cfg: dict, n: int) -> list[tuple[complex, ...]]:
    raw = cfg.get("points")
    if raw is None:
        raise InputError("config field 'points': missing (list of points)")
    if not isinstance(raw, list) or not raw:
        raise InputError("config field 'points': must be a non-empty list")
    out = []
    for i, point in enumerate(raw):
        if not isinstance(point, list) or len(point) != n:
            raise InputError(
                f"config field 'points[{i}]': expected {n} coordinates"
            )
        out.append(
            tuple(_parse_complex(c, f"points[{i}][{j}]") for j, c in enumerate(point))
        )
    return out


def _open_out(args: argparse.Namespace):
    if args.out is None:
        return sys.stdout, False
    return open(args.out, "w"), True


def _emit(stream: TextIO, obj: dict) -> None:
    stream.write(json.dumps(obj) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eval(cfg: dict, args: argparse.Namespace) -> int:
    ell = _require_domain(cfg)
    points = _parse_points(cfg, ell.n)
    tol = args.tol if args.tol is not None else INTERIOR_TOL
    res = evaluate_batch(ell, np.abs(np.array(points)), interior_tol=tol)
    stream, close = _open_out(args)
    try:
        for i, z in enumerate(points):
            record: dict[str, Any] = {"z": [[c.real, c.imag] for c in z]}
            if res.inside[i]:
                record.update(
                    R=float(res.value[i]), d=int(res.d[i]),
                    region=[int(j) + 1 for j in np.flatnonzero(res.region[i])],
                    q_d=float(res.q_d[i]), r_d=float(res.r_d[i]), c_d=float(res.c_d[i]),
                )
            else:
                record["error"] = str(not_interior(float(res.slack[i]), tol))
            _emit(stream, record)
    finally:
        if close:
            stream.close()
    return 0 if res.inside.any() else 2


def _sweep_spec(cfg: dict, ell: Ellipsoid) -> tuple[int, int, list[float], list[float], list[float]]:
    spec = cfg.get("sweep")
    if not isinstance(spec, dict):
        raise InputError("config field 'sweep': missing object with axes/values")
    axes = spec.get("axes")
    if (
        not isinstance(axes, list) or len(axes) != 2
        or not all(isinstance(a, int) for a in axes)
    ):
        raise InputError("config field 'sweep.axes': expected two 1-based coordinate indices")
    a1, a2 = axes
    if not (1 <= a1 <= ell.n and 1 <= a2 <= ell.n) or a1 == a2:
        raise InputError(
            f"config field 'sweep.axes': indices must be distinct and in 1..{ell.n}"
        )
    values = spec.get("values")
    if not isinstance(values, list) or len(values) != 2:
        raise InputError("config field 'sweep.values': expected [values_axis1, values_axis2]")
    try:
        v1 = [float(v) for v in values[0]]
        v2 = [float(v) for v in values[1]]
    except (TypeError, ValueError) as exc:
        raise InputError(f"config field 'sweep.values': {exc}") from exc
    if any(v < 0.0 for v in v1 + v2):
        raise InputError("config field 'sweep.values': moduli must be nonnegative")
    base_raw = spec.get("base")
    if base_raw is None:
        base = [0.0] * ell.n
    else:
        if not isinstance(base_raw, list) or len(base_raw) != ell.n:
            raise InputError(f"config field 'sweep.base': expected {ell.n} coordinates")
        base = [
            abs(_parse_complex(c, f"sweep.base[{j}]")) for j, c in enumerate(base_raw)
        ]
    return a1 - 1, a2 - 1, v1, v2, base


def _cmd_sweep(cfg: dict, args: argparse.Namespace) -> int:
    ell = _require_domain(cfg)
    j1, j2, v1, v2, base = _sweep_spec(cfg, ell)
    tol = args.tol if args.tol is not None else INTERIOR_TOL
    grid = np.tile(np.asarray(base, dtype=float), (len(v1) * len(v2), 1))
    grid[:, j1] = np.repeat(v1, len(v2))
    grid[:, j2] = np.tile(v2, len(v1))
    res = evaluate_batch(ell, grid, interior_tol=tol)
    stream, close = _open_out(args)
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow([f"z{j + 1}" for j in range(ell.n)] + ["R", "d", "region"])
        for i, moduli in enumerate(grid):
            row = [_fmt(m) for m in moduli]
            if res.inside[i]:
                row += [
                    _fmt(res.value[i]), str(int(res.d[i])),
                    ";".join(str(int(j) + 1) for j in np.flatnonzero(res.region[i])),
                ]
            else:
                row += ["", "", ""]
            writer.writerow(row)
    finally:
        if close:
            stream.close()
    return 0


_SUITE_KNOBS = {
    "ball": ("points", 1000),
    "soundness": ("trials", 200),
    "continuity": ("segments", 10),
    "polydisc": ("points", 20),
    "green": ("bundles", 25),
    "mobius": ("bundles", 25),
    "shifted-pole": ("count", 10),
}


def _cmd_verify(cfg: dict, args: argparse.Namespace) -> int:
    from . import verify as verify_mod

    suite = cfg.get("suite")
    if suite not in _SUITE_KNOBS:
        raise InputError(
            f"config field 'suite': expected one of {sorted(_SUITE_KNOBS)}, got {suite!r}"
        )
    knob, default = _SUITE_KNOBS[suite]
    budget = _int_field(cfg, knob, default, 1)
    seed = _seed(cfg, args)
    fn = {
        "ball": verify_mod.suite_ball,
        "soundness": verify_mod.suite_soundness,
        "continuity": verify_mod.suite_continuity,
        "polydisc": verify_mod.suite_polydisc,
        "green": verify_mod.suite_green,
        "mobius": verify_mod.suite_mobius,
        "shifted-pole": verify_mod.suite_shifted_pole,
    }[suite]
    reports = fn(**{knob: budget, "seed": seed})
    stream, close = _open_out(args)
    failed = 0
    try:
        for rep in reports:
            payload = rep.to_payload()
            payload.pop("details", None)  # keep report lines compact
            _emit(stream, payload)
            failed += 0 if rep.passed else 1
        _emit(
            stream,
            {"summary": {"suite": suite, "total": len(reports),
                         "passed": len(reports) - failed, "failed": failed}},
        )
    finally:
        if close:
            stream.close()
    return 1 if failed else 0


def _cmd_certify(cfg: dict, args: argparse.Namespace) -> int:
    from .verify import VerifyConfig, verify_bundle
    from .certificates import green_certificate, mobius_certificate

    ell = _require_domain(cfg)
    points = _parse_points(cfg, ell.n)
    which = cfg.get("certificate", "both")
    if which not in ("green", "mobius", "both"):
        raise InputError(
            f"config field 'certificate': expected green, mobius or both, got {which!r}"
        )
    kinds = ("green", "mobius") if which == "both" else (which,)
    seed = _seed(cfg, args)
    vcfg = VerifyConfig()
    stream, close = _open_out(args)
    failed_points = 0
    any_check_failed = False
    try:
        for i, z in enumerate(points):
            for kind in kinds:
                record: dict[str, Any] = {"point": i, "kind": kind}
                try:
                    cert = (
                        green_certificate(ell, z) if kind == "green"
                        else mobius_certificate(ell, z)
                    )
                    reports = verify_bundle(cert, vcfg, seed=seed + i)
                except (InputError, DomainError) as exc:
                    record["error"] = str(exc)
                    failed_points += 1
                except InfeasibleCertificate as exc:
                    record["error"] = str(exc)
                    any_check_failed = True
                else:
                    record.update(cert.to_payload())
                    record["checks"] = [r.to_payload() for r in reports]
                    record["passed"] = all(r.passed for r in reports)
                    any_check_failed = any_check_failed or not record["passed"]
                _emit(stream, record)
    finally:
        if close:
            stream.close()
    if failed_points == len(points) * len(kinds):
        return 2
    return 1 if any_check_failed else 0


def _gap_outputs(out: str | None):
    if out is None:
        return None
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_gap(cfg: dict, args: argparse.Namespace) -> int:
    from .gap import ObstructionWindow, candidate_family_search, exclusion_demo

    ell = _require_domain(cfg)
    triggers = [j for j in range(ell.k, ell.n) if ell.p[j] < 0.5]
    if not triggers:
        raise HypothesisNotMet(
            "gap demonstration needs some exponent p_j < 1/2 beyond the pole "
            f"coordinates (j > k={ell.k}); got p={list(ell.p)}"
        )
    j_small = triggers[0]
    if "points" in cfg:
        z = _parse_points(cfg, ell.n)[0]
    else:
        # a small active-tail modulus keeps the chord obstruction visible;
        # at larger moduli the power-shift family closes the gap
        moduli = [0.0] * ell.n
        for j in range(ell.k):
            moduli[j] = 0.05
        moduli[j_small] = 0.1
        z = tuple(complex(m) for m in moduli)
    res = evaluate(ell, z)
    window = ObstructionWindow.find(p=2.0 * ell.p[j_small], q=res.q_d)
    seed = _seed(cfg, args)
    report = exclusion_demo(
        window.p, window.q, window, trials=_int_field(cfg, "trials", 200, 1),
        samples=_int_field(cfg, "samples", 10_000, 2), seed=seed, collect=3,
    )
    search = candidate_family_search(
        ell, z, budget=_int_field(cfg, "families_budget", 20_000, 1), seed=seed
    )

    out_dir = _gap_outputs(args.out)
    profiles = report.details.pop("profiles", None)
    if out_dir is None:
        _emit(sys.stdout, {"window": window.to_payload()})
        _emit(sys.stdout, report.to_payload())
        _emit(sys.stdout, {"families": search.to_payload()})
    else:
        (out_dir / "window.json").write_text(json.dumps(window.to_payload()) + "\n")
        with open(out_dir / "exclusion.jsonl", "w") as f:
            _emit(f, report.to_payload())
        with open(out_dir / "families.csv", "w") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(["family", "lower_bound", "gap", "params", "evals"])
            for fam in search.per_family:
                writer.writerow([
                    fam.name, _fmt(fam.lower_bound),
                    _fmt(search.reference - fam.lower_bound),
                    json.dumps(fam.params), str(fam.evals),
                ])
        with open(out_dir / "profiles.csv", "w") as f:
            writer = csv.writer(f, lineterminator="\n")
            ratios = profiles["ratios"] if profiles else []
            writer.writerow(["t", "phi"] + [f"ratio{i + 1}" for i in range(len(ratios))])
            if profiles:
                for row_i, t_val in enumerate(profiles["t"]):
                    writer.writerow(
                        [_fmt(t_val), _fmt(profiles["phi"][row_i])]
                        + [_fmt(r[row_i]) for r in ratios]
                    )
        _emit(
            sys.stdout,
            {"summary": {"window": window.to_payload(),
                         "exclusion_pass": report.passed,
                         "family_gap": search.gap,
                         "out": str(out_dir)}},
        )
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellgreen",
        description=(
            "Closed-form pluricomplex values on complex ellipsoids with "
            "pole sets on coordinate hyperplanes: evaluation, sweeps, "
            "certificate verification, and nonconvex gap demonstrations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("eval", "evaluate points from the config; JSON lines out"),
        ("sweep", "CSV value sweep over a 2-axis modulus grid"),
        ("verify", "run a named verification suite; JSON-lines report"),
        ("certify", "build and check extremal certificates at points"),
        ("gap", "nonconvex obstruction window, exclusion demo, family table"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to JSON config")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--out", default=None, help="output file (gap: directory)")
        sp.add_argument(
            "--tol", type=float, default=None,
            help="interior-membership tolerance for eval/sweep",
        )
    return parser


_DISPATCH = {
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "certify": _cmd_certify,
    "gap": _cmd_gap,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return _DISPATCH[args.command](cfg, args)
    except HypothesisNotMet as exc:
        print(f"hypothesis not met: {exc}", file=sys.stderr)
        return 3
    except (InputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleCertificate, InvariantViolation) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
