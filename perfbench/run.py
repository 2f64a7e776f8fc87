"""ellgreen benchmark.

One workload, one run:

    python3 perfbench/run.py --workload eval-batch --seed 1 --seconds 15 --trace 0

prints, as its last line, one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1.  Every workload, untraced and traced,
with tables and the tracing overhead:

    python3 perfbench/run.py [--seed 1] [--seconds 15]

Each workload runs in its own process: one client, closed loop, no extra
threads.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one client and no extra threads: keep BLAS single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120
CHILD_TIMEOUT_S = 600


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program() -> None:
    """Import ellgreen from this checkout's src/ or exit 2 without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    try:
        import ellgreen
    except ImportError as exc:
        print(f"cannot import ellgreen from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if src.resolve() not in Path(ellgreen.__file__).resolve().parents:
        print(f"ellgreen resolved to {ellgreen.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def setup_seconds(workload: str, workdir: Path) -> float:
    """Median over fresh interpreters of import plus first call."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(workdir)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    import workloads
    from tracing import Tracer

    spec = load_spec()
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](workdir)
    tracer = Tracer() if trace else None
    rng = np.random.default_rng(seed)
    attempted = failed = 0
    items = 0
    busy = 0.0
    latencies: list[float] = []
    problems: list[str] = []

    def run_op(op) -> bool:
        """Timed call, then untimed check; True when the output is correct."""
        nonlocal items, busy
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            out = op.call()
        except Exception:  # a call that raises is a failed operation
            problems.append(traceback.format_exc(limit=4))
            return False
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
        latencies.append(elapsed)
        busy += elapsed
        items += op.items
        try:
            issues = op.check(out)
        except Exception:  # a check that cannot read the output fails it
            issues = [traceback.format_exc(limit=4)]
        problems.extend(issues[:3])
        return not issues

    try:
        setup = setup_seconds(name, workdir) if not trace else None
        for op in workload.warmup(np.random.default_rng([seed, 1])):
            attempted += 1
            if not run_op(op):
                failed += 1
        measured = 0
        latencies.clear()
        items = 0
        busy = 0.0
        if tracer is not None:
            tracer.install()
        deadline = time.perf_counter() + seconds
        try:
            while time.perf_counter() < deadline:
                for op in workload.make_round(rng):
                    if tracer is not None:
                        tracer.op_id = measured
                    attempted += 1
                    measured += 1
                    if not run_op(op):
                        failed += 1
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        for f in workdir.glob("*"):
            f.unlink()
        workdir.rmdir()

    for text in problems[:10]:
        print(text, file=sys.stderr)
    rate = items / busy if busy > 0.0 else 0.0
    if tracer is None:
        values = {
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "items_per_s": rate,
            "call_p50_ms": statistics.median(latencies) * 1e3 if latencies else 0.0,
        }
        wanted = spec["end_to_end"]
    else:
        searches = tracer.calls[tracer.name_id["gap.candidate_family_search"]]
        values = tracer.layer_metrics(ops=measured, searches=searches)
        values["trace.items_per_s"] = rate
        tracer.write(OUT / f"spans-{name}-seed{seed}.npz")
        wanted = spec["per_layer"]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, untraced then traced."""
    spec = load_spec()
    results: dict[tuple[str, int], dict] = {}
    status = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{w['name']} (trace {trace}) exited {done.returncode}", file=sys.stderr)
                status = 1
                continue
            results[(w["name"], trace)] = json.loads(lines[-1])

    print(f"seed {seed}, {seconds:g} s per run\n")
    names = [m["name"] for m in spec["end_to_end"]]
    print(f"{'workload':<14}{'attempted':>10}{'failed':>8}" + "".join(f"{n:>16}" for n in names))
    print(f"{'':<14}{'':>10}{'':>8}" + "".join(f"{m['unit']:>16}" for m in spec["end_to_end"]))
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        res = results.get((w["name"], 0))
        if res is None:
            summary["correct"] = False
            continue
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        row = "".join(f"{res['metrics'][n]['value']:>16.6g}" for n in names)
        print(f"{w['name']:<14}{res['attempted']:>10}{res['failed']:>8}{row}")
        for n in names:
            summary["metrics"][f"{w['name']}:{n}"] = res["metrics"][n]

    for w in spec["workloads"]:
        res, traced = results.get((w["name"], 0)), results.get((w["name"], 1))
        if traced is None:
            continue
        summary["correct"] &= traced["correct"]
        print(f"\n{w['name']}: per layer, traced run ({traced['attempted']} operations)")
        for m in spec["per_layer"]:
            v = traced["metrics"][m["name"]]
            if v["value"]:
                print(f"  {m['name']:<40}{v['value']:>14.6g} {v['unit']}")
        if res is not None:
            plain = res["metrics"]["items_per_s"]["value"]
            under = traced["metrics"]["trace.items_per_s"]["value"]
            print(f"  tracing overhead: {100.0 * (plain / under - 1.0):.1f}% "
                  f"({plain:.6g} vs {under:.6g} {res['metrics']['items_per_s']['unit']})")
    print(json.dumps(summary))
    return status if summary["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    import_program()
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
