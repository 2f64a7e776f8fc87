"""Time the set-up a user of one workload pays: importing ellgreen plus the
first call of that workload's kind, in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD WORKDIR

Prints the seconds taken.  Nothing but the standard library is imported
before the clock starts, so numpy's and scipy's import time is counted.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    workload, workdir = sys.argv[1], Path(sys.argv[2])
    sys.path.insert(0, str(ROOT / "src"))
    config = workdir / "setup-probe.json"
    config.write_text(json.dumps({"p": [1.0, 0.7], "k": 1, "points": [[0.3, [0.1, 0.4]]]}))

    start = time.perf_counter()
    import ellgreen

    ell = ellgreen.Ellipsoid(p=(1.0, 0.7), k=1)
    if workload == "eval-batch":
        ellgreen.evaluate_batch(ell, [[0.3, 0.4]])
    elif workload == "cli-requests":
        from ellgreen import cli

        cli.main(["eval", "--config", str(config), "--out", str(workdir / "setup-probe.out")])
    elif workload == "certify":
        ellgreen.verify_bundle(ellgreen.green_certificate(ell, (0.3, 0.4)))
    elif workload == "gap-search":
        window = ellgreen.ObstructionWindow.find(p=0.6, q=0.5)
        ellgreen.exclusion_demo(window.p, window.q, window, trials=1, samples=100)
        ellgreen.candidate_family_search(ellgreen.Ellipsoid(p=(1.0, 0.3), k=1), (0.05, 0.1), budget=10)
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
