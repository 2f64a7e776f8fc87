"""Span tracing around ellgreen's public functions, from outside the package.

Each traced function is replaced, for the length of a run, by a wrapper
installed under every name through which a module of the package looks it
up (golden_max, for one, is looked up both in oracle and in gap).  A span
records its name, start and end (perf_counter_ns), the index of the span
that was open when it began, and the workload operation it belongs to.
Spans are kept in memory and written out once, when the run ends.

Self time is a span's duration minus the durations of its direct
children.  Busy time counts only the outermost span of a name, so a
function reached again inside itself (golden_max inside golden_max in the
family search) is not counted twice.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np

import ellgreen
from ellgreen import certificates, cli, core, gap, oracle, verify

MODULES = (ellgreen, core, cli, certificates, oracle, verify, gap)


def _rows_of(arg_index: int):
    """Row count of a positional argument that is an (m, dims) array or a
    single row."""
    def rows(args) -> int:
        a = args[arg_index]
        shape = getattr(a, "shape", None)
        if shape is None:
            a = np.asarray(a)
            shape = a.shape
        return int(shape[0]) if len(shape) == 2 else 1
    return rows


# span name -> (functions it wraps, row counter or None)
TRACED = {
    "core.evaluate_batch": ([core.evaluate_batch], _rows_of(1)),
    "core.evaluate": ([core.evaluate], None),
    "core.membership": ([core.membership], None),
    "cli.main": ([cli.main], None),
    "certificates.build": ([certificates.green_certificate, certificates.mobius_certificate], None),
    "certificates.log_profile": (
        [certificates.GreenCertificate.log_profile, certificates.MobiusCertificate.log_profile],
        _rows_of(1),
    ),
    "certificates.witness": (
        [certificates.GreenCertificate.witness, certificates.MobiusCertificate.witness], None,
    ),
    "oracle.maximize_profile": ([oracle.maximize_profile], None),
    "oracle.golden_max": ([oracle.golden_max], None),
    "oracle.sample_interior_moduli": ([oracle.sample_interior_moduli], None),
    "verify.verify_bundle": ([verify.verify_bundle], None),
    "gap.shifted_pole_certificate": ([gap.shifted_pole_certificate], None),
    "gap.exclusion_demo": ([gap.exclusion_demo], None),
    "gap.candidate_family_search": ([gap.candidate_family_search], None),
}

CLASSES = (certificates.GreenCertificate, certificates.MobiusCertificate)


class Tracer:
    def __init__(self) -> None:
        self.names = list(TRACED)
        self.name_id = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("h")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_rows = array("q")
        self.op_id = -1
        self.active = False                   # spans are recorded only inside timed calls
        self._stack: list[list] = []          # [span index, name id, child ns]
        self._depth = [0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.rows = [0] * len(self.names)
        self.busy_ns = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.family_evals = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, rows_of):
        nid = self.name_id[name]
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter_ns
        record_evals = name == "gap.candidate_family_search"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op_id)
            self.span_end.append(0)
            self.span_rows.append(0)
            frame = [idx, nid, 0]
            stack.append(frame)
            depth[nid] += 1
            start = clock()
            self.span_start.append(start)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[nid] -= 1
                dur = end - start
                if stack:
                    stack[-1][2] += dur
                rows = rows_of(args) if rows_of is not None else 0
                self.span_end[idx] = end
                self.span_rows[idx] = rows
                self.calls[nid] += 1
                self.rows[nid] += rows
                self.self_ns[nid] += dur - frame[2]
                if depth[nid] == 0:
                    self.busy_ns[nid] += dur
            if record_evals:
                self.family_evals += out.evals
            return out

        return wrapper

    def install(self) -> None:
        for name, (fns, rows_of) in TRACED.items():
            for fn in fns:
                wrapper = self._wrap(name, fn, rows_of)
                for owner in MODULES + CLASSES:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._patches.append((owner, attr, value))
                            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def layer_metrics(self, ops: int, searches: int) -> dict:
        """Per-layer figures, per workload operation unless named otherwise."""
        out = {}
        ops = max(ops, 1)
        for name, nid in self.name_id.items():
            calls = self.calls[nid]
            out[f"{name}.calls"] = calls / ops
            out[f"{name}.rows"] = self.rows[nid] / calls if calls else 0.0
            out[f"{name}.busy_s"] = self.busy_ns[nid] / 1e9 / ops
            out[f"{name}.self_s"] = self.self_ns[nid] / 1e9 / ops
        out["cli.self_s"] = out["cli.main.self_s"]
        out["gap.family_evals"] = self.family_evals / searches if searches else 0.0
        busy = self.busy_ns[self.name_id["gap.candidate_family_search"]] / 1e9
        out["gap.family_s_per_eval"] = busy / self.family_evals if self.family_evals else 0.0
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int16),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            rows=np.frombuffer(self.span_rows, dtype=np.int64),
        )
