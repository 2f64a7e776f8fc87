"""End-to-end CLI behavior: configs, outputs, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ellgreen.cli import main


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# eval


def test_eval_roundtrip(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {"p": [1.0, 1.0], "k": 2,
         "points": [[0.5, 0.5], [[0.1, 0.0], [0.72, 0.0]]]},
    )
    code, out, _ = _run(capsys, ["eval", "--config", cfg])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 2
    assert records[0]["R"] == pytest.approx(0.5, rel=1e-14)
    assert records[0]["d"] == 2
    assert records[0]["region"] == [1, 2]
    assert records[1]["R"] == pytest.approx(0.14409760442605876, rel=1e-13)
    assert records[1]["region"] == [1]
    assert set(records[1]) >= {"z", "R", "d", "region", "q_d", "r_d", "c_d"}


def test_eval_deterministic_output(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, {"p": [1.3, 0.7], "k": 1, "points": [[0.31, 0.44]]}
    )
    _, out1, _ = _run(capsys, ["eval", "--config", cfg])
    _, out2, _ = _run(capsys, ["eval", "--config", cfg])
    assert out1 == out2


def test_eval_zero_pole_coordinate(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, {"p": [1.0, 1.0], "k": 1, "points": [[0.0, 0.5]]}
    )
    code, out, _ = _run(capsys, ["eval", "--config", cfg])
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["R"] == 0.0 and rec["d"] == 1


def test_eval_all_points_failing_exits_2(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, {"p": [1.0, 1.0], "k": 1, "points": [[1.0, 0.5]]}
    )
    code, out, _ = _run(capsys, ["eval", "--config", cfg])
    assert code == 2
    assert "error" in json.loads(out.splitlines()[0])


def test_eval_partial_failure_exits_0(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, {"p": [1.0, 1.0], "k": 1, "points": [[1.0, 0.5], [0.3, 0.4]]}
    )
    code, out, _ = _run(capsys, ["eval", "--config", cfg])
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert "error" in recs[0] and "R" in recs[1]


def test_eval_out_file(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, {"p": [1.0, 1.0], "k": 2, "points": [[0.5, 0.5]]}
    )
    out_path = tmp_path / "result.jsonl"
    code, out, _ = _run(capsys, ["eval", "--config", cfg, "--out", str(out_path)])
    assert code == 0 and out == ""
    rec = json.loads(out_path.read_text().splitlines()[0])
    assert rec["R"] == pytest.approx(0.5, rel=1e-14)


def test_eval_tol_override(tmp_path, capsys):
    # slack ~5e-15 sits between the default gate 1e-14 and 1e-16
    x = (1.0 - 5e-15) ** 0.5
    cfg = _write_config(
        tmp_path, {"p": [1.0, 1.0], "k": 1, "points": [[x, 0.0]]}
    )
    code, _, _ = _run(capsys, ["eval", "--config", cfg])
    assert code == 2
    code, out, _ = _run(capsys, ["eval", "--config", cfg, "--tol", "1e-16"])
    assert code == 0
    assert "R" in json.loads(out.splitlines()[0])


def test_malformed_json_reports_location(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = _run(capsys, ["eval", "--config", str(path)])
    assert code == 2
    assert "line 1" in err


def test_missing_required_fields(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"k": 1, "points": [[0.1, 0.1]]})
    code, _, err = _run(capsys, ["eval", "--config", cfg])
    assert code == 2 and "'p'" in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_csv_grid(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {"p": [1.0, 1.0], "k": 2,
         "sweep": {"axes": [1, 2], "values": [[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]]}},
    )
    out_path = tmp_path / "grid.csv"
    code, _, _ = _run(capsys, ["sweep", "--config", cfg, "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert "\r" not in text  # LF only
    rows = list(csv.reader(text.splitlines()))
    assert rows[0] == ["z1", "z2", "R", "d", "region"]
    assert len(rows) == 10
    for row in rows[1:]:
        assert row[3] == "2" and row[4] == "1;2"
        assert float(row[2]) > 0.0


def test_sweep_crosses_transition(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {"p": [1.0, 1.0], "k": 2,
         "sweep": {"axes": [1, 2], "values": [[0.1], [0.70, 0.74]]}},
    )
    code, out, _ = _run(capsys, ["sweep", "--config", cfg])
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[1][3] == "2" and rows[2][3] == "1"
    assert rows[1][4] == "1;2" and rows[2][4] == "1"


def test_sweep_outside_rows_left_empty(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {"p": [1.0, 1.0], "k": 1,
         "sweep": {"axes": [1, 2], "values": [[0.8], [0.2, 0.9]]}},
    )
    code, out, _ = _run(capsys, ["sweep", "--config", cfg])
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[1][2] != ""
    assert rows[2][2:] == ["", "", ""]


def test_sweep_empty_grid_header_only(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {"p": [1.0, 1.0], "k": 1, "sweep": {"axes": [1, 2], "values": [[], []]}},
    )
    code, out, _ = _run(capsys, ["sweep", "--config", cfg])
    assert code == 0
    assert out.splitlines() == ["z1,z2,R,d,region"]


def test_sweep_17_digit_floats(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {"p": [1.0, 1.0], "k": 1,
         "sweep": {"axes": [1, 2], "values": [[0.1], [0.2]]}},
    )
    code, out, _ = _run(capsys, ["sweep", "--config", cfg])
    assert code == 0
    row = list(csv.reader(out.splitlines()))[1]
    # value survives a text round trip bit-exactly
    assert float(row[2]) == float(repr(float(row[2])))
    assert row[0] == "0.10000000000000001"


def test_sweep_cell_inside_the_gate_band_left_empty(tmp_path, capsys):
    # the last cell has slack about 4.9e-15: positive, but not above the
    # interior gate 1e-14, so it is left empty and the sweep completes
    cfg = _write_config(
        tmp_path,
        {"p": [1, 1], "k": 2,
         "sweep": {"axes": [1, 2], "values": [[0.1, 0.6], [0.1, math.sqrt(0.64 - 5e-15)]]}},
    )
    code, out, _ = _run(capsys, ["sweep", "--config", cfg])
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert len(rows) == 5
    assert all(row[2] != "" for row in rows[1:4])
    assert rows[4][2:] == ["", "", ""]


def test_sweep_axis_validation(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {"p": [1.0, 1.0], "k": 1, "sweep": {"axes": [1, 1], "values": [[0.1], [0.1]]}},
    )
    code, _, err = _run(capsys, ["sweep", "--config", cfg])
    assert code == 2 and "axes" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_ball_suite(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"suite": "ball", "points": 500})
    code, out, _ = _run(capsys, ["verify", "--config", cfg])
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    summary = lines[-1]["summary"]
    assert summary["failed"] == 0
    assert all(rec["pass"] for rec in lines[:-1])
    assert lines[0]["check"].startswith("ball-consistency-")


def test_verify_soundness_with_seed_flag(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"suite": "soundness", "trials": 100})
    code, out, _ = _run(capsys, ["verify", "--config", cfg, "--seed", "5"])
    assert code == 0
    assert json.loads(out.splitlines()[0])["seed"] == 5


def test_verify_unknown_suite(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"suite": "everything"})
    code, _, err = _run(capsys, ["verify", "--config", cfg])
    assert code == 2 and "suite" in err


def test_verify_bad_budget(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"suite": "ball", "points": -3})
    code, _, _ = _run(capsys, ["verify", "--config", cfg])
    assert code == 2


# ---------------------------------------------------------------------------
# certify


@pytest.mark.parametrize(
    "command, payload, field",
    [
        ("gap", {"p": [1.0, 0.3], "k": 1, "samples": 1}, "samples"),
        ("gap", {"p": [1.0, 0.3], "k": 1, "trials": "many"}, "trials"),
        ("gap", {"p": [1.0, 0.3], "k": 1, "trials": 0}, "trials"),
        ("gap", {"p": [1.0, 0.3], "k": 1, "families_budget": 2.5}, "families_budget"),
        ("gap", {"p": [1.0, 0.3], "k": 1, "seed": -1}, "seed"),
        ("certify", {"p": [1.0, 1.0], "k": 1, "points": [[0.3, 0.5]], "seed": "x"}, "seed"),
        ("verify", {"suite": "ball", "seed": "x"}, "seed"),
        ("verify", {"suite": "ball", "points": True}, "points"),
    ],
)
def test_integer_config_fields_validated(tmp_path, capsys, command, payload, field):
    cfg = _write_config(tmp_path, payload)
    code, _, err = _run(capsys, [command, "--config", cfg])
    assert code == 2
    assert f"'{field}'" in err


def test_certify_both_kinds(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, {"p": [1.0, 1.0], "k": 1, "points": [[0.3, 0.5]]}
    )
    code, out, _ = _run(capsys, ["certify", "--config", cfg])
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["kind"] for r in recs] == ["green", "mobius"]
    for rec in recs:
        assert rec["passed"] is True
        assert len(rec["checks"]) == 5
        assert rec["feasible"] is True


def test_certify_zero_base_point_exits_2(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {"p": [1.0, 1.0], "k": 1, "certificate": "green", "points": [[0.0, 0.5]]},
    )
    code, out, _ = _run(capsys, ["certify", "--config", cfg])
    assert code == 2
    assert "error" in json.loads(out.splitlines()[0])


def test_certify_unknown_kind(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {"p": [1.0, 1.0], "k": 1, "certificate": "purple", "points": [[0.3, 0.4]]},
    )
    code, _, _ = _run(capsys, ["certify", "--config", cfg])
    assert code == 2


# ---------------------------------------------------------------------------
# gap


def test_gap_gate_refusal_exits_3(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"p": [1.0, 1.0], "k": 1})
    code, _, err = _run(capsys, ["gap", "--config", cfg])
    assert code == 3
    assert "hypothesis not met" in err


def test_gap_demo_stdout(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {"p": [1.0, 0.3], "k": 1, "trials": 20, "families_budget": 4_000},
    )
    code, out, _ = _run(capsys, ["gap", "--config", cfg])
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert "window" in lines[0]
    assert lines[1]["check"].startswith("exclusion-") and lines[1]["pass"]
    assert lines[2]["families"]["gap"] > 0.0


def test_gap_out_directory(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {"p": [1.0, 0.3], "k": 1, "trials": 10, "families_budget": 4_000},
    )
    out_dir = tmp_path / "gapout"
    code, out, _ = _run(capsys, ["gap", "--config", cfg, "--out", str(out_dir)])
    assert code == 0
    window = json.loads((out_dir / "window.json").read_text())
    assert window["margin"] > 0.0
    excl = json.loads((out_dir / "exclusion.jsonl").read_text().splitlines()[0])
    assert excl["pass"] is True
    fam_rows = list(csv.reader((out_dir / "families.csv").read_text().splitlines()))
    assert fam_rows[0] == ["family", "lower_bound", "gap", "params", "evals"]
    assert len(fam_rows) > 1
    prof_rows = (out_dir / "profiles.csv").read_text().splitlines()
    assert prof_rows[0].startswith("t,phi,ratio1")
    assert len(prof_rows) > 100
    summary = json.loads(out.splitlines()[-1])["summary"]
    assert summary["exclusion_pass"] is True
    assert summary["family_gap"] > 1e-6


# ---------------------------------------------------------------------------
# bad command-line input: exit 2 with one stderr line, never a traceback


@pytest.mark.parametrize(
    "command, payload, extra",
    [
        ("verify", {"suite": "soundness", "trials": 5}, ["--seed", "-1"]),
        ("eval", {"p": [1.0, 1.0], "k": 1, "points": [[0.3, 0.5]]},
         ["--out", "{tmp}/missing/x.jsonl"]),
        ("gap", {"p": [1.0, 0.3], "k": 1}, ["--out", "{tmp}/config.json"]),
    ],
    ids=["negative-seed", "out-in-missing-dir", "gap-out-is-a-file"],
)
def test_bad_command_line_exits_2(tmp_path, command, payload, extra):
    cfg = _write_config(tmp_path, payload)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in extra]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "ellgreen.cli", command, "--config", cfg, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
