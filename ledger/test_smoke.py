"""Smoke tests for the ledger: ``python -m pytest ledger -q`` (about a minute).

Tier-1 does not collect this file (``testpaths = ["tests"]``).  Every
run goes through the real command line in a subprocess, because that is
the contract the benchmark driver holds the ledger to.
"""

import ctypes
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metrics as m
import stack
import workloads as w

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent


def run_ledger(*args, cwd=REPO_ROOT, run_py=LEDGER_DIR / "run.py"):
    """One command-line run.  No process it started, however deep, may be
    alive or unreaped once it returns: as child subreaper this process
    would inherit it, and ``waitpid`` would find it."""
    assert ctypes.CDLL(None).prctl(stack.PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    done = subprocess.run(
        [sys.executable, str(run_py), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return done


def result_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_benchmark_json_matches_the_ledger():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert sorted(spec) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
    ]
    assert spec["end_to_end"] == m.BOUNDED
    assert spec["per_layer"] == m.PER_LAYER
    assert spec["workloads"] == [
        {"name": s.name, "why": s.why} for s in w.SPECS.values()
    ]
    assert all(len(row["why"]) <= 200 for row in spec["workloads"])
    assert max(row["bound"] for row in spec["end_to_end"]) == next(
        row["bound"] for row in spec["end_to_end"] if row["name"] == "setup_s"
    )


def test_quick_run_of_every_workload_is_correct(tmp_path):
    out = tmp_path / "runs.jsonl"
    done = run_ledger("--quick", "--seed", "5", "--out", str(out))
    assert done.returncode == 0, done.stderr
    lines = result_lines(done.stdout)
    assert len(lines) == len(w.SPECS)
    for line in lines:
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [row["name"] for row in m.BOUNDED]
        assert all(cell["value"] > 0 for cell in line["metrics"].values())
    # Every end-to-end metric, demoted ones too, is printed and recorded.
    records = [json.loads(line) for line in out.read_text().splitlines()]
    for record in records:
        names = [row["name"] for row in m.end_to_end(record["workload"])]
        assert list(record["metrics"]) == names
        assert all(f"\n{name} " in done.stdout for name in names)
        assert record["metrics"]["failed_frac"]["value"] == 0
        assert record["metrics"]["acked_lost"]["value"] == 0

    # The same runs compared with themselves: nothing regresses.
    compared = subprocess.run(
        [sys.executable, str(LEDGER_DIR / "compare.py"), str(out), str(out)],
        capture_output=True, text=True,
    )
    assert compared.returncode == 0, compared.stdout
    assert "regressed" not in compared.stdout.replace("0 row(s) regressed", "")


def test_quick_traced_run_reports_every_layer_metric(tmp_path):
    done = run_ledger(
        "--workload", "cached_fleet", "--traced", "--quick",
        "--out", str(tmp_path / "runs.jsonl"),
    )
    assert done.returncode == 0, done.stderr
    (line,) = result_lines(done.stdout)
    assert line["correct"]
    assert list(line["metrics"]) == [row["name"] for row in m.PER_LAYER]
    # At this commit every probe's API exists: nothing is unavailable.
    assert all(cell["value"] != m.UNAVAILABLE for cell in line["metrics"].values())
    assert line["metrics"]["cache.hit_rate"]["value"] > 0.9
    assert line["metrics"]["closure.core_frac"]["value"] <= 0.05
    spans = json.loads((LEDGER_DIR / "out" / "trace-cached_fleet.json").read_text())
    assert {"name", "request_id", "depth", "start", "end", "parent"} == set(
        spans["spans"][0]
    )


def test_a_removed_api_nulls_its_rows_without_failing_the_run():
    import layers

    rows = layers.Rows()

    def probe():
        raise TypeError("save_engine() got an unexpected keyword argument 'format'")

    rows.probe(["snapshot.save_ms.mapped"], probe)
    assert rows.values == {"snapshot.save_ms.mapped": None}
    assert "format" in rows.reasons["snapshot.save_ms.mapped"]


def test_without_the_source_tree_the_ledger_refuses_to_run(tmp_path):
    shutil.copytree(
        LEDGER_DIR, tmp_path / "ledger", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    done = run_ledger(
        "--workload", "cold_expand", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, run_py=tmp_path / "ledger" / "run.py",
    )
    assert done.returncode != 0
    assert not result_lines(done.stdout)
