"""Snapshot CLI: ``python -m repro.service.snapshot info|save`` (``verify``
and ``upgrade`` are covered in ``test_snapshot.py``)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service.snapshot import load_engine, main, save_engine, snapshot_info


@pytest.fixture()
def toy_snapshot_path(tmp_path, toy_engine):
    return save_engine(tmp_path / "toy.snap", toy_engine)


def test_info_prints_header_fields(toy_snapshot_path, capsys):
    assert main(["info", str(toy_snapshot_path)]) == 0
    out = capsys.readouterr().out
    info = snapshot_info(toy_snapshot_path)
    for key, value in info.items():
        assert f"{key} = {value}" in out
    assert "version = 3" in out


def test_info_without_sibling_wal_stays_quiet(toy_snapshot_path, capsys):
    assert main(["info", str(toy_snapshot_path)]) == 0
    assert "wal_" not in capsys.readouterr().out


def test_info_reports_sibling_wal_position(toy_snapshot_path, capsys):
    """Operators must see at a glance whether a sibling WAL holds
    commits the snapshot does not."""
    from repro.wal import MutationLog, default_wal_path

    with MutationLog(default_wal_path(toy_snapshot_path)) as log:
        for i in range(3):
            log.append([{"op": "add_node", "label": f"n{i}"}])
    assert main(["info", str(toy_snapshot_path)]) == 0
    out = capsys.readouterr().out
    assert f"wal_path = {default_wal_path(toy_snapshot_path)}" in out
    assert "wal_seq = 3" in out
    # snapshot is at dataset_version 0: all three commits unsnapshotted
    assert "wal_unsnapshotted_commits = 3" in out


def test_info_missing_file_fails_cleanly(tmp_path, capsys):
    assert main(["info", str(tmp_path / "missing.snap")]) == 1
    assert "error:" in capsys.readouterr().out


def test_save_builds_and_writes_loadable_snapshot(tmp_path, capsys):
    target = tmp_path / "dblp.snap"
    assert main(["save", "dblp", str(target), "--scale", "0.25"]) == 0
    assert "wrote" in capsys.readouterr().out
    engine = load_engine(target)
    assert engine.graph.num_nodes > 0
    result = engine.search(engine.index.terms_by_frequency()[0][0], k=1)
    assert result is not None


def test_save_has_no_format_flag(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["save", "dblp", str(tmp_path / "x.snap"), "--format", "mapped"])
    assert "unrecognized arguments" in capsys.readouterr().err


def test_save_unknown_dataset_exits(tmp_path):
    with pytest.raises(SystemExit, match="unknown dataset"):
        main(["save", "nope", str(tmp_path / "x.snap")])


def test_module_invocation_via_dash_m(toy_snapshot_path):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-m", "repro.service.snapshot", "info", str(toy_snapshot_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert "format = repro-engine-snapshot" in completed.stdout
