"""Fault injection: a SIGKILL'd replica recovers via WAL replay.

The acceptance scenario for the durability subsystem: with ``wal_dir``
set, a worker killed ``-9`` after N committed mutations restarts and
**replays the supervisor-written mutation log to exactly dataset
version N** — zero drift in ``health()``, post-mutation answers served
— where the PR-4 behaviour was to warm from the snapshot and silently
miss every commit.
"""

import json
import signal
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cluster import ShardedQueryService
from repro.cluster.pool import WorkerPool
from repro.service.service import QueryRequest
from repro.service.wire import request_to_dict, response_from_dict

NUM_COMMITS = 5


def replica_answers(fleet, worker_id: int, query: str):
    """Ask one specific replica directly (bypassing routing)."""
    payload = fleet.pool.request(
        worker_id, request_to_dict(QueryRequest(dataset="toy", query=query))
    ).result(timeout=60)
    return response_from_dict(payload)


def wait_until(predicate, timeout: float = 30.0, interval: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture()
def wal_fleet(tmp_path, toy_snapshot, monkeypatch):
    """Two workers, the dataset on both replicas, durable WAL enabled;
    a killed worker is noticed within 0.1 s."""
    monkeypatch.setattr(WorkerPool, "HEALTH_INTERVAL", 0.1)
    service = ShardedQueryService(
        {"toy": toy_snapshot},
        num_workers=2,
        default_replicas=2,
        wal_dir=tmp_path / "wal",
    )
    service.warmup()
    yield service
    service.close()


def commit_stream(fleet, count: int, prefix: str = "walpaper") -> dict:
    outcome = None
    for i in range(count):
        outcome = fleet.apply(
            "toy",
            [
                {
                    "op": "add_node",
                    "label": f"{prefix} {i}",
                    "table": "paper",
                    "text": f"{prefix}{i} recovery",
                },
                {"op": "add_edge", "u": -1, "v": 3},
            ],
        )
    return outcome


class TestKill9Recovery:
    def test_sigkilled_replica_replays_to_exact_version(self, wal_fleet):
        fleet = wal_fleet
        outcome = commit_stream(fleet, NUM_COMMITS)
        assert outcome.version == NUM_COMMITS
        assert outcome.wal_seq == NUM_COMMITS
        assert outcome.drift is False

        # SIGKILL one replica mid-stream: no drain, no goodbye.
        victim = 0
        process = fleet.pool.process(victim)
        assert process is not None and process.poll() is None
        process.kill()
        assert wait_until(
            lambda: fleet.pool.restarts().get(victim, 0) >= 1
            and fleet.pool.alive().get(victim, False)
        ), "supervisor never restarted the killed worker"

        # The replacement must replay the WAL to exactly version N —
        # not 0 (snapshot warm, the PR-4 lossy behaviour), not N-1.
        assert wait_until(
            lambda: fleet.dataset_versions().get("toy", {})
            == {"0": NUM_COMMITS, "1": NUM_COMMITS}
        ), fleet.dataset_versions()

        health = fleet.health()
        assert health["version_drift"] == []
        assert health["wal_seq"] == {"toy": NUM_COMMITS}
        assert health["versions"]["toy"] == {
            "0": NUM_COMMITS,
            "1": NUM_COMMITS,
        }

        # ...and serves post-mutation answers from the replayed state.
        response = replica_answers(fleet, victim, f"walpaper{NUM_COMMITS - 1}")
        assert response.ok, response.error
        assert response.result.answers

    def test_fleet_keeps_committing_after_recovery(self, wal_fleet):
        fleet = wal_fleet
        commit_stream(fleet, 2)
        process = fleet.pool.process(1)
        process.kill()
        assert wait_until(
            lambda: fleet.pool.restarts().get(1, 0) >= 1
            and fleet.pool.alive().get(1, False)
        )
        # Later commits land on both replicas (seq-tagged broadcasts;
        # a replayed record is acknowledged idempotently, never
        # double-applied).
        outcome = commit_stream(fleet, 2, prefix="afterkill")
        assert wait_until(
            lambda: fleet.dataset_versions().get("toy", {})
            == {"0": outcome.version, "1": outcome.version}
        )
        assert outcome.drift is False or fleet.health()["version_drift"] == []
        for worker_id in (0, 1):
            response = replica_answers(fleet, worker_id, "afterkill1")
            assert response.ok, response.error
        metrics = fleet.metrics()
        assert metrics["cluster"]["wal_seq"] == {"toy": outcome.version}

    def test_reload_resets_wal_and_later_applies_still_land(
        self, wal_fleet, toy_snapshot
    ):
        """A fleet reload lands replicas on the file's version; the
        supervisor must restart the log there, or every subsequent apply
        would be skipped as already-replayed (or trail the replicas)."""
        fleet = wal_fleet
        commit_stream(fleet, 2)
        outcome = fleet.reload("toy", toy_snapshot, force=True)
        assert fleet.wal_seqs()["toy"] == outcome["version"] == 0
        after = fleet.apply(
            "toy", [{"op": "add_node", "label": "r", "text": "postreloadfleet"}]
        )
        assert after.applied == 1
        assert after.version == after.wal_seq == outcome["version"] + 1
        for worker_id in (0, 1):
            response = replica_answers(fleet, worker_id, "postreloadfleet")
            assert response.ok, response.error

    def test_noop_reload_keeps_the_log_replayable(
        self, wal_fleet, toy_snapshot
    ):
        """A digest-matched (no-op) reload changes nothing — wiping the
        log would throw away still-replayable history."""
        fleet = wal_fleet
        commit_stream(fleet, 2)
        seq_before = fleet.wal_seqs()["toy"]
        # Replicas have committed since warmup, so their digests cannot
        # match and the un-forced reload resets; first roll them back
        # to snapshot state, after which a reload no-ops everywhere.
        fleet.reload("toy", toy_snapshot, force=True)
        seq_reset = fleet.wal_seqs()["toy"]
        outcome = fleet.reload("toy", toy_snapshot)
        assert outcome["reloaded"] is False
        assert fleet.wal_seqs()["toy"] == seq_reset
        assert seq_before == 2  # sanity: commits really happened

    def test_empty_batch_does_not_desync_wal_sequences(self, wal_fleet):
        """An empty batch is a version no-op on every replica, so it
        must not consume a WAL sequence number — that record would bump
        nothing and skew the idempotent-skip comparison forever."""
        fleet = wal_fleet
        commit_stream(fleet, 1)
        outcome = fleet.apply("toy", [])
        assert outcome.applied == 0
        assert fleet.wal_seqs()["toy"] == 1  # no record appended
        after = fleet.apply(
            "toy", [{"op": "add_node", "label": "e", "text": "postempty"}]
        )
        assert after.applied == 1
        assert after.version == after.wal_seq == 2
        for worker_id in (0, 1):
            assert replica_answers(fleet, worker_id, "postempty").ok

    def test_stale_wal_behind_reprovisioned_snapshot_is_reset(
        self, tmp_path, toy_engine_session
    ):
        """A snapshot re-provisioned past the log's lineage supersedes
        its records; keeping them would make every new append's seq
        trail replica versions (read as already-applied skips)."""
        from repro.service.snapshot import save_engine
        from repro.wal import MutationLog

        snap = save_engine(
            tmp_path / "toy.snap", toy_engine_session, version=7
        )
        wal_dir = tmp_path / "wal"
        with MutationLog(wal_dir / "toy.wal", start_seq=0) as stale:
            stale.append([{"op": "add_node", "label": "old"}])  # seq 1 << 7
        with ShardedQueryService(
            {"toy": snap}, num_workers=1, wal_dir=wal_dir
        ) as fleet:
            fleet.warmup()
            assert fleet.wal_seqs() == {"toy": 7}
            outcome = fleet.apply(
                "toy", [{"op": "add_node", "label": "n", "text": "freshword"}]
            )
            assert outcome.applied == 1
            assert outcome.wal_seq == 8
            assert replica_answers(fleet, 0, "freshword").ok

    def test_commit_after_a_reload_survives_killing_every_replica(
        self, wal_fleet, tmp_path, toy_engine_session
    ):
        """Reload a new file, commit, kill both workers: the respawned
        replicas load the reloaded file (the specs point at it) and
        replay the commit, at the log's version."""
        from repro.live import MutableDataset
        from repro.service.snapshot import save_snapshot

        fleet = wal_fleet
        commit_stream(fleet, 2)
        reloaded = MutableDataset.from_engine(toy_engine_session)
        reloaded.mutate([{"op": "add_node", "label": "b", "text": "reloadedword"}])
        epoch = reloaded.compact()
        b = save_snapshot(tmp_path / "b.snap", epoch.graph, epoch.index, version=4)
        assert fleet.reload("toy", b)["version"] == 4
        acked = fleet.apply(
            "toy", [{"op": "add_node", "label": "c", "text": "committedword"}]
        )
        assert acked.version == acked.wal_seq == 5
        for worker_id in (0, 1):
            fleet.pool.process(worker_id).kill()
        assert wait_until(
            lambda: all(fleet.pool.restarts().get(w, 0) >= 1 for w in (0, 1))
            and fleet.dataset_versions().get("toy") == {"0": 5, "1": 5}
        ), fleet.dataset_versions()
        for worker_id in (0, 1):
            for word in ("reloadedword", "committedword"):
                response = replica_answers(fleet, worker_id, word)
                assert response.ok, (worker_id, word, response.error)
            assert not replica_answers(fleet, worker_id, "walpaper0").ok
        health = fleet.health()
        assert (health["wal_behind"], health["version_drift"]) == ([], [])

    def test_a_restart_on_the_file_a_reload_replaced_is_refused(
        self, tmp_path, toy_snapshot, toy_engine_session
    ):
        """Reload a different file at the same version and commit: a
        fleet restarted on the replaced file with the same ``wal_dir``
        refuses the log loudly (it names the reloaded file), and one
        restarted on the reloaded file serves the commit."""
        from repro.errors import WalError
        from repro.live import MutableDataset
        from repro.service.snapshot import save_snapshot

        other = MutableDataset.from_engine(toy_engine_session)
        other.mutate([{"op": "add_node", "label": "b", "text": "reloadedword"}])
        epoch = other.compact()
        b = save_snapshot(tmp_path / "b.snap", epoch.graph, epoch.index)
        wal_dir = tmp_path / "wal"
        with ShardedQueryService(
            {"toy": toy_snapshot}, num_workers=1, wal_dir=wal_dir
        ) as fleet:
            assert fleet.reload("toy", b)["version"] == 0
            commit_stream(fleet, 1, prefix="afterreload")
        with pytest.raises(WalError, match="continues another snapshot"):
            ShardedQueryService({"toy": toy_snapshot}, num_workers=1, wal_dir=wal_dir)
        with ShardedQueryService(
            {"toy": b}, num_workers=1, wal_dir=wal_dir
        ) as fleet:
            fleet.warmup()
            assert fleet.dataset_versions()["toy"] == {"0": 1}
            for word in ("reloadedword", "afterreload0"):
                assert replica_answers(fleet, 0, word).ok, word

    def test_noop_reload_leaves_the_specs_on_the_served_file(
        self, wal_fleet, toy_snapshot, tmp_path
    ):
        """A reload every replica no-ops (same digest, same version)
        changes nothing: a replica respawned afterwards still loads the
        file it was serving, even once the other file is gone."""
        import shutil

        fleet = wal_fleet
        copy = shutil.copy(toy_snapshot, tmp_path / "copy.snap")
        assert not fleet.reload("toy", copy)["reloaded"]
        Path(copy).unlink()
        fleet.pool.process(0).kill()
        assert wait_until(lambda: fleet.pool.restarts().get(0, 0) >= 1)
        commit_stream(fleet, 1)
        for worker_id in (0, 1):
            response = replica_answers(fleet, worker_id, "walpaper0")
            assert response.ok, (worker_id, response.error)

    def test_replicas_behind_the_log_are_reported(self, wal_fleet):
        """A record no replica serves (the log holds a commit the
        broadcast never delivered) is named by health, and /healthz
        answers 503."""
        from repro.cluster.http import make_server

        fleet = wal_fleet
        commit_stream(fleet, 1)
        assert fleet.health()["wal_behind"] == []
        fleet._log("toy").append([{"op": "add_node", "label": "lost"}])
        health = fleet.health()
        assert health["wal_seq"] == {"toy": 2}
        assert health["versions"]["toy"] == {"0": 1, "1": 1}
        assert (health["version_drift"], health["wal_behind"]) == ([], ["toy"])
        server = make_server(fleet)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"http://{host}:{port}/healthz")
            assert excinfo.value.code == 503
            assert json.loads(excinfo.value.read())["status"] == "degraded"
        finally:
            server.shutdown()
            server.server_close()

    def test_failed_startup_replay_is_a_worker_event(self, tmp_path):
        """A worker whose startup replay raises keeps serving and says
        so in its event log, where the supervisor's pull finds it."""
        from repro.cluster.worker import worker_main
        from repro.wal import MutationLog

        junk = tmp_path / "junk.snap"
        junk.write_bytes(b"not a snapshot")
        with MutationLog(tmp_path / "toy.wal") as log:
            log.append([{"op": "add_node", "label": "x"}])

        class Conn:
            def __init__(self, incoming):
                self.recv = iter(incoming).__next__
                self.sent = []

            def send(self, item):
                self.sent.append(item)

        conn = Conn(
            [
                (0, {"toy": str(junk)}, {"wals": {"toy": str(tmp_path / "toy.wal")}}),
                ("events", 1, {"since": 0}),
                ("stop",),
            ]
        )
        worker_main(conn)
        ((_, _, reply),) = conn.sent
        (event,) = [e for e in reply["events"] if e["kind"] == "wal_replay_failed"]
        assert (event["dataset"], event["severity"]) == ("toy", "error")
        assert event["extra"] == {"error_type": "SnapshotError"}

    def test_sigkill_constant_is_what_kill_sends(self):
        """`process.kill()` is SIGKILL on POSIX — pin the assumption the
        fault injection relies on."""
        assert signal.SIGKILL.value == 9


@pytest.fixture()
def ops_fleet(tmp_path, toy_snapshot, monkeypatch):
    """The kill-9 fleet with aggressive SLO windows so an availability
    burn-rate alert can fire and clear within a test's patience."""
    from repro.telemetry.slo import SloObjective

    # The pool's HEALTH_INTERVAL (0.5 s) bounds crash *detection*: a
    # kill landing right before the monitor's next sweep is respawned
    # between two samples of the 0.05s SLO ticker, so the outage is
    # recorded by the supervisor's own evaluation on the pool's crash
    # event.
    monkeypatch.setattr(ShardedQueryService, "SLO_INTERVAL", 0.05)
    service = ShardedQueryService(
        {"toy": toy_snapshot},
        num_workers=2,
        default_replicas=2,
        wal_dir=tmp_path / "wal",
        slo_objectives=[
            SloObjective(
                name="availability",
                kind="availability",
                budget=0.02,
                fast_window=0.3,
                slow_window=0.6,
                burn_threshold=1.5,
            )
        ],
    )
    service.warmup()
    yield service
    service.close()


class TestOperationalIntelligence:
    """The ISSUE-7 acceptance scenario: one kill -9, and the incident's
    whole arc — crash, restart, WAL replay, SLO breach and clearance —
    is in the supervisor's event log, readable in one poll."""

    def test_kill9_incident_is_fully_recorded(self, ops_fleet):
        fleet = ops_fleet
        commit_stream(fleet, NUM_COMMITS)
        time.sleep(0.7)  # let any startup SLO wobble settle and clear
        pre_kill_seq = fleet.events()["last_seq"]

        process = fleet.pool.process(0)
        process.kill()
        assert wait_until(
            lambda: fleet.pool.restarts().get(0, 0) >= 1
            and fleet.pool.alive().get(0, False)
        ), "supervisor never restarted the killed worker"
        assert wait_until(
            lambda: fleet.dataset_versions().get("toy", {})
            == {"0": NUM_COMMITS, "1": NUM_COMMITS}
        )

        def kinds():
            return {e["kind"] for e in fleet.events()["events"]}

        assert wait_until(
            lambda: {"worker_crash", "worker_restart", "wal_replay"}
            <= kinds()
        ), kinds()

        events = fleet.events()["events"]
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs), "merged log lost seq order"
        by_kind: dict[str, list] = {}
        for event in events:
            by_kind.setdefault(event["kind"], []).append(event)

        crash = by_kind["worker_crash"][0]
        assert crash["severity"] == "error"
        assert crash["extra"]["worker_id"] == 0
        assert crash["source"] == "pool"
        restart = by_kind["worker_restart"][0]
        assert restart["seq"] > crash["seq"]
        assert restart["extra"]["restarts"] >= 1

        # The respawned replica's replay, pulled from the worker's own
        # log and re-sequenced into the supervisor's: right dataset,
        # right seq, attributed to the worker that replayed.
        replays = [
            e for e in by_kind["wal_replay"] if e["seq"] > pre_kill_seq
        ]
        assert replays, by_kind["wal_replay"]
        replay = replays[-1]
        assert replay["dataset"] == "toy"
        assert replay["extra"]["wal_seq"] == NUM_COMMITS
        assert replay["extra"]["replayed"] == NUM_COMMITS
        assert replay["source"].startswith("worker-")

        # The availability burn-rate alert fired during the outage and
        # cleared once the replacement worker reported alive.  (The
        # breach can be sequenced just before the crash event — the SLO
        # ticker and the crash handler race within the same tick — so
        # anchor on the pre-kill head, not the crash's seq.)
        def breach_then_clear():
            current = fleet.events(pull=False)["events"]
            breaches = [
                e
                for e in current
                if e["kind"] == "slo_breach" and e["seq"] > pre_kill_seq
            ]
            if not breaches:
                return False
            return any(
                e["kind"] == "slo_clear" and e["seq"] > breaches[0]["seq"]
                for e in current
            )

        # However short the outage: the supervisor evaluates its SLOs
        # when the pool reports the crash, while the slot is still down.
        assert wait_until(breach_then_clear), [
            (e["kind"], e["seq"]) for e in fleet.events(pull=False)["events"]
        ]
        breach = next(
            e
            for e in fleet.events(pull=False)["events"]
            if e["kind"] == "slo_breach" and e["seq"] > pre_kill_seq
        )
        assert breach["extra"]["objective"] == "availability"

        # ...and the whole incident is one poll from the pre-kill head
        # (what ``GET /debug/events?since=<seq>`` serves).
        incident = fleet.events(pre_kill_seq)["events"]
        assert {
            "worker_crash", "worker_restart", "wal_replay", "slo_breach", "slo_clear",
        } <= {e["kind"] for e in incident}
        assert "toy" in {e["dataset"] for e in incident}


class TestDamagedTailRestart:
    def test_corruption_counter_equals_corruption_events(
        self, tmp_path, toy_snapshot
    ):
        """A fleet restarted over a log with a torn tail: the supervisor
        repairs it, every committed record still replays, and the merged
        ``repro_wal_corruption_records_total`` counts exactly the
        ``wal_corruption`` events — one incident, announced once, by the
        one function both tiers report WAL recovery through."""
        from repro.wal import WalCorruptionWarning

        def fleet():
            return ShardedQueryService(
                {"toy": toy_snapshot},
                num_workers=2,
                default_replicas=2,
                wal_dir=tmp_path / "wal",
            )

        with fleet() as first:
            first.warmup()
            commit_stream(first, 3)
        segment = sorted((tmp_path / "wal" / "toy.wal").glob("wal-*.seg"))[-1]
        with open(segment, "ab") as handle:
            handle.write(b"\x07torn write")  # a frame that never finished

        with pytest.warns(WalCorruptionWarning):
            restarted = fleet()
        with restarted:
            restarted.warmup()
            assert restarted.dataset_versions()["toy"] == {"0": 3, "1": 3}
            events = [
                event
                for event in restarted.events()["events"]
                if event["kind"] == "wal_corruption"
            ]
            family = restarted.metrics()["registry"][
                "repro_wal_corruption_records_total"
            ]
        assert len(events) == 1
        assert events[0]["source"] == "wal" and events[0]["dataset"] == "toy"
        assert events[0]["extra"]["repaired"] is True
        assert family["help"].startswith("WAL corruption incidents")
        assert family["samples"] == [{"labels": {"dataset": "toy"}, "value": 1}]


class TestWithoutWal:
    def test_no_wal_dir_keeps_in_memory_semantics(self, tmp_path, toy_snapshot):
        """Without wal_dir nothing is written and apply reports no
        wal_seq — the PR-4 behaviour is untouched."""
        with ShardedQueryService(
            {"toy": toy_snapshot}, num_workers=1
        ) as fleet:
            fleet.warmup()
            outcome = fleet.apply(
                "toy", [{"op": "add_node", "label": "x", "text": "nowalword"}]
            )
            assert outcome.wal_seq is None
            assert fleet.wal_seqs() == {}
            assert "wal_seq" not in fleet.health()
