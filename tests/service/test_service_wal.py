"""QueryService + WAL: attach, journal, recover, truncate, reset."""

import json
import os
import struct
import threading
import time
import urllib.error
import zlib
import urllib.request
from pathlib import Path

import pytest

from repro.errors import WalError
from repro.service import QueryService
from repro.service.snapshot import save_engine, snapshot_info
from repro.wal import MutationLog, WalCorruptionWarning, default_wal_path


@pytest.fixture()
def toy_snapshot(tmp_path, toy_engine):
    return save_engine(tmp_path / "toy.snap", toy_engine)


@pytest.fixture()
def other_snapshot(tmp_path, toy_engine):
    """Another file at the toy's version 0: the toy plus one node."""
    from repro.live import MutableDataset
    from repro.service.snapshot import save_snapshot

    dataset = MutableDataset.from_engine(toy_engine)
    dataset.mutate([{"op": "add_node", "label": "o", "text": "otherword"}])
    epoch = dataset.compact()
    return save_snapshot(tmp_path / "other.snap", epoch.graph, epoch.index)


def wal_service(snapshot, **attach_knobs):
    service = QueryService()
    service.register_snapshot("toy", snapshot)
    info = service.attach_wal("toy", **attach_knobs)
    return service, info


def add_word(service, word: str):
    return service.apply(
        "toy",
        [
            {"op": "add_node", "label": word, "table": "paper", "text": word},
            {"op": "add_edge", "u": -1, "v": 3},
        ],
    )


class TestAttachAndJournal:
    def test_default_path_is_snapshot_sibling(self, toy_snapshot):
        service, info = wal_service(toy_snapshot)
        try:
            assert info["path"] == str(default_wal_path(toy_snapshot))
            assert info == {
                "dataset": "toy",
                "path": str(default_wal_path(toy_snapshot)),
                "replayed": 0,
                "wal_seq": 0,
                "version": 0,
            }
        finally:
            service.close()

    def test_commits_are_journaled_with_version_aligned_seqs(self, toy_snapshot):
        service, _ = wal_service(toy_snapshot)
        try:
            for i in range(3):
                result = add_word(service, f"walword{i}")
                assert service.wal_seqs()["toy"] == result.version == i + 1
            metrics = service.metrics()
            assert metrics["datasets"]["wal_seq"] == {"toy": 3}
            with MutationLog(
                default_wal_path(toy_snapshot), readonly=True
            ) as log:
                assert [r.seq for r in log.records()] == [1, 2, 3]
        finally:
            service.close()

    def test_failed_journal_append_discards_the_batch(self, toy_snapshot):
        """A commit whose write-ahead append fails must roll the batch
        back entirely — otherwise the 'failed' mutations would silently
        ride along with the next unrelated commit."""
        service, info = wal_service(toy_snapshot)
        try:
            add_word(service, "first")
            service._logs()["toy"].close()  # simulate the disk going away
            with pytest.raises(WalError):
                add_word(service, "ghostword")
            # the rejected batch is gone, in memory and on disk
            assert not service.search("toy", "ghostword").ok
            assert service.dataset_version("toy") == 1
            # reattach the log that holds the commit and keep committing
            assert service.attach_wal("toy", info["path"])["replayed"] == 0
            assert add_word(service, "second").version == 2
            assert not service.search("toy", "ghostword").ok
            assert service.search("toy", "second").ok
        finally:
            service.close()

    def test_reregistration_detaches_the_wal(self, toy_snapshot, toy_engine):
        """Replacing a dataset's registration must detach (and close)
        its log — the lineage belongs to the replaced content, and a
        still-attached log would wedge every later commit on an
        out-of-order append."""
        service, info = wal_service(toy_snapshot)
        try:
            add_word(service, "before")
            service.register_engine("toy", toy_engine)
            assert service.wal_seqs() == {}
            result = add_word(service, "afterreplace")  # unjournaled, not wedged
            assert result.applied == 2
            assert service.search("toy", "afterreplace").ok
            # the old log survives untouched on disk for the old snapshot
            assert MutationLog.peek(info["path"])["last_seq"] == 1
        finally:
            service.close()

    def test_attach_requires_registered_dataset(self, tmp_path):
        from repro.errors import UnknownDatasetError

        with QueryService() as service:
            with pytest.raises(UnknownDatasetError):
                service.attach_wal("nope", tmp_path / "x.wal")

    def test_attach_without_snapshot_needs_explicit_path(self, toy_engine):
        with QueryService() as service:
            service.register_engine("toy", toy_engine)
            with pytest.raises(ValueError, match="explicit WAL path"):
                service.attach_wal("toy")


class TestRecovery:
    def test_fresh_service_replays_to_last_durable_epoch(self, toy_snapshot):
        writer, _ = wal_service(toy_snapshot)
        for i in range(4):
            add_word(writer, f"crashword{i}")
        writer.close()  # an abrupt exit: batched sync already flushed

        reader, info = wal_service(toy_snapshot)
        try:
            assert info["replayed"] == 4
            assert info["version"] == info["wal_seq"] == 4
            assert reader.dataset_version("toy") == 4
            response = reader.search("toy", "crashword3")
            assert response.ok, response.error
            # and the recovered service keeps journaling seamlessly
            assert add_word(reader, "postcrash").version == 5
            assert reader.wal_seqs()["toy"] == 5
        finally:
            reader.close()

    def test_a_replay_that_stops_early_is_wal_behind(self, toy_snapshot):
        """A non-strict replay that stops at a record it cannot apply
        leaves the log's tip ahead of the served version: health names
        the dataset and /healthz answers 503, as on the fleet — every
        later commit would fail its out-of-order append."""
        from repro.cluster.http import make_server

        word = {"op": "add_node", "label": "w", "table": "paper", "text": "behind"}
        with MutationLog(default_wal_path(toy_snapshot)) as log:
            log.append([word])
            log.append([{"op": "add_edge", "u": 0, "v": 10**6}])  # no such node
            log.append([word])
        with pytest.warns(UserWarning, match="replay stopped before seq 2"):
            service, info = wal_service(toy_snapshot, strict=False)
        with service:
            assert (info["version"], info["wal_seq"]) == (1, 3)
            health = service.health()
            assert health["versions"] == {"toy": {"local": 1}}
            assert health["wal_behind"] == ["toy"]
            server = make_server(service)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            host, port = server.server_address[:2]
            try:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(f"http://{host}:{port}/healthz")
                assert excinfo.value.code == 503
                body = json.loads(excinfo.value.read())
                assert (body["status"], body["wal_behind"]) == ("degraded", ["toy"])
            finally:
                server.shutdown()
                server.server_close()

    def test_a_prestige_rerun_record_is_refused_not_replayed(
        self, toy_snapshot, toy_engine
    ):
        """A record asking for a PageRank rerun (an earlier version's
        ``commit(recompute_prestige=True)``) is refused by its seq:
        strict replay raises, a non-strict one stops before it and is
        wal_behind, and an appending open keeps it — it is no damage."""
        from repro.live import MutableDataset

        word = {"op": "add_node", "label": "w", "table": "paper", "text": "refused"}
        path = default_wal_path(toy_snapshot)
        with MutationLog(path) as log:
            log.append([word])
        rerun = {"seq": 2, "mutations": [word], "ts": time.time(),
                 "recompute_prestige": True}
        payload = json.dumps(rerun).encode("utf-8")
        (segment,) = Path(path).glob("wal-*.seg")
        with open(segment, "ab") as handle:
            handle.write(struct.pack("<II", len(payload), zlib.crc32(payload)) + payload)
        with MutationLog(path) as log:  # appending open: nothing truncated
            assert log.last_seq == 2
            assert [record.seq for record in log.records()] == [1, 2]

        graph, index = toy_engine.graph, toy_engine.index
        with pytest.raises(WalError, match="seq 2 .*PageRank"):
            MutableDataset.replay(path, graph=graph, index=index)
        dataset = MutableDataset(graph, index)
        with MutationLog(path, readonly=True) as log, pytest.warns(
            UserWarning, match="replay stopped before seq 2"
        ):
            assert dataset.replay_records(log.records(), expected=1, strict=False) == 1
        assert dataset.version == 1
        strict = QueryService()
        strict.register_snapshot("toy", toy_snapshot)
        with strict, pytest.raises(WalError, match="seq 2 .*PageRank"):
            strict.attach_wal("toy")
        with pytest.warns(UserWarning, match="replay stopped before seq 2"):
            service, info = wal_service(toy_snapshot, strict=False)
        with service:
            assert (info["version"], info["wal_seq"]) == (1, 2)
            assert service.health()["wal_behind"] == ["toy"]
        with MutationLog(path) as log:
            assert log.last_seq == 2

    def test_a_served_log_tip_is_not_behind(self, toy_snapshot):
        service, _ = wal_service(toy_snapshot)
        with service:
            assert service.health()["wal_behind"] == []
            add_word(service, "servedword")
            assert service.health()["wal_behind"] == []

    def test_damaged_tail_is_repaired_counted_and_announced_once(self, toy_snapshot):
        writer, info = wal_service(toy_snapshot)
        for i in range(2):
            add_word(writer, f"crashword{i}")
        writer.close()
        segment = sorted(Path(info["path"]).glob("wal-*.seg"))[-1]
        with open(segment, "ab") as handle:
            handle.write(b"\x07torn write")

        with pytest.warns(WalCorruptionWarning):
            reader, info = wal_service(toy_snapshot)
        try:
            assert info["replayed"] == 2
            kinds = [event["kind"] for event in reader.events()["events"]]
            assert kinds.count("wal_corruption") == 1
            assert kinds.count("wal_replay") == 1
            counter = reader.metrics()["registry"]["repro_wal_corruption_records_total"]
            assert counter["samples"] == [{"labels": {"dataset": "toy"}, "value": 1}]
        finally:
            reader.close()

    def test_replay_purges_stale_cache_entries(self, toy_snapshot):
        writer, _ = wal_service(toy_snapshot)
        add_word(writer, "cacheword")
        writer.close()

        reader = QueryService()
        reader.register_snapshot("toy", toy_snapshot)
        assert reader.search("toy", "transaction").ok  # warm the cache
        info = reader.attach_wal("toy")
        try:
            assert info["replayed"] == 1
            response = reader.search("toy", "transaction")
            assert not response.cached  # version moved; old entry dead
        finally:
            reader.close()

    def test_unjournaled_commits_before_attach_never_absorb_the_log(
        self, tmp_path, toy_engine
    ):
        """Commits applied before attach diverge the state from the
        snapshot the log's records assume; attach must fail loudly, not
        take the log as the history of a state it does not describe
        (here both are at version 3)."""
        snap = save_engine(tmp_path / "v2.snap", toy_engine, version=2)
        with MutationLog(tmp_path / "v2.snap.wal", start_seq=2) as log:
            log.append([{"op": "add_node", "label": "logged"}])  # seq 3
        service = QueryService()
        service.register_snapshot("toy", snap)
        add_word(service, "unjournaled")  # version 3, no WAL
        with pytest.raises(WalError, match="no log holds"):
            service.attach_wal("toy")
        service.close()

    def test_writable_log_behind_served_state_raises(self, tmp_path, toy_snapshot):
        """A commit made before the log is attached is in no log: the
        served state is ahead of the log, and attach refuses it."""
        service = QueryService()
        service.register_snapshot("toy", toy_snapshot)
        add_word(service, "unjournaled")  # version 1, no log
        with pytest.raises(WalError, match="no log holds"):
            service.attach_wal("toy")
        assert service.wal_seqs() == {}
        service.close()

    def test_log_behind_the_snapshot_restarts_at_its_version(
        self, tmp_path, toy_engine
    ):
        """The lineage rule: a log ending behind the registered
        snapshot's version holds only what the snapshot holds, and
        restarts at that version."""
        snap = save_engine(tmp_path / "v2.snap", toy_engine, version=2)
        with MutationLog(default_wal_path(snap)) as log:
            log.append([{"op": "add_node", "label": "covered"}])  # seq 1
        service, info = wal_service(snap)
        try:
            assert (info["replayed"], info["wal_seq"], info["version"]) == (0, 2, 2)
            assert add_word(service, "next").version == 3
            assert MutationLog.peek(info["path"])["last_seq"] == 3
        finally:
            service.close()

    def test_commit_after_a_reload_survives_a_restart(self, toy_snapshot):
        """Register, attach, reload, commit, stop: a restart that
        registers the same file and attaches the log replays the commit
        acknowledged after the reload (the reload restarted the log at
        the file's version)."""
        service, _ = wal_service(toy_snapshot)
        add_word(service, "beforereload")
        assert service.reload("toy", toy_snapshot, force=True)["version"] == 0
        acked = add_word(service, "afterreload").version
        service.close()

        recovered, info = wal_service(toy_snapshot)
        try:
            assert info["replayed"] == 1
            assert info["version"] == info["wal_seq"] == acked == 1
            assert recovered.search("toy", "afterreload").ok
            assert not recovered.search("toy", "beforereload").ok
        finally:
            recovered.close()


    def test_a_restart_on_the_file_a_reload_replaced_is_refused(
        self, tmp_path, toy_snapshot, other_snapshot
    ):
        """Reload a different file at the same version and commit: the
        log names the file it continues, so a restart that registers
        the replaced file is refused loudly, and one that registers the
        reloaded file replays the commit."""
        path = tmp_path / "toy.wal"
        service, _ = wal_service(toy_snapshot, path=path)
        assert service.reload("toy", other_snapshot)["version"] == 0
        add_word(service, "afterreload")
        service.close()

        with QueryService() as restarted:
            restarted.register_snapshot("toy", toy_snapshot)
            with pytest.raises(WalError, match="continues another snapshot"):
                restarted.attach_wal("toy", path)
            assert restarted.wal_seqs() == {}
        recovered, info = wal_service(other_snapshot, path=path)
        try:
            assert (info["replayed"], info["version"]) == (1, 1)
            assert recovered.search("toy", "afterreload").ok
            assert recovered.search("toy", "otherword").ok
        finally:
            recovered.close()

    def test_a_reload_to_another_file_moves_the_default_log(
        self, toy_snapshot, other_snapshot
    ):
        """A log at the served file's default path follows the reload to
        the new file's, so the default recovery of the reloaded file
        replays the commit; the replaced file's log now refuses."""
        service, _ = wal_service(toy_snapshot)
        service.reload("toy", other_snapshot)
        add_word(service, "afterreload")
        service.close()

        recovered, info = wal_service(other_snapshot)
        try:
            assert info["path"] == str(default_wal_path(other_snapshot))
            assert (info["replayed"], info["version"]) == (1, 1)
            assert recovered.search("toy", "afterreload").ok
        finally:
            recovered.close()
        with QueryService() as restarted:
            restarted.register_snapshot("toy", toy_snapshot)
            with pytest.raises(WalError, match="continues another snapshot"):
                restarted.attach_wal("toy")

    def test_attach_continues_the_file_the_build_loaded(
        self, tmp_path, toy_snapshot
    ):
        """The served version is the header of the file registration
        loaded: a file rewritten at another version afterwards changes
        nothing served until it is reloaded, so the attach replays the
        records past the loaded file's version, and a reload of the
        rewritten file swaps to it."""
        import shutil

        service, _ = wal_service(toy_snapshot)
        add_word(service, "first")
        add_word(service, "second")
        saved = service.save_snapshot("toy", tmp_path / "at2.snap")
        service.close()

        restarted = QueryService()
        try:
            restarted.register_snapshot("toy", toy_snapshot)
            loaded = restarted.engine("toy").graph.num_nodes
            # Rewritten after the load, by rename as save_snapshot writes.
            os.replace(shutil.copy(saved, tmp_path / "copy.snap"), toy_snapshot)
            assert restarted.dataset_version("toy") == 0
            info = restarted.attach_wal("toy")
            assert (info["replayed"], info["version"]) == (2, 2)
            nodes = snapshot_info(saved)["num_nodes"]
            assert restarted.engine("toy").graph.num_nodes == nodes > loaded
            assert add_word(restarted, "third").version == 3
            outcome = restarted.reload("toy", toy_snapshot)
            assert (outcome["reloaded"], outcome["version"]) == (True, 2)
            assert restarted.engine("toy").graph.num_nodes == nodes
        finally:
            restarted.close()


class TestSnapshotIntegration:
    def test_save_over_source_truncates_covered_segments(
        self, tmp_path, toy_snapshot, monkeypatch
    ):
        monkeypatch.setattr(MutationLog, "SEGMENT_MAX_RECORDS", 1)
        service, info = wal_service(toy_snapshot)
        try:
            for i in range(3):
                add_word(service, f"truncword{i}")
            # Rotating the *serving* snapshot in place makes the log's
            # covered segments redundant.
            service.save_snapshot("toy", toy_snapshot)
            assert snapshot_info(toy_snapshot)["dataset_version"] == 3
            stats = MutationLog.peek(info["path"])
            assert stats["records"] == 0  # all covered by the snapshot
            assert stats["last_seq"] == 3  # position is preserved
            # later commits continue the same lineage
            assert add_word(service, "afterword").version == 4
        finally:
            service.close()

    def test_save_to_other_path_keeps_the_log(
        self, tmp_path, toy_snapshot, monkeypatch
    ):
        """A backup save must not eat the records crash recovery from
        the *registered* snapshot still needs."""
        monkeypatch.setattr(MutationLog, "SEGMENT_MAX_RECORDS", 1)
        service, info = wal_service(toy_snapshot)
        try:
            add_word(service, "keepword")
            service.save_snapshot("toy", tmp_path / "backup.snap")
            stats = MutationLog.peek(info["path"])
            assert stats["records"] == 1
        finally:
            service.close()
        recovered = QueryService()
        recovered.register_snapshot("toy", toy_snapshot)
        outcome = recovered.attach_wal("toy")
        try:
            assert outcome["replayed"] == 1
            assert recovered.search("toy", "keepword").ok
        finally:
            recovered.close()

    def test_recover_from_newer_snapshot_and_log_tail(
        self, tmp_path, toy_snapshot
    ):
        service, info = wal_service(toy_snapshot)
        add_word(service, "early")
        mid_snap = tmp_path / "mid.snap"
        service.save_snapshot("toy", mid_snap)
        add_word(service, "tailword")
        service.close()

        recovered = QueryService()
        recovered.register_snapshot("toy", mid_snap)
        outcome = recovered.attach_wal("toy", info["path"])
        try:
            assert outcome["replayed"] == 1  # just the tail record
            assert outcome["version"] == 2
            assert recovered.search("toy", "tailword").ok
            assert recovered.search("toy", "early").ok
        finally:
            recovered.close()

    def test_old_snapshot_with_truncated_log_is_a_replay_gap(
        self, tmp_path, toy_snapshot, monkeypatch
    ):
        import shutil

        old_copy = tmp_path / "old-copy.snap"
        shutil.copy(toy_snapshot, old_copy)
        monkeypatch.setattr(MutationLog, "SEGMENT_MAX_RECORDS", 1)
        service, info = wal_service(toy_snapshot)
        for i in range(3):
            add_word(service, f"gapword{i}")
        service.save_snapshot("toy", toy_snapshot)  # rotates + truncates
        add_word(service, "lost")
        service.close()

        stale = QueryService()
        stale.register_snapshot("toy", old_copy)  # the OLD base
        with pytest.raises(WalError, match="replay gap"):
            stale.attach_wal("toy", info["path"])
        stale.close()

    def test_reload_resets_the_log(self, tmp_path, toy_snapshot):
        service, info = wal_service(toy_snapshot)
        try:
            add_word(service, "preload")
            outcome = service.reload("toy", toy_snapshot, force=True)
            stats = MutationLog.peek(info["path"])
            assert stats["records"] == 0
            assert stats["last_seq"] == outcome["version"]
            result = add_word(service, "postreloadword")
            assert result.version == outcome["version"] + 1
            assert service.wal_seqs()["toy"] == result.version
        finally:
            service.close()

    def test_commit_and_reload_events_carry_one_field_set(self, toy_snapshot):
        service, _ = wal_service(toy_snapshot)
        try:
            add_word(service, "eventword")
            outcome = service.reload("toy", toy_snapshot, force=True)
            events = {event["kind"]: event for event in service.events()["events"]}
        finally:
            service.close()
        commit, reload = events["mutation_commit"], events["snapshot_reload"]
        assert (commit["dataset"], commit["source"]) == ("toy", "service")
        assert commit["extra"] == {"version": 1, "applied": 2, "wal_seq": 1}
        assert (reload["dataset"], reload["source"]) == ("toy", "service")
        assert reload["extra"] == {
            "version": outcome["version"],
            "digest": snapshot_info(toy_snapshot)["content_digest"],
            "wal_seq": outcome["version"],
        }

    def test_commit_racing_a_reload_is_journaled_or_refused(
        self, toy_snapshot, monkeypatch
    ):
        """A commit issued from another thread while ``reload``
        resets the log must be journaled in the new lineage or fail
        loudly — never be acknowledged into the old lineage the reset
        discards (and leave every later commit unjournaled behind it).
        The dataset's mutation lock is the fence: the racer waits for
        the reload."""
        service, info = wal_service(toy_snapshot)
        acked = []
        racers = []

        def commit(word):
            try:
                acked.append(add_word(service, word).version)
            except WalError:
                pass

        reset = MutationLog.reset

        def reset_beside_a_commit(log, start_seq, snapshot=None):
            racer = threading.Thread(target=commit, args=("racingword",))
            racer.start()
            racer.join(timeout=0.2)  # a commit not fenced out lands now
            racers.append(racer)
            reset(log, start_seq, snapshot)

        monkeypatch.setattr(MutationLog, "reset", reset_beside_a_commit)
        try:
            add_word(service, "preload")  # the old lineage: reset by design
            service.reload("toy", toy_snapshot, force=True)
            for racer in racers:
                racer.join()
            commit("laterword")
            assert racers and acked and not service.search("toy", "preload").ok
            assert service.wal_seqs()["toy"] == service.dataset_version("toy")
        finally:
            service.close()
        with MutationLog(info["path"], readonly=True) as log:
            assert [record.seq for record in log.records()] == acked
