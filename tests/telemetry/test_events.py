"""EventLog: sequencing, ring bounds, severity filters, replica merge.

The load-bearing property is the concurrency one: sequence numbers are
assigned under the log's lock, so parallel emitters must never drop,
duplicate, or reorder a sequence — everything the supervisor's
incremental cursor pull (``events(since=N)``) relies on.
"""

import threading

import pytest

from repro.telemetry.events import SEVERITIES, EventLog


class TestEmit:
    def test_sequences_are_monotone_from_one(self):
        log = EventLog(16)
        for _ in range(3):
            log.emit("tick", "tock")
        assert [e["seq"] for e in log.events()] == [1, 2, 3]

    def test_event_shape(self):
        log = EventLog(8)
        log.emit(
            "wal_corruption",
            "bad tail",
            severity="warning",
            dataset="dblp",
            trace_id="t-1",
            source="supervisor",
            offset=42,
        )
        (event,) = log.events()
        assert event["kind"] == "wal_corruption"
        assert event["message"] == "bad tail"
        assert event["severity"] == "warning"
        assert event["dataset"] == "dblp"
        assert event["trace_id"] == "t-1"
        assert event["source"] == "supervisor"
        assert event["extra"] == {"offset": 42}
        assert isinstance(event["ts"], float)

    def test_unknown_severity_rejected(self):
        log = EventLog(8)
        with pytest.raises(ValueError, match="severity"):
            log.emit("tick", "tock", severity="fatal")

    def test_ring_drops_oldest(self):
        log = EventLog(4)
        for i in range(10):
            log.emit("tick", str(i))
        events = log.events()
        assert [e["seq"] for e in events] == [7, 8, 9, 10]
        assert log.last_seq == 10  # emitted; the ring dropped six

    def test_since_and_limit(self):
        log = EventLog(16)
        for i in range(6):
            log.emit("tick", str(i))
        assert [e["seq"] for e in log.events(since=4)] == [5, 6]
        assert [e["seq"] for e in log.events(limit=2)] == [5, 6]
        assert log.events(since=log.last_seq) == []

    def test_min_severity_filter(self):
        log = EventLog(16)
        for severity in SEVERITIES:
            log.emit("tick", severity, severity=severity)
        warnings_up = log.events(min_severity="warning")
        assert [e["severity"] for e in warnings_up] == [
            "warning",
            "error",
            "critical",
        ]


class TestConcurrency:
    def test_parallel_emitters_never_drop_or_reorder_seqs(self):
        """N threads x M emits: the log holds exactly the top seqs of a
        gap-free 1..N*M range, in order — the contract the supervisor's
        per-worker cursors depend on."""
        threads_n, per_thread = 8, 200
        log = EventLog(threads_n * per_thread)
        barrier = threading.Barrier(threads_n)

        def emitter(worker: int) -> None:
            barrier.wait()
            for i in range(per_thread):
                log.emit("tick", f"{worker}:{i}", source=f"t{worker}")

        threads = [
            threading.Thread(target=emitter, args=(n,))
            for n in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        seqs = [e["seq"] for e in log.events()]
        assert seqs == list(range(1, threads_n * per_thread + 1))
        assert log.last_seq == len(log.events())  # nothing dropped

    def test_parallel_emitters_with_a_small_ring_keep_a_contiguous_tail(self):
        threads_n, per_thread, capacity = 6, 100, 64
        log = EventLog(capacity)
        barrier = threading.Barrier(threads_n)

        def emitter() -> None:
            barrier.wait()
            for _ in range(per_thread):
                log.emit("tick", "tock")

        threads = [
            threading.Thread(target=emitter) for _ in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = threads_n * per_thread
        seqs = [e["seq"] for e in log.events()]
        # The ring keeps exactly the newest `capacity` seqs, contiguous.
        assert seqs == list(range(total - capacity + 1, total + 1))


class TestIngest:
    def test_ingest_resequences_and_keeps_remote_seq(self):
        worker = EventLog(8)
        worker.emit("mutation_commit", "v1", dataset="dblp")
        worker.emit("mutation_commit", "v2", dataset="dblp")
        supervisor = EventLog(8)
        supervisor.emit("worker_crash", "boom", severity="error")
        for event in worker.events():
            supervisor.ingest(event, source="worker-0")
        events = supervisor.events()
        assert [e["seq"] for e in events] == [1, 2, 3]
        assert events[1]["source"] == "worker-0"
        assert events[1]["remote_seq"] == 1
        assert events[2]["remote_seq"] == 2
        assert events[1]["kind"] == "mutation_commit"

    def test_ingest_preserves_original_timestamp(self):
        worker = EventLog(8)
        worker.emit("tick", "tock")
        original = worker.events()[0]
        supervisor = EventLog(8)
        supervisor.ingest(original, source="worker-1")
        assert supervisor.events()[0]["ts"] == original["ts"]
