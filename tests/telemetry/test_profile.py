"""SamplingProfiler: folding, snapshot diffs, fleet merge, lifecycle."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.telemetry.profile import (
    SamplingProfiler,
    diff_profiles,
    merge_profiles,
    render_collapsed,
)


def spin_until(event: threading.Event) -> None:
    while not event.is_set():
        time.sleep(0.001)


class TestSampling:
    def test_sample_once_folds_live_threads(self):
        profiler = SamplingProfiler(interval=0.01)
        stop = threading.Event()
        worker = threading.Thread(
            target=spin_until, args=(stop,), name="spinny"
        )
        worker.start()
        try:
            for _ in range(5):
                assert profiler.sample_once() > 0
        finally:
            stop.set()
            worker.join()
        snap = profiler.snapshot()
        assert snap["total"] >= 5
        spinny = [s for s in snap["samples"] if s.startswith("spinny;")]
        assert spinny, snap["samples"]
        # Root-first fold: the thread entry point precedes the leaf.
        stack = spinny[0].split(";")
        assert any("spin_until" in part for part in stack)

    def test_background_thread_samples_and_stops(self):
        profiler = SamplingProfiler(interval=0.005)
        profiler.start()
        assert profiler.running
        time.sleep(0.1)
        profiler.stop()
        assert not profiler.running
        total = profiler.snapshot()["total"]
        assert total > 0
        time.sleep(0.05)
        assert profiler.snapshot()["total"] == total  # really stopped

    def test_start_is_idempotent(self):
        profiler = SamplingProfiler(interval=0.005)
        profiler.start()
        first = profiler._thread
        profiler.start()
        assert profiler._thread is first
        profiler.stop()

    def test_stop_joins_the_sampler_even_mid_sample(self):
        """``stop()`` returns only once the sampler thread is gone, so
        owners can tear threads down right after it."""
        profiler = SamplingProfiler(interval=0.001)
        profiler.start()
        thread = profiler._thread
        time.sleep(0.01)
        profiler.stop()
        assert not thread.is_alive()
        profiler.stop()  # idempotent

    def test_threads_unknown_to_threading_are_not_folded(self, monkeypatch):
        """A thread that has left ``threading.enumerate()`` is finishing:
        its frame chain is not walked."""
        profiler = SamplingProfiler(interval=0.01)
        main = threading.main_thread()
        monkeypatch.setattr(threading, "enumerate", lambda: [main])
        stop = threading.Event()
        worker = threading.Thread(target=spin_until, args=(stop,), name="ghost")
        worker.start()
        try:
            assert profiler.sample_once() == 1
        finally:
            stop.set()
            worker.join()
        assert not any(s.startswith("ghost;") for s in profiler.snapshot()["samples"])

    def test_start_stop_stress_beside_a_churning_thread_pool(self):
        """Regression for the tier-1 segfault in ``_fold`` (CPython 3.11,
        ``f_back`` on a dying thread's frame): 200 start/stop rounds at a
        1 kHz sampling rate while executors and threads are created and
        torn down, under a shortened switch interval."""

        def deep(n: int) -> int:
            return deep(n - 1) if n else sum(range(20))

        def churn(stop: threading.Event) -> None:
            while not stop.is_set():
                with ThreadPoolExecutor(max_workers=4) as pool:
                    assert sum(pool.map(deep, [25] * 16)) == 16 * 190
                threads = [threading.Thread(target=deep, args=(40,)) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(10.0)

        stop = threading.Event()
        churners = [threading.Thread(target=churn, args=(stop,)) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for churner in churners:
                churner.start()
            total = 0
            for _ in range(200):
                profiler = SamplingProfiler(interval=0.001)
                profiler.start()
                time.sleep(0.003)
                profiler.stop()
                assert not profiler.running
                total += profiler.snapshot()["total"]
        finally:
            stop.set()
            for churner in churners:
                churner.join(30.0)
            sys.setswitchinterval(interval)
        assert not any(churner.is_alive() for churner in churners)
        assert total > 0

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval=0)

    def test_max_stacks_overflow_buckets_into_other(self):
        profiler = SamplingProfiler(interval=0.01, max_stacks=1)
        stop = threading.Event()
        worker = threading.Thread(target=spin_until, args=(stop,))
        worker.start()
        try:
            for _ in range(4):
                profiler.sample_once()
        finally:
            stop.set()
            worker.join()
        samples = profiler.snapshot()["samples"]
        assert len(samples) <= 2  # one real stack + (other)


class TestDiffMergeRender:
    def test_diff_is_the_window_between_snapshots(self):
        before = {"samples": {"a;b": 3, "a;c": 1}, "total": 4, "at": 10.0,
                  "interval": 0.02}
        after = {"samples": {"a;b": 8, "a;c": 1, "a;d": 2}, "total": 11,
                 "at": 12.0, "interval": 0.02}
        window = diff_profiles(before, after)
        assert window["samples"] == {"a;b": 5, "a;d": 2}
        assert window["total"] == 7
        assert window["seconds"] == pytest.approx(2.0)

    def test_merge_sums_across_workers(self):
        merged = merge_profiles(
            [
                {"samples": {"a;b": 2}, "total": 2, "interval": 0.02},
                None,  # a worker with profiling off
                {"samples": {"a;b": 1, "x;y": 4}, "total": 5,
                 "interval": 0.02},
            ]
        )
        assert merged["samples"] == {"a;b": 3, "x;y": 4}
        assert merged["total"] == 7

    def test_render_collapsed_hottest_first(self):
        text = render_collapsed(
            {"samples": {"cold;stack": 1, "hot;stack": 9, "warm;stack": 5}}
        )
        assert text.splitlines() == [
            "hot;stack 9",
            "warm;stack 5",
            "cold;stack 1",
        ]
        # flamegraph.pl format: everything before the last space is the
        # stack, the last token is the count.
        for line in text.splitlines():
            assert line.rsplit(" ", 1)[1].isdigit()

    def test_snapshot_is_json_safe(self):
        import json

        profiler = SamplingProfiler(interval=0.01)
        profiler.sample_once()
        json.dumps(profiler.snapshot())
