"""In-process sampling profiler: folded stacks from ``sys._current_frames``.

A stdlib-only, always-on statistical profiler.  A background daemon
thread wakes every ``interval`` seconds, snapshots every thread's
current frame via :func:`sys._current_frames`, folds each stack into a
``thread;file:func;file:func`` string, and bumps that stack's sample
count.  The aggregate is a plain ``{folded_stack: count}`` dict — the
`collapsed stack <https://github.com/brendangregg/FlameGraph>`_ format
every flamegraph tool eats directly.

Windowed profiles come from snapshot *diffs*: take counts at ``t0``,
sleep, take counts at ``t1``, subtract.  That is how
``GET /debug/profile?seconds=N`` works without ever pausing the
profiled process — crucial for cluster workers, whose control loop is
serial and must keep serving while being profiled.

Worker processes each run their own profiler; snapshots are plain
JSON-safe dicts, so they ride the existing pipe wire format to the
supervisor, which :func:`merge_profiles`-es them into one fleet-wide
view.

Overhead: sampling cost is ``O(threads × frames)`` per tick, amortised
by a per-code-object fold cache, and is budget-enforced by
``benchmarks/bench_telemetry_overhead.py`` (<3% QPS at the default
rate).
"""

from __future__ import annotations

import os.path
import sys
import threading
import time
from typing import Any, Iterable, Mapping

__all__ = [
    "SamplingProfiler",
    "diff_profiles",
    "merge_profiles",
    "render_collapsed",
]

#: Default sampling period in seconds (50 Hz): fine enough to attribute
#: CPU inside a multi-millisecond search, cheap enough to leave on.
DEFAULT_INTERVAL = 0.02

#: Distinct stacks tracked before new ones fold into ``(other)``.
DEFAULT_MAX_STACKS = 4096

#: Frames walked per stack before truncating with a ``(deep)`` marker.
_MAX_DEPTH = 64


class SamplingProfiler:
    """Continuous background sampler producing collapsed-stack counts.

    Thread-safe; designed to run for the life of the process.  Use
    :meth:`snapshot` to read cumulative counts and diff two snapshots
    (via :func:`diff_profiles`) for a windowed profile.
    """

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        *,
        max_stacks: int = DEFAULT_MAX_STACKS,
    ):
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self.interval = interval
        self.max_stacks = max_stacks
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._total = 0
        self._started_at: float | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        # Fold cache: tuple of frame code-object ids -> folded string.
        # Function-level granularity keeps keys stable across samples,
        # so steady-state sampling costs a dict lookup, not N string
        # formats.
        self._fold_cache: dict[tuple[int, ...], str] = {}

    # ------------------------------------------------------------------
    # Lifecycle

    def start(self) -> None:
        """Start the sampling thread (idempotent)."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop.clear()
            if self._started_at is None:
                self._started_at = time.time()
            self._thread = threading.Thread(
                target=self._run, name="repro-profiler", daemon=True
            )
            self._thread.start()

    def stop(self) -> None:
        """Stop sampling and wait for the sampler thread to exit;
        accumulated counts remain readable.

        The join is unbounded on purpose (the loop re-checks the stop
        flag every ``interval``, one bounded sample apart): owners call
        this *before* tearing down executors, HTTP threads and workers,
        and a sampler still walking ``sys._current_frames()`` while
        those threads die is how CPython 3.11 segfaults in ``f_back``.
        """
        self._stop.set()
        with self._lock:
            thread, self._thread = self._thread, None
        if thread is not None:
            thread.join()

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    # ------------------------------------------------------------------
    # Sampling

    def _run(self) -> None:
        own_id = threading.get_ident()
        while not self._stop.wait(self.interval):
            try:
                self.sample_once(exclude={own_id})
            except Exception:
                # A profiler must never take the process down; skip the
                # tick and keep sampling.
                continue

    def sample_once(self, exclude: set[int] | None = None) -> int:
        """Take one sample of every live thread; returns stacks folded.

        Exposed for deterministic tests — production sampling goes
        through the background thread.
        """
        frames = sys._current_frames()
        folded: list[str] = []
        names = {
            thread.ident: thread.name
            for thread in threading.enumerate()
            if thread.ident is not None
        }
        for ident, frame in frames.items():
            # A thread ``threading`` no longer lists is finishing (or
            # was never Python's): its frame chain may be torn down
            # under the walk, so it is not folded.
            name = names.get(ident)
            if name is None or (exclude and ident in exclude):
                continue
            folded.append(self._fold(name, frame))
        del frames
        with self._lock:
            for stack in folded:
                if stack in self._counts or len(self._counts) < self.max_stacks:
                    self._counts[stack] = self._counts.get(stack, 0) + 1
                else:
                    self._counts["(other)"] = self._counts.get("(other)", 0) + 1
                self._total += 1
        return len(folded)

    def _fold(self, thread_name: str, frame: Any) -> str:
        # One walk: every ``f_back`` read touches another thread's live
        # frame chain, so take the code objects once and work from them.
        codes = []
        walker = frame
        while walker is not None and len(codes) < _MAX_DEPTH:
            codes.append(walker.f_code)
            walker = walker.f_back
        truncated = walker is not None
        key = tuple(map(id, codes))
        cached = self._fold_cache.get(key)
        if cached is not None and not truncated:
            return f"{thread_name};{cached}"
        parts = [
            f"{os.path.basename(code.co_filename)}:{code.co_name}"
            for code in reversed(codes)  # root first, leaf last — flamegraph order
        ]
        if truncated:
            parts.insert(0, "(deep)")
        stack = ";".join(parts)
        if not truncated:
            if len(self._fold_cache) > self.max_stacks:
                self._fold_cache.clear()
            self._fold_cache[key] = stack
        return f"{thread_name};{stack}"

    # ------------------------------------------------------------------
    # Reading

    def snapshot(self) -> dict[str, Any]:
        """Cumulative counts since start, as a JSON-safe dict."""
        with self._lock:
            return {
                "samples": dict(self._counts),
                "total": self._total,
                "interval": self.interval,
                "started_at": self._started_at,
                "at": time.time(),
            }


def diff_profiles(
    before: Mapping[str, Any], after: Mapping[str, Any]
) -> dict[str, Any]:
    """The samples accumulated between two snapshots of one profiler."""
    base = before.get("samples") or {}
    now = after.get("samples") or {}
    samples = {}
    for stack, count in now.items():
        delta = count - base.get(stack, 0)
        if delta > 0:
            samples[stack] = delta
    return {
        "samples": samples,
        "total": max(0, (after.get("total") or 0) - (before.get("total") or 0)),
        "interval": after.get("interval"),
        "seconds": (after.get("at") or 0.0) - (before.get("at") or 0.0),
    }


def merge_profiles(parts: Iterable[Mapping[str, Any] | None]) -> dict[str, Any]:
    """Sum collapsed-stack counts across workers into one fleet view."""
    samples: dict[str, int] = {}
    total = 0
    interval = None
    for part in parts:
        if not part:
            continue
        for stack, count in (part.get("samples") or {}).items():
            samples[stack] = samples.get(stack, 0) + count
        total += part.get("total") or 0
        if interval is None:
            interval = part.get("interval")
    return {"samples": samples, "total": total, "interval": interval}


def render_collapsed(profile: Mapping[str, Any]) -> str:
    """Collapsed-stack text: one ``stack count`` line, hottest first.

    Feed straight to ``flamegraph.pl`` / speedscope / inferno.
    """
    samples = profile.get("samples") or {}
    lines = [
        f"{stack} {count}"
        for stack, count in sorted(samples.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    return "\n".join(lines)
