"""Cooperative cancellation for the search stack (ROADMAP follow-up).

The paper's algorithms are *anytime*: their main loops pop one cursor
at a time, so they are naturally interruptible — yet until this module
existed, a deadline-missed query kept burning its thread (or worker
process) until the full search finished.  A :class:`CancellationToken`
threads a stop signal through every layer: the core expansion loops
tick it once per pop, the engine forwards it per query, the service
tier arms one from each request's deadline, and the cluster tier drives
it from a supervisor-side control channel.

Design constraints, in order:

* **The hot loop must not slow down.**  :meth:`CancellationToken.tick`
  is one method call per pop; the *full* check (deadline clock read,
  parent walk, external probe) runs only every ``check_every`` ticks.
  A fired token short-circuits immediately.
* **Cancellation is a request, not preemption.**  The search notices at
  its next check and returns what it has; callers therefore observe a
  bounded overrun of at most one check interval of pops.
* **Sources compose.**  A deadline, an explicit :meth:`cancel` from
  another thread, a ``parent`` token (the service wraps a caller's
  token with its own deadline token) and an ``external_check`` callable
  (the cluster worker's set of job ids cancelled down its channel) all
  feed one token; whichever fires first wins and records its
  ``reason``.

Two consumption styles:

* anytime algorithms (the searches) call :meth:`tick` and, when it
  returns True, stop and mark their partial result ``complete=False``;
* all-or-nothing code (the exhaustive oracle) calls
  :meth:`raise_if_cancelled`, which raises
  :class:`~repro.errors.SearchCancelledError`.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.errors import SearchCancelledError

__all__ = ["CancellationToken", "REASON_CANCELLED", "REASON_DEADLINE"]

#: Reason recorded by an explicit :meth:`CancellationToken.cancel`.
REASON_CANCELLED = "cancelled"
#: Reason recorded when the token's deadline passes.
REASON_DEADLINE = "deadline"


class CancellationToken:
    """A composable stop signal checked cooperatively every N ticks.

    Parameters
    ----------
    deadline:
        Absolute ``time.monotonic()`` instant after which the token
        fires with reason ``"deadline"``.
    check_every:
        Full checks (clock, parent, external probe) run once per this
        many :meth:`tick` calls; a cancelled search returns within at
        most ~2 check intervals of pops.  ``SearchParams.
        cancel_check_interval`` is the per-query spelling the service
        layers forward here.
    parent:
        Another token consulted on full checks; a fired parent fires
        this token with the parent's reason.  The service tier wraps a
        caller-supplied token with its own deadline token this way.
    external_check:
        Zero-argument callable probed on full checks; truthy means
        "cancel now" with reason ``"cancelled"``.  The cluster worker
        probes the job ids cancelled down its channel through this.
    """

    __slots__ = (
        "deadline",
        "check_every",
        "parent",
        "external_check",
        "_ticks",
        "_fired",
        "_reason",
        "_lock",
    )

    def __init__(
        self,
        *,
        deadline: Optional[float] = None,
        check_every: int = 32,
        parent: Optional["CancellationToken"] = None,
        external_check: Optional[Callable[[], bool]] = None,
    ) -> None:
        if check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {check_every!r}")
        self.deadline = deadline
        self.check_every = check_every
        self.parent = parent
        self.external_check = external_check
        self._ticks = 0
        self._fired = False
        self._reason: Optional[str] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # firing
    # ------------------------------------------------------------------
    def cancel(self, reason: str = REASON_CANCELLED) -> None:
        """Request cancellation (thread-safe, idempotent: first reason
        wins).  The running search notices at its next check."""
        self._fire(reason)

    def _fire(self, reason: str) -> None:
        with self._lock:
            if not self._fired:
                self._fired = True
                self._reason = reason

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    @property
    def fired(self) -> bool:
        """True once the token has fired (no sources re-probed)."""
        return self._fired

    @property
    def reason(self) -> Optional[str]:
        """Why the token fired (``"cancelled"`` / ``"deadline"``), or
        None while live."""
        return self._reason

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------
    def tick(self) -> bool:
        """Count one loop iteration; True once the token has fired.

        The hot-loop entry point: a fired token is noticed every call,
        the expensive sources (clock, parent, external probe) only
        every ``check_every`` calls.
        """
        if self._fired:
            return True
        self._ticks += 1
        if self._ticks % self.check_every:
            return False
        return self.check()

    def check(self) -> bool:
        """Probe every source now (ungated); True once fired."""
        if self._fired:
            return True
        if self.parent is not None and self.parent.check():
            self._fire(self.parent.reason or REASON_CANCELLED)
            return True
        if self.deadline is not None and time.monotonic() >= self.deadline:
            self._fire(REASON_DEADLINE)
            return True
        if self.external_check is not None and self.external_check():
            self._fire(REASON_CANCELLED)
            return True
        return False

    def raise_if_cancelled(self) -> None:
        """Raise :class:`SearchCancelledError` if a full check fires.

        The consumption style for code with no partial answer to return
        (the exhaustive oracle, bulk index builds): unwind instead of
        flagging.
        """
        if self.check():
            raise SearchCancelledError(self._reason or REASON_CANCELLED)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"fired={self._reason!r}" if self._fired else "live"
        return (
            f"CancellationToken({state}, ticks={self._ticks}, "
            f"check_every={self.check_every})"
        )
