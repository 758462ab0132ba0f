"""WAL telemetry, declared once for every tier that owns a log.

``QueryService`` and the fleet supervisor both report through one
:class:`WalTelemetry`, so the ``repro_wal_*`` families carry one help
text and one meaning fleet-wide, and a corruption incident is counted
exactly when it is announced: ``repro_wal_corruption_records_total``
equals the number of ``wal_corruption`` events.
"""

from __future__ import annotations

from typing import Mapping

from repro.wal.log import MutationLog

__all__ = ["WalTelemetry"]

#: ``MutationLog.stats()`` key -> (family, help) of the counter it fills.
_STAT_COUNTERS = {
    "appends": ("repro_wal_appends_total", "Mutation batches appended to the WAL"),
    "fsyncs": ("repro_wal_fsyncs_total", "fsync calls issued by the WAL"),
    "appended_bytes": ("repro_wal_appended_bytes_total", "Bytes appended to the WAL"),
    "replayed_records": (
        "repro_wal_replayed_records_total",
        "WAL records replayed during recovery",
    ),
}

#: The fields of a corruption incident its ``wal_corruption`` event carries.
_INCIDENT_FIELDS = ("path", "offset", "reason", "last_valid_seq", "repaired")


class WalTelemetry:
    """One registry's ``repro_wal_*`` families and crash-recovery events."""

    def __init__(self, registry, event_log) -> None:
        self._event_log = event_log
        self._last_seq = registry.gauge(
            "repro_wal_last_seq",
            "Last durable WAL sequence number per dataset",
            labels=("dataset",),
            merge="max",
        )
        self._counters = {
            stat: registry.counter(family, help_text, labels=("dataset",))
            for stat, (family, help_text) in _STAT_COUNTERS.items()
        }
        self._corruption = registry.counter(
            "repro_wal_corruption_records_total",
            "WAL corruption incidents detected (and repaired when the "
            "log was writable)",
            labels=("dataset",),
        )

    def collect(self, logs: Mapping[str, MutationLog]) -> None:
        """Refresh position and activity from the currently attached
        ``{dataset: log}``; a dataset whose log was detached stops
        reporting a position."""
        self._last_seq.replace({(name,): log.last_seq for name, log in logs.items()})
        for name, log in logs.items():
            stats = log.stats()
            for stat, counter in self._counters.items():
                counter.set_total(stats[stat], dataset=name)

    def note_recovery(self, name: str, log: MutationLog, replayed: int = 0) -> None:
        """Turn a just-opened log's recovery outcome into first-class
        signals — one ``wal_corruption`` event and counter increment per
        incident, a ``wal_replay`` event when records were applied —
        visible without anyone catching Python warnings."""
        for incident in log.corruption_events():
            self._corruption.inc(dataset=name)
            outcome = "tail repaired" if incident["repaired"] else "replay stopped"
            self._event_log.emit(
                "wal_corruption",
                f"WAL for {name!r} damaged at byte {incident['offset']} "
                f"({incident['reason']}); {outcome}, last valid seq "
                f"{incident['last_valid_seq']}",
                severity="warning",
                dataset=name,
                source="wal",
                **{key: incident[key] for key in _INCIDENT_FIELDS},
            )
        if replayed:
            self._event_log.emit(
                "wal_replay",
                f"replayed {replayed} WAL record(s) for {name!r} to seq "
                f"{log.last_seq}",
                severity="info",
                dataset=name,
                source="wal",
                replayed=replayed,
                wal_seq=log.last_seq,
            )
