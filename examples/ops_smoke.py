"""Ops smoke: boot the HTTP tier, poll the event stream, scrape metrics.

The CI ``ops-smoke`` job runs this end to end:

1. build a small engine, snapshot it, spin up a two-worker
   :class:`repro.ShardedQueryService` with a WAL,
2. push a little traffic (including one guaranteed failure and one
   live mutation),
3. serve the fleet over HTTP and fetch ``/debug/events`` and
   ``/metrics?format=prometheus`` like a poller or a scraper would,
4. assert the responses carry what an operator needs (events with
   monotone sequence numbers and an empty incremental tail; service +
   cluster + WAL families in the exposition),
5. write the scraped exposition to ``PROMETHEUS_OUT`` (when set) so CI
   checks its families against docs/OBSERVABILITY.md.

Run:  python examples/ops_smoke.py
"""

import json
import os
import sys
import tempfile
import threading
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import KeywordSearchEngine, ShardedQueryService
from repro.cluster.http import make_server
from repro.datasets import DblpConfig, make_dblp
from repro.live.mutations import AddNode
from repro.service.snapshot import save_engine


def _get(base: str, path: str) -> tuple[int, bytes]:
    with urllib.request.urlopen(f"{base}{path}") as response:
        return response.status, response.read()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        engine = KeywordSearchEngine.from_database(
            make_dblp(DblpConfig().scaled(0.25))
        )
        snapshot = save_engine(Path(tmp) / "dblp.snap", engine)
        with ShardedQueryService(
            {"dblp": snapshot},
            num_workers=2,
            default_replicas=2,
            wal_dir=Path(tmp) / "wal",
        ) as cluster:
            cluster.warmup()

            # Traffic to observe: some hits, one failure (unknown dataset
            # -> fleet failure counter), one mutation (WAL append +
            # mutation_commit events on both sides).
            for _ in range(5):
                cluster.search("dblp", "paper stream", k=3).raise_for_error()
            assert cluster.search("nope", "paper").error_type is not None
            cluster.apply(
                "dblp", [AddNode(label="ops probe", text="ops probe")]
            )
            cluster.slo_status()  # evaluate now: the slo_* gauges are set

            server = make_server(cluster)
            host, port = server.server_address[:2]
            base = f"http://{host}:{port}"
            threading.Thread(target=server.serve_forever, daemon=True).start()

            status, body = _get(base, "/debug/events?since=0")
            assert status == 200, status
            events = json.loads(body)
            seqs = [event["seq"] for event in events["events"]]
            assert seqs and seqs == sorted(seqs), seqs
            kinds = {event["kind"] for event in events["events"]}
            assert "mutation_commit" in kinds, kinds
            print(
                f"/debug/events: {len(seqs)} events, kinds "
                f"{sorted(kinds)}, last_seq={events['last_seq']}"
            )

            # Incremental tail: nothing new after the last seq.
            status, body = _get(
                base, f"/debug/events?since={events['last_seq']}"
            )
            assert json.loads(body)["events"] == []

            status, body = _get(base, "/metrics?format=prometheus")
            assert status == 200, status
            exposition = body.decode("utf-8")
            for family in (
                "repro_requests_total",
                "repro_cluster_workers_alive",
                "repro_wal_appends_total",
            ):
                assert f"# TYPE {family} " in exposition, family
            print(
                f"/metrics?format=prometheus: "
                f"{exposition.count('# TYPE ')} families"
            )
            out = os.environ.get("PROMETHEUS_OUT")
            if out:
                Path(out).write_text(exposition, encoding="utf-8")
                print(f"exposition written to {out}")

            server.shutdown()
            server.server_close()
    print("ops smoke OK")


if __name__ == "__main__":
    main()
