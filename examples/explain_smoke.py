"""Explain/accounting smoke: boot the HTTP tier, exercise the explain
and workload-analytics surfaces end to end.

The CI ``ops-smoke`` job runs this:

1. build a small engine, snapshot it, spin up a two-worker
   :class:`repro.ShardedQueryService`,
2. ``POST /search`` with ``explain=true`` and assert the response
   embeds a structured report (canonical section, seeds, score
   decompositions, cost vector),
3. fetch the same report back from ``GET /debug/explain/<request_id>``
   (and a 404 for an unknown id),
4. push a little repeated traffic and assert ``GET /debug/queries``
   shows the merged cross-replica fingerprint aggregates,
5. write the report to ``EXPLAIN_REPORT_OUT`` (when set) so CI uploads
   a real explain plan as an artifact.

Run:  python examples/explain_smoke.py
"""

import json
import os
import sys
import tempfile
import threading
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import KeywordSearchEngine, ShardedQueryService
from repro.cluster.http import make_server
from repro.datasets import DblpConfig, make_dblp
from repro.service.snapshot import save_engine


def _get(base: str, path: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(f"{base}{path}") as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _post(base: str, path: str, payload: dict) -> tuple[int, bytes]:
    request = urllib.request.Request(
        f"{base}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


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
        ) as cluster:
            cluster.warmup()
            server = make_server(cluster)
            host, port = server.server_address[:2]
            base = f"http://{host}:{port}"
            threading.Thread(target=server.serve_forever, daemon=True).start()

            # 1. explain=true embeds the report in the response.
            status, body = _post(
                base,
                "/search",
                {
                    "dataset": "dblp",
                    "query": "paper stream",
                    "k": 3,
                    "explain": True,
                    "request_id": "smoke-explain-1",
                },
            )
            assert status == 200, (status, body[:200])
            response = json.loads(body)
            report = (response.get("result") or {}).get("explain")
            assert isinstance(report, dict), "response carries no explain"
            canonical = report["canonical"]
            assert canonical["keywords"] == ["paper", "stream"]
            assert canonical["seeds"], "no seed resolution in the report"
            assert all(
                "decomposition" in answer for answer in canonical["answers"]
            )
            assert report["costs"].get("pops_in", 0) > 0, report["costs"]
            print(
                f"POST /search explain: {len(canonical['answers'])} answers, "
                f"costs {sorted(report['costs'])[:3]}..."
            )

            # 2. the same report is retained server-side.
            status, body = _get(base, "/debug/explain/smoke-explain-1")
            assert status == 200, status
            stored = json.loads(body)
            assert stored["canonical"] == canonical
            print("GET /debug/explain/<id>: report retained and identical")

            status, _ = _get(base, "/debug/explain/not-a-request")
            assert status == 404, status

            # 3. repeated traffic shows up as merged fingerprint rows.
            for _ in range(4):
                status, _ = _post(
                    base,
                    "/search",
                    {"dataset": "dblp", "query": "stream paper", "k": 3,
                     "use_cache": False},
                )
                assert status == 200, status
            status, body = _get(base, "/debug/queries")
            assert status == 200, status
            stats = json.loads(body)
            assert stats["total"] >= 4, stats["total"]
            entries = stats["entries"]
            assert entries, "no fingerprints sketched"
            top = entries[0]
            assert "|paper stream|" in top["key"], top["key"]
            assert top["costs"].get("pops_in", 0) > 0, top["costs"]
            print(
                f"GET /debug/queries: {stats['total']} sketched, top "
                f"{top['key']} x{top['count']}"
            )

            out = os.environ.get("EXPLAIN_REPORT_OUT")
            if out:
                Path(out).write_text(
                    json.dumps(report, indent=2), encoding="utf-8"
                )
                print(f"explain report written to {out}")

            server.shutdown()
            server.server_close()
    print("explain smoke OK")


if __name__ == "__main__":
    main()
