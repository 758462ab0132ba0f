"""Ops dashboard: one dependency-free HTML page for the whole fleet.

:func:`render_dashboard` turns the ``dashboard_data()`` dict either
service tier assembles — health, SLO status, recent events, metric
headlines, slow queries, profiler headline — into a single
self-contained HTML document.  No JavaScript frameworks, no external
assets, no CDN: inline CSS and a ``<meta http-equiv="refresh">`` tag,
so the page works from ``file://``, behind an airgap, and in ``curl``.

The renderer is a pure function over plain dicts and is deliberately
forgiving: every section renders from whatever keys are present and
collapses to a stub when its data is missing, so a heterogeneous or
degraded fleet still produces a page (the page being *about* degraded
fleets).
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Mapping

__all__ = ["algorithm_summary", "render_dashboard"]


def algorithm_summary(algorithms: Mapping[str, Any] | None) -> dict[str, Any]:
    """Boil the ``algorithms`` section of a ``metrics()`` document down
    to the request count and latency percentiles the dashboard table
    shows."""
    summary: dict[str, Any] = {}
    for name, entry in (algorithms or {}).items():
        entry = entry or {}
        summary[name] = {
            "requests": entry.get("requests"),
            "p50": entry.get("latency_p50"),
            "p90": entry.get("latency_p90"),
            "p99": entry.get("latency_p99"),
        }
    return summary

_SEVERITY_COLORS = {
    "debug": "#8a8f98",
    "info": "#2563eb",
    "warning": "#b45309",
    "error": "#dc2626",
    "critical": "#7f1d1d",
}

_CSS = """
body { font-family: ui-monospace, SFMono-Regular, Menlo, Consolas, monospace;
       margin: 1.2rem; background: #0b1020; color: #e2e8f0; }
h1 { font-size: 1.25rem; margin: 0 0 0.25rem 0; }
h2 { font-size: 1rem; border-bottom: 1px solid #1e293b;
     padding-bottom: 0.2rem; margin-top: 1.4rem; }
table { border-collapse: collapse; width: 100%; font-size: 0.85rem; }
th, td { text-align: left; padding: 0.25rem 0.6rem;
         border-bottom: 1px solid #1e293b; vertical-align: top; }
th { color: #94a3b8; font-weight: 600; }
.cards { display: flex; flex-wrap: wrap; gap: 0.6rem; margin: 0.8rem 0; }
.card { background: #111827; border: 1px solid #1e293b; border-radius: 6px;
        padding: 0.5rem 0.9rem; min-width: 7rem; }
.card .label { color: #94a3b8; font-size: 0.7rem; text-transform: uppercase; }
.card .value { font-size: 1.15rem; margin-top: 0.15rem; }
.ok { color: #22c55e; } .bad { color: #ef4444; } .warn { color: #f59e0b; }
.badge { border-radius: 4px; padding: 0 0.4rem; font-size: 0.75rem;
         color: #fff; display: inline-block; }
.muted { color: #64748b; } pre { margin: 0; white-space: pre-wrap; }
a { color: #60a5fa; text-decoration: none; }
"""


def _esc(value: Any) -> str:
    import html  # 1.7 MiB of entity tables: only a rendered dashboard pays

    return html.escape("" if value is None else str(value), quote=True)


def _fmt_num(value: Any, digits: int = 2) -> str:
    if value is None:
        return "–"
    try:
        number = float(value)
    except (TypeError, ValueError):
        return _esc(value)
    if number == int(number) and abs(number) < 1e15:
        return f"{int(number):,}"
    return f"{number:,.{digits}f}"


def _fmt_ts(value: Any) -> str:
    try:
        return time.strftime("%H:%M:%S", time.localtime(float(value)))
    except (TypeError, ValueError, OSError, OverflowError):
        return "–"


def _card(label: str, value: str, klass: str = "") -> str:
    return (
        f'<div class="card"><div class="label">{_esc(label)}</div>'
        f'<div class="value {klass}">{value}</div></div>'
    )


def _table(headers: Iterable[str], rows: Iterable[Iterable[str]]) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{cell}</td>" for cell in row) + "</tr>"
        for row in rows
    )
    if not body:
        body = (
            f'<tr><td colspan="{len(tuple(headers))}" class="muted">'
            f"(none)</td></tr>"
        )
    return f"<table><tr>{head}</tr>{body}</table>"


def _health_cards(data: Mapping[str, Any]) -> str:
    health = data.get("health") or {}
    cards: list[str] = []
    status = health.get("status")
    if status is not None:
        klass = "ok" if status == "ok" else "bad"
        cards.append(_card("status", _esc(status), klass))
    workers = health.get("workers")
    alive = health.get("workers_alive")
    if workers is not None:
        klass = "ok" if alive == workers else "bad"
        cards.append(_card("workers alive", f"{_fmt_num(alive)}/{_fmt_num(workers)}", klass))
    restarts = health.get("restarts")
    if isinstance(restarts, Mapping):
        total = sum(restarts.values())
        cards.append(_card("restarts", _fmt_num(total), "warn" if total else ""))
    metrics = data.get("metrics") or {}
    if "requests_total" in metrics:
        cards.append(_card("requests", _fmt_num(metrics.get("requests_total"))))
    if "errors_total" in metrics:
        errors = metrics.get("errors_total") or 0
        cards.append(_card("errors", _fmt_num(errors), "warn" if errors else "ok"))
    if metrics.get("cache_hit_rate") is not None:
        cards.append(
            _card("cache hit", f"{float(metrics['cache_hit_rate']) * 100:.0f}%")
        )
    slo = data.get("slo") or []
    firing = sum(1 for status in slo if status.get("firing"))
    if slo:
        cards.append(
            _card(
                "slo alerts",
                _fmt_num(firing),
                "bad" if firing else "ok",
            )
        )
    profile = data.get("profile") or {}
    if profile.get("total") is not None:
        cards.append(_card("profile samples", _fmt_num(profile.get("total"))))
    return f'<div class="cards">{"".join(cards)}</div>' if cards else ""


def _versions_section(data: Mapping[str, Any]) -> str:
    health = data.get("health") or {}
    versions = health.get("versions") or {}
    wal_seq = health.get("wal_seq") or {}
    drift = health.get("version_drift") or []
    if not versions and not wal_seq:
        return ""
    rows = []
    datasets = sorted(set(versions) | set(wal_seq))
    for dataset in datasets:
        drifted = dataset in drift
        rows.append(
            [
                _esc(dataset),
                _esc(versions.get(dataset, "–")),
                _esc(wal_seq.get(dataset, "–")),
                '<span class="bad">drift</span>'
                if drifted
                else '<span class="ok">in sync</span>',
            ]
        )
    return "<h2>Datasets</h2>" + _table(
        ["dataset", "replica versions", "wal seq", "state"], rows
    )


def _slo_section(data: Mapping[str, Any]) -> str:
    rows = []
    for status in data.get("slo") or []:
        windows = status.get("windows") or {}
        fast = windows.get("fast") or {}
        slow = windows.get("slow") or {}
        firing = status.get("firing")
        badge = (
            '<span class="badge" style="background:#dc2626">FIRING</span>'
            if firing
            else '<span class="badge" style="background:#166534">ok</span>'
        )
        rows.append(
            [
                _esc(status.get("objective")),
                _esc(status.get("kind")),
                _esc(status.get("dataset")),
                _fmt_num(fast.get("burn_rate")),
                _fmt_num(slow.get("burn_rate")),
                _fmt_num(status.get("burn_threshold")),
                badge,
            ]
        )
    return "<h2>SLOs</h2>" + _table(
        ["objective", "kind", "dataset", "fast burn", "slow burn", "threshold", ""],
        rows,
    )


def _events_section(data: Mapping[str, Any]) -> str:
    events = list(data.get("events") or [])
    events.sort(key=lambda event: event.get("seq") or 0, reverse=True)
    rows = []
    for event in events:
        severity = event.get("severity") or "info"
        color = _SEVERITY_COLORS.get(severity, "#2563eb")
        badge = (
            f'<span class="badge" style="background:{color}">{_esc(severity)}</span>'
        )
        rows.append(
            [
                _esc(event.get("seq")),
                _fmt_ts(event.get("ts")),
                badge,
                _esc(event.get("kind")),
                _esc(event.get("dataset") or ""),
                _esc(event.get("source") or ""),
                _esc(event.get("message")),
            ]
        )
    return "<h2>Events</h2>" + _table(
        ["seq", "time", "severity", "kind", "dataset", "source", "message"], rows
    )


def _latency_section(data: Mapping[str, Any]) -> str:
    algorithms = (data.get("metrics") or {}).get("algorithms") or {}
    rows = []
    for name in sorted(algorithms):
        stats = algorithms[name] or {}
        percentiles = stats.get("latency") or stats
        rows.append(
            [
                _esc(name),
                _fmt_num(stats.get("requests")),
                _fmt_num(percentiles.get("p50"), 4),
                _fmt_num(percentiles.get("p90"), 4),
                _fmt_num(percentiles.get("p99"), 4),
            ]
        )
    if not rows:
        return ""
    return "<h2>Latency (seconds)</h2>" + _table(
        ["algorithm", "requests", "p50", "p90", "p99"], rows
    )


def _slow_section(data: Mapping[str, Any]) -> str:
    rows = []
    for entry in data.get("slow_queries") or []:
        request = entry.get("request") or {}
        trace_id = entry.get("trace_id")
        trace_cell = (
            f'<a href="/debug/trace/{_esc(trace_id)}?format=text">{_esc(trace_id)}</a>'
            if trace_id
            else '<span class="muted">–</span>'
        )
        rows.append(
            [
                _fmt_ts(entry.get("recorded_at")),
                _fmt_num(entry.get("elapsed"), 3),
                _esc(request.get("dataset")),
                _esc(request.get("query")),
                _esc(entry.get("error_type") or ""),
                trace_cell,
            ]
        )
    return "<h2>Slow queries</h2>" + _table(
        ["recorded", "elapsed s", "dataset", "query", "error", "trace"], rows
    )


def _queries_section(data: Mapping[str, Any]) -> str:
    queries = data.get("queries") or {}
    entries = queries.get("entries") or []
    if not entries:
        return ""
    rows = []
    for entry in entries[:10]:
        count = entry.get("count") or 0
        elapsed = entry.get("elapsed_total") or 0.0
        costs = entry.get("costs") or {}
        pops = (costs.get("pops_in") or 0) + (costs.get("pops_out") or 0)
        rows.append(
            [
                _esc(entry.get("key")),
                _fmt_num(count),
                _fmt_num(entry.get("error")),
                _fmt_num(elapsed, 3),
                _fmt_num(elapsed / count if count else None, 4),
                _fmt_num(pops),
                _fmt_num(costs.get("heap_ops")),
            ]
        )
    note = (
        f'<p class="muted">{_fmt_num(queries.get("total"))} queries sketched'
        f' · counts are over-estimates with the shown error bound'
        ' · raw: <a href="/debug/queries">/debug/queries</a></p>'
    )
    return (
        "<h2>Top queries (workload analytics)</h2>"
        + _table(
            [
                "fingerprint",
                "count",
                "±err",
                "elapsed s",
                "s/query",
                "pops",
                "heap ops",
            ],
            rows,
        )
        + note
    )


def _profile_section(data: Mapping[str, Any]) -> str:
    profile = data.get("profile") or {}
    samples = profile.get("samples") or {}
    if not samples:
        return ""
    hottest = sorted(samples.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    total = profile.get("total") or sum(samples.values()) or 1
    rows = [
        [
            _fmt_num(count),
            f"{100.0 * count / total:.1f}%",
            f"<pre>{_esc(stack)}</pre>",
        ]
        for stack, count in hottest
    ]
    return (
        "<h2>Hottest stacks (sampling profiler)</h2>"
        + _table(["samples", "share", "stack"], rows)
        + '<p class="muted">Full collapsed-stack profile: '
        '<a href="/debug/profile?seconds=2">/debug/profile?seconds=2</a></p>'
    )


def render_dashboard(
    data: Mapping[str, Any], *, refresh_seconds: int | None = 5
) -> str:
    """Render the full dashboard page from a ``dashboard_data()`` dict."""
    refresh = (
        f'<meta http-equiv="refresh" content="{int(refresh_seconds)}">'
        if refresh_seconds
        else ""
    )
    generated = data.get("generated_at")
    subtitle = (
        f"{_esc(data.get('service') or 'service')} · generated "
        f"{_fmt_ts(generated)} · auto-refresh "
        f"{int(refresh_seconds)}s" if refresh_seconds
        else f"{_esc(data.get('service') or 'service')}"
    )
    sections = [
        _health_cards(data),
        _slo_section(data),
        _events_section(data),
        _versions_section(data),
        _latency_section(data),
        _slow_section(data),
        _queries_section(data),
        _profile_section(data),
    ]
    links = (
        '<p class="muted">raw: <a href="/metrics?format=prometheus">prometheus</a>'
        ' · <a href="/debug/events">events</a>'
        ' · <a href="/debug/slow">slow queries</a>'
        ' · <a href="/debug/queries">top queries</a>'
        ' · <a href="/debug/profile?seconds=2">profile</a></p>'
    )
    return (
        "<!doctype html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        f"{refresh}<title>repro ops dashboard</title>"
        f"<style>{_CSS}</style></head><body>"
        f"<h1>repro ops dashboard</h1>"
        f'<p class="muted">{subtitle}</p>'
        f"{''.join(section for section in sections if section)}"
        f"{links}"
        "</body></html>"
    )
