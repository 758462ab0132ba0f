"""Performance-trend gate: compare bench rows against a committed baseline.

The benches emit one JSON row per (experiment, mode) when
``BENCH_JSON_OUT`` is set (see ``benchmarks/conftest.py``).  This tool
reads that JSONL, normalizes each row's QPS by a *calibration row*
measured in the same run, and compares the resulting machine-portable
ratios against ``benchmarks/baseline.json``:

* **calibration** — raw QPS depends on the box (CI runners drift by
  2-3x), so absolute numbers cannot gate anything.  Each run instead
  divides every row's QPS by a calibration row,
  ``calibration/python-loop``: a fixed pure-Python loop of heap, dict
  and float work that runs no ``repro`` code (``conftest.py``).  Every
  gated bench module emits one at its start, and a row is divided by
  the calibration row that most recently preceded it in the JSONL, so
  the loop is timed within seconds of the rows it normalizes rather
  than minutes earlier.  The ratio "this row runs N x the loop's rate
  *on this machine*" is stable across hardware; a >20% drop in it is
  a real relative regression, not a slower runner.  The loop runs no
  ``repro`` code on purpose: a calibration row that searched would
  cancel a uniform engine speed-up or regression out of every search
  row;
* **tolerance** — a row regresses when its normalized ratio falls more
  than ``tolerance`` (default 0.20) below the baseline's.  Faster is
  never an error (the report suggests a baseline refresh instead);
* **ratio gates** — the baseline may carry ``ratio_gates``: hard
  floors on the ratio of two rows *from the same run* (e.g. an
  optimized arm must stay >= 1.5x the QPS of the arm it replaces).
  Ratios of same-run rows need no
  calibration — the machine factor cancels — so these are absolute
  bars, not drift-tolerant comparisons, and they fail the run the
  moment an optimization rots;
* **history** — every run appends ``{commit, ts, rows}`` to a history
  file (default ``BENCH_history.json``, CI keeps it as an artifact) so
  trends are reconstructable without re-running old commits.

Usage::

    BENCH_JSON_OUT=rows.jsonl python benchmarks/bench_service_throughput.py
    BENCH_JSON_OUT=rows.jsonl python benchmarks/bench_telemetry_overhead.py
    python benchmarks/perf_trend.py --rows rows.jsonl --commit "$(git rev-parse HEAD)"

Exit status 1 on any regression; ``--update-baseline`` rewrites the
baseline from the current rows instead of gating (run it on the same
``REPRO_SCALE`` the CI job uses, then commit the file).
"""

import argparse
import json
import sys
import time
from pathlib import Path

from conftest import CALIBRATION

#: Rows are compared per (experiment, mode); only rows carrying this
#: metric participate.
METRIC = "qps"

DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"
DEFAULT_HISTORY = Path("BENCH_history.json")


def load_rows(path: Path) -> list[tuple[tuple[str, str], float]]:
    """JSONL -> ``[((experiment, mode), qps), ...]`` in file order."""
    rows: list[tuple[tuple[str, str], float]] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        experiment = row.get("experiment")
        mode = row.get("mode")
        value = row.get(METRIC)
        if experiment and mode and isinstance(value, (int, float)) and value > 0:
            rows.append(((str(experiment), str(mode)), float(value)))
    return rows


def normalize(
    rows: list[tuple[tuple[str, str], float]], calibration: tuple[str, str]
) -> dict[tuple[str, str], float]:
    """Divide every row by the calibration row that most recently
    preceded it (last row of a key wins)."""
    normalized: dict[tuple[str, str], float] = {}
    cal = None
    for key, value in rows:
        if key == calibration:
            cal = value
        elif cal is None:
            raise SystemExit(
                f"row {'/'.join(key)} precedes every calibration row "
                f"{'/'.join(calibration)} in the bench output; each gated "
                f"bench module emits one at its start"
            )
        normalized[key] = value / cal
    if cal is None:
        raise SystemExit(
            f"calibration row {'/'.join(calibration)} missing from the "
            f"bench output"
        )
    return normalized


def compare(
    current: dict[tuple[str, str], float],
    baseline: dict[tuple[str, str], float],
    tolerance: float,
) -> tuple[list[str], list[str]]:
    """Returns (report lines, regression lines)."""
    lines: list[str] = []
    regressions: list[str] = []
    for key in sorted(baseline):
        name = "/".join(key)
        base = baseline[key]
        now = current.get(key)
        if now is None:
            regressions.append(f"{name}: row missing from this run")
            continue
        change = now / base - 1.0
        verdict = "ok"
        if change < -tolerance:
            verdict = "REGRESSION"
            regressions.append(
                f"{name}: normalized ratio {now:.3f} is {-change:.1%} below "
                f"the baseline {base:.3f} (tolerance {tolerance:.0%})"
            )
        elif change > tolerance:
            verdict = "faster (consider --update-baseline)"
        lines.append(
            f"  {name:40s} base {base:10.3f}  now {now:10.3f}  "
            f"({change:+.1%}) {verdict}"
        )
    for key in sorted(set(current) - set(baseline)):
        lines.append(
            f"  {'/'.join(key):40s} (new row, not in baseline — "
            f"run --update-baseline to start tracking it)"
        )
    return lines, regressions


def check_ratio_gates(
    raw: dict[tuple[str, str], float], gates: list[dict]
) -> tuple[list[str], list[str]]:
    """Enforce ``ratio_gates`` on the *raw* rows (calibration cancels).

    Each gate: ``{"name", "numerator": "experiment/mode",
    "denominator": "experiment/mode", "min_ratio": float}``.
    """
    lines: list[str] = []
    regressions: list[str] = []
    for gate in gates:
        name = str(gate.get("name", "unnamed-gate"))
        num_key = tuple(str(gate.get("numerator", "")).split("/", 1))
        den_key = tuple(str(gate.get("denominator", "")).split("/", 1))
        floor = float(gate.get("min_ratio", 0.0))
        num = raw.get(num_key) if len(num_key) == 2 else None
        den = raw.get(den_key) if len(den_key) == 2 else None
        if not num or not den:
            missing = "/".join(num_key if not num else den_key)
            regressions.append(f"{name}: row {missing} missing from this run")
            continue
        ratio = num / den
        verdict = "ok" if ratio >= floor else "BELOW FLOOR"
        lines.append(
            f"  {name:40s} ratio {ratio:10.2f}  floor {floor:.2f}  {verdict}"
        )
        if ratio < floor:
            regressions.append(
                f"{name}: {'/'.join(num_key)} is only {ratio:.2f}x "
                f"{'/'.join(den_key)} (floor {floor:.2f}x)"
            )
    return lines, regressions


def append_history(
    path: Path, commit: str, rows: dict[tuple[str, str], float]
) -> None:
    history = []
    if path.exists():
        try:
            history = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            history = []
    if not isinstance(history, list):
        history = []
    history.append(
        {
            "commit": commit,
            "ts": time.time(),
            "rows": {"/".join(key): value for key, value in sorted(rows.items())},
        }
    )
    path.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rows", type=Path, required=True, help="JSONL from BENCH_JSON_OUT"
    )
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--history", type=Path, default=DEFAULT_HISTORY)
    parser.add_argument("--commit", default="unknown")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="override the baseline file's tolerance",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current rows instead of gating",
    )
    args = parser.parse_args(argv)

    raw = load_rows(args.rows)
    if not raw:
        print(f"no usable rows in {args.rows}", file=sys.stderr)
        return 1

    if args.update_baseline:
        calibration = CALIBRATION
        normalized = normalize(raw, calibration)
        # Ratio gates are policy, not measurements — carry them over.
        gates = []
        if args.baseline.exists():
            try:
                old = json.loads(args.baseline.read_text(encoding="utf-8"))
                gates = old.get("ratio_gates") or []
            except (json.JSONDecodeError, OSError):
                gates = []
        payload = {
            "calibration": list(calibration),
            "tolerance": args.tolerance if args.tolerance is not None else 0.20,
            "ratio_gates": gates,
            "rows": {
                "/".join(key): value for key, value in sorted(normalized.items())
            },
        }
        args.baseline.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        # First runs used to leave the history file unwritten (the
        # early return skipped append_history), so trend charts lost
        # their very first point — the one every later run is compared
        # against.  Record it on every path.
        append_history(args.history, args.commit, normalized)
        print(f"baseline rewritten: {args.baseline}")
        return 0

    if not args.baseline.exists():
        append_history(
            args.history,
            args.commit,
            normalize(raw, CALIBRATION),
        )
        print(
            f"no baseline at {args.baseline}; run with --update-baseline "
            f"first (this run's rows were still appended to "
            f"{args.history})",
            file=sys.stderr,
        )
        return 1
    base_doc = json.loads(args.baseline.read_text(encoding="utf-8"))
    calibration = tuple(base_doc.get("calibration") or ())
    if len(calibration) != 2:
        print(f"malformed baseline {args.baseline}", file=sys.stderr)
        return 1
    tolerance = (
        args.tolerance
        if args.tolerance is not None
        else float(base_doc.get("tolerance", 0.20))
    )
    baseline = {
        tuple(key.split("/", 1)): float(value)
        for key, value in (base_doc.get("rows") or {}).items()
    }
    normalized = normalize(raw, calibration)
    append_history(args.history, args.commit, normalized)

    lines, regressions = compare(normalized, baseline, tolerance)
    gate_lines, gate_regressions = check_ratio_gates(
        dict(raw), base_doc.get("ratio_gates") or []
    )
    regressions.extend(gate_regressions)
    print(
        f"perf-trend vs {args.baseline.name} "
        f"(calibration {'/'.join(calibration)}, tolerance {tolerance:.0%}):"
    )
    print("\n".join(lines))
    if gate_lines:
        print("ratio gates (raw same-run ratios, hard floors):")
        print("\n".join(gate_lines))
    if regressions:
        print("\nREGRESSIONS:", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
