"""Apply the ledger's bounds to two sets of runs.

    python ledger/compare.py A.jsonl B.jsonl

``A`` is the parent, ``B`` the change; each file holds the records
``run.py --out`` appended.  Run every workload ten times per side, each
time with another ``--seed``, alternating which side runs first: this
box's speed drifts by 20 % over minutes, and only interleaved sides see
the same drift.  Every end-to-end metric x workload gets one row and one
verdict under the issue's bound for it, whether the driver gates on the
metric or it was demoted (``metrics.py``):

``pass``        B's median is no worse than A's by more than the bound
``regressed``   it is worse by more than the bound, and by more than the
                run-to-run spread
``unresolved``  the spread (distance between the quartiles over the
                median, the wider of the two sides) exceeds the bound, so
                the runs cannot tell — not the same as unchanged

Per-layer records (``--trace 1`` runs) are listed below with their
change and no verdict: they carry no bound.  Exit code 1 if any row
regressed.
"""

import json
import statistics
import sys
from collections import defaultdict

import metrics as m


def load(path: str) -> dict:
    """``{(trace, workload): {metric: [values...]}}``"""
    table = defaultdict(lambda: defaultdict(list))
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            cells = table[(record["trace"], record["workload"])]
            for name, cell in record["metrics"].items():
                if cell["value"] is not None:
                    cells[name].append(cell["value"])
    return table


def spread(values) -> float:
    """Quartile distance over the median; 0 for fewer than two runs."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0


def worse_by(row: dict, a: float, b: float) -> float:
    """B's shortfall against A as a share of A (negative = better)."""
    if a == 0:
        return 0.0
    change = (b - a) / abs(a)
    return change if row["better"] == "lower" else -change


def verdict(row: dict, a_values, b_values) -> tuple[str, float, float]:
    shortfall = worse_by(row, statistics.median(a_values), statistics.median(b_values))
    noise = max(spread(a_values), spread(b_values))
    if shortfall > row["bound"]:
        return ("regressed" if shortfall > noise else "unresolved"), shortfall, noise
    return ("pass" if noise <= row["bound"] else "unresolved"), shortfall, noise


def compare(a: dict, b: dict) -> tuple[list[str], int]:
    lines, regressed = [], 0
    header = f"{'workload':16} {'metric':22} {'A median':>12} {'B median':>12} " \
             f"{'worse by':>9} {'spread':>8} {'bound':>6}  verdict"
    lines += ["end-to-end", header]
    workloads = sorted({workload for trace, workload in a if trace == 0})
    for workload in workloads:
        cells_a, cells_b = a[(0, workload)], b.get((0, workload), {})
        for row in m.end_to_end(workload):
            name = row["name"]
            if not cells_a.get(name) or not cells_b.get(name):
                continue
            if "bound" not in row:  # must be zero
                worst = max(cells_b[name])
                outcome = "pass" if worst == 0 else "regressed"
                lines.append(
                    f"{workload:16} {name:22} {max(cells_a[name]):12.4f} "
                    f"{worst:12.4f} {'':9} {'':8} {'=0':>6}  {outcome}"
                )
            else:
                outcome, shortfall, noise = verdict(row, cells_a[name], cells_b[name])
                lines.append(
                    f"{workload:16} {name:22} {statistics.median(cells_a[name]):12.4f} "
                    f"{statistics.median(cells_b[name]):12.4f} {shortfall:+9.1%} "
                    f"{noise:8.1%} {row['bound']:6.0%}  {outcome}"
                    f"{'' if row in m.BOUNDED else '  (demoted)'}"
                )
            regressed += outcome == "regressed"
    traced = sorted({workload for trace, workload in a if trace == 1})
    if traced:
        lines += ["", "per-layer (no bound, no verdict)",
                  f"{'workload':16} {'metric':34} {'A median':>14} {'B median':>14} "
                  f"{'change':>8}"]
    for workload in traced:
        cells_a, cells_b = a[(1, workload)], b.get((1, workload), {})
        for row in m.PER_LAYER:
            name = row["name"]
            if not cells_a.get(name) or not cells_b.get(name):
                continue
            mid_a = statistics.median(cells_a[name])
            mid_b = statistics.median(cells_b[name])
            change = (mid_b - mid_a) / abs(mid_a) if mid_a else 0.0
            lines.append(
                f"{workload:16} {name:34} {mid_a:14.4f} {mid_b:14.4f} {change:+8.1%}"
            )
    return lines, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    lines, regressed = compare(load(argv[0]), load(argv[1]))
    print("\n".join(lines))
    print(f"\n{regressed} row(s) regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
