"""FIG5 bench: the sample-query table (paper Figure 5).

Ten profile-matched queries over the three datasets; prints the full
table (MI/SI, SI/Bidir ratios, absolute times, Sparse-LB) and asserts
the coarse shape: MI/SI > 1 on the multi-keyword rows in aggregate, and
Sparse-LB present on every row.
"""

import math

from repro.experiments.fig5 import run_fig5

from conftest import as_float, run_report


def measured(cell: str) -> bool:
    """A ratio cell holds a number, not "-" or why it has none."""
    try:
        as_float(cell)
    except ValueError:
        return False
    return True


def test_fig5_sample_query_table(benchmark):
    report = run_report(benchmark, run_fig5)
    assert len(report.rows) == 10

    populated = [row for row in report.rows if row[1] != "-"]
    assert len(populated) >= 8, "most profiles must instantiate"

    # Aggregate shape: across queries with 3+ keywords, MI is slower
    # than SI (the paper's order-of-magnitude claim, relaxed to the
    # geometric mean > 1 at our scale).
    multi = [
        as_float(row[4])
        for row in populated
        if measured(row[4]) and row[1].count(",") >= 2
    ]
    assert multi, "need multi-keyword rows"
    geomean = math.exp(sum(math.log(r) for r in multi) / len(multi))
    assert geomean > 1.0

    # Sparse-LB executed on every populated row.
    assert all("(" in row[11] for row in populated)
