"""MEM bench: Section 5.1's 16|V| + 8|E| compact graph index, against
the arrays a mapped snapshot actually keeps."""

from repro.experiments.memory import run_memory

from conftest import as_float, run_report


def test_memory_footprint_formula(benchmark):
    report = run_report(benchmark, run_memory)
    assert len(report.rows) == 9  # 3 datasets x 3 scales
    for row in report.rows:
        # 16 B per node as in the paper; 26 B per combined edge (both
        # directions, float64 weights, flags) against its 8.
        ratio = as_float(row[5])
        assert 1.0 < ratio <= 26 / 8, f"{row[0]} measured {ratio}x 16V+8E"
