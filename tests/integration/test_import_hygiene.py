"""Import hygiene: what a server or spawned worker pays before serving.

Prestige comes out of the snapshot in every serving process, so scipy
(only ``prestige_transition_matrix`` uses it) must not load with the
package: it costs ~17 MiB of resident memory and ~150 ms per process,
times every worker the fleet spawns.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def _run(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=SRC,  # "" on sys.path resolves here: the checkout, not an install
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_serving_stack_imports_without_scipy():
    done = _run(
        "import repro.cluster.http, sys; assert 'scipy' not in sys.modules, "
        "sorted(m for m in sys.modules if m.startswith('scipy'))[:5]"
    )
    assert done.returncode == 0, done.stderr


def test_prestige_still_computes_and_is_what_loads_scipy():
    done = _run(
        "import sys\n"
        "from repro.graph import DataGraph, compute_prestige\n"
        "g = DataGraph(); a = g.add_node('a'); b = g.add_node('b'); g.add_edge(a, b)\n"
        "assert 'scipy' not in sys.modules\n"
        "p = compute_prestige(g.freeze())\n"
        "assert abs(float(p.sum()) - 1.0) < 1e-9 and 'scipy.sparse' in sys.modules\n"
    )
    assert done.returncode == 0, done.stderr
