"""CLI entry point: ``python -m repro.experiments [ids...]``."""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import REGISTRY
from repro.experiments.common import _BENCH_CACHE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=(
            "Regenerate the paper's tables and figures on the synthetic "
            "datasets (--list names the experiments)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (or 'all'); see --list",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiment ids"
    )
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        for name in REGISTRY:
            print(name)
        return 0

    names = list(REGISTRY) if args.experiments == ["all"] else args.experiments
    unknown = [name for name in names if name not in REGISTRY]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(REGISTRY)}", file=sys.stderr)
        return 2

    for name in names:
        start = time.perf_counter()
        cached = len(_BENCH_CACHE)
        report = REGISTRY[name]()
        print(report.render())
        # Benches are cached: the ones added here are the ones it built.
        built = ", ".join(
            f"{dataset}@{scale:g} {bench.build_seconds:.2f}s"
            for (dataset, scale), bench in list(_BENCH_CACHE.items())[cached:]
        )
        built = f"; built {built}" if built else ""
        print(f"[{name} took {time.perf_counter() - start:.1f}s{built}]")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
