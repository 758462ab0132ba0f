"""The ledger: one command that measures the real HTTP -> fleet -> engine stack.

    python ledger/run.py [--workload W] [--seed N] [--seconds S]
                         [--traced] [--quick] [--out FILE]

For each workload it builds a synthetic DBLP dataset, starts the real
server as a subprocess (``ledger/serve.py``), drives it closed-loop
from this one process, checks every answer against an in-process
reference, and prints every metric by name with its unit.  The last
stdout line of each workload is one JSON object — ``correct``,
``attempted``, ``failed``, ``metrics`` — holding the bounded end-to-end
metrics (tracing off) or, with ``--traced`` (the driver spells it
``--trace 1``), the per-layer metrics.

See ``ledger/README.md`` for the workloads, the metric tables and the
layer -> end-to-end map.
"""

import argparse
import json
import os
import statistics
import sys
import time

from stack import OUT_DIR, SCRUBBED_ENV, SRC_DIR, run_supervised, scratch_dir

#: Set-ups per run; ``setup_s`` is their median and the last one is measured.
#: The driver's contract asks for several: ``setup_s`` is the one timing it
#: bounds, and one set-up per run moves with the VM's speed steps.
SETUP_REPEATS = 3
DEFAULT_SECONDS = 15  # BENCHMARK.json's run_seconds


def prepare_imports() -> None:
    """Measure this checkout's ``src/``, never an installed copy."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        sys.exit(f"ledger: no source tree at {SRC_DIR}; nothing to measure")
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    # Spawn-context workers of in-process fleets inherit sys.path.
    sys.path.insert(0, str(SRC_DIR))


# ----------------------------------------------------------------------
# end-to-end run (tracing off)
# ----------------------------------------------------------------------
def run_end_to_end(name: str, seed: int, seconds: float, setups: int) -> dict:
    import metrics as m
    import workloads as w

    spec = w.SPECS[name]
    world = w.World(spec, seed)
    tally = w.Tally()
    setup_seconds, stack, extra = [], None, {}
    with scratch_dir() as workroot:
        try:
            for attempt in range(setups):
                if stack is not None:
                    stack.close()
                began = time.perf_counter()
                stack = w.Stack(world, workroot / f"setup-{attempt}")
                stack.prefill(tally)
                setup_seconds.append(time.perf_counter() - began)
            measure = {
                "cycle": w.measure_cycles,
                "fleet": w.measure_mutating if spec.wal else w.measure_searches,
                "thread": w.measure_searches,
            }[spec.tier]
            wall = measure(stack, tally, seconds)
            server = stack.server
            if spec.wal:
                extra = w.crash_and_verify(stack, tally)  # kills `server`
        finally:
            if stack is not None:
                stack.close()

    samples = tally.samples
    searches = samples["search"]
    values = {
        "peak_rss_mb": server.peak_rss_mb,
        "setup_s": statistics.median(setup_seconds),
        "search_p50_ms": statistics.median(searches),
        "search_p95_ms": m.percentile(searches, 95),
        "search_ops_per_s": len(searches) / wall,
        "failed_frac": tally.failed / tally.attempted,
        "acked_lost": extra.get("acked_lost", 0),
    }
    if spec.wal:
        values["mutate_p50_ms"] = statistics.median(samples["mutate"])
        values["mutate_p90_ms"] = m.percentile(samples["mutate"], 90)
        values["visible_p50_ms"] = statistics.median(samples["visible"])
    if spec.tier == "cycle":
        values["load_ram_p50_ms"] = statistics.median(samples["load_ram"])
        values["load_mapped_p50_ms"] = statistics.median(samples["load_mapped"])
        values["first_answer_p50_ms"] = statistics.median(samples["first_answer"])
    return {
        "workload": name,
        "seed": seed,
        "trace": 0,
        "seconds": seconds,
        "wall_s": wall,
        "restart_s": extra.get("restart_s"),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "samples": {kind: len(values_) for kind, values_ in samples.items()},
        "metrics": {
            row["name"]: {"value": values[row["name"]], "unit": row["unit"]}
            for row in m.end_to_end(name)
        },
    }


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def print_result(result: dict) -> None:
    import metrics as m

    kind = "per-layer (traced)" if result["trace"] else "end-to-end (tracing off)"
    print(f"== {result['workload']}  seed={result['seed']}  {kind} ==")
    notes = {}
    if not result["trace"]:
        for row in m.end_to_end(result["workload"]):
            if "bound" not in row:
                notes[row["name"]] = "  [must be 0]"
            elif row in m.BOUNDED:
                notes[row["name"]] = f"  [bound {row['bound']:.0%}]"
            else:
                notes[row["name"]] = f"  [bound {row['bound']:.0%}; demoted]"
    width = max(len(name) for name in result["metrics"])
    for name, cell in result["metrics"].items():
        value = cell["value"]
        if value is None:
            shown = f"null  # {cell['reason']}"
        elif isinstance(value, int):
            shown = str(value)
        else:
            shown = f"{value:.6g}"
        print(f"{name.ljust(width)}  {shown} {cell['unit']}{notes.get(name, '')}")
    print(
        f"samples: {result['samples']}  attempted={result['attempted']} "
        f"failed={result['failed']}"
    )


def result_line(result: dict) -> str:
    """The driver's line: numbers only, and only the metrics it bounds
    (end-to-end; the demoted ones are in the table above it and in
    ``--out``) or records (per-layer)."""
    import metrics as m

    cells = result["metrics"]
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                row["name"]: {
                    "value": (
                        m.UNAVAILABLE
                        if cells[row["name"]]["value"] is None
                        else cells[row["name"]]["value"]
                    ),
                    "unit": row["unit"],
                }
                for row in (m.PER_LAYER if result["trace"] else m.BOUNDED)
            },
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None, help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: the per-layer run; 0 (default): end-to-end, tracing off",
    )
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smoke run: ~1/20 of the work"
    )
    parser.add_argument(
        "--out", default=str(OUT_DIR / "runs.jsonl"),
        help="append one JSON record per run here (input of compare.py)",
    )
    args = parser.parse_args(argv)
    prepare_imports()
    import workloads as w

    names = [args.workload] if args.workload else list(w.SPECS)
    for name in names:
        if name not in w.SPECS:
            parser.error(f"unknown workload {name!r}; expected one of {list(w.SPECS)}")
    # Forks: no process of the run is alive when this command returns.
    return run_supervised(lambda: run_workloads(names, args))


def run_workloads(names, args) -> int:
    seconds = args.seconds / 20.0 if args.quick else args.seconds
    setups = 1 if args.quick else SETUP_REPEATS
    OUT_DIR.mkdir(exist_ok=True)
    for name in names:
        if args.trace:
            import layers

            result = layers.run_traced(name, args.seed, quick=args.quick)
        else:
            result = run_end_to_end(name, args.seed, seconds, setups)
        with open(args.out, "a") as handle:
            handle.write(json.dumps(result) + "\n")
        print_result(result)
        print(result_line(result), flush=True)
    # Exit 0 even when answers were wrong: the verdict is the line's
    # ``correct`` field, which the driver can only read from a clean exit.
    return 0


if __name__ == "__main__":
    sys.exit(main())
