#!/usr/bin/env python3
"""Compare fresh --json bench reports against committed baselines.

Usage:
    tools/bench_check.py --baseline BENCH_fig15_scaleout.json \
        --fresh fresh.json [--threshold 0.25] [--metrics bytes_shipped,elapsed_sec]

--baseline/--fresh may be repeated to check several bench reports in one
invocation; the i-th baseline is compared against the i-th fresh report
(so `--baseline A.json --fresh a.json --baseline B.json --fresh b.json`
checks A vs a and B vs b). Threshold and metrics apply to every pair.

Within a pair, cells are matched on (query, strategy, sites, transport) —
transport defaults to "sim" when absent, so simulated-mesh cells are only
ever compared against simulated-mesh baselines and real-TCP cells against
TCP baselines (loopback sockets and the simulator price a byte
differently; cross-transport ratios are meaningless). A metric regresses
when
    fresh > baseline * (1 + threshold)
for any matched cell whose baseline value is meaningful (> 0 — a few bytes
or microseconds of baseline would turn scheduling noise into failures).
Exit status: 0 = no regression, 1 = regression found, 2 = usage/IO error.

CI runs this as a non-blocking step and uploads the JSON files as
artifacts, so a regression leaves an inspectable trail even when the step
is advisory. Timings on shared runners are noisy, and so are some byte
counts: a Baseline cell's bytes_shipped is fixed by the data up to a few
bytes (replays, and result frames that follow arrival order), but a
cost-based AIP cell's bytes depend on when its filters arrive, i.e. on how
far each producer had streamed by then.

--hard-only switches to the blocking mode: only the columnar hot-path
cells in HARD_FLOOR_CELLS are checked, each on its throughput metric, and
any drop beyond the threshold exits 1. CI runs this as a separate step
WITHOUT continue-on-error — the columnar speedups are a contract, not an
advisory.
"""

import argparse
import json
import sys

# Below these floors a relative comparison amplifies noise, not signal.
MEANINGFUL_FLOOR = {
    "bytes_shipped": 4096,      # bytes
    "elapsed_sec": 0.005,       # seconds
    "peak_state_mb": 0.01,      # MB
    "p50_ms": 0.5,              # milliseconds
    "p99_ms": 0.5,              # milliseconds
    "qps": 1.0,                 # queries/second
    "metric_mean": 1.0,         # bench-specific throughput (rows/s etc.)
}

# Most metrics are costs (lower is better); throughput metrics invert: a
# regression is fresh *dropping* below baseline * (1 - threshold).
HIGHER_IS_BETTER = {"qps", "metric_mean"}

# The columnar hot-path cells gated with --hard-only: the typed filter
# kernel, the zero-transpose v2 encode, the cross-batch dictionary stream,
# and the scale-out reshard's typed gather + statistics. These are the
# cells the columnar Batch redesign bought its speedup on; a >threshold
# throughput drop here fails the (blocking) CI step, unlike the advisory
# full comparison.
HARD_FLOOR_CELLS = {
    ("filter_pipeline", "vectorized"): "metric_mean",
    ("wire_roundtrip", "v2_columnar"): "metric_mean",
    ("wire_stream", "dict_stream"): "metric_mean",
    ("partition_catalog", "gather"): "metric_mean",
}

# Semantic counter floors applied to matched *fresh* cells regardless of
# the baseline's values: these counters record that a mechanism actually
# engaged (a checkpoint was cut, a restore happened), so a fresh report
# where they collapse to zero means the cell silently degenerated into a
# different experiment — fail it even when every timing looks fine.
COUNTER_FLOOR_CELLS = {
    ("Q17-scaleout", "Cost-based+kill-stateful"): {
        "fragment_restarts": 1,
        "checkpoints_taken": 1,
        "checkpoint_bytes": 1,
        "state_recoveries": 1,
    },
}


def load_cells(path):
    """Loads a report's cells keyed by (query, strategy, sites, transport).

    Malformed input — unreadable file, invalid JSON, a non-object report,
    a missing/empty/non-list "cells", non-object cells, or cells missing
    their identifying keys — exits 2 with a clear message instead of
    tracebacking: CI treats exit 2 as "the comparison never ran".
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_check: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(report, dict):
        print(f"bench_check: {path}: top-level JSON is "
              f"{type(report).__name__}, expected an object",
              file=sys.stderr)
        sys.exit(2)
    cells = report.get("cells")
    if not isinstance(cells, list) or not cells:
        print(f"bench_check: {path} has no cells", file=sys.stderr)
        sys.exit(2)
    loaded = {}
    for i, c in enumerate(cells):
        if not isinstance(c, dict):
            print(f"bench_check: {path}: cells[{i}] is "
                  f"{type(c).__name__}, expected an object",
                  file=sys.stderr)
            sys.exit(2)
        missing = [k for k in ("query", "strategy") if k not in c]
        if missing:
            print(f"bench_check: {path}: cells[{i}] is missing key(s) "
                  f"{', '.join(missing)}", file=sys.stderr)
            sys.exit(2)
        # "sites" is legitimately absent for single-site benchmarks, and
        # "transport" for anything predating (or not using) the TCP
        # backend — both of which mean the simulated mesh.
        loaded[(c["query"], c["strategy"], c.get("sites"),
                c.get("transport", "sim"))] = c
    return loaded


def check_pair(baseline_path, fresh_path, metrics, threshold,
               hard_only=False):
    """Compares one (baseline, fresh) report pair.

    With hard_only, only the HARD_FLOOR_CELLS are compared, each on its
    designated metric. Returns (matched_cell_count, regression list).
    Exits 2 on malformed input, like load_cells.
    """
    baseline = load_cells(baseline_path)
    fresh = load_cells(fresh_path)
    matched = 0
    regressions = []
    print(f"== {baseline_path} vs {fresh_path}")
    print(f"{'cell':<44} {'metric':<14} {'baseline':>12} {'fresh':>12} "
          f"{'ratio':>7}")
    for key, base_cell in sorted(baseline.items(), key=str):
        if hard_only and (key[0], key[1]) not in HARD_FLOOR_CELLS:
            continue
        fresh_cell = fresh.get(key)
        if fresh_cell is None:
            continue  # sweep shapes may differ (e.g. fewer sites in CI)
        matched += 1
        name = f"{key[0]}/{key[1]}/sites={key[2]}"
        if key[3] != "sim":
            name += f"/{key[3]}"
        cell_metrics = ([HARD_FLOOR_CELLS[(key[0], key[1])]] if hard_only
                        else metrics)
        for metric in cell_metrics:
            base = base_cell.get(metric)
            new = fresh_cell.get(metric)
            if not isinstance(base, (int, float)) or \
               not isinstance(new, (int, float)):
                continue
            floor = MEANINGFUL_FLOOR.get(metric, 0)
            ratio = (new / base) if base > 0 else float("inf") if new else 1.0
            flag = ""
            if metric in HIGHER_IS_BETTER:
                regressed = base > floor and new < base * (1.0 - threshold)
            else:
                regressed = base > floor and new > base * (1.0 + threshold)
            if regressed:
                regressions.append((name, metric, base, new, ratio))
                flag = "  << REGRESSION"
            print(f"{name:<44} {metric:<14} {base:>12.6g} {new:>12.6g} "
                  f"{ratio:>7.2f}{flag}")
    # Counter floors are fresh-side-only: they assert the mechanism the
    # cell exists to measure actually fired, independent of the baseline.
    if not hard_only:
        for key, cell in sorted(fresh.items(), key=str):
            floors = COUNTER_FLOOR_CELLS.get((key[0], key[1]))
            if not floors:
                continue
            name = f"{key[0]}/{key[1]}/sites={key[2]}"
            if key[3] != "sim":
                name += f"/{key[3]}"
            for metric, floor in sorted(floors.items()):
                val = cell.get(metric, 0)
                if not isinstance(val, (int, float)):
                    val = 0
                flag = ""
                if val < floor:
                    regressions.append((name, metric, floor, val, 0.0))
                    flag = "  << BELOW FLOOR"
                print(f"{name:<44} {metric:<14} {'>=' + str(floor):>12} "
                      f"{val:>12.6g} {'':>7}{flag}")
    if matched == 0:
        print(f"bench_check: no cells matched between {baseline_path} and "
              f"{fresh_path}", file=sys.stderr)
        sys.exit(2)
    return matched, regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, action="append",
                        help="committed report; repeatable, paired with the "
                             "--fresh at the same position")
    parser.add_argument("--fresh", required=True, action="append",
                        help="fresh report; repeatable")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed relative growth (default 0.25 = +25%%)")
    parser.add_argument("--metrics", default="bytes_shipped,elapsed_sec",
                        help="comma-separated cell fields to compare")
    parser.add_argument("--hard-only", action="store_true",
                        help="check only the columnar hot-path floor cells "
                             "(see HARD_FLOOR_CELLS); meant for a blocking "
                             "CI gate, exits 1 on any drop > threshold")
    args = parser.parse_args()

    if len(args.baseline) != len(args.fresh):
        print(f"bench_check: {len(args.baseline)} --baseline but "
              f"{len(args.fresh)} --fresh; they pair positionally",
              file=sys.stderr)
        sys.exit(2)
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]

    matched = 0
    regressions = []
    for baseline_path, fresh_path in zip(args.baseline, args.fresh):
        pair_matched, pair_regressions = check_pair(
            baseline_path, fresh_path, metrics, args.threshold,
            hard_only=args.hard_only)
        matched += pair_matched
        regressions.extend(pair_regressions)

    if regressions:
        print(f"\nbench_check: {len(regressions)} regression(s) beyond "
              f"+{args.threshold * 100:.0f}%:", file=sys.stderr)
        for name, metric, base, new, ratio in regressions:
            print(f"  {name} {metric}: {base:g} -> {new:g} ({ratio:.2f}x)",
                  file=sys.stderr)
        sys.exit(1)
    print(f"\nbench_check: OK — {matched} cells within +"
          f"{args.threshold * 100:.0f}% on {', '.join(metrics)}")


if __name__ == "__main__":
    main()
