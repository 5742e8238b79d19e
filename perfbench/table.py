#!/usr/bin/env python3
"""Per-layer baseline table of the traced runs.

    python3 perfbench/table.py [--seed N] [--workload W ...]

Runs the replay of each workload (as run.py --trace 1 does) and prints
markdown rows: per workload and span, the calls (the sample count of the
percentiles), the busy time summed over threads, the per-call p50 and p99
(p99 only when at least 10 samples lie beyond it), and the replayed
operation's unattributed remainder: its time outside every direct child
span.
"""

import argparse
import shutil
import sys

import run
import stats

# Zero-length records carry values, not time; they are not table rows.
POINTS = ("runtime.get", "compiler.lir_ops")


def rows(workload, spans):
    for name in sorted(spans.by_name):
        if name in POINTS or name == "replay.op":
            continue
        ms = spans.durations_ms(name)
        p99 = stats.tail_percentile(ms, 99)
        yield (f"| {workload} | {name} | {len(ms)} | {sum(ms):.1f} | "
               f"{stats.percentile(ms, 50):.3f} | "
               f"{'—' if p99 is None else f'{p99:.3f}'} |")
    op_ms = sum(spans.durations_ms("replay.op"))
    yield (f"| {workload} | unattributed | | {spans.unattributed_ms():.1f} "
           f"of {op_ms:.1f} | | |")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = parser.parse_args()
    run.build()
    print("| workload | span | calls | ms (summed over threads) | p50 ms "
          "| p99 ms |")
    print("| --- | --- | --- | --- | --- | --- |")
    ok = True
    for workload in args.workload or run.WORKLOADS:
        scratch = run.scratch_dir(workload, args.seed)
        try:
            outcome, _, _, spans = run.replayed(workload, args.seed, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        for why in outcome.errors:
            run.log(f"{workload} failure: {why}")
        ok &= outcome.failed == 0
        for row in rows(workload, spans):
            print(row, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
