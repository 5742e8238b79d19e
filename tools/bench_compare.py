#!/usr/bin/env python3
"""Compare a freshly recorded BENCH_*.json against the committed baseline.

The perf-regression harness: every gate-relevant metric of the four
bench documents (opt / interp / compile / serving) is compared with a
per-metric direction and noise margin, a PASS/FAIL table is printed,
and the exit code is 1 when any metric regressed past its margin —
wired into CI after each bench smoke step so the perf trajectory
accumulates instead of drifting silently.

Margins reflect how each number is produced:
  * serving and opt numbers come off the deterministic virtual clock /
    modeled cost tables, so they get tight margins (regressions there
    are real code changes, not noise);
  * interp and compile numbers are host wall clock and can swing tens
    of percent between runners, so they get wide margins, alongside
    exact invariants (engine equivalence, warm-compile counts) that must
    never drift at all. Compile costs are gated as absolute cold-path
    times, not as warm/cold ratios: a faster cold path lowers the ratio
    and would fail a ratio gate.

Usage:
  bench_compare.py FRESH.json BASELINE.json

The bench family is inferred from the documents' "bench" key (the two
must match). A run present in the baseline but missing fresh is a
failure (coverage loss); a brand-new run is reported and passes.
Improvements always pass.
"""

import json
import sys

# metric spec: (dotted path, direction, margin)
#   direction "higher" -> fail if fresh < base * (1 - margin)
#   direction "lower"  -> fail if fresh > base * (1 + margin)
#   direction "equal"  -> fail if fresh != base (margin ignored)
SPECS = {
    "opt": {
        "run_key": ("kernel",),
        "metrics": [
            ("o0_total_us", "lower", 0.02),
            ("o2_total_us", "lower", 0.02),
            ("o2_pipelined", "equal", 0),
            ("o2_bar_syncs", "lower", 0.0),
            ("o0_serial_us", "lower", 0.02),
            ("o2_serial_us", "lower", 0.02),
            ("o0_dram_us", "lower", 0.02),
            ("o2_dram_us", "lower", 0.02),
            ("o0_bound", "equal", 0),  # roofline verdicts are modeled,
            ("o2_bound", "equal", 0),  # so they must replay exactly
        ],
    },
    "interp": {
        "run_key": ("kernel",),
        "metrics": [
            ("speedup", "higher", 0.50),  # wall clock: wide margin
            ("identical", "equal", 0),    # engines must agree exactly
            ("used_microops", "equal", 0),
        ],
        "doc_metrics": [
            # Armed-profiler A/B: byte identity is exact; the overhead
            # ratio is host wall clock, so only gross blowups are gated.
            ("profile_identical", "equal", 0),
            ("profile_overhead", "lower", 2.0),
        ],
    },
    "profile": {
        "run_key": ("kernel", "opt_level"),
        "metrics": [
            # Everything here comes off the deterministic cost model:
            # bounds exactly, component microseconds tight.
            ("main_loop_bound", "equal", 0),
            ("kernel_bound", "equal", 0),
            ("memory_bound", "equal", 0),
            ("total_us", "lower", 0.02),
            ("arith_intensity", "higher", 0.02),
            ("main_loop_components.dram_us", "lower", 0.02),
            ("main_loop_components.serial_us", "lower", 0.02),
            ("main_loop_components.tc_us", "lower", 0.02),
            ("main_loop_components.alu_us", "lower", 0.02),
            ("main_loop_components.smem_us", "lower", 0.02),
        ],
    },
    "compile": {
        "run_key": None,  # single-document bench: compare top level
        "metrics": [
            # Host wall clock: fail only past twice the baseline.
            ("operator_tune.cold_ms", "lower", 1.0),
            ("engine_tune.cold_ms", "lower", 1.0),
            ("operator_tune.warm_compiles", "equal", 0),
            ("operator_tune.cold_compiles", "equal", 0),
        ],
    },
    "serving": {
        "run_key": ("scheduler", "system", "model", "rate_rps"),
        "metrics": [
            ("completed", "equal", 0),  # deterministic virtual clock
            ("rejected", "equal", 0),
            ("failed", "equal", 0),          # fault outcomes are seeded,
            ("injected_faults", "equal", 0), # so they replay exactly
            ("availability", "higher", 0.0),
            ("throughput_tok_s", "higher", 0.01),
            ("goodput_req_s", "higher", 0.01),
            ("ttft_ms.p50", "lower", 0.01),
            ("ttft_ms.p99", "lower", 0.01),
            ("tpot_ms.p50", "lower", 0.01),
            ("latency_ms.p95", "lower", 0.01),
            ("mean_decode_batch", "higher", 0.01),
            ("mean_kv_used_frac", "higher", 0.01),
        ],
    },
}


def fail(msg):
    print(f"bench_compare: ERROR: {msg}", file=sys.stderr)
    sys.exit(2)


def lookup(doc, path):
    cur = doc
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            return None
        cur = cur[part]
    return cur


def run_id(run, keys):
    return " | ".join(str(run.get(k, "?")) for k in keys)


def collect_runs(doc, spec):
    """(id -> run dict); top-level doc counts as one run when run_key
    is None. Serving stress and fault-injection blocks ride along as
    their own runs."""
    if spec["run_key"] is None:
        return {"(top-level)": doc}
    runs = {}
    for run in doc.get("runs", []):
        runs[run_id(run, spec["run_key"])] = run
    stress = doc.get("stress", {}).get("report")
    if stress is not None:
        runs["stress | " + run_id(stress, spec["run_key"])] = stress
    faults = doc.get("faults", {}).get("report")
    if faults is not None:
        runs["faults | " + run_id(faults, spec["run_key"])] = faults
    return runs


def compare_metric(base, fresh, direction, margin):
    """-> (status, delta_str). status: 'pass' | 'FAIL' | 'skip'."""
    if base is None and fresh is None:
        return "skip", "-"
    if base is None:
        return "pass", "new metric"
    if fresh is None:
        return "FAIL", "metric vanished"
    if direction == "equal":
        ok = base == fresh
        return ("pass" if ok else "FAIL",
                "=" if ok else f"{base!r} -> {fresh!r}")
    try:
        base_v, fresh_v = float(base), float(fresh)
    except (TypeError, ValueError):
        return "FAIL", f"non-numeric: {base!r} -> {fresh!r}"
    delta = ((fresh_v - base_v) / base_v * 100.0) if base_v else 0.0
    delta_str = f"{delta:+.2f}%"
    if direction == "higher":
        ok = fresh_v >= base_v * (1.0 - margin)
    else:
        ok = fresh_v <= base_v * (1.0 + margin)
    return ("pass" if ok else "FAIL", delta_str)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    fresh_path, base_path = argv[1], argv[2]
    try:
        with open(fresh_path, encoding="utf-8") as f:
            fresh_doc = json.load(f)
        with open(base_path, encoding="utf-8") as f:
            base_doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load documents: {e}")

    bench = base_doc.get("bench")
    if bench != fresh_doc.get("bench"):
        fail(f"bench kinds differ: fresh={fresh_doc.get('bench')!r} "
             f"baseline={bench!r}")
    spec = SPECS.get(bench)
    if spec is None:
        fail(f"no comparison spec for bench {bench!r} "
             f"(known: {sorted(SPECS)})")

    base_runs = collect_runs(base_doc, spec)
    fresh_runs = collect_runs(fresh_doc, spec)

    rows = []
    failures = 0
    for rid, base_run in base_runs.items():
        fresh_run = fresh_runs.get(rid)
        if fresh_run is None:
            rows.append((rid, "(run)", "-", "-", "missing fresh", "FAIL"))
            failures += 1
            continue
        for path, direction, margin in spec["metrics"]:
            base_v = lookup(base_run, path)
            fresh_v = lookup(fresh_run, path)
            status, delta = compare_metric(base_v, fresh_v, direction,
                                           margin)
            if status == "skip":
                continue
            if status == "FAIL":
                failures += 1
            limit = ("==" if direction == "equal"
                     else f"{direction[0]}{margin * 100:.0f}%")
            rows.append((rid, path, _fmt(base_v), _fmt(fresh_v),
                         f"{delta} [{limit}]", status))
    for rid in fresh_runs:
        if rid not in base_runs:
            rows.append((rid, "(run)", "-", "-", "new run", "pass"))

    # Top-level document metrics (e.g. the interp profiler A/B), gated
    # the same way as per-run ones.
    for path, direction, margin in spec.get("doc_metrics", []):
        base_v = lookup(base_doc, path)
        fresh_v = lookup(fresh_doc, path)
        status, delta = compare_metric(base_v, fresh_v, direction,
                                       margin)
        if status == "skip":
            continue
        if status == "FAIL":
            failures += 1
        limit = ("==" if direction == "equal"
                 else f"{direction[0]}{margin * 100:.0f}%")
        rows.append(("(document)", path, _fmt(base_v), _fmt(fresh_v),
                     f"{delta} [{limit}]", status))

    widths = [max(len(str(row[i])) for row in rows + [_HDR])
              for i in range(6)]
    for row in [_HDR] + rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    verdict = "FAIL" if failures else "PASS"
    print(f"bench_compare[{bench}]: {verdict} "
          f"({len(rows)} comparisons, {failures} regressions) "
          f"fresh={fresh_path} baseline={base_path}")
    return 1 if failures else 0


_HDR = ("run", "metric", "baseline", "fresh", "delta [margin]", "status")


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
