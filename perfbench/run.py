#!/usr/bin/env python3
"""End-to-end benchmark of the Tilus reproduction.

    python3 perfbench/run.py --workload cold-engine|warm-serve|spectrum \\
        --seed N --seconds T --trace 0|1

Builds perfbench/ (the library from src/ plus tilus_perfbench) into
.bench_build/perfbench on first use, then runs the workload in child
processes, each with a private TILUS_CACHE_DIR that is removed afterwards.

--trace 0 times the workload: several set-ups (setup_s is their median),
then the timed operation repeated for T seconds, and prints every
end-to-end metric. --trace 1 runs one untimed operation and one replayed
operation with per-layer spans, checks that the replay reproduced the
untimed run byte for byte, and prints every per-layer metric.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics. The line before it records the settings and build. Exits
non-zero, without a result, when the build or a child process fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

WORKLOADS = ("cold-engine", "warm-serve", "spectrum")
# Set-ups per run; warm-serve's each fill a cache (seconds each).
SETUPS = {"cold-engine": 9, "warm-serve": 3, "spectrum": 9}
# The max-rate ladder: a rung passes when at least SHARE of the requests
# sent meet both latency limits (kTtftLimitMs, kTpotLimitMs in workloads.cc).
SHARE = 0.9
MAX_COMPILE_THREADS = 4
CHILD_TIMEOUT_S = 170
OPTIMIZED_BUILDS = ("Release", "RelWithDebInfo")
CLEARED_ENV = ("TILUS_FAULTS", "TILUS_TRACE", "TILUS_METRICS",
               "TILUS_PROFILE", "TILUS_CACHE", "TILUS_CACHE_DIR",
               "TILUS_COMPILE_THREADS")

BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "tilus_perfbench"


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def compile_threads():
    return max(1, min(MAX_COMPILE_THREADS, os.cpu_count() or 1))


def build():
    """Configure (once) and build the benchmark from source."""
    if not (ROOT / "src").is_dir():
        raise BenchError(f"no Tilus sources at {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def environment(cache_dir):
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["TILUS_COMPILE_THREADS"] = str(compile_threads())
    env["TILUS_CACHE_DIR"] = str(cache_dir)
    return env


def spawn(workload, mode, seed, seconds, cache_dir, scratch, extra=()):
    """Run one child process and return its JSON result."""
    out = scratch / f"{cache_dir.name}-{mode}.json"
    cmd = [str(BINARY), workload, "--mode", mode, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--out", str(out), *extra,
           "--spawn-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, env=environment(cache_dir),
                          stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} exited with {proc.returncode}")
    result = json.loads(out.read_text())
    build_type = result["build"]["build_type"]
    if build_type not in OPTIMIZED_BUILDS:
        raise BenchError(f"refusing a non-optimized build ({build_type})")
    return result


def tree_digest(path):
    """relative path -> sha256 of every file under path except kernel
    artifacts, which the once and replay children digest themselves."""
    return {str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.rglob("*"))
            if p.is_file() and p.suffix != ".lirk"}


def summary(workload, seed, outcome, first):
    """The line before the result: settings, build and failure share."""
    serving = first["serving"]
    return {"workload": workload, "seed": seed,
            "env_cleared": CLEARED_ENV,
            "TILUS_COMPILE_THREADS": compile_threads(),
            "TILUS_CACHE_DIR": "private per process, removed afterwards",
            "ladder": {"ttft_limit_ms": serving["ttft_limit_ms"],
                       "tpot_limit_ms": serving["tpot_limit_ms"],
                       "share": SHARE},
            "failed_frac": stats.failed_frac(outcome.failed,
                                             outcome.attempted),
            "build": first["build"]}


class Outcome:
    """Counts of attempted and failed operations, plus why things failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, result):
        for op in result["ops"]:
            self.attempted += int(op["attempted"])
            self.failed += int(op["failed"])
        self.failed += int(result["failed"])
        self.errors += result["errors"]

    def fail(self, why):
        self.failed += 1
        self.errors.append(why)


def model_metrics(result, outcome):
    """The modeled (virtual-clock) end-to-end metrics of one result."""
    head = result["serving"]["headline"]
    m = {"model.kernel_us_geomean": stats.geomean(result["kernel_us"]),
         "model.goodput_req_s": head["goodput_req_s"],
         "model.throughput_tok_s": head["throughput_tok_s"],
         "model.ttft_ms_p50": head["ttft_ms_p50"],
         "model.tpot_ms_p50": head["tpot_ms_p50"]}
    for key in ("ttft", "tpot"):
        p99 = stats.tail(head[f"{key}_ms_p99"], head[f"{key}_count"], 99)
        if p99 is None:
            outcome.fail(f"{key} p99 has fewer than "
                         f"{stats.MIN_TAIL_SAMPLES} samples beyond it")
        m[f"model.{key}_ms_p99"] = p99
    rate = stats.max_rate(result["serving"]["rungs"], SHARE)
    if rate is None:
        outcome.fail("no ladder rung meets the latency limits")
    m["model.max_rate_rps"] = rate
    return m


def timed(workload, seed, seconds, scratch):
    """--trace 0: set-ups, then the timed operation for `seconds`."""
    outcome = Outcome()
    setups = []
    for i in range(SETUPS[workload]):
        r = spawn(workload, "setup", seed, seconds, scratch / f"setup-{i}",
                  scratch)
        setups.append(r)
    runs = []
    start = time.monotonic()
    while True:
        # warm-serve runs on the last set-up's filled cache; the others
        # need an empty one per process.
        cache = (scratch / f"setup-{len(setups) - 1}"
                 if workload == "warm-serve" else scratch / f"run-{len(runs)}")
        left = max(seconds - (time.monotonic() - start), 0.0)
        runs.append(spawn(workload, "run", seed, left, cache, scratch))
        if time.monotonic() - start >= seconds:
            break
    for r in runs:
        outcome.add(r)
        if r["digests"] != runs[0]["digests"]:
            outcome.fail("repeated runs of one seed differ")
    # Means over the whole timed phase: load from other tenants of a
    # shared host comes and goes over seconds, and a mean over the phase
    # averages it where the fastest op would chase it.
    walls = [op["wall_s"] for r in runs for op in r["ops"]]
    metrics = {
        "setup_s": stats.median([r["setup_s"] for r in setups]),
        "wall_s": sum(walls) / len(walls),
        "ops_per_s": outcome.attempted / sum(walls),
        "peak_rss_mb": max(r["rss_mb"] for r in setups + runs),
    }
    metrics.update(model_metrics(runs[0], outcome))
    return outcome, with_units(metrics, "end_to_end"), runs[0]


def replayed(workload, seed, scratch):
    """One untimed operation and one replayed operation; returns the
    outcome, both results and the replay's spans."""
    outcome = Outcome()
    plain_cache, replay_cache = scratch / "plain", scratch / "replay"
    if workload == "warm-serve":
        for cache in (plain_cache, replay_cache):
            spawn(workload, "setup", seed, 0, cache, scratch)
    plain = spawn(workload, "once", seed, 0, plain_cache, scratch)
    span_file = scratch / "spans.jsonl"
    replay = spawn(workload, "replay", seed, 0, replay_cache, scratch,
                   ("--spans", str(span_file)))
    outcome.add(plain)
    outcome.add(replay)
    if plain["digests"] != replay["digests"]:
        outcome.fail("replay changed winners, outputs or serving reports")
    if tree_digest(plain_cache) != tree_digest(replay_cache):
        outcome.fail("replay wrote different cache artifacts")
    spans = stats.Spans([json.loads(line) for line in
                         span_file.read_text().splitlines()])
    return outcome, plain, replay, spans


def traced(workload, seed, scratch):
    """--trace 1: every per-layer metric of the replay."""
    outcome, plain, replay, spans = replayed(workload, seed, scratch)
    metrics = stats.layer_metrics(spans, replay["serving"])
    metrics["obs.trace_overhead_frac"] = (
        replay["ops"][0]["wall_s"] / plain["ops"][0]["wall_s"] - 1)
    return outcome, with_units(metrics, "per_layer"), plain


def with_units(metrics, section):
    """{name: {value, unit}} with the units BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec[section]}
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def scratch_dir(workload, seed):
    path = ROOT / ".bench_build" / "runs" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
        scratch = scratch_dir(args.workload, args.seed)
        try:
            if args.trace:
                outcome, metrics, first = traced(args.workload, args.seed,
                                                 scratch)
            else:
                outcome, metrics, first = timed(args.workload, args.seed,
                                                args.seconds, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as e:
        log(f"error: {e}")
        return 2

    for why in outcome.errors:
        log(f"failure: {why}")
    print(json.dumps(summary(args.workload, args.seed, outcome, first)))
    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
