"""Arithmetic of the end-to-end benchmark, free of I/O so that
test_stats.py can check it: percentiles with a tail-sample rule, the
geometric mean, the max-rate ladder, the failure share, and the per-layer
aggregation of a replay's spans."""

import math
from collections import defaultdict

# A tail percentile is reported only when at least this many samples lie
# beyond it.
MIN_TAIL_SAMPLES = 10

OPT_PASSES = ("pipeline-cpasync", "sync-elim", "addr-hoist", "dead-tensor")


def percentile(samples, q):
    """Linearly interpolated q-th percentile (0 <= q <= 100) of samples,
    or None when there are none."""
    if not samples:
        return None
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(count, q):
    """How many of `count` samples lie beyond their q-th percentile."""
    return count - math.ceil(count * q / 100.0)


def tail(value, count, q):
    """`value` (the q-th percentile of `count` samples) if enough samples
    lie beyond it to trust it, else None."""
    if samples_beyond(count, q) < MIN_TAIL_SAMPLES:
        return None
    return value


def tail_percentile(samples, q):
    """percentile() under the tail rule: None unless at least
    MIN_TAIL_SAMPLES samples lie beyond the q-th percentile."""
    if tail(0, len(samples), q) is None:
        return None
    return percentile(samples, q)


def geomean(values):
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geometric mean of no values")
    if any(v <= 0 or not math.isfinite(v) for v in values):
        raise ValueError("geometric mean needs finite positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def max_rate(rungs, share):
    """Highest offered rate whose rung had at least `share` of the
    requests sent meet both latency limits; rungs are dicts with
    rate_rps, sent and met. None when no rung qualifies."""
    passing = [r["rate_rps"] for r in rungs
               if r["sent"] > 0 and r["met"] >= share * r["sent"]]
    return max(passing) if passing else None


def failed_frac(failed, attempted):
    """Share of attempted operations that failed."""
    if attempted <= 0:
        raise ValueError("no operations attempted")
    return failed / attempted


def median(values):
    return percentile(values, 50)


class Spans:
    """The spans of one replay, grouped by name. Each span is a dict with
    name, start_ns, end_ns, parent, thread and value."""

    def __init__(self, spans):
        self.spans = spans
        self.by_name = defaultdict(list)
        for s in spans:
            self.by_name[s["name"]].append(s)

    def count(self, name):
        return len(self.by_name[name])

    def durations_ms(self, name):
        return [(s["end_ns"] - s["start_ns"]) / 1e6 for s in self.by_name[name]]

    def ms(self, *names):
        """Busy time summed over threads."""
        return sum(sum(self.durations_ms(n)) for n in names)

    def values(self, *names):
        return [s["value"] for n in names for s in self.by_name[n]]

    def mean(self, *names):
        v = self.values(*names)
        return sum(v) / len(v) if v else 0.0

    def unattributed_ms(self, root="replay.op"):
        """Time of the root span not covered by its direct children."""
        total = 0.0
        for i, s in enumerate(self.spans):
            if s["name"] != root:
                continue
            covered = sum(c["end_ns"] - c["start_ns"] for c in self.spans
                          if c["parent"] == i and c["thread"] == s["thread"])
            total += (s["end_ns"] - s["start_ns"] - covered) / 1e6
        return total


def or_zero(value):
    return 0.0 if value is None else value


def layer_metrics(spans, serving):
    """Every per-layer metric from a replay's spans and its serving block.
    A percentile that the tail rule withholds, and every metric of a layer
    that did no work, is 0."""
    s = spans
    m = {
        "kernels.build.calls": s.count("kernels.build"),
        "kernels.build.ms": s.ms("kernels.build"),
        "compiler.lower.calls": s.count("compiler.lower"),
        "compiler.lower.ms": s.ms("compiler.lower"),
        "compiler.lower.ms_p50": or_zero(
            percentile(s.durations_ms("compiler.lower"), 50)),
        "compiler.lower.ms_p99": or_zero(
            tail_percentile(s.durations_ms("compiler.lower"), 99)),
        "compiler.lir_ops_mean": s.mean("compiler.lir_ops"),
    }
    for p in OPT_PASSES:
        m[f"opt.{p}.ms"] = s.ms(f"opt.{p}")
        m[f"opt.{p}.changed_frac"] = s.mean(f"opt.{p}")
    payloads = s.values("cache.serialize")
    m.update({
        "cache.fingerprint.ms": s.ms("cache.fingerprint"),
        "cache.serialize.ms": s.ms("cache.serialize"),
        "cache.deserialize.ms": s.ms("cache.deserialize"),
        "cache.store.ms": s.ms("cache.store.kernel", "cache.store.tune"),
        "cache.load.ms": s.ms("cache.load.kernel", "cache.load.tune"),
        "cache.payload_kib_mean":
            sum(payloads) / len(payloads) / 1024 if payloads else 0.0,
        "cache.disk_hit_frac": s.mean("cache.load.kernel"),
        "cache.tune_db_hit_frac": s.mean("cache.load.tune"),
        "runtime.get.calls": s.count("runtime.get"),
        "runtime.mem_hit_frac": s.mean("runtime.get"),
        "sim.decode.calls": s.count("sim.decode"),
        "sim.decode.ms": s.ms("sim.decode"),
        "sim.decode.ms_p50": or_zero(
            percentile(s.durations_ms("sim.decode"), 50)),
        "sim.trace.calls": s.count("sim.trace"),
        "sim.trace.ms": s.ms("sim.trace"),
        "sim.run.calls": s.count("sim.run"),
        "sim.run.ms": s.ms("sim.run"),
        "sim.fallbacks": sum(s.values("sim.decode", "sim.trace", "sim.run")),
        "sim.timing.ms": s.ms("sim.timing"),
        "autotune.sweeps_cold": s.values("autotune.sweep").count(0),
        "autotune.sweeps_warm": s.values("autotune.sweep").count(1),
        "autotune.candidates": sum(s.values("autotune.enumerate")),
        "autotune.enumerate.ms": s.ms("autotune.enumerate"),
        "llm.warmup.ms": s.ms("llm.warmup"),
        "serving.run.ms": s.ms("serving.run"),
    })
    head = serving["headline"]
    run_s = m["serving.run.ms"] / 1000
    m.update({
        "llm.step_lookups": serving["step_lookups"],
        "serving.steps": serving["steps"],
        "serving.steps_per_host_s":
            serving["steps"] / run_s if run_s > 0 else 0.0,
        "serving.preemptions": head["preemptions"],
        "serving.mean_decode_batch": head["mean_decode_batch"],
        "serving.mean_kv_used_frac": head["mean_kv_used_frac"],
        "serving.queue_wait_ms_p50": head["queue_wait_ms_p50"],
        "serving.queue_wait_ms_p99": or_zero(tail(
            head["queue_wait_ms_p99"], head["queue_wait_count"], 99)),
    })
    return m
