/**
 * @file
 * The observability layer (src/obs/): the trace-event JSON schema is
 * pinned byte-for-byte by a golden virtual-clock document, wall spans
 * render balanced B/E pairs with sorted keys, the tracer survives
 * concurrent emission from many threads without losing or corrupting
 * events, disabled mode allocates no buffers and records nothing, and
 * the metrics registry counts correctly under contention and dumps
 * valid JSON / Prometheus text. The shared JSON writer prints doubles
 * in its two formats and escapes keys, and every exit sink reports a
 * failed write.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/sketch.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "support/json.h"
#include "support/percentile.h"
#include "support/rng.h"

using namespace tilus;

namespace {

/** Count non-overlapping occurrences of `needle` in `text`. */
int
countOf(const std::string &text, const std::string &needle)
{
    int n = 0;
    for (size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size()))
        ++n;
    return n;
}

class TracerTest : public ::testing::Test
{
  protected:
    void SetUp() override { obs::Tracer::instance().disable(); }
    void TearDown() override { obs::Tracer::instance().disable(); }
};

} // namespace

// The golden document: every key, the key order, the timestamp format,
// the metadata blocks, and the event sort are all part of the schema
// that tools/check_trace.py and external viewers (Perfetto) consume.
// A change that breaks this test breaks every recorded trace.
TEST_F(TracerTest, GoldenVirtualTraceIsPinned)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable("unused-golden.json");
    tracer.setMetadata("build_info", "test");

    int pid = tracer.virtualProcess("sim");
    ASSERT_EQ(pid, 2);
    tracer.virtualBegin(pid, "serving", "step", 0.0,
                        json::Object().add("batch", int64_t{4}));
    tracer.asyncBegin(pid, "request", "req 0", 7, 0.5);
    tracer.virtualCounter(pid, "kv_used_tokens", 1.0, 3.0);
    tracer.asyncInstant(pid, "request", "first-token", 7, 1.25);
    tracer.asyncEnd(pid, "request", "req 0", 7, 2.0);
    tracer.virtualEnd(pid, "serving", "step", 2.0);

    const std::string expected =
        "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"build_info\":"
        "\"test\"},\"traceEvents\":[\n"
        "{\"args\":{\"name\":\"tilus (wall clock)\"},\"cat\":"
        "\"__metadata\",\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
        "\"tid\":0,\"ts\":0.000},\n"
        "{\"args\":{\"name\":\"sim (virtual clock)\"},\"cat\":"
        "\"__metadata\",\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
        "\"tid\":0,\"ts\":0.000},\n"
        "{\"args\":{\"name\":\"thread 0\"},\"cat\":\"__metadata\","
        "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"ts\":0.000},\n"
        "{\"args\":{\"batch\":4},\"cat\":\"serving\",\"name\":\"step\","
        "\"ph\":\"B\",\"pid\":2,\"tid\":0,\"ts\":0.000},\n"
        "{\"cat\":\"request\",\"id\":\"7\",\"name\":\"req 0\",\"ph\":"
        "\"b\",\"pid\":2,\"tid\":0,\"ts\":500.000},\n"
        "{\"args\":{\"value\":3},\"cat\":\"serving\",\"name\":"
        "\"kv_used_tokens\",\"ph\":\"C\",\"pid\":2,\"tid\":0,"
        "\"ts\":1000.000},\n"
        "{\"cat\":\"request\",\"id\":\"7\",\"name\":\"first-token\","
        "\"ph\":\"n\",\"pid\":2,\"tid\":0,\"ts\":1250.000},\n"
        "{\"cat\":\"request\",\"id\":\"7\",\"name\":\"req 0\",\"ph\":"
        "\"e\",\"pid\":2,\"tid\":0,\"ts\":2000.000},\n"
        "{\"cat\":\"serving\",\"name\":\"step\",\"ph\":\"E\",\"pid\":2,"
        "\"tid\":0,\"ts\":2000.000}\n"
        "]}\n";
    EXPECT_EQ(tracer.document(), expected);
}

TEST_F(TracerTest, WallSpanEmitsBalancedPairWithArgs)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable("unused-span.json");
    {
        obs::Span span("opt", "my-pass");
        EXPECT_TRUE(span.live());
        span.arg("kernel", "k0").arg("changed", true);
    }
    EXPECT_EQ(tracer.eventCount(), 2);
    const std::string doc = tracer.document();
    EXPECT_NE(doc.find("\"cat\":\"opt\",\"name\":\"my-pass\",\"ph\":"
                       "\"B\",\"pid\":1"),
              std::string::npos);
    // Args ride on the E event; Perfetto merges them into the slice.
    EXPECT_NE(doc.find("{\"args\":{\"kernel\":\"k0\",\"changed\":true},"
                       "\"cat\":\"opt\",\"name\":\"my-pass\",\"ph\":"
                       "\"E\",\"pid\":1"),
              std::string::npos);
}

TEST_F(TracerTest, JsonStringsAreEscaped)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable("unused-escape.json");
    {
        obs::Span span("sim", "quote\"back\\slash\nline");
        span.arg("why", std::string("tab\there"));
    }
    const std::string doc = tracer.document();
    EXPECT_NE(doc.find("quote\\\"back\\\\slash\\nline"),
              std::string::npos);
    EXPECT_NE(doc.find("tab\\there"), std::string::npos);
}

TEST_F(TracerTest, ConcurrentSpansSurviveAndBalance)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable("unused-stress.json");
    obs::Registry registry;
    obs::Counter &hits = registry.counter("stress_hits_total");

    constexpr int kThreads = 8;
    constexpr int kSpansPerThread = 200;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kSpansPerThread; ++i) {
                obs::Span span("sim", "work-" + std::to_string(t));
                span.arg("i", static_cast<int64_t>(i));
                hits.add();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(tracer.eventCount(), kThreads * kSpansPerThread * 2);
    EXPECT_EQ(tracer.droppedEvents(), 0);
    EXPECT_GE(tracer.threadBufferCount(), kThreads);
    EXPECT_EQ(hits.value(), kThreads * kSpansPerThread);

    const std::string doc = tracer.document();
    EXPECT_EQ(countOf(doc, "\"ph\":\"B\""),
              kThreads * kSpansPerThread);
    EXPECT_EQ(countOf(doc, "\"ph\":\"E\""),
              kThreads * kSpansPerThread);
    // Every thread got its own track with a thread_name metadata block.
    EXPECT_GE(countOf(doc, "\"name\":\"thread_name\""), kThreads);
}

TEST_F(TracerTest, DisabledModeRecordsNothingAndAllocatesNoBuffers)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    ASSERT_FALSE(tracer.enabled());
    {
        obs::Span span("opt", "should-not-exist");
        EXPECT_FALSE(span.live());
        span.arg("ignored", int64_t{1});
    }
    tracer.virtualBegin(1, "serving", "no", 0.0);
    tracer.virtualCounter(1, "no", 0.0, 0.0);
    tracer.asyncBegin(1, "request", "no", 1, 0.0);
    EXPECT_EQ(tracer.virtualProcess("no"), 0);
    EXPECT_EQ(tracer.eventCount(), 0);
    EXPECT_EQ(tracer.threadBufferCount(), 0);
    EXPECT_EQ(tracer.droppedEvents(), 0);
}

TEST_F(TracerTest, EnableResetsVirtualPidsAndBuffers)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable("unused-a.json");
    EXPECT_EQ(tracer.virtualProcess("one"), 2);
    EXPECT_EQ(tracer.virtualProcess("two"), 3);
    tracer.virtualBegin(2, "serving", "x", 0.0);
    tracer.virtualEnd(2, "serving", "x", 1.0);
    EXPECT_EQ(tracer.eventCount(), 2);
    tracer.enable("unused-b.json");
    EXPECT_EQ(tracer.eventCount(), 0);
    EXPECT_EQ(tracer.virtualProcess("fresh"), 2);
}

TEST(Metrics, CounterBasics)
{
    obs::Registry registry;
    obs::Counter &c = registry.counter("ops_total");
    c.add();
    c.add(4);
    EXPECT_EQ(c.value(), 5);
    EXPECT_EQ(registry.counterValue("ops_total"), 5);
    EXPECT_EQ(registry.counterValue("absent_total"), 0);
    // Get-or-create returns the same handle.
    EXPECT_EQ(&registry.counter("ops_total"), &c);
}

TEST(Metrics, JsonDumpIsSortedAndStable)
{
    obs::Registry registry;
    registry.counter("b_total").add(2);
    registry.counter("a_total").add(1);
    EXPECT_EQ(registry.toJson(),
              "{\"counters\":{\"a_total\":1,\"b_total\":2}}");
}

TEST(Metrics, PrometheusDumpHasTypedFamilies)
{
    obs::Registry registry;
    registry.counter("hits_total").add(7);
    EXPECT_EQ(registry.toPrometheus(),
              "# TYPE tilus_hits_total counter\ntilus_hits_total 7\n");
}

TEST(Metrics, ConcurrentCountingLosesNothing)
{
    obs::Registry registry;
    obs::Counter &c = registry.counter("contended_total");
    constexpr int kThreads = 8;
    constexpr int kIters = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kIters; ++i)
                c.add();
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(c.value(), kThreads * kIters);
}

TEST(Metrics, ZeroAllForTestKeepsHandles)
{
    obs::Registry registry;
    obs::Counter &c = registry.counter("z_total");
    c.add(9);
    registry.zeroAllForTest();
    EXPECT_EQ(c.value(), 0);
    c.add(1);
    EXPECT_EQ(registry.counterValue("z_total"), 1);
}

TEST(Metrics, KeysAreEscaped)
{
    obs::Registry registry;
    registry.counter("a\"b\\").add(1);
    EXPECT_EQ(registry.toJson(),
              "{\"counters\":{\"a\\\"b\\\\\":1}}");
}

// ----------------------------------------------------------- json writer

TEST(Json, DoublesHaveExactlyTwoFormats)
{
    EXPECT_EQ(json::exact(0.1), "0.1");
    EXPECT_EQ(json::exact(100.0), "100");
    EXPECT_EQ(json::exact(1e15), "1e+15");
    EXPECT_EQ(json::exact(NAN), "0");
    EXPECT_EQ(json::num(1234567.0), "1.23457e+06");
}

TEST(Json, ObjectQuotesKeysAndPlacesCommas)
{
    EXPECT_EQ(json::Object().str(), "{}");
    EXPECT_EQ(json::Object()
                  .add("s", "x\ny")
                  .add("i", int64_t{-3})
                  .add("u", uint64_t{18446744073709551615u})
                  .add("d", 0.5)
                  .add("b", false)
                  .raw("a", "[1,2]")
                  .str(),
              "{\"s\":\"x\\ny\",\"i\":-3,\"u\":18446744073709551615,"
              "\"d\":0.5,\"b\":false,\"a\":[1,2]}");
}

// The exit sinks share one write path: each flush reports a full disk
// instead of claiming success.
TEST(Sinks, EveryDocumentReportsAFailedWrite)
{
    if (::access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "/dev/full does not exist here";
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable("/dev/full");
    EXPECT_FALSE(tracer.flush());
    tracer.disable();

    obs::ProfileSink &sink = obs::ProfileSink::instance();
    sink.enable("/dev/full");
    EXPECT_FALSE(sink.flush());
    sink.disable();

    EXPECT_FALSE(obs::Registry().writeFile("/dev/full"));
}

TEST(BuildInfo, ProvenanceIsStamped)
{
    EXPECT_STRNE(obs::gitDescribe(), "");
    EXPECT_STRNE(obs::compilerVersion(), "");
    const std::string line = obs::buildInfo();
    EXPECT_NE(line.find("cache format v"), std::string::npos);
    const std::string json = obs::buildInfoJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"git\":"), std::string::npos);
    EXPECT_NE(json.find("\"compiler_revision\":1"), std::string::npos);
    EXPECT_NE(json.find("\"cache_format_version\":1"),
              std::string::npos);
    EXPECT_NE(json.find("\"tune_db_version\":2"), std::string::npos);
}

// ---------------------------------------------------------------- sketch

namespace {

/** Relative distance of sketch estimate `got` from exact `want`. */
double
relErr(double got, double want)
{
    return want != 0 ? std::fabs(got - want) / std::fabs(want)
                     : std::fabs(got);
}

/** Standard normal via Box-Muller over the deterministic Rng. */
double
nextGaussian(Rng &rng)
{
    const double u1 = 1.0 - rng.nextDouble(); // (0, 1]
    const double u2 = rng.nextDouble();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * 3.14159265358979323846 * u2);
}

} // namespace

TEST(Sketch, TailsWithinRelativeBoundOfExactPercentile)
{
    // The sketch's contract, checked against the exact-reference
    // implementation in support/percentile.h on heavy-tailed and
    // exponential samples (1e5 each): every reported tail is within
    // the configured relative accuracy (plus a hair of interpolation
    // slop — percentile() interpolates between adjacent order
    // statistics, the sketch reports bucket estimates).
    constexpr int kSamples = 100000;
    constexpr double kAlpha = 0.01;
    const double kSlop = kAlpha + 0.002;
    {
        Rng rng(2026);
        obs::QuantileSketch sketch(kAlpha);
        std::vector<double> exact;
        exact.reserve(kSamples);
        for (int i = 0; i < kSamples; ++i) {
            const double v = std::exp(0.5 + nextGaussian(rng));
            sketch.add(v);
            exact.push_back(v);
        }
        std::sort(exact.begin(), exact.end());
        for (double pct : {50.0, 95.0, 99.0}) {
            const double want = percentileOfSorted(exact, pct);
            EXPECT_LE(relErr(sketch.quantile(pct), want), kSlop)
                << "lognormal p" << pct;
        }
        EXPECT_EQ(sketch.count(), kSamples);
        EXPECT_DOUBLE_EQ(sketch.min(), exact.front());
        EXPECT_DOUBLE_EQ(sketch.max(), exact.back());
    }
    {
        Rng rng(7);
        obs::QuantileSketch sketch(kAlpha);
        std::vector<double> exact;
        exact.reserve(kSamples);
        for (int i = 0; i < kSamples; ++i) {
            const double v = rng.nextExponential(250.0);
            sketch.add(v);
            exact.push_back(v);
        }
        std::sort(exact.begin(), exact.end());
        for (double pct : {50.0, 95.0, 99.0}) {
            const double want = percentileOfSorted(exact, pct);
            EXPECT_LE(relErr(sketch.quantile(pct), want), kSlop)
                << "exponential p" << pct;
        }
    }
}

TEST(Sketch, MergeOfShardsEqualsPooledBitExact)
{
    // Shard-merged == pooled, byte-for-byte in the JSON. Samples are
    // dyadic rationals with bounded magnitude so every partial sum is
    // exactly representable — fp addition is associative here and the
    // exact running sums agree regardless of shard split.
    constexpr int kSamples = 3000;
    obs::QuantileSketch pooled;
    obs::QuantileSketch shard[3];
    for (int k = 0; k < kSamples; ++k) {
        const double v = (1.0 + static_cast<double>(k % 1024) / 1024.0) *
                         static_cast<double>(1 << (k % 7));
        pooled.add(v);
        shard[k % 3].add(v);
    }
    obs::QuantileSketch merged;
    for (const obs::QuantileSketch &s : shard)
        merged.merge(s);
    EXPECT_EQ(merged.toJson(), pooled.toJson());
    EXPECT_EQ(merged.count(), pooled.count());
    EXPECT_DOUBLE_EQ(merged.sum(), pooled.sum());
    for (double pct : {0.0, 50.0, 95.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(merged.quantile(pct), pooled.quantile(pct));
}

TEST(Sketch, ZerosEmptyAndSingletonBehave)
{
    obs::QuantileSketch empty;
    EXPECT_EQ(empty.count(), 0);
    EXPECT_DOUBLE_EQ(empty.quantile(50), 0.0);
    EXPECT_DOUBLE_EQ(empty.mean(), 0.0);

    // All-zero samples must report exactly 0 tails (the serving
    // queue-wait metric is frequently all zeros at low load).
    obs::QuantileSketch zeros;
    for (int i = 0; i < 10; ++i)
        zeros.add(0.0);
    EXPECT_DOUBLE_EQ(zeros.quantile(50), 0.0);
    EXPECT_DOUBLE_EQ(zeros.quantile(99), 0.0);
    EXPECT_EQ(zeros.zeroCount(), 10);

    // A lone sample reports itself exactly: the bucket estimate is
    // clamped to the observed [min, max].
    obs::QuantileSketch one;
    one.add(123.456);
    for (double pct : {0.0, 50.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(one.quantile(pct), 123.456);

    // Mixed: zeros occupy the low ranks, positives the high ones.
    obs::QuantileSketch mixed;
    for (int i = 0; i < 90; ++i)
        mixed.add(0.0);
    for (int i = 0; i < 10; ++i)
        mixed.add(1000.0);
    EXPECT_DOUBLE_EQ(mixed.quantile(50), 0.0);
    EXPECT_DOUBLE_EQ(mixed.quantile(99), 1000.0);
}

TEST(Sketch, StorageBoundedByDynamicRangeNotCount)
{
    // O(1) per sample and O(log(max/min)/alpha) total: 2e5 samples
    // spanning seven decades must not allocate more than the bucket
    // count the range dictates (~ ln(1e7)/ln(gamma) ~ 800 at 1%).
    Rng rng(42);
    obs::QuantileSketch sketch(0.01);
    for (int i = 0; i < 200000; ++i)
        sketch.add(1e-3 * std::pow(10.0, rng.nextDouble() * 7.0));
    EXPECT_EQ(sketch.count(), 200000);
    EXPECT_LT(sketch.allocatedBuckets(), 900);
    EXPECT_GT(sketch.nonEmptyBuckets(), 100);
}

TEST(Sketch, GoldenJsonIsPinned)
{
    // alpha = 0.25 -> gamma = 5/3: index(1.0) = 0, index(2.0) = 2.
    obs::QuantileSketch sketch(0.25);
    sketch.add(1.0);
    sketch.add(2.0);
    sketch.add(0.0);
    EXPECT_EQ(sketch.toJson(),
              "{\"alpha\":0.25,\"count\":3,\"zero_count\":1,\"sum\":3,"
              "\"min\":0,\"max\":2,\"buckets\":[[0,1],[2,1]]}");
}

// ------------------------------------------------------------ timeseries

TEST(TimeSeries, WindowsAccumulateAndNormalize)
{
    obs::TimeSeries series(10.0);
    using Kind = obs::TimeSeries::Kind;
    const int rate = series.channel("rate", Kind::kRatePerSec);
    const int events = series.channel("events", Kind::kCount);
    const int depth = series.channel("depth", Kind::kMean);
    series.add(rate, 1.0, 5);
    series.add(rate, 12.0, 10);
    series.add(events, 3.0, 1);
    series.add(events, 25.0, 2);
    series.integrate(depth, 0.0, 5.0, 2.0);   // 10 units into w0
    series.integrate(depth, 15.0, 25.0, 3.0); // 15 into w1, 15 into w2
    series.finalize(25.0);

    ASSERT_EQ(series.windows(), 3);
    // Rates normalize per second over the window actually covered.
    EXPECT_DOUBLE_EQ(series.value(rate, 0), 500.0);
    EXPECT_DOUBLE_EQ(series.value(rate, 1), 1000.0);
    EXPECT_DOUBLE_EQ(series.value(rate, 2), 0.0);
    // Counts stay raw.
    EXPECT_DOUBLE_EQ(series.value(events, 0), 1.0);
    EXPECT_DOUBLE_EQ(series.value(events, 2), 2.0);
    // Means divide the integral by the effective window (the last
    // window only spans [20, 25)).
    EXPECT_DOUBLE_EQ(series.value(depth, 0), 1.0);
    EXPECT_DOUBLE_EQ(series.value(depth, 1), 1.5);
    EXPECT_DOUBLE_EQ(series.value(depth, 2), 3.0);
    EXPECT_EQ(series.toJson(),
              "{\"window_ms\":10,\"windows\":3,"
              "\"rate\":[500,1000,0],"
              "\"events\":[1,0,2],"
              "\"depth\":[1,1.5,3]}");
}

TEST(TimeSeries, MergeAddsWindowsAndExtends)
{
    obs::TimeSeries a(10.0);
    obs::TimeSeries b(10.0);
    using Kind = obs::TimeSeries::Kind;
    const int ar = a.channel("rate", Kind::kRatePerSec);
    const int br = b.channel("rate", Kind::kRatePerSec);
    const int bp = b.channel("preempt", Kind::kCount);
    a.add(ar, 5.0, 10);
    a.finalize(10.0);
    b.add(br, 15.0, 30);
    b.add(bp, 2.0, 1);
    b.finalize(20.0);

    a.merge(b);
    ASSERT_EQ(a.windows(), 2);
    EXPECT_DOUBLE_EQ(a.value(ar, 0), 1000.0); // 10 tokens over 10 ms
    EXPECT_DOUBLE_EQ(a.value(ar, 1), 3000.0); // other's window rides in
    // The channel only one side had is created on demand.
    const int ap = a.channel("preempt", Kind::kCount);
    EXPECT_DOUBLE_EQ(a.value(ap, 0), 1.0);

    // Merging into a disabled series adopts the other wholesale.
    obs::TimeSeries disabled;
    disabled.merge(b);
    EXPECT_TRUE(disabled.enabled());
    EXPECT_EQ(disabled.windows(), 2);
}

TEST(TimeSeries, ChannelNamesAreEscaped)
{
    obs::TimeSeries series(10.0);
    const int ch =
        series.channel("a\"b\\", obs::TimeSeries::Kind::kCount);
    series.add(ch, 1.0, 2);
    series.finalize(10.0);
    EXPECT_EQ(series.toJson(),
              "{\"window_ms\":10,\"windows\":1,\"a\\\"b\\\\\":[2]}");
}

TEST(TimeSeries, DisabledIsInertAndSerializesEmpty)
{
    obs::TimeSeries series;
    EXPECT_FALSE(series.enabled());
    const int ch =
        series.channel("x", obs::TimeSeries::Kind::kCount);
    EXPECT_EQ(ch, -1);
    series.add(ch, 1.0, 1.0); // all mutators are no-ops
    series.finalize(100.0);
    EXPECT_EQ(series.windows(), 0);
    EXPECT_EQ(series.toJson(), "{\"window_ms\":0,\"windows\":0}");
}
