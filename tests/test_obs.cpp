/**
 * @file
 * Unit tests for the observability layer: histograms, the metrics
 * registry, snapshots, JSON/CSV export and round-trip, the interval
 * time-series, the prefetch event trace, and the Machine-level wiring
 * (registered names, sampler, stat reset/reuse determinism).
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/machine.hh"
#include "obs/event_trace.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/timeseries.hh"
#include "trace/registry.hh"
#include "verify/sim_error.hh"
#include "test_util.hh"

namespace berti
{
namespace
{

using test::ScopedEnv;

using obs::Histogram;
using obs::IntervalSampler;
using obs::IntervalSeries;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::PfEvent;
using obs::PrefetchEventTrace;

// ------------------------------------------------------------- Histogram

TEST(Histogram, Log2BucketEdges)
{
    Histogram h = Histogram::log2();
    EXPECT_EQ(h.bucketLow(0), 0u);
    EXPECT_EQ(h.bucketHigh(0), 0u);   // bucket 0 holds exactly v == 0
    EXPECT_EQ(h.bucketLow(1), 1u);
    EXPECT_EQ(h.bucketHigh(1), 1u);
    EXPECT_EQ(h.bucketLow(4), 8u);    // [2^3, 2^4)
    EXPECT_EQ(h.bucketHigh(4), 15u);
}

TEST(Histogram, RecordAndMoments)
{
    Histogram h = Histogram::log2();
    h.record(0);
    h.record(1);
    h.record(100, 2);  // weight 2
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 201u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 201.0 / 4.0);
}

TEST(Histogram, LinearOverflowGoesToLastBucket)
{
    Histogram h = Histogram::linear(10, 4);  // [0,10) ... [30,inf)
    h.record(5);
    h.record(35);
    h.record(1000000);
    EXPECT_EQ(h.bucketWeight(0), 1u);
    EXPECT_EQ(h.bucketWeight(3), 2u);
    EXPECT_EQ(h.max(), 1000000u);
}

TEST(Histogram, PercentileMonotoneAndClamped)
{
    Histogram h = Histogram::log2();
    EXPECT_EQ(h.percentile(0.5), 0u);  // empty
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.record(v);
    std::uint64_t last = 0;
    for (double p = 0.0; p <= 1.0; p += 0.01) {
        std::uint64_t q = h.percentile(p);
        EXPECT_GE(q, last) << "p=" << p;
        last = q;
    }
    // Clamped to the observed range, not the bucket's nominal edge.
    EXPECT_GE(h.percentile(0.0), h.min());
    EXPECT_LE(h.percentile(1.0), h.max());
}

TEST(Histogram, MergeMatchesInterleavedRecording)
{
    Histogram a = Histogram::log2();
    Histogram b = Histogram::log2();
    Histogram both = Histogram::log2();
    for (std::uint64_t v = 0; v < 64; ++v) {
        (v % 2 ? a : b).record(v * v);
        both.record(v * v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_EQ(a.sum(), both.sum());
    EXPECT_EQ(a.min(), both.min());
    EXPECT_EQ(a.max(), both.max());
    for (unsigned i = 0; i < a.bucketCount(); ++i)
        EXPECT_EQ(a.bucketWeight(i), both.bucketWeight(i)) << i;
}

TEST(Histogram, MergeShapeMismatchThrows)
{
    Histogram a = Histogram::log2();
    Histogram b = Histogram::linear(10, 33);
    EXPECT_THROW(a.merge(b), verify::SimError);
}

TEST(Histogram, ResetClearsEverything)
{
    Histogram h = Histogram::log2();
    h.record(42);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.percentile(0.99), 0u);
}

TEST(Histogram, InvalidShapesThrow)
{
    EXPECT_THROW(Histogram::log2(0), verify::SimError);
    EXPECT_THROW(Histogram::linear(0, 4), verify::SimError);
    EXPECT_THROW(Histogram::linear(10, 0), verify::SimError);
}

TEST(Histogram, LinearBucketEdges)
{
    Histogram h = Histogram::linear(10, 4);
    EXPECT_EQ(h.bucketLow(2), 20u);
    EXPECT_EQ(h.bucketHigh(1), 19u);
    h.record(7);
    // Out-of-range p is clamped to [0, 1].
    EXPECT_EQ(h.percentile(-0.5), h.percentile(0.0));
    EXPECT_EQ(h.percentile(1.5), h.percentile(1.0));
}

TEST(MetricKind, NamesAreStable)
{
    EXPECT_STREQ(obs::metricKindName(obs::MetricKind::Counter),
                 "counter");
    EXPECT_STREQ(obs::metricKindName(obs::MetricKind::Gauge), "gauge");
    EXPECT_STREQ(obs::metricKindName(obs::MetricKind::Histogram),
                 "histogram");
}

// -------------------------------------------------------------- Registry

TEST(MetricsRegistry, CountersTrackLiveCells)
{
    std::uint64_t cell = 0;
    MetricsRegistry reg;
    reg.counter("x", &cell);
    cell = 7;
    EXPECT_EQ(reg.snapshot().counter("x"), 7u);
    cell = 9;
    EXPECT_EQ(reg.snapshot().counter("x"), 9u);
}

TEST(MetricsRegistry, GaugesEvaluateLazily)
{
    double v = 1.5;
    MetricsRegistry reg;
    reg.gauge("g", [&v] { return v; });
    v = 2.5;
    EXPECT_DOUBLE_EQ(reg.snapshot().gauge("g"), 2.5);
}

TEST(MetricsRegistry, DuplicateNameThrows)
{
    std::uint64_t cell = 0;
    MetricsRegistry reg;
    reg.counter("dup", &cell);
    EXPECT_THROW(reg.counter("dup", &cell), verify::SimError);
    EXPECT_THROW(reg.gauge("dup", [] { return 0.0; }),
                 verify::SimError);
}

TEST(MetricsRegistry, HistogramFlattensIntoSnapshot)
{
    MetricsRegistry reg;
    Histogram &h = reg.ownHistogram("lat", Histogram::log2());
    h.record(8);
    h.record(16);
    MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("lat.count"), 2u);
    EXPECT_EQ(snap.counter("lat.sum"), 24u);
    EXPECT_EQ(snap.counter("lat.min"), 8u);
    EXPECT_EQ(snap.counter("lat.max"), 16u);
    EXPECT_TRUE(snap.contains("lat.p50"));
    EXPECT_TRUE(snap.contains("lat.p99"));
}

TEST(MetricsRegistry, CounterNamesSortedAndSampled)
{
    std::uint64_t a = 1, b = 2;
    MetricsRegistry reg;
    reg.counter("zz", &b);
    reg.counter("aa", &a);
    reg.gauge("mm", [] { return 0.0; });  // not a sampler column
    std::vector<std::string> names = reg.counterNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "aa");
    EXPECT_EQ(names[1], "zz");
    std::vector<std::uint64_t> row;
    reg.sampleCounters(row);
    ASSERT_EQ(row.size(), 2u);
    EXPECT_EQ(row[0], 1u);
    EXPECT_EQ(row[1], 2u);
}

TEST(MetricsRegistry, RejectsDegenerateRegistrations)
{
    std::uint64_t cell = 0;
    MetricsRegistry reg;
    EXPECT_THROW(reg.counter("", &cell), verify::SimError);
    EXPECT_THROW(reg.counter("null", nullptr), verify::SimError);
    EXPECT_THROW(reg.gauge("nullfn", {}), verify::SimError);
    EXPECT_THROW(reg.histogram("nullhist", nullptr), verify::SimError);
}

TEST(MetricsRegistry, NamesListsEveryKindSorted)
{
    std::uint64_t cell = 0;
    MetricsRegistry reg;
    reg.counter("c", &cell);
    reg.gauge("a", [] { return 0.0; });
    reg.ownHistogram("h", Histogram::log2());
    std::vector<std::string> names = reg.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "a");
    EXPECT_EQ(names[1], "c");
    EXPECT_EQ(names[2], "h");
}

TEST(MetricsSnapshot, TypedAccessorMismatchThrows)
{
    MetricsSnapshot snap;
    snap.setCounter("c", 1);
    snap.setGauge("g", 1.0);
    EXPECT_THROW(snap.gauge("c"), verify::SimError);
    EXPECT_THROW(snap.counter("g"), verify::SimError);
    EXPECT_THROW(snap.counter("missing"), verify::SimError);
}

// ---------------------------------------------------------------- Export

TEST(Export, JsonIsStableAndSorted)
{
    MetricsSnapshot snap;
    snap.setCounter("b.second", 2);
    snap.setCounter("a.first", 1);
    snap.setGauge("z.gauge", 0.5);
    std::string json = obs::toJson(snap);
    EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
    EXPECT_LT(json.find("a.first"), json.find("b.second"));
    // Same content, same bytes.
    EXPECT_EQ(json, obs::toJson(snap));
}

TEST(Export, JsonRoundTripsThroughParser)
{
    MetricsSnapshot snap;
    snap.setCounter("c.count", 123456789);
    snap.setGauge("g.ratio", 1.0 / 3.0);
    snap.setGauge("g.zero", 0.0);
    MetricsSnapshot back =
        obs::snapshotFromJson(obs::toJson(snap), "test");
    EXPECT_TRUE(snap == back);
    EXPECT_EQ(obs::toJson(snap), obs::toJson(back));
}

TEST(Export, ParserRejectsBadDocuments)
{
    EXPECT_THROW(obs::snapshotFromJson("{}", "t"), verify::SimError);
    EXPECT_THROW(obs::snapshotFromJson("{\"schema_version\": 999, "
                                       "\"counters\": {}}",
                                       "t"),
                 verify::SimError);
    EXPECT_THROW(obs::snapshotFromJson(
                     "{\"schema_version\": 1, \"counters\": "
                     "{\"a\": 1, \"a\": 2}}",
                     "t"),
                 verify::SimError);
}

TEST(Export, NamesWithQuotesAndBackslashesAreEscaped)
{
    MetricsSnapshot snap;
    snap.setCounter("weird\"name\\x", 1);
    std::string json = obs::toJson(snap);
    EXPECT_NE(json.find("weird\\\"name\\\\x"), std::string::npos);
    MetricsSnapshot back = obs::snapshotFromJson(json, "t");
    EXPECT_EQ(back.counter("weird\"name\\x"), 1u);
}

TEST(Export, ParserRejectsMalformedSyntax)
{
    // Unterminated string.
    EXPECT_THROW(obs::snapshotFromJson("{\"schema_ver", "t"),
                 verify::SimError);
    // Truncated document.
    EXPECT_THROW(obs::snapshotFromJson("{\"schema_version\": 1,", "t"),
                 verify::SimError);
    // Value is not a number.
    EXPECT_THROW(obs::snapshotFromJson("{\"schema_version\": 1, "
                                       "\"gauges\": {\"g\": oops}}",
                                       "t"),
                 verify::SimError);
    // Empty sections parse fine.
    MetricsSnapshot empty = obs::snapshotFromJson(
        "{\"schema_version\": 1, \"counters\": {}, \"gauges\": {}}",
        "t");
    EXPECT_TRUE(empty.empty());
}

TEST(Export, WriteFileRoundTripsAndCreatesParents)
{
    std::string dir = ::testing::TempDir() + "berti_obs_export_test";
    std::string path = dir + "/nested/snap.json";
    obs::writeFile(path, "payload\n");
    EXPECT_EQ(obs::readFile(path), "payload\n");
    obs::writeFile(path, "payload2\n");  // atomic overwrite
    EXPECT_EQ(obs::readFile(path), "payload2\n");
    EXPECT_THROW(obs::readFile(dir + "/missing.json"),
                 verify::SimError);
    std::filesystem::remove_all(dir);
}

TEST(Export, CsvHasHeaderAndOneRowPerMetric)
{
    MetricsSnapshot snap;
    snap.setCounter("a", 1);
    snap.setGauge("b", 2.0);
    std::string csv = obs::toCsv(snap);
    EXPECT_EQ(csv.find("name,kind,value\n"), 0u);
    EXPECT_NE(csv.find("a,counter,1"), std::string::npos);
    EXPECT_NE(csv.find("b,gauge,2"), std::string::npos);
}

TEST(Export, DiffReportsChangedMissingAndExtra)
{
    MetricsSnapshot expected, actual;
    expected.setCounter("same", 5);
    actual.setCounter("same", 5);
    expected.setCounter("changed", 1);
    actual.setCounter("changed", 2);
    expected.setCounter("only_expected", 3);
    actual.setCounter("only_actual", 4);
    auto diffs = obs::diffSnapshots(expected, actual);
    ASSERT_EQ(diffs.size(), 3u);
    std::string report = obs::formatDiff(diffs);
    EXPECT_NE(report.find("changed"), std::string::npos);
    EXPECT_NE(report.find("only_expected"), std::string::npos);
    EXPECT_NE(report.find("only_actual"), std::string::npos);
    EXPECT_EQ(report.find("same"), std::string::npos);
}

// ------------------------------------------------------------ TimeSeries

TEST(IntervalSeries, AppendAndReadBack)
{
    IntervalSeries s({"a", "b"}, 4);
    s.append(100, 200, {1, 2});
    s.append(200, 400, {3, 4});
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s.sample(0).instructions, 100u);
    EXPECT_EQ(s.sample(0).values[1], 2u);
    EXPECT_EQ(s.sample(1).cycle, 400u);
    EXPECT_EQ(s.sample(1).values[0], 3u);
}

TEST(IntervalSeries, RingWrapKeepsNewestSamples)
{
    IntervalSeries s({"v"}, 3);
    for (std::uint64_t i = 1; i <= 10; ++i)
        s.append(i, i * 10, {i * 100});
    EXPECT_EQ(s.size(), 3u);
    EXPECT_EQ(s.dropped(), 7u);
    EXPECT_EQ(s.totalAppends(), 10u);
    EXPECT_EQ(s.sample(0).instructions, 8u);   // oldest retained
    EXPECT_EQ(s.sample(2).instructions, 10u);  // newest
    EXPECT_EQ(s.sample(2).values[0], 1000u);
}

TEST(IntervalSeries, WidthMismatchThrows)
{
    IntervalSeries s({"a", "b"}, 2);
    EXPECT_THROW(s.append(1, 1, {1}), verify::SimError);
}

TEST(IntervalSeries, CsvExportHasColumns)
{
    IntervalSeries s({"x"}, 2);
    s.append(5, 6, {7});
    std::string csv = obs::toCsv(s);
    EXPECT_EQ(csv.find("instructions,cycle,x\n"), 0u);
    EXPECT_NE(csv.find("5,6,7"), std::string::npos);
}

TEST(IntervalSampler, SamplesAtBoundaries)
{
    std::uint64_t cell = 0;
    MetricsRegistry reg;
    reg.counter("c", &cell);
    obs::SamplerConfig cfg;
    cfg.interval = 100;
    cfg.capacity = 8;
    IntervalSampler sampler(&reg, cfg);
    cell = 1;
    sampler.maybeSample(50, 10);    // below first boundary: no sample
    EXPECT_EQ(sampler.series().size(), 0u);
    cell = 2;
    sampler.maybeSample(100, 20);   // crosses 100
    cell = 3;
    sampler.maybeSample(150, 30);   // still before 200
    cell = 4;
    sampler.maybeSample(250, 40);   // crosses 200 (and 300 is next)
    ASSERT_EQ(sampler.series().size(), 2u);
    EXPECT_EQ(sampler.series().sample(0).values[0], 2u);
    EXPECT_EQ(sampler.series().sample(1).values[0], 4u);
}

TEST(IntervalSeries, DegenerateConstructionAndIndexThrow)
{
    EXPECT_THROW(IntervalSeries({"a"}, 0), verify::SimError);
    IntervalSeries s({"a"}, 2);
    EXPECT_THROW(s.sample(0), verify::SimError);
    EXPECT_THROW(IntervalSampler(nullptr, obs::SamplerConfig{1, 2}),
                 verify::SimError);
    MetricsRegistry reg;
    EXPECT_THROW(IntervalSampler(&reg, obs::SamplerConfig{0, 2}),
                 verify::SimError);
}

TEST(SamplerConfig, FromEnvParsesAndRejects)
{
    {
        ScopedEnv interval("BERTI_OBS_INTERVAL", "5000");
        ScopedEnv ring("BERTI_OBS_RING", "16");
        obs::SamplerConfig cfg = obs::SamplerConfig::fromEnv();
        EXPECT_EQ(cfg.interval, 5000u);
        EXPECT_EQ(cfg.capacity, 16u);
    }
    {
        ScopedEnv interval("BERTI_OBS_INTERVAL", "banana");
        EXPECT_THROW(obs::SamplerConfig::fromEnv(), verify::SimError);
    }
}

// ------------------------------------------------------------ EventTrace

TEST(PrefetchEventTrace, ExactTotalsWithSampling)
{
    obs::TraceConfig cfg;
    cfg.capacity = 4;
    cfg.samplePeriod = 3;  // keep every 3rd event
    PrefetchEventTrace trace(cfg);
    for (unsigned i = 0; i < 30; ++i)
        trace.record(i, PfEvent::Issue, i, 7);
    EXPECT_EQ(trace.total(PfEvent::Issue), 30u);  // exact despite 1/3
    EXPECT_EQ(trace.totalSeen(), 30u);
    EXPECT_EQ(trace.size(), 4u);                  // capped at capacity
}

TEST(PrefetchEventTrace, RingKeepsNewestEvents)
{
    obs::TraceConfig cfg;
    cfg.capacity = 2;
    PrefetchEventTrace trace(cfg);
    trace.record(1, PfEvent::Issue, 10, 0);
    trace.record(2, PfEvent::Fill, 20, 0);
    trace.record(3, PfEvent::Useful, 30, 0);
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace.event(0).kind, PfEvent::Fill);
    EXPECT_EQ(trace.event(1).kind, PfEvent::Useful);
    EXPECT_EQ(trace.event(1).line, 30u);
}

TEST(PrefetchEventTrace, JsonNamesEveryKind)
{
    obs::TraceConfig cfg;
    cfg.capacity = 8;
    PrefetchEventTrace trace(cfg);
    trace.record(1, PfEvent::CrossPage, 2, 3);
    std::string json = obs::toJson(trace);
    for (std::size_t k = 0; k < obs::kPfEventKinds; ++k) {
        EXPECT_NE(json.find(obs::pfEventName(static_cast<PfEvent>(k))),
                  std::string::npos);
    }
    EXPECT_NE(json.find("\"cross_page\": 1"), std::string::npos);
}

TEST(PrefetchEventTrace, DegenerateConfigsAndIndexThrow)
{
    obs::TraceConfig zero_cap;
    zero_cap.capacity = 0;
    EXPECT_THROW(PrefetchEventTrace trace(zero_cap), verify::SimError);
    obs::TraceConfig zero_period;
    zero_period.capacity = 4;
    zero_period.samplePeriod = 0;
    EXPECT_THROW(PrefetchEventTrace trace(zero_period),
                 verify::SimError);
    obs::TraceConfig ok;
    ok.capacity = 4;
    PrefetchEventTrace trace(ok);
    EXPECT_THROW(trace.event(0), verify::SimError);
}

TEST(TraceConfig, FromEnvParsesAndRejects)
{
    {
        ScopedEnv cap("BERTI_OBS_PFTRACE", "512");
        ScopedEnv period("BERTI_OBS_PFTRACE_PERIOD", "4");
        obs::TraceConfig cfg = obs::TraceConfig::fromEnv();
        EXPECT_EQ(cfg.capacity, 512u);
        EXPECT_EQ(cfg.samplePeriod, 4u);
    }
    {
        ScopedEnv cap("BERTI_OBS_PFTRACE", "lots");
        EXPECT_THROW(obs::TraceConfig::fromEnv(), verify::SimError);
    }
}

// --------------------------------------------------------- Machine level

SimParams
tinyParams()
{
    SimParams p;
    p.warmupInstructions = 2000;
    p.measureInstructions = 5000;
    return p;
}

TEST(MachineMetrics, EveryComponentRegisters)
{
    auto gen = findWorkload("mcf-like.472").make();
    Machine machine(MachineConfig::sunnyCove(1), {gen.get()});
    const MetricsRegistry &reg = machine.metrics();
    for (const char *name :
         {"machine.cycles", "c0.core.instructions", "c0.core.ipc",
          "c0.core.itlb.accesses", "c0.l1d.demand_misses",
          "c0.l1d.prefetch_cross_page", "c0.l1d.accuracy",
          "c0.l1d.fill_latency", "c0.l1d.pf.storage_bits",
          "c0.l1i.demand_hits", "c0.l2.prefetch_issued",
          "c0.dtlb.misses", "c0.stlb.prefetch_probes", "llc.fills",
          "dram.row_hits", "dram.row_hit_rate", "energy.total"}) {
        EXPECT_TRUE(reg.contains(name)) << name;
    }
    // Histograms appear flattened in the snapshot view.
    EXPECT_TRUE(
        machine.metricsSnapshot().contains("c0.l1d.fill_latency.count"));
}

TEST(MachineMetrics, CountersAreZeroAtConstruction)
{
    auto gen = findWorkload("mcf-like.472").make();
    Machine machine(MachineConfig::sunnyCove(1), {gen.get()});
    MetricsSnapshot snap = machine.metricsSnapshot();
    EXPECT_EQ(snap.counter("machine.cycles"), 0u);
    EXPECT_EQ(snap.counter("c0.core.instructions"), 0u);
    EXPECT_EQ(snap.counter("dram.reads"), 0u);
}

TEST(MachineMetrics, SnapshotTracksSimulationProgress)
{
    auto gen = findWorkload("mcf-like.472").make();
    Machine machine(MachineConfig::sunnyCove(1), {gen.get()});
    machine.run(5000);
    MetricsSnapshot snap = machine.metricsSnapshot();
    EXPECT_GE(snap.counter("c0.core.instructions"), 5000u);
    EXPECT_GT(snap.counter("machine.cycles"), 0u);
    EXPECT_GT(snap.counter("c0.l1d.demand_accesses"), 0u);
    EXPECT_GT(snap.gauge("c0.core.ipc"), 0.0);
    EXPECT_GT(snap.gauge("energy.total"), 0.0);
    // The fill-latency histogram observed exactly the MSHR fills the
    // flat counters saw.
    EXPECT_EQ(snap.counter("c0.l1d.fill_latency.count"),
              snap.counter("c0.l1d.fill_latency_count"));
}

TEST(MachineMetrics, AggregateStatsSumsCores)
{
    auto g0 = findWorkload("mcf-like.472").make();
    auto g1 = findWorkload("bwaves-like.2609").make();
    Machine machine(MachineConfig::sunnyCove(2),
                    {g0.get(), g1.get()});
    machine.run(3000);
    RunStats agg = machine.aggregateStats();
    RunStats c0 = machine.liveStats(0);
    RunStats c1 = machine.liveStats(1);
    EXPECT_EQ(agg.core.instructions,
              c0.core.instructions + c1.core.instructions);
    EXPECT_EQ(agg.l1d.demandAccesses,
              c0.l1d.demandAccesses + c1.l1d.demandAccesses);
    EXPECT_EQ(agg.llc.fills, c0.llc.fills);  // shared: counted once
    EXPECT_EQ(agg.core.cycles, machine.cycle());
}

TEST(MachineMetrics, IntervalSamplerWiredThroughEnv)
{
    ScopedEnv interval("BERTI_OBS_INTERVAL", "1000");
    ScopedEnv ring("BERTI_OBS_RING", "64");
    auto gen = findWorkload("mcf-like.472").make();
    Machine machine(MachineConfig::sunnyCove(1), {gen.get()});
    ASSERT_NE(machine.intervalSeries(), nullptr);
    machine.run(5000);
    const IntervalSeries &series = *machine.intervalSeries();
    EXPECT_GE(series.size(), 4u);
    ASSERT_FALSE(series.columns().empty());
    // Counter columns are non-decreasing over time.
    auto cols = machine.metrics().counterNames();
    std::size_t instr_col =
        std::find(cols.begin(), cols.end(), "c0.core.instructions") -
        cols.begin();
    ASSERT_LT(instr_col, cols.size());
    for (std::size_t i = 1; i < series.size(); ++i) {
        EXPECT_GE(series.sample(i).values[instr_col],
                  series.sample(i - 1).values[instr_col]);
    }
}

TEST(MachineMetrics, SamplerOffByDefault)
{
    auto gen = findWorkload("mcf-like.472").make();
    Machine machine(MachineConfig::sunnyCove(1), {gen.get()});
    EXPECT_EQ(machine.intervalSeries(), nullptr);
    EXPECT_EQ(machine.prefetchTrace(0), nullptr);
}

TEST(MachineMetrics, EventTraceConsistentWithCounters)
{
    ScopedEnv trace_env("BERTI_OBS_PFTRACE", "256");
    auto gen = findWorkload("mcf-like.472").make();
    MachineConfig cfg = MachineConfig::sunnyCove(1);
    cfg.l1dPrefetcher = makeSpec("berti").l1d;
    Machine machine(cfg, {gen.get()});
    ASSERT_NE(machine.prefetchTrace(0), nullptr);
    machine.run(20000);
    const PrefetchEventTrace &trace = *machine.prefetchTrace(0);
    RunStats live = machine.liveStats(0);
    std::uint64_t issued =
        live.l1d.prefetchIssued + live.l2.prefetchIssued +
        live.l1i.prefetchIssued;
    EXPECT_EQ(trace.total(PfEvent::Issue), issued);
    EXPECT_EQ(trace.total(PfEvent::Fill),
              live.l1d.prefetchFills + live.l2.prefetchFills +
                  live.l1i.prefetchFills);
    EXPECT_EQ(trace.total(PfEvent::CrossPage),
              live.l1d.prefetchCrossPage + live.l2.prefetchCrossPage +
                  live.l1i.prefetchCrossPage);
    EXPECT_GT(issued, 0u);
}

// ------------------------------------------- determinism / reset-reuse

TEST(Determinism, SameCellTwiceExportsIdenticalJson)
{
    const Workload &w = findWorkload("mcf-like.472");
    PrefetcherSpec spec = makeSpec("berti");
    SimResult a = simulate(w, spec, tinyParams());
    SimResult b = simulate(w, spec, tinyParams());
    EXPECT_EQ(obs::toJson(resultSnapshot(a)),
              obs::toJson(resultSnapshot(b)));
}

TEST(Determinism, ExportBitIdenticalAcrossJobCounts)
{
    std::vector<Workload> workloads = {findWorkload("mcf-like.472"),
                                       findWorkload("bwaves-like.2609")};
    std::vector<PrefetcherSpec> specs = {makeSpec("none"),
                                         makeSpec("berti")};
    test::expectJobCountInvariant(workloads, specs, tinyParams(), 8);
}

TEST(Determinism, PerturbedCounterIsDetected)
{
    const Workload &w = findWorkload("mcf-like.472");
    SimResult r = simulate(w, makeSpec("berti"), tinyParams());
    MetricsSnapshot golden = resultSnapshot(r);
    SimResult tampered = r;
    ++tampered.roi.l1d.prefetchUseful;  // deliberate 1-count drift
    auto diffs = obs::diffSnapshots(golden, resultSnapshot(tampered));
    EXPECT_FALSE(diffs.empty());
    bool named = false;
    for (const auto &d : diffs)
        named |= d.name == "l1d.prefetch_useful";
    EXPECT_TRUE(named);
}

} // namespace
} // namespace berti
