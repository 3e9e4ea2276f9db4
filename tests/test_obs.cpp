/**
 * @file
 * Unit tests for the observability layer: histograms, the metrics
 * registry, snapshots, JSON export and round-trip, and the
 * Machine-level wiring (registered names, stat reset/reuse
 * determinism).
 */

#include <csignal>
#include <cstdlib>
#include <filesystem>

#include <sys/resource.h>

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/machine.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "trace/registry.hh"
#include "verify/sim_error.hh"
#include "test_util.hh"

namespace berti
{
namespace
{

using obs::Histogram;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;

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
    h.record(~std::uint64_t{0});      // past 2^32: the last bucket
    EXPECT_EQ(h.bucketWeight(h.bucketCount() - 1), 1u);
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
    // Out-of-range p is clamped to [0, 1].
    EXPECT_EQ(h.percentile(-0.5), h.percentile(0.0));
    EXPECT_EQ(h.percentile(1.5), h.percentile(1.0));
}

TEST(Histogram, InvalidShapesThrow)
{
    EXPECT_THROW(Histogram::log2(0), verify::SimError);
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
    Histogram h = Histogram::log2();
    MetricsRegistry reg;
    reg.histogram("lat", &h);
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
    Histogram h = Histogram::log2();
    MetricsRegistry reg;
    reg.counter("c", &cell);
    reg.gauge("a", [] { return 0.0; });
    reg.histogram("h", &h);
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

TEST(Export, WriteFileFailsWhenTheFinalFlushFails)
{
    // The content fits the stream buffer, so every byte reaches the
    // file only at the final flush. A 512-byte file-size limit makes
    // that flush fail part-way; writeFile must throw and leave no file
    // behind. The limit is set in the forked child only.
    std::string dir = ::testing::TempDir() + "berti_obs_flush_test";
    std::filesystem::create_directories(dir);
    std::string path = dir + "/snap.json";
    auto child = [&path] {
        struct rlimit lim = {512, 512};
        ::signal(SIGXFSZ, SIG_IGN);
        if (::setrlimit(RLIMIT_FSIZE, &lim) != 0)
            std::_Exit(2);
        try {
            obs::writeFile(path, std::string(1000, 'x'));
        } catch (const verify::SimError &e) {
            bool clean = e.kind() == verify::ErrorKind::TraceIo &&
                         !std::filesystem::exists(path) &&
                         !std::filesystem::exists(path + ".tmp");
            std::_Exit(clean ? 0 : 1);
        }
        std::_Exit(1);
    };
    EXPECT_EXIT(child(), ::testing::ExitedWithCode(0), "");
    std::filesystem::remove_all(dir);
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
