/** @file Randomised property tests: structural invariants of the cache
 *  and the full machine under arbitrary request mixes, a corrupt-trace
 *  corpus (bit flips, truncations, hostile lengths — direct and via the
 *  FaultInjector), and the wedged-MSHR watchdog scenario. */

#include <cstdio>
#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>

#include "harness/experiment.hh"
#include "harness/machine.hh"
#include "mem/cache.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/timeseries.hh"
#include "oracle/microtrace.hh"
#include "sim/rng.hh"
#include "trace/generators.hh"
#include "trace/trace_io.hh"
#include "verify/fault_injector.hh"
#include "verify/sim_error.hh"
#include "test_util.hh"

namespace berti
{

using test::stepCycles;
using test::TestMemory;

namespace
{

struct NullClient : ReadClient
{
    std::uint64_t completions = 0;

    void readDone(const MemRequest &) override { ++completions; }
};

struct FuzzParams
{
    std::uint64_t seed;
    unsigned sets;
    unsigned ways;
    unsigned mshrs;
};

} // namespace

class CacheFuzz : public ::testing::TestWithParam<FuzzParams>
{
};

TEST_P(CacheFuzz, InvariantsHoldUnderRandomTraffic)
{
    auto [seed, sets, ways, mshrs] = GetParam();
    Cycle clock = 0;
    CacheConfig cfg;
    cfg.sets = sets;
    cfg.ways = ways;
    cfg.mshrs = mshrs;
    cfg.latency = 3;
    cfg.rqSize = 16;
    cfg.pqSize = 8;
    Cache cache(cfg, &clock);
    TestMemory mem(&clock, 40);
    cache.setLower(&mem);
    NullClient client;
    Rng rng(seed);

    std::uint64_t submitted = 0;
    for (int step = 0; step < 20000; ++step) {
        std::uint64_t roll = rng.nextBounded(100);
        Addr line = rng.nextBounded(4 * sets * ways);  // heavy conflicts
        if (roll < 55) {
            MemRequest req;
            req.pLine = line;
            req.vLine = line;
            req.ip = 0x400000 + (line % 32) * 4;
            req.type = roll < 40 ? AccessType::Load : AccessType::Rfo;
            req.instrId = 1;
            req.client = &client;
            submitted += cache.submitRead(req) ? 1 : 0;
        } else if (roll < 70) {
            cache.submitWriteback(line);
        } else if (roll < 85) {
            cache.issuePrefetch(line, FillLevel::L1);
        } else {
            mem.refuseReads = roll < 90;  // transient backpressure
        }
        ++clock;
        mem.tick();
        cache.tick();
        mem.refuseReads = false;

        // Core invariants, checked continuously.
        ASSERT_LE(cache.mshrsInUse(), mshrs);
        ASSERT_LE(cache.rqOccupancy(), cfg.rqSize);
        ASSERT_LE(cache.pqOccupancy(), cfg.pqSize);
        ASSERT_GE(cache.stats.demandAccesses,
                  cache.stats.demandHits + cache.stats.demandMisses);
    }

    // Drain: every accepted demand read must eventually complete.
    stepCycles(clock, cache, mem, 5000);
    EXPECT_EQ(client.completions, submitted);
    EXPECT_EQ(cache.mshrsInUse(), 0u);
    EXPECT_DOUBLE_EQ(cache.mshrOccupancy(), 0.0);

    // Stats algebra holds at quiescence.
    EXPECT_EQ(cache.stats.demandAccesses,
              cache.stats.demandHits + cache.stats.demandMisses +
                  cache.stats.demandMshrMerged);
    EXPECT_GE(cache.stats.fills, cache.stats.prefetchFills);
    EXPECT_GE(cache.stats.prefetchUseful + cache.stats.prefetchUseless,
              0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheFuzz,
    ::testing::Values(FuzzParams{1, 4, 2, 4}, FuzzParams{2, 16, 4, 8},
                      FuzzParams{3, 64, 12, 16}, FuzzParams{4, 1, 1, 1},
                      FuzzParams{5, 8, 16, 2}, FuzzParams{6, 2, 8, 32}));

class MachineFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MachineFuzz, RandomWorkloadMachineStaysConsistent)
{
    // A random instruction mix through the whole machine: the run must
    // terminate, retire the requested count, and keep stats sane.
    class ChaosGen : public TraceGenerator
    {
      public:
        explicit ChaosGen(std::uint64_t seed) : rng(seed) {}

        TraceInstr
        next() override
        {
            TraceInstr in;
            in.ip = 0x400000 + 4 * rng.nextBounded(512);
            std::uint64_t roll = rng.nextBounded(100);
            if (roll < 30) {
                in.load0 =
                    0x10000000ull + 64 * rng.nextBounded(1u << 16);
                in.dependsOnPrevLoad = roll < 5;
            } else if (roll < 40) {
                in.store =
                    0x30000000ull + 64 * rng.nextBounded(1u << 14);
            } else if (roll < 55) {
                in.isBranch = true;
                in.taken = rng.nextBool(0.6);
            }
            return in;
        }

      private:
        Rng rng;
    };

    ChaosGen gen(GetParam());
    MachineConfig cfg = MachineConfig::sunnyCove(1);
    cfg.l1dPrefetcher = makeSpec("berti").l1d;
    Machine m(cfg, {&gen});
    m.run(30000);
    RunStats s = m.liveStats(0);
    EXPECT_GE(s.core.instructions, 30000u);
    EXPECT_GT(s.core.cycles, 0u);
    EXPECT_EQ(s.l1d.demandAccesses,
              s.l1d.demandHits + s.l1d.demandMisses +
                  s.l1d.demandMshrMerged);
    EXPECT_LE(s.l1d.demandHits, s.l1d.demandAccesses);
    EXPECT_LE(s.dram.rowHits + s.dram.rowMisses + s.dram.rowConflicts,
              s.dram.reads + s.dram.writes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineFuzz,
                         ::testing::Values(11ull, 22ull, 33ull, 44ull));

// --------------------------------------------------------------------
// Corrupt-trace corpus: arbitrary byte-level damage to a valid trace
// file must yield either a successfully parsed trace or a typed
// SimError — never a crash, hang, or silent empty run.
// --------------------------------------------------------------------

namespace
{

std::string
fuzzTracePath(const char *tag)
{
    return std::string(::testing::TempDir()) + "/berti_fuzz_" + tag +
           ".trace";
}

/** Record a short StreamGen trace to a fresh temp file. */
std::string
makeValidTrace(const char *tag, std::uint64_t count = 200)
{
    StreamGen::Params p;
    StreamGen gen(p);
    std::string path = fuzzTracePath(tag);
    EXPECT_TRUE(saveTrace(path, gen, count));
    return path;
}

} // namespace

class TraceCorpusFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TraceCorpusFuzz, RandomDamageParsesOrFailsTyped)
{
    std::string path = makeValidTrace("corpus");
    Rng rng(GetParam());

    for (int round = 0; round < 40; ++round) {
        // Re-record, then damage: flip bytes anywhere (header included)
        // and sometimes chop the tail to a hostile length.
        StreamGen::Params p;
        StreamGen gen(p);
        ASSERT_TRUE(saveTrace(path, gen, 200));

        std::FILE *f = std::fopen(path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        long size = std::ftell(f);
        unsigned flips = 1 + rng.nextBounded(8);
        for (unsigned i = 0; i < flips; ++i) {
            long at = static_cast<long>(rng.nextBounded(size));
            std::fseek(f, at, SEEK_SET);
            int byte = std::fgetc(f);
            ASSERT_NE(byte, EOF);
            std::fseek(f, at, SEEK_SET);
            std::fputc(byte ^ (1 << rng.nextBounded(8)), f);
        }
        std::fclose(f);
        if (rng.nextBool(0.3)) {
            long keep = static_cast<long>(rng.nextBounded(size));
            ASSERT_EQ(0, truncate(path.c_str(), keep));
        }

        auto result = loadTrace(path);
        if (!result.ok()) {
            // Typed error with the file identified — never a crash.
            EXPECT_EQ(result.error().kind(), verify::ErrorKind::TraceIo);
            EXPECT_EQ(result.error().path(), path);
            EXPECT_FALSE(result.error().reason().empty());
        }
    }
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceCorpusFuzz,
                         ::testing::Values(101ull, 202ull, 303ull));

TEST(TraceCorpusFuzz, InjectedBitFlipsStayParseable)
{
    std::string path = makeValidTrace("bitflip");
    auto clean = loadTrace(path);
    ASSERT_TRUE(clean.ok());

    verify::FaultConfig fc;
    fc.seed = 99;
    fc.traceBitFlipRate = 1.0;
    verify::FaultInjector inj(fc);
    auto result = loadTrace(path, &inj);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(inj.stats().traceBitFlips, clean.value().size());

    // A single-bit flip per record must have changed *something*.
    bool differs = false;
    for (std::size_t i = 0; i < clean.value().size(); ++i) {
        const TraceInstr &a = clean.value()[i];
        const TraceInstr &b = result.value()[i];
        differs |= a.ip != b.ip || a.load0 != b.load0 ||
                   a.load1 != b.load1 || a.store != b.store ||
                   a.isBranch != b.isBranch || a.taken != b.taken ||
                   a.dependsOnPrevLoad != b.dependsOnPrevLoad;
    }
    EXPECT_TRUE(differs);
    std::remove(path.c_str());
}

TEST(TraceCorpusFuzz, InjectedTruncationIsATypedError)
{
    std::string path = makeValidTrace("injtrunc");
    verify::FaultConfig fc;
    fc.seed = 7;
    fc.traceTruncateRate = 0.2;
    verify::FaultInjector inj(fc);
    auto result = loadTrace(path, &inj);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind(), verify::ErrorKind::TraceIo);
    EXPECT_NE(result.error().reason().find("injected truncation"),
              std::string::npos);
    EXPECT_GE(inj.stats().traceTruncations, 1u);
    std::remove(path.c_str());
}

TEST(TraceCorpusFuzz, HostilePayloadsRunOnTheMachine)
{
    // Corrupted-but-parseable records carry arbitrary 64-bit addresses.
    // The full machine (with Berti learning on the garbage stream) must
    // still make forward progress and keep its stats algebra intact.
    std::string path = makeValidTrace("hostile", 400);
    verify::FaultConfig fc;
    fc.seed = 1234;
    fc.traceBitFlipRate = 1.0;
    verify::FaultInjector inj(fc);
    auto result = loadTrace(path, &inj);
    ASSERT_TRUE(result.ok());
    std::remove(path.c_str());

    ScriptedGen gen(result.value());
    MachineConfig cfg = MachineConfig::sunnyCove(1);
    cfg.l1dPrefetcher = makeSpec("berti").l1d;
    cfg.audit.enabled = true;
    cfg.audit.interval = 1024;
    Machine m(cfg, {&gen});
    m.run(5000);
    RunStats s = m.liveStats(0);
    EXPECT_GE(s.core.instructions, 5000u);
    EXPECT_EQ(s.l1d.demandAccesses,
              s.l1d.demandHits + s.l1d.demandMisses +
                  s.l1d.demandMshrMerged);
    ASSERT_NE(m.auditor(), nullptr);
    EXPECT_GT(m.auditor()->checksRun(), 0u);
}

// --------------------------------------------------------------------
// Wedged simulation: a swallowed DRAM read response leaks an MSHR and
// parks the ROB head forever. The watchdog must convert the hang into
// a typed error carrying the structured machine diagnostic.
// --------------------------------------------------------------------

TEST(WatchdogFuzz, WedgedMshrFailsWithDiagnosticInsteadOfHanging)
{
    StreamGen::Params p;
    StreamGen gen(p);
    verify::FaultConfig fc;
    fc.seed = 42;
    fc.dramLoseReadRate = 1.0;  // every DRAM read response vanishes
    verify::FaultInjector inj(fc);

    MachineConfig cfg = MachineConfig::sunnyCove(1);
    cfg.faults = &inj;
    cfg.watchdog.stallCycles = 3000;  // keep the test fast

    Machine m(cfg, {&gen});
    try {
        m.run(100000);
        FAIL() << "a fully wedged machine must not complete";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::Watchdog);
        EXPECT_NE(e.reason().find("no forward progress"),
                  std::string::npos);
        // The diagnostic names the wedged MSHRs and queue occupancies.
        EXPECT_FALSE(e.diagnostic().empty());
        EXPECT_NE(e.diagnostic().find("mshr"), std::string::npos);
        EXPECT_NE(e.diagnostic().find("DRAM"), std::string::npos);
    }
    EXPECT_GE(inj.stats().dramLostReads, 1u);
}

// --------------------------------------------------------------------
// Observability properties: randomised histograms must merge
// associatively and report monotone percentiles; a randomly driven
// interval ring must retain exactly the newest samples.
// --------------------------------------------------------------------

class ObsFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ObsFuzz, HistogramMergeIsAssociativeAndLossless)
{
    Rng rng(GetParam());
    bool linear = rng.nextBool(0.5);
    auto make = [linear] {
        return linear ? obs::Histogram::linear(17, 21)
                      : obs::Histogram::log2();
    };
    obs::Histogram parts[3] = {make(), make(), make()};
    obs::Histogram whole = make();
    std::uint64_t values = 200 + rng.nextBounded(800);
    for (std::uint64_t i = 0; i < values; ++i) {
        std::uint64_t v = rng.next() >> (rng.nextBounded(64));
        std::uint64_t w = 1 + rng.nextBounded(3);
        parts[rng.nextBounded(3)].record(v, w);
        whole.record(v, w);
    }

    // (a + b) + c  ==  a + (b + c)  ==  everything recorded into one.
    obs::Histogram left = make();
    left.merge(parts[0]);
    left.merge(parts[1]);
    left.merge(parts[2]);
    obs::Histogram bc = make();
    bc.merge(parts[1]);
    bc.merge(parts[2]);
    obs::Histogram right = make();
    right.merge(parts[0]);
    right.merge(bc);
    for (const obs::Histogram *h : {&left, &right}) {
        EXPECT_EQ(h->count(), whole.count());
        EXPECT_EQ(h->sum(), whole.sum());
        EXPECT_EQ(h->min(), whole.min());
        EXPECT_EQ(h->max(), whole.max());
        for (unsigned i = 0; i < whole.bucketCount(); ++i)
            EXPECT_EQ(h->bucketWeight(i), whole.bucketWeight(i)) << i;
    }

    // Percentiles are monotone in p and clamped to the observed range.
    std::uint64_t prev = 0;
    for (double p = 0.0; p <= 1.0; p += 1.0 / 64) {
        std::uint64_t q = whole.percentile(p);
        EXPECT_GE(q, prev);
        EXPECT_GE(q, whole.min());
        EXPECT_LE(q, whole.max());
        prev = q;
    }
}

TEST_P(ObsFuzz, IntervalRingRetainsExactlyTheNewestSamples)
{
    Rng rng(GetParam() ^ 0xABCDEF);
    std::size_t cap = 1 + rng.nextBounded(32);
    std::size_t cols = 1 + rng.nextBounded(5);
    obs::IntervalSeries ring(
        std::vector<std::string>(cols, "c"), cap);

    std::vector<std::vector<std::uint64_t>> history;
    std::uint64_t appends = rng.nextBounded(4 * cap + 1);
    for (std::uint64_t i = 0; i < appends; ++i) {
        std::vector<std::uint64_t> row(cols);
        for (auto &v : row)
            v = rng.next();
        ring.append(i, 2 * i, row);
        history.push_back(std::move(row));
    }

    std::size_t expect_held = std::min<std::size_t>(cap, history.size());
    ASSERT_EQ(ring.size(), expect_held);
    EXPECT_EQ(ring.dropped(), history.size() - expect_held);
    EXPECT_EQ(ring.totalAppends(), history.size());
    for (std::size_t i = 0; i < expect_held; ++i) {
        std::size_t src = history.size() - expect_held + i;
        obs::IntervalSeries::Sample s = ring.sample(i);
        EXPECT_EQ(s.instructions, src);
        for (std::size_t c = 0; c < cols; ++c)
            EXPECT_EQ(s.values[c], history[src][c]) << i << "," << c;
    }
}

TEST_P(ObsFuzz, SnapshotJsonRoundTripsArbitraryValues)
{
    Rng rng(GetParam() ^ 0x5EED);
    obs::MetricsSnapshot snap;
    unsigned metrics = 1 + rng.nextBounded(40);
    for (unsigned i = 0; i < metrics; ++i) {
        std::string name = "m" + std::to_string(rng.nextBounded(1000)) +
                           "." + std::to_string(i);
        if (rng.nextBool(0.5)) {
            snap.setCounter(name, rng.next());
        } else {
            double v = static_cast<double>(rng.next()) /
                       static_cast<double>(1 + rng.nextBounded(1 << 20));
            snap.setGauge(name, rng.nextBool(0.1) ? -v : v);
        }
    }
    std::string json = obs::toJson(snap);
    obs::MetricsSnapshot back = obs::snapshotFromJson(json, "fuzz");
    EXPECT_TRUE(snap == back);
    EXPECT_EQ(json, obs::toJson(back));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObsFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// -------------------------------------------------------- checkpoints

class CheckpointFuzz : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(CheckpointFuzz, SaveRestoreNeverDivergesOnMicroTraces)
{
    // Property: for any adversarial micro-trace and any save point, a
    // machine resumed from the checkpoint re-serializes to the same
    // bytes as one that never stopped.
    std::uint64_t seed = oracle::testSeed(GetParam() ^ 0xC4EC7F00);
    Rng rng(seed);
    const auto &classes = oracle::microTraceClasses();
    MachineConfig cfg = MachineConfig::sunnyCove(1);
    cfg.l1dPrefetcher = makeSpec("berti").l1d;

    unsigned iters = oracle::propertyIterations(2);
    for (unsigned i = 0; i < iters; ++i) {
        const auto &cls = classes[rng.nextBounded(classes.size())];
        std::uint64_t trace_seed = rng.next();
        auto instrs = oracle::toInstrs(
            cls.generate(trace_seed, 200 + rng.nextBounded(400)));
        std::uint64_t warmup = 500 + rng.nextBounded(4000);
        std::uint64_t measure = 500 + rng.nextBounded(8000);

        ScriptedGen gen_a(instrs);
        Machine uninterrupted(cfg, {&gen_a});
        uninterrupted.run(warmup);
        std::string mid = uninterrupted.saveCheckpointBlob();
        uninterrupted.run(measure);

        ScriptedGen gen_b(instrs);
        Machine resumed(cfg, {&gen_b});
        resumed.resumeFromBlob(mid);
        std::string what = cls.name + " seed=" + std::to_string(seed) +
                           " trace_seed=" + std::to_string(trace_seed) +
                           " warmup=" + std::to_string(warmup) +
                           " measure=" + std::to_string(measure);
        test::expectSameCheckpoint(resumed, mid,
                                   "restore not idempotent: " + what);
        resumed.run(measure);
        test::expectSameCheckpoint(resumed,
                                   uninterrupted.saveCheckpointBlob(),
                                   "diverged after resume: " + what);
        if (HasFailure())
            return;
    }
}

TEST_P(CheckpointFuzz, DamagedBlobsAreRejectedAsTypedErrors)
{
    // Property: any single-bit flip or truncation of a checkpoint blob
    // is rejected with a typed Checkpoint error before any state is
    // applied — the victim machine stays pristine and resumable.
    std::uint64_t seed = oracle::testSeed(GetParam() ^ 0xDA3A6ED);
    Rng rng(seed);
    MachineConfig cfg = MachineConfig::sunnyCove(1);
    cfg.l1dPrefetcher = makeSpec("berti").l1d;

    const Workload &w = findWorkload("mcf-like.472");
    auto gen = w.make();
    Machine saver(cfg, {gen.get()});
    saver.run(2000);
    const std::string blob = saver.saveCheckpointBlob();

    verify::FaultConfig fc;
    fc.seed = seed;
    fc.traceBitFlipRate = 1.0;  // the record mutator doubles as a
                                // single-event-upset source for blobs
    verify::FaultInjector inj(fc);

    auto gen_victim = w.make();
    Machine victim(cfg, {gen_victim.get()});
    unsigned iters = oracle::propertyIterations(16);
    for (unsigned i = 0; i < iters; ++i) {
        std::string bad = blob;
        if (rng.nextBool(0.5)) {
            verify::TraceFault f = inj.mutateTraceRecord(
                reinterpret_cast<unsigned char *>(bad.data()), bad.size());
            ASSERT_EQ(f, verify::TraceFault::Corrupted);
        } else {
            bad = bad.substr(0, rng.nextBounded(bad.size()));
        }
        try {
            victim.resumeFromBlob(bad);
            FAIL() << "damaged blob accepted (iter " << i << ", seed "
                   << seed << ")";
        } catch (const verify::SimError &e) {
            EXPECT_EQ(e.kind(), verify::ErrorKind::Checkpoint)
                << e.what();
        }
    }
    // Every rejection happened before mutation: the machine still
    // accepts the intact blob.
    victim.resumeFromBlob(blob);
    test::expectSameCheckpoint(victim, blob, "intact blob after rejections");
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointFuzz,
                         ::testing::Values(11, 22, 33));

} // namespace berti
