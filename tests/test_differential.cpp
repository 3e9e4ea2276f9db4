/**
 * @file
 * Differential-oracle suite: the untimed reference hierarchy against the
 * cycle simulator under serialized driving, the paper-transcription
 * RefBerti against the production BertiPrefetcher (event-fed and in a
 * live Machine via a tee), property-based micro-traces with greedy
 * shrinking of any counterexample, and metamorphic invariants across
 * every prefetcher spec.
 *
 * Every property derives its RNG seed through testSeed() so a failure
 * logged in CI reproduces locally with BERTI_TEST_SEED; failure messages
 * always carry the seed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/berti.hh"
#include "harness/experiment.hh"
#include "harness/machine.hh"
#include "oracle/diff_driver.hh"
#include "oracle/microtrace.hh"
#include "oracle/ref_berti.hh"
#include "oracle/shrink.hh"
#include "oracle/tee.hh"
#include "sim/rng.hh"
#include "trace/generators.hh"
#include "test_util.hh"

namespace berti
{

namespace
{

using oracle::DiffConfig;
using oracle::DiffResult;
using oracle::MicroOp;
using oracle::MicroOpKind;
using oracle::MicroTrace;
using oracle::MicroTraceClass;
using oracle::RefBerti;

/** Base property seed; overridable end-to-end via BERTI_TEST_SEED. */
std::uint64_t
baseSeed()
{
    return oracle::testSeed(0xB5971D1FFull);
}

std::string
describeSeed(const std::string &cls, std::uint64_t seed)
{
    std::ostringstream os;
    os << "class=" << cls << " seed=0x" << std::hex << seed
       << " (rerun with BERTI_TEST_SEED=0x" << seed << ")";
    return os.str();
}

} // namespace

// ===================================================================
// Micro-trace plumbing: round trips and the seeding conventions.
// ===================================================================

TEST(MicroTrace, InstrRoundTripAllClasses)
{
    for (const MicroTraceClass &cls : oracle::microTraceClasses()) {
        std::uint64_t seed = baseSeed() ^ std::hash<std::string>{}(cls.name);
        MicroTrace t = cls.generate(seed, 200);
        ASSERT_GT(t.size(), 0u) << describeSeed(cls.name, seed);
        MicroTrace back = oracle::fromInstrs(oracle::toInstrs(t));
        ASSERT_EQ(back.ops.size(), t.ops.size())
            << describeSeed(cls.name, seed);
        for (std::size_t i = 0; i < t.ops.size(); ++i) {
            EXPECT_TRUE(back.ops[i] == t.ops[i])
                << describeSeed(cls.name, seed) << " op " << i;
        }
    }
}

TEST(MicroTrace, ArtifactSaveLoadRoundTrip)
{
    MicroTrace t = oracle::findMicroTraceClass("writeback-races")
                       .generate(baseSeed(), 64);
    std::string path =
        ::testing::TempDir() + "/diff_artifact_roundtrip.champsim";
    ASSERT_TRUE(oracle::saveArtifact(path, t));
    MicroTrace back = oracle::loadArtifact(path);
    ASSERT_EQ(back.ops.size(), t.ops.size());
    for (std::size_t i = 0; i < t.ops.size(); ++i)
        EXPECT_TRUE(back.ops[i] == t.ops[i]) << "op " << i;
    std::remove(path.c_str());
}

TEST(MicroTrace, SeedAndIterationEnvConventions)
{
    // Guard: these knobs must not already be pinned by the environment
    // (the nightly job sets them), or this test would fight the run.
    if (std::getenv("BERTI_TEST_SEED") ||
        std::getenv("BERTI_PROP_ITERS")) {
        GTEST_SKIP() << "seed/iteration env explicitly pinned";
    }
    setenv("BERTI_TEST_SEED", "0xabc123", 1);
    EXPECT_EQ(oracle::testSeed(7), 0xabc123ull);
    unsetenv("BERTI_TEST_SEED");
    EXPECT_EQ(oracle::testSeed(7), 7ull);

    setenv("BERTI_PROP_ITERS", "10", 1);
    EXPECT_EQ(oracle::propertyIterations(3), 30u);
    unsetenv("BERTI_PROP_ITERS");
    EXPECT_EQ(oracle::propertyIterations(3), 3u);
}

// ===================================================================
// Serialized differential: cycle simulator vs untimed oracle.
// ===================================================================

TEST(SerializedDiff, AllClassesAgreeWithOracle)
{
    const auto &classes = oracle::microTraceClasses();
    ASSERT_GE(classes.size(), 5u);  // acceptance floor: >= 5 classes
    unsigned iters = oracle::propertyIterations(2);
    for (std::size_t c = 0; c < classes.size(); ++c) {
        for (unsigned it = 0; it < iters; ++it) {
            std::uint64_t seed = baseSeed() + 1000 * c + it;
            MicroTrace t = classes[c].generate(seed, 384);
            DiffResult r = oracle::runSerializedDiff(t);
            if (r.diverged) {
                // Shrink the counterexample and keep it replayable.
                std::string path;
                MicroTrace shrunk = oracle::shrinkToArtifact(
                    t,
                    [](const MicroTrace &cand) {
                        return oracle::runSerializedDiff(cand).diverged;
                    },
                    "diff-" + classes[c].name, &path);
                FAIL() << describeSeed(classes[c].name, seed)
                       << "\nop " << r.opIndex << ": " << r.message
                       << "\nshrunk to " << shrunk.size()
                       << " ops, artifact: " << path;
            }
        }
    }
}

TEST(SerializedDiff, PinnedWritebackInteractionsAgree)
{
    // Deterministic documentation case: writeback of a clean resident
    // line, writeback of an absent line (write-allocate), RFO dirtying
    // the whole fill path, then aliasing evictions pushing dirty data
    // down to the backing store.
    const Addr a = 0x1000, b = a + 16 * 1;  // same L1 set (16 sets)
    MicroTrace t;
    t.ops = {
        {MicroOpKind::Load, a, 0x400000, 0},
        {MicroOpKind::Writeback, a, 0x400000, 0},   // hits dirty
        {MicroOpKind::Writeback, 0x9999, 0x400000, 0},  // allocates
        {MicroOpKind::Rfo, b, 0x400004, 0},
        {MicroOpKind::Load, a + 16 * 2, 0x400008, 0},
        {MicroOpKind::Load, a + 16 * 3, 0x40000c, 0},
        {MicroOpKind::Load, a + 16 * 4, 0x400010, 0},
        {MicroOpKind::Load, a + 16 * 5, 0x400014, 0},  // evicts in L1
        {MicroOpKind::Load, a, 0x400000, 0},
    };
    DiffResult r = oracle::runSerializedDiff(t);
    EXPECT_FALSE(r.diverged) << "op " << r.opIndex << ": " << r.message;
}

// ===================================================================
// Shrinker: an injected oracle defect must minimize to a tiny
// replayable artifact.
// ===================================================================

TEST(Shrinker, MinimizesInjectedLruDivergence)
{
    // Artifacts go to a temp dir unless the caller pinned one (nightly).
    if (!std::getenv("BERTI_ARTIFACT_DIR"))
        setenv("BERTI_ARTIFACT_DIR", ::testing::TempDir().c_str(), 1);

    DiffConfig broken;
    broken.perturbation.skipLruTouchEveryN = 3;  // oracle L1 LRU bug

    const MicroTraceClass &cls =
        oracle::findMicroTraceClass("aliasing-sets");
    MicroTrace failing;
    std::uint64_t seed = 0;
    for (unsigned attempt = 0; attempt < 16; ++attempt) {
        std::uint64_t s = baseSeed() + 7777 + attempt;
        MicroTrace t = cls.generate(s, 512);
        if (oracle::runSerializedDiff(t, broken).diverged) {
            failing = t;
            seed = s;
            break;
        }
    }
    ASSERT_FALSE(failing.ops.empty())
        << "no seed exposed the injected LRU perturbation; base "
        << describeSeed(cls.name, baseSeed());

    auto still_fails = [&broken](const MicroTrace &cand) {
        return oracle::runSerializedDiff(cand, broken).diverged;
    };

    std::string path;
    oracle::ShrinkStats stats;
    MicroTrace shrunk = oracle::shrinkToArtifact(
        failing, still_fails, "lru-perturbation", &path, &stats);

    EXPECT_EQ(stats.originalOps, failing.ops.size());
    EXPECT_LE(shrunk.size(), 64u)
        << describeSeed(cls.name, seed) << " predicate runs "
        << stats.predicateRuns;
    EXPECT_TRUE(still_fails(shrunk)) << describeSeed(cls.name, seed);

    // The artifact must replay to the same divergence...
    MicroTrace reloaded = oracle::loadArtifact(path);
    ASSERT_EQ(reloaded.ops.size(), shrunk.ops.size());
    EXPECT_TRUE(still_fails(reloaded)) << "artifact " << path;

    // ...and the divergence is the injected defect, not a real one: the
    // unperturbed oracle agrees on the same shrunk trace.
    EXPECT_FALSE(oracle::runSerializedDiff(shrunk).diverged)
        << describeSeed(cls.name, seed);
}

// ===================================================================
// Concurrent (racing) replay: invariants only, at full audit
// resolution.
// ===================================================================

TEST(ConcurrentRaces, PropertyClassesAuditClean)
{
    const char *names[] = {"writeback-races", "random-mix",
                           "aliasing-sets"};
    unsigned iters = oracle::propertyIterations(3);
    for (const char *name : names) {
        const MicroTraceClass &cls = oracle::findMicroTraceClass(name);
        for (unsigned it = 0; it < iters; ++it) {
            std::uint64_t seed = baseSeed() + 50000 + it * 31;
            MicroTrace t = cls.generate(seed, 256);
            oracle::ConcurrentResult r = oracle::runConcurrent(t);
            EXPECT_FALSE(r.failed)
                << describeSeed(name, seed) << "\n"
                << r.message;
        }
    }
}

TEST(ConcurrentRaces, PinnedWritebackRacingInflightMissRegression)
{
    // The PR-1 duplicate-tag bug: a writeback to line V write-allocates
    // while V's demand miss is still in flight; the late fill must not
    // install a second copy of the tag. Cover several race offsets --
    // the memory round trip is 40 cycles, so every gap below that lands
    // the writeback inside the miss window.
    for (unsigned gap : {0u, 1u, 2u, 5u, 10u, 39u}) {
        MicroTrace t;
        const Addr v = 0x2000;
        t.ops = {
            {MicroOpKind::Load, v, 0x400000, 0},
            {MicroOpKind::Writeback, v, 0x400000, gap},
            {MicroOpKind::Load, v, 0x400000, 1},
            // Alias pressure evicts V afterwards, so the (single) dirty
            // copy must also write back exactly once.
            {MicroOpKind::Load, v + 16 * 1, 0x400004, 2},
            {MicroOpKind::Load, v + 16 * 2, 0x400008, 0},
            {MicroOpKind::Load, v + 16 * 3, 0x40000c, 0},
            {MicroOpKind::Load, v + 16 * 4, 0x400010, 0},
            {MicroOpKind::Load, v, 0x400000, 0},
        };
        oracle::ConcurrentResult r = oracle::runConcurrent(t);
        EXPECT_FALSE(r.failed) << "gap " << gap << "\n" << r.message;
        EXPECT_EQ(r.demandAccesses,
                  r.demandHits + r.demandMisses + r.demandMerged)
            << "gap " << gap;
    }
}

// ===================================================================
// Berti differential: production prefetcher vs the paper
// transcription, event-fed.
// ===================================================================

namespace
{

/** Compare learned delta tables for one IP; reports the first diff. */
void
expectSameDeltas(const BertiPrefetcher &prod, const RefBerti &ref,
                 Addr ip, const std::string &ctx)
{
    auto a = prod.deltasFor(ip);
    auto b = ref.deltasFor(ip);
    ASSERT_EQ(a.size(), b.size()) << ctx << " ip 0x" << std::hex << ip;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].delta, b[i].delta)
            << ctx << " ip 0x" << std::hex << ip << " slot " << i;
        EXPECT_EQ(a[i].coverage, b[i].coverage)
            << ctx << " ip 0x" << std::hex << ip << " slot " << i;
        EXPECT_EQ(static_cast<int>(a[i].status),
                  static_cast<int>(b[i].status))
            << ctx << " ip 0x" << std::hex << ip << " slot " << i;
    }
}

} // namespace

TEST(BertiDifferential, RandomEventStreamsMatchReference)
{
    unsigned iters = oracle::propertyIterations(3);
    for (unsigned it = 0; it < iters; ++it) {
        std::uint64_t seed = baseSeed() + 90000 + it;
        Rng rng(seed);
        std::string ctx = describeSeed("berti-events", seed);

        BertiPrefetcher prod;
        test::RecordingPort port;
        prod.bind(&port);
        RefBerti ref;

        const std::array<Addr, 6> ips = {0x400100, 0x400140, 0x400180,
                                         0x4001c0, 0x400200, 0x400240};
        std::array<Addr, 6> cursor{};
        const std::array<int, 6> strides = {1, 2, -1, 7, 3, -4};
        for (std::size_t i = 0; i < ips.size(); ++i)
            cursor[i] = 0x100000 + i * 0x2000;
        const double occs[] = {0.0, 0.3, 0.65, 0.9};

        Cycle clock = 1000;
        for (unsigned ev = 0; ev < 2000; ++ev) {
            clock += 1 + rng.nextBounded(60);
            double occ = occs[rng.nextBounded(4)];
            port.time = clock;
            port.occupancy = occ;

            std::size_t ipi = rng.nextBounded(ips.size());
            if (rng.nextBool(0.08))
                cursor[ipi] = 0x100000 + rng.nextBounded(0x4000);
            else
                cursor[ipi] = static_cast<Addr>(
                    static_cast<std::int64_t>(cursor[ipi]) +
                    strides[ipi]);
            Addr line = cursor[ipi];

            double roll = rng.nextDouble();
            if (roll < 0.20) {
                // Fill event; latencies reach past the 12-bit counter
                // so the overflow-skips-training rule is exercised.
                Prefetcher::FillInfo f;
                f.vLine = line;
                f.pLine = line;
                f.ip = ips[ipi];
                f.byPrefetch = rng.nextBool(0.3);
                f.hadDemandWaiter = rng.nextBool(0.7);
                f.latency = rng.nextBounded(6000);
                prod.onFill(f);
                ref.onFill(f, clock, occ);
            } else {
                Prefetcher::AccessInfo a;
                a.vLine = line;
                a.pLine = line;
                a.ip = ips[ipi];
                a.type = rng.nextBool(0.2) ? AccessType::Rfo
                                           : AccessType::Load;
                if (roll < 0.65) {
                    a.hit = false;
                } else if (roll < 0.88) {
                    a.hit = true;
                } else {
                    a.hit = true;
                    a.firstHitOnPrefetch = true;
                    a.prefetchLatency = rng.nextBool(0.2)
                        ? 0
                        : 1 + rng.nextBounded(6000);
                }
                prod.onAccess(a);
                ref.onAccess(a, clock, occ);
            }

            ASSERT_EQ(port.issues.size(), ref.issued.size())
                << ctx << " after event " << ev;
        }

        for (std::size_t i = 0; i < port.issues.size(); ++i) {
            ASSERT_EQ(port.issues[i].line, ref.issued[i].line)
                << ctx << " issue " << i;
            ASSERT_EQ(static_cast<int>(port.issues[i].level),
                      static_cast<int>(ref.issued[i].level))
                << ctx << " issue " << i;
        }
        for (Addr ip : ips)
            expectSameDeltas(prod, ref, ip, ctx);
    }
}

TEST(BertiDifferential, TeeInsideMachineMatchesReference)
{
    // Wrap the production Berti in a tee inside a full Machine, run a
    // multi-stream workload, then replay the recorded event stream into
    // the paper transcription: learned tables and the issued prefetch
    // sequence must match exactly.
    oracle::TeeLog log;
    MachineConfig cfg = MachineConfig::sunnyCove(1);
    cfg.l1dPrefetcher = oracle::teeFactory(prefetch::make("berti"), &log);

    StreamGen::Params sp;
    sp.streams = 4;
    sp.strideLines = 2;
    sp.regionLines = 1u << 16;
    StreamGen gen(sp);
    Machine m(cfg, {&gen});
    m.run(25000);

    ASSERT_FALSE(log.events.empty());
    ASSERT_FALSE(log.issues.empty())
        << "stream workload should trigger prefetching";

    RefBerti ref;
    std::vector<Addr> ips;
    for (const oracle::TeeEvent &e : log.events) {
        if (e.isFill) {
            ref.onFill(e.fill, e.now, e.mshrOccupancy);
        } else {
            ref.onAccess(e.access, e.now, e.mshrOccupancy);
            if (std::find(ips.begin(), ips.end(), e.access.ip) ==
                ips.end()) {
                ips.push_back(e.access.ip);
            }
        }
    }

    ASSERT_EQ(log.issues.size(), ref.issued.size());
    for (std::size_t i = 0; i < log.issues.size(); ++i) {
        ASSERT_EQ(log.issues[i].line, ref.issued[i].line)
            << "issue " << i;
        ASSERT_EQ(static_cast<int>(log.issues[i].level),
                  static_cast<int>(ref.issued[i].level))
            << "issue " << i;
    }

    auto *tee = static_cast<oracle::TeePrefetcher *>(m.l1d(0).prefetcher());
    auto *prod = static_cast<BertiPrefetcher *>(tee->innerPrefetcher());
    ASSERT_NE(prod, nullptr);
    for (Addr ip : ips)
        expectSameDeltas(*prod, ref, ip, "machine-tee");
}

// ===================================================================
// Metamorphic invariants across every prefetcher spec.
// ===================================================================

TEST(Metamorphic, PrefetchingNeverChangesDemandSemantics)
{
    // Every spec the registry can build — including the representative
    // hybrid(...) composition specs — placed at the level it is
    // designed for. Driven off prefetch::allSpecs() so a newly
    // registered prefetcher is covered with zero edits here; the
    // registry keeps "none" first (the baseline below relies on it).
    const std::vector<std::string> specs = prefetch::allSpecs();
    ASSERT_GE(specs.size(), 17u);
    ASSERT_EQ(specs.front(), "none");

    std::uint64_t seed = baseSeed() + 424242;
    MicroTrace t = oracle::findMicroTraceClass("page-crossing-strides")
                       .generate(seed, 256);

    oracle::SerializedRunStats baseline;
    bool have_baseline = false;
    for (const std::string &name : specs) {
        const bool atL2 = prefetch::defaultLevelIsL2(name);
        PrefetcherFactory f = makeSpec(name).l1d;  // factory by name
        oracle::SerializedRunStats r = oracle::runSerializedWithPrefetchers(
            t, DiffConfig{}, atL2 || !f ? nullptr : f(),
            atL2 && f ? f() : nullptr);

        SCOPED_TRACE(std::string("spec ") + name + " " +
                     describeSeed("page-crossing-strides", seed));
        ASSERT_FALSE(r.wedged) << r.message;

        // Retired-op semantics: every demand op completes exactly once.
        EXPECT_EQ(r.completed, r.demandOps);
        // Demand accounting never counts prefetch traffic.
        EXPECT_EQ(r.l1.demandAccesses, r.demandOps);
        // Stats algebra at every level.
        for (const CacheStats *cs : {&r.l1, &r.l2, &r.llc}) {
            EXPECT_EQ(cs->demandAccesses,
                      cs->demandHits + cs->demandMisses +
                          cs->demandMshrMerged);
        }

        if (!have_baseline) {
            // First spec is "none": the baseline, and a strict no-op on
            // every prefetch stats field at every level.
            ASSERT_EQ(name, "none");
            baseline = r;
            have_baseline = true;
            for (const CacheStats *cs : {&r.l1, &r.l2, &r.llc}) {
                EXPECT_EQ(cs->prefetchIssued, 0u);
                EXPECT_EQ(cs->prefetchFills, 0u);
                EXPECT_EQ(cs->prefetchUseful, 0u);
                EXPECT_EQ(cs->prefetchUseless, 0u);
                EXPECT_EQ(cs->prefetchLate, 0u);
                EXPECT_EQ(cs->prefetchDroppedFull, 0u);
                EXPECT_EQ(cs->prefetchDroppedTlb, 0u);
                EXPECT_EQ(cs->prefetchDroppedPage, 0u);
                EXPECT_EQ(cs->prefetchCrossPage, 0u);
            }
        } else {
            // Demand totals are invariant under any prefetcher.
            EXPECT_EQ(r.demandOps, baseline.demandOps);
            EXPECT_EQ(r.l1.demandAccesses, baseline.l1.demandAccesses);
        }
    }
}

TEST(Metamorphic, PqGrowthNeverHurtsRegularStream)
{
    // On a perfectly regular stream a bigger prefetch queue can only
    // keep more (correct) prefetches alive: L1D demand misses must be
    // non-increasing in PQ size.
    std::vector<std::uint64_t> misses;
    for (unsigned pq : {2u, 8u, 32u}) {
        MachineConfig cfg = MachineConfig::sunnyCove(1);
        cfg.l1d.pqSize = pq;
        cfg.l1dPrefetcher = [] {
            return std::make_unique<BertiPrefetcher>();
        };
        StreamGen::Params sp;
        sp.streams = 2;
        sp.strideLines = 1;
        sp.regionLines = 1u << 16;
        StreamGen gen(sp);
        Machine m(cfg, {&gen});
        m.run(30000);
        misses.push_back(m.liveStats(0).l1d.demandMisses);
    }
    EXPECT_LE(misses[1], misses[0]) << "pq 8 vs 2";
    EXPECT_LE(misses[2], misses[1]) << "pq 32 vs 8";
}

} // namespace berti
