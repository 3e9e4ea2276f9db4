/** @file Cache-level unit tests: hits, misses, MSHRs, fills, prefetch
 *  queue semantics, writebacks, statistics. */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "test_util.hh"
#include "vm/tlb.hh"

namespace berti
{

using test::RecordingPort;
using test::stepCycles;
using test::TestMemory;

namespace
{

struct CollectingClient : ReadClient
{
    std::vector<MemRequest> done;

    void readDone(const MemRequest &req) override { done.push_back(req); }
};

CacheConfig
smallConfig()
{
    CacheConfig cfg;
    cfg.name = "ut";
    cfg.level = 1;
    cfg.sets = 4;
    cfg.ways = 2;
    cfg.latency = 2;
    cfg.mshrs = 4;
    cfg.rqSize = 8;
    cfg.pqSize = 4;
    return cfg;
}

MemRequest
load(Addr p_line, ReadClient *client, Addr ip = 0x400000)
{
    MemRequest r;
    r.pLine = p_line;
    r.vLine = p_line;
    r.ip = ip;
    r.type = AccessType::Load;
    r.instrId = 1;
    r.client = client;
    return r;
}

} // namespace

struct CacheFixture : ::testing::Test
{
    Cycle clock = 0;
    Cache cache{smallConfig(), &clock};
    TestMemory mem{&clock, 50};
    CollectingClient client;

    void SetUp() override { cache.setLower(&mem); }

    void step(unsigned n) { stepCycles(clock, cache, mem, n); }
};

TEST_F(CacheFixture, MissFetchesFromBelowThenHits)
{
    ASSERT_TRUE(cache.submitRead(load(100, &client)));
    step(60);
    ASSERT_EQ(client.done.size(), 1u);
    EXPECT_TRUE(cache.probe(100));
    EXPECT_EQ(cache.stats.demandMisses, 1u);
    EXPECT_EQ(mem.reads, 1u);

    // Second access: hit, no new memory read.
    ASSERT_TRUE(cache.submitRead(load(100, &client)));
    step(5);
    EXPECT_EQ(client.done.size(), 2u);
    EXPECT_EQ(cache.stats.demandHits, 1u);
    EXPECT_EQ(mem.reads, 1u);
}

TEST_F(CacheFixture, HitRespectsLookupLatency)
{
    cache.submitRead(load(100, &client));
    step(60);
    client.done.clear();
    cache.submitRead(load(100, &client));
    step(1);
    EXPECT_TRUE(client.done.empty());  // latency 2 not yet elapsed
    step(3);
    EXPECT_EQ(client.done.size(), 1u);
}

TEST_F(CacheFixture, MshrMergesSameLine)
{
    cache.submitRead(load(200, &client));
    step(3);  // past lookup: MSHR allocated
    cache.submitRead(load(200, &client));
    cache.submitRead(load(200, &client));
    step(60);
    EXPECT_EQ(client.done.size(), 3u);   // all three wake
    EXPECT_EQ(mem.reads, 1u);            // one fetch below
    EXPECT_EQ(cache.stats.demandMshrMerged, 2u);
    EXPECT_EQ(cache.stats.demandMisses, 1u);  // miss counted once
}

TEST_F(CacheFixture, MshrExhaustionBlocksHeadOfLine)
{
    for (Addr a = 0; a < 4; ++a)
        cache.submitRead(load(a * 16, &client));
    step(4);
    EXPECT_EQ(cache.mshrsInUse(), 4u);
    cache.submitRead(load(999, &client));
    step(10);  // all MSHRs busy: request parks in the RQ
    EXPECT_EQ(cache.rqOccupancy(), 1u);
    step(150);  // fills free the MSHRs, the parked request proceeds
    EXPECT_EQ(client.done.size(), 5u);
}

TEST_F(CacheFixture, RqFullRefusesRequests)
{
    mem.refuseReads = true;  // nothing drains
    unsigned accepted = 0;
    for (Addr a = 0; a < 100; ++a)
        accepted += cache.submitRead(load(a * 16, &client)) ? 1 : 0;
    EXPECT_EQ(accepted, smallConfig().rqSize);
}

TEST_F(CacheFixture, RetryAfterLowerRefusal)
{
    mem.refuseReads = true;
    cache.submitRead(load(100, &client));
    step(10);
    EXPECT_EQ(mem.reads, 0u);
    mem.refuseReads = false;
    step(60);
    EXPECT_EQ(client.done.size(), 1u);  // retried and completed
}

TEST_F(CacheFixture, RfoMarksDirtyAndEvictionWritesBack)
{
    MemRequest store = load(300, nullptr);
    store.type = AccessType::Rfo;
    cache.submitRead(store);
    step(60);
    EXPECT_TRUE(cache.probeDirty(300));

    // Fill the same set (set index = line % 4) until 300 is evicted.
    // Lines 300+4k map to the same set; 2 ways.
    cache.submitRead(load(304, &client));
    cache.submitRead(load(308, &client));
    step(120);
    EXPECT_FALSE(cache.probe(300));
    EXPECT_EQ(mem.writebacks, 1u);
    EXPECT_EQ(mem.lastWriteback, 300u);
}

TEST_F(CacheFixture, CleanEvictionDoesNotWriteBack)
{
    cache.submitRead(load(300, &client));
    cache.submitRead(load(304, &client));
    cache.submitRead(load(308, &client));
    step(120);
    EXPECT_EQ(mem.writebacks, 0u);
}

TEST_F(CacheFixture, WritebackMissInstallsLine)
{
    cache.submitWriteback(400);
    step(5);
    EXPECT_TRUE(cache.probe(400));
    EXPECT_TRUE(cache.probeDirty(400));
    EXPECT_EQ(mem.reads, 0u);  // full-line write-allocate, no fetch
}

TEST_F(CacheFixture, WritebackHitSetsDirty)
{
    cache.submitRead(load(500, &client));
    step(60);
    EXPECT_FALSE(cache.probeDirty(500));
    cache.submitWriteback(500);
    step(3);
    EXPECT_TRUE(cache.probeDirty(500));
}

TEST_F(CacheFixture, PrefetchFillsAndUsefulCounting)
{
    ASSERT_TRUE(cache.issuePrefetch(600, FillLevel::L1));
    step(60);
    EXPECT_TRUE(cache.probe(600));
    EXPECT_EQ(cache.stats.prefetchFills, 1u);
    EXPECT_EQ(cache.stats.prefetchUseful, 0u);

    cache.submitRead(load(600, &client));
    step(5);
    EXPECT_EQ(cache.stats.prefetchUseful, 1u);

    // Second hit: useful is counted once.
    cache.submitRead(load(600, &client));
    step(5);
    EXPECT_EQ(cache.stats.prefetchUseful, 1u);
}

TEST_F(CacheFixture, LatePrefetchCountsWhenDemandMerges)
{
    cache.issuePrefetch(700, FillLevel::L1);
    step(4);  // prefetch MSHR allocated, fetch in flight
    cache.submitRead(load(700, &client));
    step(60);
    EXPECT_EQ(cache.stats.prefetchLate, 1u);
    EXPECT_EQ(cache.stats.prefetchUseful, 1u);
    EXPECT_EQ(client.done.size(), 1u);
}

TEST_F(CacheFixture, UselessPrefetchCountedOnEviction)
{
    cache.issuePrefetch(304, FillLevel::L1);  // set 0
    step(60);
    // Two demand fills push it out (2 ways).
    cache.submitRead(load(308, &client));
    cache.submitRead(load(312, &client));
    step(120);
    EXPECT_FALSE(cache.probe(304));
    EXPECT_EQ(cache.stats.prefetchUseless, 1u);
}

TEST_F(CacheFixture, PrefetchDedupInQueue)
{
    EXPECT_TRUE(cache.issuePrefetch(800, FillLevel::L1));
    EXPECT_TRUE(cache.issuePrefetch(800, FillLevel::L1));  // deduped
    EXPECT_EQ(cache.stats.prefetchIssued, 1u);
    EXPECT_EQ(cache.pqOccupancy(), 1u);
}

TEST_F(CacheFixture, PrefetchQueueFullDrops)
{
    mem.refuseReads = true;
    for (Addr a = 0; a < 10; ++a)
        cache.issuePrefetch(900 + a * 16, FillLevel::L1);
    EXPECT_EQ(cache.stats.prefetchDroppedFull,
              10u - smallConfig().pqSize);
}

TEST_F(CacheFixture, PrefetchToPresentLineIsDropped)
{
    cache.submitRead(load(1000, &client));
    step(60);
    cache.issuePrefetch(1000, FillLevel::L1);
    step(5);
    EXPECT_EQ(cache.stats.prefetchFills, 0u);
    EXPECT_EQ(mem.reads, 1u);
}

// An own-PQ prefetch and a Prefetch-type request from above take the
// same path through Cache::handle except on a hit and on a refusal.

TEST_F(CacheFixture, OwnPrefetchHitTouchesNoDataOrReplacementState)
{
    // Lines 0 and 4 share set 0 (two ways); 0 is the LRU way.
    cache.submitRead(load(0, &client));
    step(60);
    cache.submitRead(load(4, &client));
    step(60);
    std::uint64_t tag_reads = cache.stats.tagReads;
    std::uint64_t data_reads = cache.stats.dataReads;

    cache.issuePrefetch(0, FillLevel::L1);
    step(5);
    EXPECT_EQ(cache.pqOccupancy(), 0u);
    EXPECT_EQ(cache.stats.tagReads, tag_reads + 1);
    EXPECT_EQ(cache.stats.dataReads, data_reads);

    // Line 0 is still the LRU way, so a third line in the set evicts it.
    cache.submitRead(load(8, &client));
    step(60);
    EXPECT_FALSE(cache.probe(0));
    EXPECT_TRUE(cache.probe(4));
    EXPECT_TRUE(cache.probe(8));
}

TEST_F(CacheFixture, PrefetchFromAboveHitReadsDataAndWakesClient)
{
    cache.submitRead(load(1000, &client));
    step(60);
    client.done.clear();
    std::uint64_t data_reads = cache.stats.dataReads;
    std::uint64_t demand_hits = cache.stats.demandHits;

    MemRequest pf;
    pf.pLine = 1000;
    pf.type = AccessType::Prefetch;
    pf.client = &client;
    ASSERT_TRUE(cache.submitRead(pf));
    step(5);
    ASSERT_EQ(client.done.size(), 1u);
    EXPECT_EQ(client.done[0].type, AccessType::Prefetch);
    EXPECT_EQ(cache.stats.dataReads, data_reads + 1);
    EXPECT_EQ(cache.stats.demandHits, demand_hits);  // not a demand
}

TEST(CacheLlc, RefusedOwnPrefetchNeverParksTheReadQueue)
{
    Cycle clock = 0;
    CacheConfig cfg = smallConfig();
    cfg.level = 3;  // an LLC cannot demote, so a full MSHR file refuses
    Cache llc(cfg, &clock);
    TestMemory mem(&clock, 50);
    CollectingClient client;
    llc.setLower(&mem);
    for (Addr a = 0; a < cfg.mshrs; ++a)
        llc.submitRead(load(a * 16, &client));
    stepCycles(clock, llc, mem, 4);
    ASSERT_EQ(llc.mshrsInUse(), cfg.mshrs);

    llc.issuePrefetch(999, FillLevel::L1);
    stepCycles(clock, llc, mem, 5);
    EXPECT_EQ(llc.pqOccupancy(), 1u);  // refused, still queued
    EXPECT_FALSE(llc.readHeadParked());

    // A refused read head does park, and the PQ head refused in the
    // same cycles leaves it parked.
    llc.submitRead(load(998, &client));
    stepCycles(clock, llc, mem, 5);
    EXPECT_TRUE(llc.readHeadParked());
    EXPECT_EQ(llc.pqOccupancy(), 1u);

    stepCycles(clock, llc, mem, 150);  // fills free the MSHRs
    EXPECT_FALSE(llc.readHeadParked());
    EXPECT_EQ(llc.pqOccupancy(), 0u);
    EXPECT_TRUE(llc.probe(999));
    EXPECT_TRUE(llc.probe(998));
}

TEST_F(CacheFixture, DeeperFillLevelPassesThrough)
{
    // An L2-targeted prefetch issued at an L1 cache must not fill here.
    cache.issuePrefetch(1100, FillLevel::L2);
    step(60);
    EXPECT_FALSE(cache.probe(1100));
    EXPECT_EQ(mem.reads, 1u);  // still forwarded below
    EXPECT_EQ(cache.stats.prefetchFills, 0u);
}

TEST_F(CacheFixture, MshrOccupancyReporting)
{
    EXPECT_DOUBLE_EQ(cache.mshrOccupancy(), 0.0);
    cache.submitRead(load(0, &client));
    cache.submitRead(load(16, &client));
    step(3);
    EXPECT_DOUBLE_EQ(cache.mshrOccupancy(), 0.5);
    step(60);
    EXPECT_DOUBLE_EQ(cache.mshrOccupancy(), 0.0);
}

TEST_F(CacheFixture, FastHitCountsAndMisses)
{
    EXPECT_FALSE(cache.fastHit(1200));
    cache.submitRead(load(1200, &client));
    step(60);
    std::uint64_t hits = cache.stats.demandHits;
    EXPECT_TRUE(cache.fastHit(1200));
    EXPECT_EQ(cache.stats.demandHits, hits + 1);
}

TEST_F(CacheFixture, EmptySlotMarkerNeverMatches)
{
    // On a cold cache every way and MSHR tag holds kNoAddr, the empty
    // marker: looking kNoAddr up must find nothing, not an empty slot.
    EXPECT_FALSE(cache.probe(kNoAddr));
    EXPECT_FALSE(cache.probeDirty(kNoAddr));
    EXPECT_FALSE(cache.fastHit(kNoAddr));

    MemRequest fill;  // a response for a line nobody fetched
    fill.pLine = kNoAddr;
    cache.readDone(fill);
    EXPECT_EQ(cache.mshrsInUse(), 0u);
    EXPECT_EQ(cache.stats.fills, 0u);
    EXPECT_EQ(cache.stats.fillLatencyCount, 0u);
    EXPECT_EQ(cache.stats.demandHits, 0u);
    EXPECT_FALSE(cache.probe(kNoAddr));
}

TEST_F(CacheFixture, FillLatencyMeasured)
{
    cache.submitRead(load(1300, &client));
    step(80);
    ASSERT_EQ(cache.stats.fillLatencyCount, 1u);
    // Lookup (2) + memory (50) plus queue slack.
    EXPECT_GE(cache.stats.avgFillLatency(), 50.0);
    EXPECT_LE(cache.stats.avgFillLatency(), 60.0);
}

// --------------------------------------------------------------------
// L1D-specific behaviour: virtual prefetching through the STLB.

struct L1dFixture : ::testing::Test
{
    Cycle clock = 0;
    CacheConfig cfg = [] {
        CacheConfig c = smallConfig();
        c.isL1d = true;
        return c;
    }();
    Cache cache{cfg, &clock};
    TestMemory mem{&clock, 50};
    TranslationUnit tu{TranslationUnit::Config{}};
    CollectingClient client;

    void SetUp() override
    {
        cache.setLower(&mem);
        cache.setTranslation(&tu);
    }

    void step(unsigned n) { stepCycles(clock, cache, mem, n); }
};

TEST_F(L1dFixture, PrefetchDroppedOnStlbMiss)
{
    // Page never demanded: the STLB cannot translate it.
    EXPECT_FALSE(cache.issuePrefetch(lineAddr(0x50000), FillLevel::L1));
    EXPECT_EQ(cache.stats.prefetchDroppedTlb, 1u);
}

TEST_F(L1dFixture, PrefetchTranslatesAfterDemandWalk)
{
    tu.translate(0x50000);  // demand walk installs the mapping
    EXPECT_TRUE(cache.issuePrefetch(lineAddr(0x50040), FillLevel::L1));
    step(60);
    EXPECT_TRUE(cache.probe(lineAddr(tu.translate(0x50040).paddr)));
}

TEST_F(L1dFixture, PrefetchedLineCarriesLatencyToFirstHit)
{
    // Observed through the prefetcher hook: use a tiny spy prefetcher.
    struct Spy : Prefetcher
    {
        Cycle seen = 0;
        void
        onAccess(const AccessInfo &info) override
        {
            if (info.firstHitOnPrefetch)
                seen = info.prefetchLatency;
        }
        std::uint64_t storageBits() const override { return 0; }
        std::string name() const override { return "spy"; }
    };
    auto spy = std::make_unique<Spy>();
    Spy *spy_ptr = spy.get();
    cache.setPrefetcher(std::move(spy));

    tu.translate(0x60000);
    cache.issuePrefetch(lineAddr(0x60000), FillLevel::L1);
    step(80);

    MemRequest d = load(lineAddr(tu.translate(0x60000).paddr), &client);
    d.vLine = lineAddr(0x60000);
    cache.submitRead(d);
    step(5);
    EXPECT_GE(spy_ptr->seen, 50u);  // the memory latency was recorded
}

} // namespace berti
