/** @file Harness tests: spec parsing, table printing, simulation
 *  determinism. */

#include <sstream>

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/result_store.hh"
#include "harness/table.hh"
#include "verify/sim_error.hh"

namespace berti
{

TEST(Spec, ParsesSingleLevelNames)
{
    for (const char *name : {"none", "ip-stride", "next-line", "bop",
                             "mlop", "ipcp", "berti"}) {
        PrefetcherSpec s = makeSpec(name);
        EXPECT_EQ(s.name, name);
        EXPECT_EQ(s.l2, nullptr);
        if (std::string(name) == "none")
            EXPECT_EQ(s.l1d, nullptr);
        else
            EXPECT_NE(s.l1d, nullptr);
    }
}

TEST(Spec, ParsesMultiLevelCombos)
{
    PrefetcherSpec s = makeSpec("berti+spp-ppf");
    ASSERT_NE(s.l1d, nullptr);
    ASSERT_NE(s.l2, nullptr);
    EXPECT_EQ(s.l1d()->name(), "berti");
    EXPECT_EQ(s.l2()->name(), "spp-ppf");
    EXPECT_GT(s.storageBits, makeSpec("berti").storageBits);
}

TEST(Spec, L2OnlyCombo)
{
    PrefetcherSpec s = makeSpec("none+bingo");
    EXPECT_EQ(s.l1d, nullptr);
    ASSERT_NE(s.l2, nullptr);
    EXPECT_EQ(s.l2()->name(), "bingo");
}

TEST(Spec, L1iPrefetcherShowsInNameAndRuns)
{
    PrefetcherSpec plain = makeSpec("berti");
    PrefetcherSpec with = withL1iPrefetcher(
        plain, "next-line", [] { return makeSpec("next-line").l1d(); });
    EXPECT_EQ(with.name, "berti;l1i=next-line");
    EXPECT_NE(harness::makeStoreKey("mcf-like.472", with.name, {}).hash(),
              harness::makeStoreKey("mcf-like.472", plain.name, {}).hash());

    // The factory reaches the machine, in full and sampled runs alike.
    SimParams p;
    p.warmupInstructions = 2000;
    p.measureInstructions = 8000;
    const Workload &w = findWorkload("cloud9-like");
    EXPECT_EQ(simulate(w, plain, p).roi.l1i.prefetchIssued, 0u);
    EXPECT_GT(simulate(w, with, p).roi.l1i.prefetchIssued, 0u);
    p.sampling.windowCount = 2;
    p.sampling.windowMeasure = 2000;
    SampledResult s = simulateSampled(w, with, p);
    EXPECT_GT(s.aggregate.roi.l1i.prefetchIssued, 0u);
    EXPECT_GE(s.aggregate.roi.core.instructions,
              2 * p.sampling.windowMeasure);
    EXPECT_LT(s.aggregate.roi.core.instructions, p.measureInstructions);
}

TEST(Spec, UnknownNameThrowsTypedError)
{
    try {
        makeSpec("quantum-oracle");
        FAIL() << "expected verify::SimError";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::Config);
        EXPECT_EQ(e.component(), "prefetch");
        EXPECT_NE(e.reason().find("quantum-oracle"), std::string::npos);
    }
}

TEST(Spec, UnknownL2NameThrowsTypedError)
{
    EXPECT_THROW(makeSpec("berti+quantum-oracle"), verify::SimError);
}

TEST(Spec, BertiStorageIsTwoPointFiveFiveKb)
{
    PrefetcherSpec s = makeSpec("berti");
    EXPECT_NEAR(static_cast<double>(s.storageBits) / 8192.0, 2.55, 0.06);
}

TEST(Spec, CustomBertiConfigPropagates)
{
    BertiConfig cfg;
    cfg.crossPage = false;
    PrefetcherSpec s = makeBertiSpec(cfg, "berti-nocross");
    EXPECT_EQ(s.name, "berti-nocross");
    auto pf = s.l1d();
    auto *b = dynamic_cast<BertiPrefetcher *>(pf.get());
    ASSERT_NE(b, nullptr);
    EXPECT_FALSE(b->config().crossPage);
}

TEST(TableTest, AlignedOutputContainsCells)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", TextTable::num(1.5, 1)});
    t.addRow({"b", TextTable::pct(0.5)});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("1.5"), std::string::npos);
    EXPECT_NE(out.find("50.0%"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TableTest, ShortRowsArePadded)
{
    TextTable t({"a", "b", "c"});
    t.addRow({"only-one"});
    std::ostringstream os;
    t.print(os);
    SUCCEED();
}

// ------------------------------------------------------- simulations

TEST(Simulate, DeterministicAcrossRuns)
{
    SimParams p;
    p.warmupInstructions = 5000;
    p.measureInstructions = 20000;
    const Workload &w = findWorkload("stream-like.1");
    SimResult a = simulate(w, makeSpec("berti"), p);
    SimResult b = simulate(w, makeSpec("berti"), p);
    EXPECT_EQ(a.roi.core.cycles, b.roi.core.cycles);
    EXPECT_EQ(a.roi.l1d.demandMisses, b.roi.l1d.demandMisses);
    EXPECT_EQ(a.roi.l1d.prefetchIssued, b.roi.l1d.prefetchIssued);
}

TEST(Simulate, BertiBeatsNoPrefetchOnStreams)
{
    SimParams p;
    p.warmupInstructions = 20000;
    p.measureInstructions = 80000;
    const Workload &w = findWorkload("stream-like.1");
    SimResult none = simulate(w, makeSpec("none"), p);
    SimResult berti = simulate(w, makeSpec("berti"), p);
    EXPECT_GT(berti.ipc, 1.15 * none.ipc);
    EXPECT_LT(berti.roi.l1d.demandMisses, none.roi.l1d.demandMisses);
}

TEST(Simulate, BertiIsAccurateOnStreams)
{
    SimParams p;
    p.warmupInstructions = 20000;
    p.measureInstructions = 80000;
    SimResult r =
        simulate(findWorkload("stream-like.1"), makeSpec("berti"), p);
    EXPECT_GT(r.roi.l1d.accuracy(), 0.85);
}

TEST(Simulate, EnergyScalesWithTraffic)
{
    SimParams p;
    p.warmupInstructions = 5000;
    p.measureInstructions = 30000;
    const Workload &w = findWorkload("stream-like.1");
    SimResult none = simulate(w, makeSpec("none"), p);
    EXPECT_GT(none.energy.total(), 0.0);
    EXPECT_GT(none.energy.dram, none.energy.l1);
}

TEST(Simulate, DramBandwidthKnobChangesPerformance)
{
    SimParams fast, slow;
    fast.warmupInstructions = slow.warmupInstructions = 10000;
    fast.measureInstructions = slow.measureInstructions = 50000;
    slow.memBackend = "dram:ddr4;mtps=1600";
    const Workload &w = findWorkload("stream-like.1");
    SimResult f = simulate(w, makeSpec("none"), fast);
    SimResult s = simulate(w, makeSpec("none"), slow);
    EXPECT_GT(f.ipc, s.ipc);
}

TEST(SimulateMix, ProducesPerCoreResults)
{
    SimParams p;
    p.warmupInstructions = 3000;
    p.measureInstructions = 15000;
    std::vector<Workload> mix = {findWorkload("stream-like.1"),
                                 findWorkload("gcc-like.2226")};
    auto results = simulateMix(mix, makeSpec("berti"), p);
    ASSERT_EQ(results.size(), 2u);
    for (const auto &r : results) {
        EXPECT_GE(r.aggregate.roi.core.instructions, p.measureInstructions);
        EXPECT_GT(r.aggregate.ipc, 0.0);
    }
}

TEST(SimulateMix, SharedLlcSeesBothCores)
{
    SimParams p;
    p.warmupInstructions = 3000;
    p.measureInstructions = 15000;
    std::vector<Workload> mix = {findWorkload("stream-like.1"),
                                 findWorkload("omnetpp-like.874")};
    auto results = simulateMix(mix, makeSpec("none"), p);
    // Both cores funnel into one LLC: its access count exceeds either
    // core's private L2 miss count.
    const RunStats &c0 = results[0].aggregate.roi;
    const RunStats &c1 = results[1].aggregate.roi;
    EXPECT_GT(c0.llc.demandAccesses + c1.llc.demandAccesses,
              c0.l2.demandMisses);
}

TEST(SpeedupGeomean, MatchesHandComputation)
{
    SimResult a, b, c, d;
    a.ipc = 2.0;
    b.ipc = 1.0;  // 2x
    c.ipc = 1.0;
    d.ipc = 2.0;  // 0.5x
    double g = speedupGeomean({a, c}, {b, d});
    EXPECT_NEAR(g, 1.0, 1e-9);
}

TEST(SpeedupGeomean, NonPositiveBaselineIpcIsHardError)
{
    // A crashed or empty baseline cell used to be silently dropped,
    // quietly shifting the geomean; it must name the offending index.
    SimResult good, bad;
    good.ipc = 1.5;
    bad.ipc = 0.0;
    try {
        speedupGeomean({good, good}, {good, bad});
        FAIL() << "expected verify::SimError";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::Config);
        EXPECT_NE(e.reason().find("baseline result 1"), std::string::npos)
            << e.reason();
        EXPECT_NE(e.reason().find("non-positive"), std::string::npos)
            << e.reason();
    }
}

TEST(SpeedupGeomean, SizeMismatchIsHardError)
{
    SimResult a, b;
    a.ipc = b.ipc = 1.0;
    try {
        speedupGeomean({a, a}, {b});
        FAIL() << "expected verify::SimError";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::Config);
        EXPECT_NE(e.reason().find("mismatch"), std::string::npos);
    }
}

} // namespace berti
