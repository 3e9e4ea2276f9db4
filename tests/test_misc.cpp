/** @file Small-surface tests: new prefetcher spec names,
 *  queued-generator helpers, machine safety bound. */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/machine.hh"
#include "trace/generators.hh"

namespace berti
{

TEST(Spec, RelatedWorkNamesResolve)
{
    for (const char *name : {"stream", "sms", "pythia"}) {
        PrefetcherSpec s = makeSpec(name);
        ASSERT_NE(s.l1d, nullptr) << name;
        EXPECT_EQ(s.l1d()->name(), name);
    }
    PrefetcherSpec combo = makeSpec("berti+pythia");
    ASSERT_NE(combo.l2, nullptr);
    EXPECT_EQ(combo.l2()->name(), "pythia");
}

TEST(Spec, StorageOrderingMatchesTableThree)
{
    // Berti is among the smallest; Bingo and MISB are the heavy ones.
    EXPECT_LT(makeSpec("berti").storageBits,
              makeSpec("none+bingo").storageBits);
    EXPECT_LT(makeSpec("berti").storageBits,
              makeSpec("none+misb").storageBits);
    EXPECT_LT(makeSpec("ip-stride").storageBits,
              makeSpec("berti").storageBits);
}

TEST(QueuedGen, NeverReturnsEmpty)
{
    // Every generator must always hand back an instruction.
    StreamGen gen({});
    for (int i = 0; i < 10000; ++i) {
        TraceInstr in = gen.next();
        (void)in;
    }
    SUCCEED();
}

TEST(Machine, SafetyBoundTerminatesPathologicalRuns)
{
    // A generator whose every instruction is a dependent DRAM miss:
    // progress is glacial but run() must still return (bounded).
    class WorstCaseGen : public TraceGenerator
    {
      public:
        TraceInstr
        next() override
        {
            TraceInstr in;
            in.ip = 0x400000;
            in.load0 = 0x10000000ull + 64 * (n++ % 100000);
            in.dependsOnPrevLoad = true;
            return in;
        }

      private:
        std::uint64_t n = 0;
    };
    WorstCaseGen gen;
    Machine m(MachineConfig::sunnyCove(1), {&gen});
    m.run(200);  // tiny target: returns promptly even at IPC << 1
    EXPECT_GE(m.liveStats(0).core.instructions, 200u);
}

TEST(EnergyBreakdown, DefaultIsZero)
{
    EnergyBreakdown e;
    EXPECT_DOUBLE_EQ(e.total(), 0.0);
}

TEST(Workload, AdHocWorkloadWrapsAnyGenerator)
{
    // The Workload struct is an open extension point (used by
    // examples/graph_analytics): wrap a custom generator and simulate.
    Workload w;
    w.name = "adhoc";
    w.suite = "custom";
    w.make = [] {
        StreamGen::Params p;
        p.streams = 1;
        return std::make_unique<StreamGen>(p);
    };
    SimParams params;
    params.warmupInstructions = 2000;
    params.measureInstructions = 8000;
    SimResult r = simulate(w, makeSpec("none"), params);
    EXPECT_GE(r.roi.core.instructions, 8000u);
}

} // namespace berti
