/**
 * @file
 * Simulator-speed overhaul tests: the hot-path containers (RingQueue /
 * IdSet), the MSHR arena (no live-entry recycling, audited), the
 * quiescence cycle-skip's bit-identical-results invariant (golden
 * matrix cells, adversarial micro-traces, a multi-core mix), and the
 * allocation-free steady-state demand path.
 */

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/machine.hh"
#include "obs/export.hh"
#include "oracle/microtrace.hh"
#include "sim/options.hh"
#include "sim/ring.hh"
#include "trace/instr.hh"
#include "trace/registry.hh"
#include "test_util.hh"

// ------------------------------------------------------- allocation probe
// Global operator new/delete override counting every heap allocation in
// the process. The steady-state test asserts the count stays flat across
// a measurement run; everything else ignores it. GCC flags free() on
// new-tracked pointers when the replacement is visible — the pairing is
// consistent (new -> malloc, delete -> free), so the warning is noise.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
static std::atomic<std::uint64_t> g_heapAllocs{0};

void *
operator new(std::size_t n)
{
    ++g_heapAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    ++g_heapAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace berti
{

namespace
{

using test::ScopedEnv;

// ================================================================ RingQueue

TEST(RingQueue, FifoOrderSurvivesGrowth)
{
    RingQueue<int> q;
    for (int i = 0; i < 100; ++i)
        q.push_back(i);
    EXPECT_EQ(q.size(), 100u);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(q.front(), i);
        q.pop_front();
    }
    EXPECT_TRUE(q.empty());
}

TEST(RingQueue, WrapAroundReusesStorage)
{
    RingQueue<int> q(8);
    std::size_t cap = q.capacity();
    // Interleave pushes and pops far past the capacity; the ring must
    // wrap in place without ever growing.
    int next_in = 0, next_out = 0;
    for (int round = 0; round < 1000; ++round) {
        q.push_back(next_in++);
        q.push_back(next_in++);
        EXPECT_EQ(q.front(), next_out++);
        q.pop_front();
        EXPECT_EQ(q.front(), next_out++);
        q.pop_front();
    }
    EXPECT_EQ(q.capacity(), cap);
    EXPECT_TRUE(q.empty());
}

TEST(RingQueue, GrowthWhileWrappedRelinearises)
{
    RingQueue<int> q(4);
    // Advance head so the live span wraps the physical end.
    for (int i = 0; i < 3; ++i)
        q.push_back(i);
    q.pop_front();
    q.pop_front();
    for (int i = 3; i < 40; ++i)
        q.push_back(i);  // forces growth mid-wrap
    for (int expect = 2; expect < 40; ++expect) {
        EXPECT_EQ(q.front(), expect);
        q.pop_front();
    }
}

TEST(RingQueue, EraseKeepsRelativeOrder)
{
    RingQueue<int> q;
    for (int i = 0; i < 6; ++i)
        q.push_back(i);  // 0 1 2 3 4 5
    q.erase(2);          // 0 1 3 4 5
    q.erase(0);          // 1 3 4 5
    std::vector<int> got;
    for (int v : q)
        got.push_back(v);
    EXPECT_EQ(got, (std::vector<int>{1, 3, 4, 5}));
}

TEST(RingQueue, IndexingIsFrontRelative)
{
    RingQueue<int> q(4);
    q.push_back(10);
    q.push_back(11);
    q.pop_front();
    q.push_back(12);
    EXPECT_EQ(q[0], 11);
    EXPECT_EQ(q[1], 12);
}

TEST(IdSet, InsertEraseCount)
{
    IdSet s;
    s.insert(7);
    s.insert(9);
    s.insert(7);  // membership multiset-by-use: callers never double-add
    EXPECT_EQ(s.count(7), 1u);
    EXPECT_EQ(s.count(8), 0u);
    s.erase(7);
    s.erase(9);
    s.erase(42);  // erasing a missing id is a no-op
    EXPECT_EQ(s.count(9), 0u);
}

// ============================================================== SimOptions

TEST(SimOptionsSkip, DefaultsOnAndHonoursEnv)
{
    EXPECT_TRUE(sim::SimOptions::fromEnv().cycleSkip);
    {
        ScopedEnv off("BERTI_CYCLE_SKIP", "0");
        EXPECT_FALSE(sim::SimOptions::fromEnv().cycleSkip);
    }
    {
        ScopedEnv on("BERTI_CYCLE_SKIP", "1");
        EXPECT_TRUE(sim::SimOptions::fromEnv().cycleSkip);
    }
    EXPECT_TRUE(sim::SimOptions::fromEnv().cycleSkip);
}

TEST(SimOptionsSkip, MachineConfigPicksUpTheKnob)
{
    ScopedEnv off("BERTI_CYCLE_SKIP", "0");
    EXPECT_FALSE(MachineConfig::sunnyCove(1).cycleSkip);
}

// ==================================================== cycle-skip identity

/** One simulation cell exported as canonical JSON. */
std::string
cellJson(const Workload &w, const std::string &spec_name, bool skip,
         const SimParams &params)
{
    ScopedEnv env("BERTI_CYCLE_SKIP", skip ? "1" : "0");
    SimResult r = simulate(w, makeSpec(spec_name), params);
    return obs::toJson(resultSnapshot(r));
}

TEST(CycleSkip, GoldenMatrixCellsAreBitIdentical)
{
    SimParams params;
    params.warmupInstructions = 10000;
    params.measureInstructions = 40000;
    const char *cells[] = {"mcf-like.1536", "cactu-like.709"};
    const char *specs[] = {"berti", "none"};
    for (const char *cell : cells) {
        const Workload &w = findWorkload(cell);
        for (const char *spec : specs) {
            std::string off = cellJson(w, spec, false, params);
            std::string on = cellJson(w, spec, true, params);
            EXPECT_EQ(off, on) << cell << "/" << spec
                               << " diverged under cycle-skip";
        }
    }
}

TEST(CycleSkip, AdversarialMicroTracesAreBitIdentical)
{
    SimParams params;
    params.warmupInstructions = 2000;
    params.measureInstructions = 10000;
    std::uint64_t seed = oracle::testSeed(0x5eed5139);
    for (const auto &cls : oracle::microTraceClasses()) {
        oracle::MicroTrace trace = cls.generate(seed, 4000);
        auto instrs = oracle::toInstrs(trace);
        Workload w;
        w.name = "micro:" + cls.name;
        w.suite = "micro";
        w.make = [instrs] {
            return std::make_unique<ScriptedGen>(instrs);
        };
        std::string off = cellJson(w, "berti", false, params);
        std::string on = cellJson(w, "berti", true, params);
        EXPECT_EQ(off, on) << cls.name << " diverged under cycle-skip"
                           << " (seed 0x" << std::hex << seed << ")";
    }
}

TEST(CycleSkip, MultiCoreMixIsBitIdentical)
{
    SimParams params;
    params.warmupInstructions = 5000;
    params.measureInstructions = 20000;
    std::vector<Workload> mix = {findWorkload("mcf-like.1536"),
                                 findWorkload("bwaves-like.2609")};
    PrefetcherSpec spec = makeSpec("berti");

    std::vector<std::string> off, on;
    {
        ScopedEnv env("BERTI_CYCLE_SKIP", "0");
        for (const SampledResult &r : simulateMix(mix, spec, params))
            off.push_back(obs::toJson(resultSnapshot(r.aggregate)));
    }
    {
        ScopedEnv env("BERTI_CYCLE_SKIP", "1");
        for (const SampledResult &r : simulateMix(mix, spec, params))
            on.push_back(obs::toJson(resultSnapshot(r.aggregate)));
    }
    ASSERT_EQ(off.size(), on.size());
    for (std::size_t c = 0; c < off.size(); ++c)
        EXPECT_EQ(off[c], on[c]) << "core " << c << " diverged";
}

// ============================================================== MSHR arena

// A tiny MSHR arena under heavy miss pressure with the invariant
// auditor checking every 256 cycles: entries must recycle through the
// free-list without a live entry ever appearing on it, and the
// unsent-retry counter must track reality exactly (the auditor fails
// the run otherwise).
TEST(MshrArena, ReuseUnderAuditWithTinyArena)
{
    MachineConfig cfg = MachineConfig::sunnyCove(1);
    cfg.l1d.mshrs = 4;
    cfg.l2.mshrs = 4;
    cfg.audit.enabled = true;
    cfg.audit.interval = 256;
    cfg.l1dPrefetcher = makeSpec("berti").l1d;

    auto gen = findWorkload("mcf-like.1536").make();
    Machine machine(cfg, {gen.get()});
    EXPECT_NO_THROW(machine.run(30000));
    EXPECT_GT(machine.liveStats(0).l1d.demandMisses, 0u);
}

TEST(MshrArena, ReuseUnderAuditWithCycleSkipOff)
{
    ScopedEnv env("BERTI_CYCLE_SKIP", "0");
    MachineConfig cfg = MachineConfig::sunnyCove(1);
    cfg.l1d.mshrs = 4;
    cfg.audit.enabled = true;
    cfg.audit.interval = 256;

    auto gen = findWorkload("mcf-like.1536").make();
    Machine machine(cfg, {gen.get()});
    EXPECT_NO_THROW(machine.run(30000));
}

// ====================================================== allocation freedom

// The acceptance criterion of the allocation-free request path: after
// warmup has grown every arena, ring and scratch buffer to steady
// state, a full measurement run on the L1D demand path performs zero
// heap allocations.
TEST(AllocationFree, SteadyStateDemandPathDoesNotAllocate)
{
    auto gen = findWorkload("mcf-like.1536").make();
    MachineConfig cfg = MachineConfig::sunnyCove(1);
    cfg.l1dPrefetcher = makeSpec("berti").l1d;
    Machine machine(cfg, {gen.get()});

    // Warmup: arenas fill, rings reach their high-water marks, waiter
    // vectors and prefetcher scratch grow to their retained capacity.
    machine.run(60000);

    std::uint64_t before = g_heapAllocs.load();
    machine.run(40000);
    std::uint64_t after = g_heapAllocs.load();
    EXPECT_EQ(after - before, 0u)
        << (after - before) << " heap allocations on the steady-state "
        << "demand path";
}

// Same property with the cycle-skip disabled: the no-skip loop must be
// equally allocation-free (the skip only removes iterations).
TEST(AllocationFree, SteadyStateWithoutCycleSkip)
{
    ScopedEnv env("BERTI_CYCLE_SKIP", "0");
    auto gen = findWorkload("bwaves-like.2609").make();
    MachineConfig cfg = MachineConfig::sunnyCove(1);
    cfg.l1dPrefetcher = makeSpec("berti").l1d;
    Machine machine(cfg, {gen.get()});

    machine.run(60000);

    std::uint64_t before = g_heapAllocs.load();
    machine.run(40000);
    std::uint64_t after = g_heapAllocs.load();
    EXPECT_EQ(after - before, 0u)
        << (after - before) << " heap allocations on the steady-state "
        << "demand path (cycle-skip off)";
}

} // namespace
} // namespace berti
