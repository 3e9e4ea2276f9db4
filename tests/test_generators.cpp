/** @file Workload-generator tests: determinism, pattern properties,
 *  registry integrity. */

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "trace/generators.hh"
#include "trace/registry.hh"
#include "verify/sim_error.hh"

namespace berti
{

namespace
{

std::vector<TraceInstr>
take(TraceGenerator &gen, std::size_t n)
{
    std::vector<TraceInstr> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(gen.next());
    return out;
}

/** Line-address sequence of loads issued by one IP. */
std::vector<Addr>
loadLinesOf(const std::vector<TraceInstr> &trace, Addr ip)
{
    std::vector<Addr> out;
    for (const auto &in : trace) {
        if (in.ip == ip && in.isLoad())
            out.push_back(lineAddr(in.load0));
    }
    return out;
}

} // namespace

TEST(Generators, ScriptedReplaysCyclically)
{
    TraceInstr a, b;
    a.ip = 1;
    b.ip = 2;
    ScriptedGen gen({a, b});
    EXPECT_EQ(gen.next().ip, 1u);
    EXPECT_EQ(gen.next().ip, 2u);
    EXPECT_EQ(gen.next().ip, 1u);
}

TEST(Generators, LbmAlternatesPlusOnePlusTwo)
{
    LbmLikeGen gen({});
    auto trace = take(gen, 30000);
    // Find a load IP and check its per-IP line deltas alternate 1, 2.
    std::map<Addr, std::vector<Addr>> per_ip;
    for (const auto &in : trace) {
        if (in.isLoad())
            per_ip[in.ip].push_back(lineAddr(in.load0));
    }
    ASSERT_GE(per_ip.size(), 8u);  // eight load streams + store site
    bool checked = false;
    for (const auto &[ip, lines] : per_ip) {
        if (lines.size() < 20)
            continue;
        checked = true;
        for (std::size_t i = 1; i + 1 < 20; i += 2) {
            Addr d1 = lines[i] - lines[i - 1];
            Addr d2 = lines[i + 1] - lines[i];
            EXPECT_EQ(d1 + d2, 3u);  // {+1,+2} in some phase
        }
    }
    EXPECT_TRUE(checked);
}

TEST(Generators, StreamAdvancesMonotonically)
{
    StreamGen::Params p;
    p.streams = 2;
    StreamGen gen(p);
    auto trace = take(gen, 5000);
    std::map<Addr, Addr> last;
    for (const auto &in : trace) {
        if (!in.isLoad())
            continue;
        auto it = last.find(in.ip);
        if (it != last.end()) {
            EXPECT_GE(in.load0, it->second);
        }
        last[in.ip] = in.load0;
    }
}

TEST(Generators, McfContainsDependentChase)
{
    McfLikeGen gen({});
    auto trace = take(gen, 5000);
    unsigned dependent = 0;
    for (const auto &in : trace)
        dependent += in.dependsOnPrevLoad ? 1 : 0;
    EXPECT_GT(dependent, 50u);
}

TEST(Generators, McfIrregularCycleIsPeriodic)
{
    // One IP follows the paper's -1,-5,-2,-1,-4,-1 delta cycle; its
    // deltas must repeat with period 6 (modulo region wrap resets).
    McfLikeGen gen({});
    auto trace = take(gen, 60000);
    // IP of the first cycle: siteIp(70) = 0x400000 + 4*70.
    auto lines = loadLinesOf(trace, 0x400000 + 4 * 70);
    ASSERT_GT(lines.size(), 30u);
    std::vector<std::int64_t> deltas;
    for (std::size_t i = 1; i < 25; ++i)
        deltas.push_back(static_cast<std::int64_t>(lines[i]) -
                         static_cast<std::int64_t>(lines[i - 1]));
    for (std::size_t i = 6; i < deltas.size(); ++i)
        EXPECT_EQ(deltas[i], deltas[i - 6]);
}

TEST(Generators, PointerChaseIsFullyDependent)
{
    // Every load but the first, which has no earlier load to follow.
    PointerChaseGen gen({});
    auto trace = take(gen, 2000);
    bool first = true;
    for (const auto &in : trace) {
        if (in.isLoad()) {
            EXPECT_EQ(in.dependsOnPrevLoad, !first);
            first = false;
        }
    }
}

TEST(Generators, CloudHasLargeCodeFootprint)
{
    CloudLikeGen::Params p;
    CloudLikeGen gen(p);
    auto trace = take(gen, 50000);
    std::set<Addr> code_lines;
    for (const auto &in : trace)
        code_lines.insert(lineAddr(in.ip));
    // Far larger than the 512-line L1I.
    EXPECT_GT(code_lines.size(), 1500u);
}

TEST(Generators, CloudDataMostlyHot)
{
    CloudLikeGen::Params p;
    CloudLikeGen gen(p);
    auto trace = take(gen, 50000);
    unsigned hot = 0, total = 0;
    for (const auto &in : trace) {
        if (!in.isLoad())
            continue;
        ++total;
        hot += lineAddr(in.load0) - lineAddr(0x10000000) < p.hotLines;
    }
    ASSERT_GT(total, 0u);
    EXPECT_GT(static_cast<double>(hot) / total, 0.85);
}

TEST(Generators, RandomCoversRegionUniformly)
{
    RandomGen::Params p;
    p.regionLines = 1u << 10;
    RandomGen gen(p);
    auto trace = take(gen, 40000);
    std::set<Addr> lines;
    for (const auto &in : trace) {
        if (in.isLoad())
            lines.insert(lineAddr(in.load0));
    }
    EXPECT_GT(lines.size(), 900u);  // most of the 1024-line region
}

TEST(Generators, BranchesArePresentAndBiased)
{
    StreamGen gen({});
    auto trace = take(gen, 20000);
    unsigned branches = 0, taken = 0;
    for (const auto &in : trace) {
        if (in.isBranch) {
            ++branches;
            taken += in.taken;
        }
    }
    EXPECT_GT(branches, 50u);
    EXPECT_GT(static_cast<double>(taken) / branches, 0.8);
}

// ------------------------------------------------------------ registry

TEST(Registry, AllWorkloadsConstructAndProduce)
{
    for (const auto &w : allWorkloads()) {
        auto gen = w.make();
        ASSERT_NE(gen, nullptr) << w.name;
        auto trace = take(*gen, 2000);
        unsigned mem = 0;
        for (const auto &in : trace)
            mem += in.isMem() ? 1 : 0;
        EXPECT_GT(mem, 0u) << w.name;
    }
}

TEST(Registry, WorkloadsAreDeterministic)
{
    for (const auto &w : allWorkloads()) {
        auto g1 = w.make();
        auto g2 = w.make();
        for (int i = 0; i < 500; ++i) {
            TraceInstr a = g1->next();
            TraceInstr b = g2->next();
            ASSERT_EQ(a.ip, b.ip) << w.name;
            ASSERT_EQ(a.load0, b.load0) << w.name;
            ASSERT_EQ(a.store, b.store) << w.name;
            ASSERT_EQ(a.taken, b.taken) << w.name;
        }
    }
}

TEST(Registry, SuitesPartitionTheRegistry)
{
    auto spec = suiteWorkloads("spec");
    auto gap = suiteWorkloads("gap");
    auto cloud = suiteWorkloads("cloud");
    EXPECT_GE(spec.size(), 20u);
    EXPECT_EQ(gap.size(), 25u);  // 5 kernels x 5 graphs
    EXPECT_EQ(cloud.size(), 5u);
    EXPECT_EQ(spec.size() + gap.size() + cloud.size(),
              allWorkloads().size());
    EXPECT_EQ(specGapWorkloads().size(), spec.size() + gap.size());
}

TEST(Registry, NamesAreUnique)
{
    std::set<std::string> names;
    for (const auto &w : allWorkloads())
        EXPECT_TRUE(names.insert(w.name).second) << w.name;
}

TEST(Registry, FindByNameAndUnknownThrows)
{
    EXPECT_EQ(findWorkload("mcf-like.1554").suite, "spec");
    try {
        findWorkload("no-such-workload");
        FAIL() << "expected SimError(Config)";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::Config);
        EXPECT_NE(std::string(e.what()).find("no-such-workload"),
                  std::string::npos);
    }
}

class WorkloadSweep : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadSweep, AddressesAreCanonical)
{
    auto gen = findWorkload(GetParam()).make();
    for (int i = 0; i < 5000; ++i) {
        TraceInstr in = gen->next();
        EXPECT_NE(in.ip, 0u);
        EXPECT_LT(in.ip, Addr{1} << 40);  // page-table domain
        if (in.isLoad()) {
            EXPECT_LT(in.load0, Addr{1} << 40);
        }
        if (in.isStore()) {
            EXPECT_LT(in.store, Addr{1} << 40);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllSuites, WorkloadSweep,
                         ::testing::Values("stream-like.1",
                                           "lbm-like.2676",
                                           "mcf-like.1554",
                                           "cactu-like.709",
                                           "gcc-like.2226", "bfs-kron",
                                           "pr-urand", "cc-road",
                                           "sssp-kron", "bc-urand",
                                           "cassandra-like",
                                           "classification-like"));

} // namespace berti
