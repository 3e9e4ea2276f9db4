/** @file Matrix runner tests: bit-identical results across job counts
 *  (1/2/8 workers, with and without the invariant auditor), typed error
 *  propagation out of worker threads, ordering guarantees, and
 *  BERTI_JOBS parsing. */

#include <string>

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/parallel.hh"
#include "test_util.hh"
#include "verify/sim_error.hh"

namespace berti
{

namespace
{

using test::resultJson;
using test::runGrid;
using test::ScopedEnv;

std::vector<Workload>
smallSuite()
{
    return {findWorkload("stream-like.1"), findWorkload("gcc-like.2226"),
            findWorkload("mcf-like.1554"),
            findWorkload("deepsjeng-like.1378"),
            findWorkload("bwaves-like.1740")};
}

SimParams
smallParams()
{
    SimParams p;
    p.warmupInstructions = 3000;
    p.measureInstructions = 12000;
    return p;
}

} // namespace

TEST(ParallelMatrix, BitIdenticalToSerialAcrossJobCounts)
{
    auto workloads = smallSuite();
    PrefetcherSpec spec = makeSpec("berti");
    for (unsigned jobs : {2u, 8u})
        test::expectJobCountInvariant(workloads, {spec}, smallParams(), jobs);
    // The pool adds nothing: one worker is the plain simulate() call.
    auto grid = runGrid(workloads, {spec}, smallParams(), 1);
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        EXPECT_EQ(resultJson(grid[0][w]),
                  resultJson(simulate(workloads[w], spec, smallParams())))
            << workloads[w].name;
    }
}

TEST(ParallelMatrix, HonoursBertiJobsEnvironment)
{
    std::vector<Workload> workloads = {findWorkload("stream-like.1"),
                                       findWorkload("gcc-like.2226")};
    std::vector<PrefetcherSpec> specs = {makeSpec("ip-stride")};
    auto serial = runGrid(workloads, specs, smallParams(), 1);
    ScopedEnv env("BERTI_JOBS", "2");
    auto par = runGrid(workloads, specs, smallParams(), 0);  // 0 -> env
    for (std::size_t w = 0; w < workloads.size(); ++w)
        EXPECT_EQ(resultJson(serial[0][w]), resultJson(par[0][w]));
}

TEST(ParallelMatrix, BitIdenticalUnderInvariantAuditor)
{
    SimParams p = smallParams();
    p.forceAudit = true;  // same auditing the BERTI_VERIFY=1 CI runs use
    test::expectJobCountInvariant(
        {findWorkload("stream-like.1"), findWorkload("gcc-like.2226")},
        {makeSpec("berti")}, p, 4);
}

TEST(ParallelMatrix, OrderedBySpecThenWorkload)
{
    std::vector<Workload> workloads = {findWorkload("stream-like.1"),
                                       findWorkload("mcf-like.1554"),
                                       findWorkload("gcc-like.2226")};
    std::vector<PrefetcherSpec> specs = {makeSpec("ip-stride"),
                                         makeSpec("berti")};
    auto grid = runGrid(workloads, specs, smallParams(), 4);
    ASSERT_EQ(grid.size(), specs.size());
    for (std::size_t s = 0; s < specs.size(); ++s) {
        ASSERT_EQ(grid[s].size(), workloads.size());
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            EXPECT_EQ(resultJson(grid[s][w]),
                      resultJson(simulate(workloads[w], specs[s],
                                          smallParams())))
                << specs[s].name << "/" << workloads[w].name;
        }
    }
}

TEST(ParallelMatrix, ConcurrentSharedGraphBuildIsSafeAndIdentical)
{
    // GAP kernels over two different graphs: the workers race to build
    // the registry's shared "urand" and "road" Csrs on first use, each
    // graph under its own lock. The parallel run goes first so both
    // builds happen under contention (TSan covers this test in CI).
    std::vector<Workload> workloads = {
        findWorkload("bfs-urand"), findWorkload("bfs-road"),
        findWorkload("pr-urand"),  findWorkload("pr-road"),
        findWorkload("cc-urand"),  findWorkload("sssp-urand")};
    SimParams p;
    p.warmupInstructions = 2000;
    p.measureInstructions = 8000;
    std::vector<PrefetcherSpec> specs = {makeSpec("ip-stride")};

    auto par = runGrid(workloads, specs, p, 4);
    auto serial = runGrid(workloads, specs, p, 1);
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        EXPECT_EQ(resultJson(serial[0][w]), resultJson(par[0][w]))
            << workloads[w].name;
    }
    // Every kernel over one graph shares the one build.
    EXPECT_EQ(registryGraph("road").get(), registryGraph("road").get());
}

TEST(ParallelMatrix, UnknownRegistryGraphThrowsTyped)
{
    try {
        registryGraph("no-such-graph");
        FAIL() << "expected verify::SimError";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::Config);
        EXPECT_NE(e.reason().find("no-such-graph"), std::string::npos);
    }
}

TEST(ParallelMatrix, WorkerSimErrorPropagatesTyped)
{
    std::vector<Workload> workloads = {findWorkload("stream-like.1"),
                                       findWorkload("gcc-like.2226")};
    PrefetcherSpec bad;
    bad.name = "boom";
    bad.l1d = []() -> std::unique_ptr<Prefetcher> {
        throw verify::SimError(verify::ErrorKind::Config, "test-factory",
                               "injected worker failure", "", 0,
                               "machine state");
    };
    try {
        runGrid(workloads, {bad}, smallParams(), 2);
        FAIL() << "expected verify::SimError";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::Config);
        EXPECT_EQ(e.component(), "test-factory");
        EXPECT_NE(e.reason().find("injected"), std::string::npos);
        EXPECT_EQ(e.diagnostic(), "machine state");
    }
}

TEST(ParallelMatrix, LowestIndexFailedCellWins)
{
    // Cells (spec 0, workload 1) and (spec 1, workload 0) fail; the
    // row-major first one is rethrown whatever the schedule.
    std::vector<Workload> workloads = {findWorkload("stream-like.1"),
                                       findWorkload("gcc-like.2226")};
    harness::SupervisorConfig cfg;
    cfg.maxAttempts = 1;
    cfg.jobs = 4;
    cfg.preAttempt = [](const std::string &workload,
                        const std::string &spec, unsigned) {
        if ((spec == "none" && workload == "gcc-like.2226") ||
            (spec == "berti" && workload == "stream-like.1")) {
            throw verify::SimError(verify::ErrorKind::Fault, "order-test",
                                   spec + "/" + workload);
        }
    };
    auto report = harness::runSupervisedMatrix(
        workloads, {makeSpec("none"), makeSpec("berti")}, smallParams(),
        cfg);
    try {
        report.results();
        FAIL() << "expected verify::SimError";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.reason(), "none/gcc-like.2226");
    }
}

TEST(Parallel, FirstFailureByInputOrderWins)
{
    // Indices 2 and 5 fail; regardless of which worker finishes first,
    // the caller must see index 2's error.
    try {
        forEachIndexParallel(8, [](std::size_t i) {
            if (i == 2 || i == 5) {
                throw verify::SimError(verify::ErrorKind::Config,
                                       "order-test", std::to_string(i));
            }
        }, 4);
        FAIL() << "expected verify::SimError";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.reason(), "2");
    }
}

TEST(Parallel, AllIndicesRunExactlyOnce)
{
    std::vector<int> hits(64, 0);
    forEachIndexParallel(hits.size(),
                         [&](std::size_t i) { hits[i] += 1; }, 8);
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << i;
}

TEST(Parallel, ProgressIsMonotonicAndComplete)
{
    std::size_t calls = 0, last = 0;
    forEachIndexParallel(
        16, [](std::size_t) {}, 4,
        [&](std::size_t done, std::size_t total) {
            EXPECT_EQ(total, 16u);
            EXPECT_EQ(done, last + 1);  // serialized, strictly increasing
            last = done;
            ++calls;
        });
    EXPECT_EQ(calls, 16u);
    EXPECT_EQ(last, 16u);
}

TEST(Parallel, BadBertiJobsIsTypedConfigError)
{
    for (const char *bad : {"", "0", "-3", "lots", "4x", " 2"}) {
        ScopedEnv env("BERTI_JOBS", bad);
        try {
            parallelJobCount();
            FAIL() << "expected verify::SimError for \"" << bad << "\"";
        } catch (const verify::SimError &e) {
            EXPECT_EQ(e.kind(), verify::ErrorKind::Config);
            EXPECT_NE(e.reason().find("BERTI_JOBS"), std::string::npos);
        }
    }
}

TEST(Parallel, ValidBertiJobsIsUsed)
{
    ScopedEnv env("BERTI_JOBS", "3");
    EXPECT_EQ(parallelJobCount(), 3u);
}

TEST(Parallel, DefaultJobCountIsPositive)
{
    ScopedEnv env("BERTI_JOBS", nullptr);
    EXPECT_GE(parallelJobCount(), 1u);
}

} // namespace berti
