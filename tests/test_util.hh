/**
 * @file
 * Shared test helpers: a scoped environment override, the result
 * matrix on a fixed job count, the checkpoint compare, a scripted
 * prefetch port that records issued requests, and a fixed-latency
 * backing memory for driving a Cache in isolation.
 */

#ifndef BERTI_TESTS_TEST_UTIL_HH
#define BERTI_TESTS_TEST_UTIL_HH

#include <cstdlib>
#include <deque>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/machine.hh"
#include "harness/supervisor.hh"
#include "mem/cache.hh"
#include "obs/export.hh"
#include "prefetch/prefetcher.hh"

namespace berti::test
{

/** Scoped environment override (null value = unset); restores the
 *  previous value on exit so tests do not leak into each other. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : key(name)
    {
        if (const char *old = std::getenv(name)) {
            had = true;
            previous = old;
        }
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (had)
            setenv(key, previous.c_str(), 1);
        else
            unsetenv(key);
    }

  private:
    const char *key;
    bool had = false;
    std::string previous;
};

/** Byte-exact export of one result: what every bit-identity check
 *  compares. */
inline std::string
resultJson(const SimResult &r)
{
    return obs::toJson(resultSnapshot(r));
}

/** out[spec][workload] through the one matrix runner on `jobs`
 *  workers; a failed cell rethrows its original exception. */
inline std::vector<std::vector<SimResult>>
runGrid(const std::vector<Workload> &workloads,
        const std::vector<PrefetcherSpec> &specs, const SimParams &params,
        unsigned jobs)
{
    harness::SupervisorConfig cfg;
    cfg.maxAttempts = 1;
    cfg.jobs = jobs;
    return harness::runSupervisedMatrix(workloads, specs, params, cfg)
        .results();
}

/** The matrix on one worker and on `jobs` workers must export the same
 *  bytes, cell for cell. */
inline void
expectJobCountInvariant(const std::vector<Workload> &workloads,
                        const std::vector<PrefetcherSpec> &specs,
                        const SimParams &params, unsigned jobs)
{
    auto one = runGrid(workloads, specs, params, 1);
    auto many = runGrid(workloads, specs, params, jobs);
    for (std::size_t s = 0; s < specs.size(); ++s) {
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            EXPECT_EQ(resultJson(one[s][w]), resultJson(many[s][w]))
                << specs[s].name << "/" << workloads[w].name << " at "
                << jobs << " jobs";
        }
    }
}

/**
 * `got`'s checkpoint must be byte-identical to `want`. A mismatch is a
 * non-fatal failure naming the state path of the first divergent byte
 * (e.g. "core0.l1d.pf.table[3].slots[5]"), never a dump of the blobs.
 */
inline void
expectSameCheckpoint(const Machine &got, const std::string &want,
                     const std::string &what = {})
{
    std::string blob = got.saveCheckpointBlob();
    if (blob == want)
        return;
    std::size_t at = 0;
    while (at < blob.size() && at < want.size() && blob[at] == want[at])
        ++at;
    ADD_FAILURE() << what << ": checkpoints diverge at byte " << at
                  << " (" << blob.size() << " vs " << want.size()
                  << " bytes), in " << got.checkpointPathAt(at);
}

/** Records every prefetch a prefetcher under test issues. */
class RecordingPort : public PrefetchPort
{
  public:
    struct Issue
    {
        Addr line;
        FillLevel level;
    };

    bool
    issuePrefetch(Addr line, FillLevel level) override
    {
        issues.push_back({line, level});
        return accept;
    }

    double mshrOccupancy() const override { return occupancy; }
    Cycle now() const override { return time; }

    /** Count issues targeting one line. */
    std::size_t
    countFor(Addr line) const
    {
        std::size_t n = 0;
        for (const auto &i : issues) {
            if (i.line == line)
                ++n;
        }
        return n;
    }

    bool
    hasIssue(Addr line) const
    {
        return countFor(line) > 0;
    }

    std::vector<Issue> issues;
    double occupancy = 0.0;
    Cycle time = 0;
    bool accept = true;
};

/**
 * Fixed-latency backing store standing in for the rest of the
 * hierarchy below a Cache under test.
 */
class TestMemory : public MemLevel
{
  public:
    explicit TestMemory(const Cycle *clock, Cycle latency = 100)
        : clock(clock), latency(latency)
    {}

    bool
    submitRead(MemRequest req) override
    {
        if (refuseReads)
            return false;
        ++reads;
        pending.push_back({*clock + latency, req});
        return true;
    }

    void
    submitWriteback(Addr p_line) override
    {
        ++writebacks;
        lastWriteback = p_line;
    }

    /** Deliver matured responses. */
    void
    tick()
    {
        while (!pending.empty() && pending.front().first <= *clock) {
            MemRequest req = pending.front().second;
            pending.pop_front();
            if (req.client)
                req.client->readDone(req);
        }
    }

    const Cycle *clock;
    Cycle latency;
    std::deque<std::pair<Cycle, MemRequest>> pending;
    std::uint64_t reads = 0;
    std::uint64_t writebacks = 0;
    Addr lastWriteback = kNoAddr;
    bool refuseReads = false;
};

/** Step helper: tick cache + memory n cycles. */
inline void
stepCycles(Cycle &clock, Cache &cache, TestMemory &mem, unsigned n)
{
    for (unsigned i = 0; i < n; ++i) {
        ++clock;
        mem.tick();
        cache.tick();
    }
}

} // namespace berti::test

#endif // BERTI_TESTS_TEST_UTIL_HH
