/**
 * @file
 * Shared plumbing for the bench binaries: default simulation lengths,
 * suite shortcuts, result matrices and normalisation helpers. Each
 * bench regenerates one table or figure of the paper.
 */

#ifndef BERTI_BENCH_COMMON_HH
#define BERTI_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/parallel.hh"
#include "harness/supervisor.hh"
#include "harness/table.hh"
#include "mem/backend_registry.hh"
#include "obs/export.hh"
#include "sim/options.hh"
#include "sim/spec_parse.hh"
#include "verify/sim_error.hh"

namespace berti::bench
{

/** The typed error for a command-line argument a bench does not take:
 *  a typo must fail loudly, not run the bench with its defaults. */
[[noreturn]] inline void
rejectArgument(const char *bench, const std::string &arg)
{
    throw verify::SimError(verify::ErrorKind::Config, bench,
                           "unknown argument \"" + arg + "\"");
}

/** Environment plus SimOptions flags for a bench that takes no other
 *  argument; anything else is rejected by rejectArgument. */
inline sim::SimOptions
parseOptions(int argc, char **argv)
{
    sim::SimOptions opt = sim::SimOptions::fromEnvAndArgs(argc, argv);
    if (argc > 1)
        rejectArgument(argv[0], argv[1]);
    return opt;
}

/**
 * When the options name a stats directory (BERTI_STATS_DIR or
 * --stats-dir=), write one machine-diffable JSON sidecar per
 * (spec, workload) cell — <dir>/<spec>__<workload>.json in the stable
 * resultSnapshot() schema. Colliding sanitized names get a numeric
 * suffix so no cell silently overwrites another. Called by
 * runSpecMatrix after the pool joins, so results arrive in input order
 * and the sidecar set is identical for every job count. A non-empty
 * subdir nests the sidecars one level down (fig16, fig17 and fig24
 * keep one subdirectory per memory backend so identical spec x
 * workload cells from different backends never collide).
 */
inline void
writeStatsSidecars(const sim::SimOptions &opt,
                   const std::vector<Workload> &workloads,
                   const std::vector<PrefetcherSpec> &specs,
                   const std::vector<std::vector<SimResult>> &grid,
                   const std::string &subdir = "")
{
    std::string dir = opt.statsDir;
    if (dir.empty())
        return;
    if (!subdir.empty())
        dir += "/" + obs::sanitizeLabel(subdir);
    // A bench killed mid-write leaves a *.json.tmp staging file behind
    // (writeFile renames only on success); sweep them before writing so
    // the sidecar directory holds nothing but complete documents.
    std::size_t stale = obs::removeStaleTempFiles(dir);
    if (stale > 0) {
        std::cerr << "stats: removed " << stale
                  << " stale .tmp file(s) from " << dir << "\n";
    }
    std::map<std::string, unsigned> used;
    for (std::size_t s = 0; s < specs.size(); ++s) {
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            std::string stem = obs::sanitizeLabel(specs[s].name) + "__" +
                               obs::sanitizeLabel(workloads[w].name);
            unsigned n = used[stem]++;
            if (n > 0)
                stem += "." + std::to_string(n);
            obs::writeFile(dir + "/" + stem + ".json",
                           obs::toJson(resultSnapshot(grid[s][w])));
        }
    }
}

/**
 * File-backed workloads requested via BERTI_TRACE_WORKLOADS (or
 * --trace-workloads=): a comma-separated list of `file:` URIs or bare
 * trace paths. Benches append these to their workload lists so real
 * ChampSim traces ride along with the synthetic suites. Bare paths get
 * the `file:` prefix here; resolution errors are typed SimErrors from
 * resolveWorkload and abort the bench loudly.
 */
inline std::vector<Workload>
extraTraceWorkloads(const sim::SimOptions &opt)
{
    std::vector<Workload> out;
    for (std::string name : sim::splitTopLevel(opt.traceWorkloads, ',')) {
        if (name.compare(0, 5, "file:") != 0)
            name = "file:" + name;
        out.push_back(resolveWorkload(name));
    }
    return out;
}

/** Default region-of-interest sizes for bench runs. Set
 *  BERTI_BENCH_QUICK=1 (or pass --quick) for a fast smoke pass, and
 *  BERTI_SAMPLE_WINDOWS=N (or --sample-windows=N) to replace the long
 *  measurement region with N sampled windows — every bench then
 *  regenerates its figure from windowed samples at a fraction of the
 *  simulated instructions, stored under distinct result-store keys.
 *  The memory backend and --verify ride along (SimParams::applyOptions). */
inline SimParams
defaultParams(const sim::SimOptions &opt)
{
    SimParams p;
    p.warmupInstructions = 40000;
    p.measureInstructions = 200000;
    if (opt.benchQuick) {
        p.warmupInstructions = 10000;
        p.measureInstructions = 40000;
    }
    // Sampling exists to cut simulated instructions; the global warmup
    // shrinks with it (windows re-warm locally).
    if (opt.sampleWindows > 0)
        p.warmupInstructions = opt.benchQuick ? 4000 : 8000;
    p.applyOptions(opt);
    return p;
}

/** The options' memory backend (default dram:ddr4) at one DRAM data
 *  rate — Figures 16-17's sweep. The last mtps= in a spec wins, so any
 *  backend the options name takes the swept rate. */
inline std::string
backendAtRate(const sim::SimOptions &opt, unsigned mtps)
{
    const std::string base =
        opt.memBackend.empty() ? mem::kDefaultBackendSpec : opt.memBackend;
    return base + ";mtps=" + std::to_string(mtps);
}

/**
 * Run every (spec, workload) cell through runSupervisedMatrix on the
 * options' pool size (BERTI_JOBS / --jobs, else hardware_concurrency),
 * with thread-safe progress on stderr, then write the stats sidecars.
 * out[s][w] corresponds to specs[s] on workloads[w]; ordering matches
 * the inputs regardless of thread count. Each cell runs once: a failure
 * rethrows the lowest-index failed cell's original exception.
 */
inline std::vector<std::vector<SimResult>>
runSpecMatrix(const sim::SimOptions &opt,
              const std::vector<Workload> &workloads,
              const std::vector<PrefetcherSpec> &specs,
              const SimParams &params, const std::string &label = "matrix",
              const std::string &sidecarSubdir = "")
{
    harness::SupervisorConfig sup;
    sup.maxAttempts = 1;
    sup.jobs = opt.jobs;
    sup.progress = stderrProgress(label);
    auto grid =
        harness::runSupervisedMatrix(workloads, specs, params, sup).results();
    writeStatsSidecars(opt, workloads, specs, grid, sidecarSubdir);
    return grid;
}

/** spec-name -> per-workload results (runSpecMatrix over makeSpec of
 *  each name; sidecarSubdir as there). */
inline std::map<std::string, std::vector<SimResult>>
runMatrix(const sim::SimOptions &opt, const std::vector<Workload> &workloads,
          const std::vector<std::string> &spec_names,
          const SimParams &params, const std::string &sidecarSubdir = "")
{
    std::vector<PrefetcherSpec> specs;
    specs.reserve(spec_names.size());
    for (const auto &name : spec_names)
        specs.push_back(makeSpec(name));

    auto grid = runSpecMatrix(opt, workloads, specs, params,
                              std::to_string(spec_names.size()) +
                                  " specs x " +
                                  std::to_string(workloads.size()) +
                                  " workloads",
                              sidecarSubdir);
    std::map<std::string, std::vector<SimResult>> out;
    for (std::size_t s = 0; s < specs.size(); ++s)
        out.emplace(spec_names[s], std::move(grid[s]));
    return out;
}

/** Geomean speedup of a sub-range selected by suite (speedupGeomean: a
 *  non-positive baseline IPC throws instead of dropping the workload). */
inline double
suiteSpeedup(const std::vector<Workload> &workloads,
             const std::vector<SimResult> &test,
             const std::vector<SimResult> &baseline,
             const std::string &suite)
{
    std::vector<SimResult> t, b;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        if (suite.empty() || workloads[i].suite == suite) {
            t.push_back(test[i]);
            b.push_back(baseline[i]);
        }
    }
    return speedupGeomean(t, b);
}

/** Arithmetic mean of a per-workload metric over a suite. */
template <typename Fn>
double
suiteMean(const std::vector<Workload> &workloads,
          const std::vector<SimResult> &results, const std::string &suite,
          Fn metric)
{
    double sum = 0.0;
    unsigned n = 0;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        if (suite.empty() || workloads[i].suite == suite) {
            sum += metric(results[i]);
            ++n;
        }
    }
    return n ? sum / n : 0.0;
}

/**
 * Fills-weighted suite prefetch accuracy: total useful / total fills
 * at the given level (so workloads whose prefetches all landed one
 * level down do not contribute spurious zeros).
 */
inline double
suiteAccuracy(const std::vector<Workload> &workloads,
              const std::vector<SimResult> &results,
              const std::string &suite, bool l2 = false)
{
    double useful = 0, fills = 0;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        if (!suite.empty() && workloads[i].suite != suite)
            continue;
        const CacheStats &c =
            l2 ? results[i].roi.l2 : results[i].roi.l1d;
        useful += static_cast<double>(c.prefetchUseful);
        fills += static_cast<double>(c.prefetchFills);
    }
    return fills > 0 ? std::min(1.0, useful / fills) : 0.0;
}

/** Fills-weighted fraction of late useful prefetches at the L1D. */
inline double
suiteLateFraction(const std::vector<Workload> &workloads,
                  const std::vector<SimResult> &results,
                  const std::string &suite)
{
    double late = 0, fills = 0;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        if (!suite.empty() && workloads[i].suite != suite)
            continue;
        late += static_cast<double>(results[i].roi.l1d.prefetchLate);
        fills += static_cast<double>(results[i].roi.l1d.prefetchFills);
    }
    return fills > 0 ? late / fills : 0.0;
}

/** Sum of traffic (reads forwarded + writebacks) out of a level. */
inline double
trafficBelow(const CacheStats &c)
{
    return static_cast<double>(c.requestsBelow + c.writebacks);
}

inline double
storageKb(const std::string &spec_name)
{
    return static_cast<double>(makeSpec(spec_name).storageBits) / 8192.0;
}

} // namespace berti::bench

#endif // BERTI_BENCH_COMMON_HH
