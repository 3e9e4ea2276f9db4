/**
 * @file
 * Shared plumbing for the figure driver (figures.cpp): default
 * simulation lengths, the spec x workload matrix runner with its stats
 * sidecars, and the suite reducers the figure columns are built from.
 */

#ifndef BERTI_BENCH_COMMON_HH
#define BERTI_BENCH_COMMON_HH

#include <algorithm>
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
rejectArgument(const std::string &bench, const std::string &arg)
{
    throw verify::SimError(verify::ErrorKind::Config, bench,
                           "unknown argument \"" + arg + "\"");
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

/**
 * Run every (spec, workload) cell through runSupervisedMatrix on the
 * options' pool size (BERTI_JOBS / --jobs, else hardware_concurrency),
 * with thread-safe progress on stderr. out[s][w] corresponds to
 * specs[s] on workloads[w]; ordering matches the inputs regardless of
 * thread count. Each cell runs once: a failure rethrows the
 * lowest-index failed cell's original exception.
 *
 * When the options name a stats directory (BERTI_STATS_DIR or
 * --stats-dir=), each cell also gets a machine-diffable JSON sidecar,
 * <dir>/<spec>__<workload>.json in the stable resultSnapshot() schema,
 * written after the pool joins so the set is identical for every job
 * count. Colliding sanitized names get a numeric suffix so no cell
 * silently overwrites another. A non-empty sidecarSubdir nests them one
 * level down (the backend sweeps keep one subdirectory per backend, so
 * identical cells from different backends never collide).
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
    std::string dir = opt.statsDir;
    if (dir.empty())
        return grid;
    if (!sidecarSubdir.empty())
        dir += "/" + obs::sanitizeLabel(sidecarSubdir);
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
    return grid;
}

/**
 * Indices of the suite's workloads ("" selects every workload). A
 * suite that selects none is a typed Config error naming it: an empty
 * mean or ratio would otherwise print as a plausible 0.0.
 */
inline std::vector<std::size_t>
selectSuite(const std::vector<Workload> &workloads, const std::string &suite,
            const char *reducer)
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        if (suite.empty() || workloads[i].suite == suite)
            out.push_back(i);
    }
    if (out.empty()) {
        throw verify::SimError(
            verify::ErrorKind::Config, reducer,
            "suite \"" + suite + "\" selects none of the " +
                std::to_string(workloads.size()) + " workloads");
    }
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
    for (std::size_t i : selectSuite(workloads, suite, "suiteSpeedup")) {
        t.push_back(test[i]);
        b.push_back(baseline[i]);
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
    auto selected = selectSuite(workloads, suite, "suiteMean");
    double sum = 0.0;
    for (std::size_t i : selected)
        sum += metric(results[i]);
    return sum / static_cast<double>(selected.size());
}

/** suiteMean of test over that of baseline; a baseline mean of 0 is a
 *  typed Config error, not a normalised 0.0. */
template <typename Fn>
double
suiteMeanRatio(const std::vector<Workload> &workloads,
               const std::vector<SimResult> &test,
               const std::vector<SimResult> &baseline,
               const std::string &suite, Fn metric)
{
    double base = suiteMean(workloads, baseline, suite, metric);
    if (!(base > 0.0)) {
        throw verify::SimError(verify::ErrorKind::Config, "suiteMeanRatio",
                               "baseline mean over suite \"" + suite +
                                   "\" is " + std::to_string(base) +
                                   ", nothing to normalise to");
    }
    return suiteMean(workloads, test, suite, metric) / base;
}

/**
 * Fills-weighted suite prefetch accuracy: total useful / total fills
 * at the given level (so workloads whose prefetches all landed one
 * level down do not contribute spurious zeros). No fills is 0.
 */
inline double
suiteAccuracy(const std::vector<Workload> &workloads,
              const std::vector<SimResult> &results,
              const std::string &suite, bool l2 = false)
{
    double useful = 0, fills = 0;
    for (std::size_t i : selectSuite(workloads, suite, "suiteAccuracy")) {
        const CacheStats &c = l2 ? results[i].roi.l2 : results[i].roi.l1d;
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
    for (std::size_t i :
         selectSuite(workloads, suite, "suiteLateFraction")) {
        late += static_cast<double>(results[i].roi.l1d.prefetchLate);
        fills += static_cast<double>(results[i].roi.l1d.prefetchFills);
    }
    return fills > 0 ? late / fills : 0.0;
}

} // namespace berti::bench

#endif // BERTI_BENCH_COMMON_HH
