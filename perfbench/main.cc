/**
 * @file
 * perfbench: the repository benchmark. One process runs one workload
 * for a fixed host-time budget and prints, as its last stdout line, a
 * JSON object {"correct", "attempted", "failed", "metrics"}.
 *
 *   perfbench --workload busy|chase|campaign|resume --seed N
 *             --seconds S --trace 0|1 [--work-dir DIR] [--spans FILE]
 *
 * Untraced runs (--trace 0) call the library's public entry points
 * (simulate, runSupervisedMatrix, simulateSampled, resumeSampledWindow)
 * and report the end-to-end metrics. Traced runs (--trace 1) first run
 * one untraced reference round, then re-simulate every cell through the
 * timing wrappers of probe.hh, check that the snapshots are
 * byte-identical to the reference, and report the per-layer metrics.
 * Every input is generated from --seed; nothing is read from disk.
 */

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hh"
#include "harness/parallel.hh"
#include "harness/result_store.hh"
#include "harness/supervisor.hh"
#include "mem/backend_registry.hh"
#include "obs/export.hh"
#include "prefetch/registry.hh"
#include "sim/rng.hh"
#include "sim/serialize.hh"
#include "trace/gap_kernels.hh"
#include "trace/generators.hh"
#include "trace/graph.hh"

#include "probe.hh"

namespace perfbench
{
namespace
{

using namespace berti;
namespace fs = std::filesystem;

// ------------------------------------------------------------ clocks

double
wallS()
{
    return static_cast<double>(nowNs()) * 1e-9;
}

/** Thread CPU time: what a simulation call costs this thread, minus
 *  the time a shared host spends running other processes. */
double
threadCpuS()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Harrell-Davis quantile, p in (0, 1): a Beta((n+1)p, (n+1)(1-p))
 * weighted mean of all order statistics. Unlike picking one or two
 * order statistics it does not jump when the quantile falls in a gap
 * between two kinds of cell.
 */
double
quantile(std::vector<double> v, double p)
{
    const std::size_t n = v.size();
    if (n < 2)
        return n ? v[0] : 0.0;
    std::sort(v.begin(), v.end());
    const double a = p * (n + 1), b = (1.0 - p) * (n + 1);
    const double log_norm = std::lgamma(a + b) - std::lgamma(a) -
                            std::lgamma(b);
    // Beta CDF by the midpoint rule on a fine grid, sampled at i / n.
    constexpr int kSteps = 4096;
    const double step = 1.0 / kSteps;
    double cdf = 0.0, prev = 0.0, q = 0.0;
    std::size_t i = 1;
    for (int k = 0; k < kSteps; ++k) {
        double x = (k + 0.5) * step;
        cdf += std::exp(log_norm + (a - 1) * std::log(x) +
                        (b - 1) * std::log1p(-x)) * step;
        while (i <= n && (k + 1) * step >= static_cast<double>(i) / n) {
            double here = i == n ? 1.0 : cdf;
            q += (here - prev) * v[i - 1];
            prev = here;
            ++i;
        }
    }
    return q;
}

/** Fixed integer loop timed in-process, so results from different
 *  hosts can be put on one scale. */
double
calibrationNsPerIter()
{
    constexpr std::uint64_t kIters = 20'000'000;
    static volatile std::uint64_t sink = 0;
    std::vector<double> reps;
    for (int r = 0; r < 3; ++r) {
        std::uint64_t x = 0x9E3779B97F4A7C15ull + sink;
        double t0 = threadCpuS();
        for (std::uint64_t i = 0; i < kIters; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            x ^= x >> 29;
        }
        reps.push_back((threadCpuS() - t0) * 1e9 / kIters);
        sink = x;
    }
    return median(reps);
}

// ---------------------------------------------------------- workloads

enum class Kind
{
    Busy,
    Chase,
    Campaign,
    Resume
};

/** Everything one workload simulates, generated from the seed. */
struct Inputs
{
    std::vector<Workload> workloads;
    std::vector<PrefetcherSpec> specs;
    SimParams params;

    std::size_t cells() const { return workloads.size() * specs.size(); }
    const Workload &workload(std::size_t c) const
    {
        return workloads[c % workloads.size()];
    }
    const PrefetcherSpec &spec(std::size_t c) const
    {
        return specs[c / workloads.size()];
    }
    std::string cellId(std::size_t c) const
    {
        return workload(c).name + "/" + spec(c).name;
    }
};

template <typename Gen, typename Params>
Workload
synthetic(const std::string &name, const Params &p)
{
    return {name, "spec", [p] { return std::make_unique<Gen>(p); }};
}

Workload
gap(const std::string &name, GapKernel kernel,
    std::shared_ptr<const Csr> graph, std::uint64_t seed)
{
    return {name, "gap", [kernel, graph, seed] {
                return std::make_unique<GapGen>(kernel, graph, seed);
            }};
}

StreamGen::Params
streamParams(unsigned streams, unsigned stride_lines, unsigned step,
             unsigned alu, std::uint64_t seed)
{
    StreamGen::Params p;
    p.streams = streams;
    p.strideLines = stride_lines;
    p.stepBytes = step;
    p.aluPerMem = alu;
    p.seed = seed;
    return p;
}

MultiStrideGen::Params
multiParams(unsigned ips, std::vector<int> strides, unsigned alu,
            bool random_interleave, std::uint64_t seed)
{
    MultiStrideGen::Params p;
    p.nIps = ips;
    p.strides = std::move(strides);
    p.aluPerMem = alu;
    p.randomInterleave = random_interleave;
    p.seed = seed;
    return p;
}

template <typename P>
P
seeded(std::uint64_t seed)
{
    P p;
    p.seed = seed;
    return p;
}

/** Seeded instances per generator class in busy and chase. */
constexpr unsigned kVariants = 6;

/**
 * Build one workload's inputs. Generator classes and shapes are fixed
 * per workload; the seed drives every generator and graph, so two
 * seeds give different address streams of the same kind.
 */
Inputs
makeInputs(Kind kind, std::uint64_t seed)
{
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x51ED);
    auto s = [&rng] { return rng.next(); };
    Inputs in;
    std::vector<Workload> &w = in.workloads;
    std::vector<std::string> specs;

    switch (kind) {
      case Kind::Busy:
        // Streaming and strided classes keep the machine busy: cycle
        // skip elides almost nothing, so caches, core and the
        // prefetcher hooks do the work. Several seeded instances of
        // each class keep cell-latency percentiles from hinging on one
        // address stream.
        for (unsigned v = 0; v < kVariants; ++v) {
            std::string tag = "." + std::to_string(v);
            w.push_back(synthetic<StreamGen>(
                "stream" + tag, streamParams(12, 3, 64, 3, s())));
            w.push_back(synthetic<MultiStrideGen>(
                "multistride" + tag,
                multiParams(6, {1, 2, 4, 8, 3, 5}, 4, false, s())));
            w.push_back(synthetic<LbmLikeGen>(
                "lbm" + tag, seeded<LbmLikeGen::Params>(s())));
            w.push_back(synthetic<MultiStrideGen>(
                "cactu" + tag, multiParams(320, {1}, 14, false, s())));
        }
        specs = {"none", "ip-stride", "berti"};
        in.params.warmupInstructions = 20000;
        in.params.measureInstructions = 60000;
        break;

      case Kind::Chase: {
        // Latency-bound chasing: the machine idles on DRAM and cycle
        // skip elides most cycles, so the run loop, skip probes and
        // DRAM nextEventCycle dominate; graph builds dominate set-up.
        auto kron = std::make_shared<const Csr>(
            makeKronGraph(1u << 17, 8, s()));
        auto road = std::make_shared<const Csr>(makeRoadGraph(384, 384, s()));
        for (unsigned v = 0; v < kVariants; ++v) {
            std::string tag = "." + std::to_string(v);
            PointerChaseGen::Params far = seeded<PointerChaseGen::Params>(s());
            far.chainNodes = 1u << 19;
            far.aluPerMem = 6;
            w.push_back(synthetic<PointerChaseGen>(
                "chase-a" + tag, seeded<PointerChaseGen::Params>(s())));
            w.push_back(synthetic<PointerChaseGen>("chase-b" + tag, far));
            w.push_back(gap("bfs-road" + tag, GapKernel::Bfs, road, s()));
            w.push_back(gap("sssp-kron" + tag, GapKernel::Sssp, kron, s()));
        }
        specs = {"none", "berti"};
        in.params.warmupInstructions = 20000;
        in.params.measureInstructions = 80000;
        break;
      }

      case Kind::Campaign: {
        // fig08's shape: spec-like and gap-like workloads x the paper's
        // L1D competitors, on sampled geometry.
        auto kron = std::make_shared<const Csr>(
            makeKronGraph(1u << 17, 8, s()));
        auto road = std::make_shared<const Csr>(makeRoadGraph(384, 384, s()));
        w.push_back(synthetic<StreamGen>("stream-a",
                                         streamParams(4, 1, 16, 4, s())));
        w.push_back(synthetic<StreamGen>("stream-b",
                                         streamParams(6, 2, 64, 5, s())));
        w.push_back(synthetic<StreamGen>("stream-c",
                                         streamParams(12, 3, 64, 3, s())));
        w.push_back(synthetic<MultiStrideGen>(
            "multi-a", multiParams(6, {1, 2, 4, 8, 3, 5}, 4, false, s())));
        w.push_back(synthetic<MultiStrideGen>(
            "multi-b", multiParams(3, {1, 3, -2}, 7, true, s())));
        w.push_back(synthetic<MultiStrideGen>(
            "multi-c", multiParams(320, {1}, 14, false, s())));
        w.push_back(synthetic<MultiStrideGen>(
            "multi-d", multiParams(16, {2, 5, 7, -3}, 5, true, s())));
        w.push_back(synthetic<LbmLikeGen>(
            "lbm-a", seeded<LbmLikeGen::Params>(s())));
        LbmLikeGen::Params lbm = seeded<LbmLikeGen::Params>(s());
        lbm.streams = 12;
        lbm.aluPerMem = 8;
        w.push_back(synthetic<LbmLikeGen>("lbm-b", lbm));
        w.push_back(synthetic<McfLikeGen>(
            "mcf-a", seeded<McfLikeGen::Params>(s())));
        McfLikeGen::Params mcf = seeded<McfLikeGen::Params>(s());
        mcf.chaseEvery = 2;
        w.push_back(synthetic<McfLikeGen>("mcf-b", mcf));
        w.push_back(synthetic<GccLikeGen>(
            "gcc-a", seeded<GccLikeGen::Params>(s())));
        GccLikeGen::Params gcc = seeded<GccLikeGen::Params>(s());
        gcc.hotLines = 3072;
        gcc.sweepEvery = 24;
        w.push_back(synthetic<GccLikeGen>("gcc-b", gcc));
        RandomGen::Params rnd = seeded<RandomGen::Params>(s());
        rnd.regionLines = 1u << 16;
        w.push_back(synthetic<RandomGen>("random", rnd));
        w.push_back(synthetic<PointerChaseGen>(
            "chase", seeded<PointerChaseGen::Params>(s())));
        const std::pair<const char *, GapKernel> kernels[] = {
            {"bfs", GapKernel::Bfs},   {"pr", GapKernel::PageRank},
            {"cc", GapKernel::Cc},     {"sssp", GapKernel::Sssp},
            {"bc", GapKernel::Bc}};
        for (const auto &[tag, k] : kernels) {
            w.push_back(gap(std::string(tag) + "-kron", k, kron, s()));
            w.push_back(gap(std::string(tag) + "-road", k, road, s()));
        }
        specs = {"ip-stride", "mlop", "ipcp", "berti"};
        in.params.warmupInstructions = 10000;
        in.params.sampling.windowCount = 4;
        in.params.sampling.windowWarmup = 1000;
        in.params.sampling.windowMeasure = 8000;
        break;
      }

      case Kind::Resume:
        // The checkpointable specs: sampled runs save a checkpoint at
        // every window start, then every window is resumed from it.
        w.push_back(synthetic<StreamGen>("stream",
                                         streamParams(4, 1, 16, 4, s())));
        w.push_back(synthetic<LbmLikeGen>(
            "lbm", seeded<LbmLikeGen::Params>(s())));
        w.push_back(synthetic<McfLikeGen>(
            "mcf", seeded<McfLikeGen::Params>(s())));
        specs = {"none", "ip-stride", "berti"};
        in.params.warmupInstructions = 10000;
        in.params.sampling.windowCount = 6;
        in.params.sampling.windowWarmup = 1000;
        in.params.sampling.windowMeasure = 8000;
        in.params.sampling.windowStride = 18000;
        break;
    }
    for (const std::string &name : specs)
        in.specs.push_back(makeSpec(name));
    return in;
}

/** Instructions one simulation of the inputs' geometry retires. */
std::uint64_t
simulatedInstructions(const SimParams &p)
{
    const SampleGeometry &g = p.sampling;
    if (!g.enabled())
        return p.warmupInstructions + p.measureInstructions;
    return p.warmupInstructions + (g.windowCount - 1) * g.stride() +
           g.windowWarmup + g.windowMeasure;
}

std::string
snapshotJson(const SimResult &r)
{
    return obs::toJson(resultSnapshot(r));
}

/** FNV-1a over every cell's snapshot JSON, in cell order. */
std::uint64_t
simDigest(const std::vector<std::string> &cell_json)
{
    sim::Fnv64 h;
    for (const std::string &j : cell_json)
        h.add(j);
    return h.value();
}

// ------------------------------------------------------------ results

/** Tallies shared by both run modes. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (failures.size() < 8)
                failures.push_back(what);
        }
    }
};

/** What one untraced round of a workload produced. */
struct Round
{
    std::vector<std::string> cellJson;  //!< per cell
    /** Thread CPU seconds per timed cell, indexed like every other
     *  round of the workload; negative when the cell failed. */
    std::vector<double> cellSeconds;
    std::vector<double> primarySeconds;  //!< per cell, the sim call
    double simSeconds = 0.0;     //!< all simulation calls (thread CPU)
    std::uint64_t instructions = 0;
    std::size_t cellsDone = 0;
    double wall = 0.0;
    double busyFrac = 0.0;
    double tailS = 0.0;
};

// ------------------------------------------------- untraced procedures

/** busy / chase: one thread, one simulate() call per cell. */
Round
serialRound(const Inputs &in, Tally &tally)
{
    Round r;
    r.cellJson.resize(in.cells());
    r.cellSeconds.assign(in.cells(), -1.0);
    r.primarySeconds.resize(in.cells());
    double w0 = wallS();
    double last_dispatch = w0;
    for (std::size_t c = 0; c < in.cells(); ++c) {
        last_dispatch = wallS();
        double t0 = threadCpuS();
        try {
            SimResult res = simulate(in.workload(c), in.spec(c), in.params);
            double dt = threadCpuS() - t0;
            r.cellSeconds[c] = dt;
            r.primarySeconds[c] = dt;
            r.simSeconds += dt;
            r.instructions += simulatedInstructions(in.params);
            r.cellJson[c] = snapshotJson(res);
            ++r.cellsDone;
        } catch (const std::exception &e) {
            tally.check(false, in.cellId(c) + ": " + e.what());
        }
    }
    double w1 = wallS();
    r.wall = w1 - w0;
    r.busyFrac = r.simSeconds / r.wall;
    r.tailS = w1 - last_dispatch;
    return r;
}

/** Per-thread start stamps for supervised cells (the pool calls
 *  preAttempt and progress on the worker that runs the cell). */
thread_local double tlCellCpu = 0.0;
thread_local std::size_t tlCell = 0;

/**
 * campaign: the whole matrix through runSupervisedMatrix on nproc
 * workers into a cold store. Cell time runs from the attempt to the
 * store write; the pool's tail is the wall time after the last cell
 * was handed out, i.e. after the (cells - jobs)-th completion.
 */
Round
campaignRound(const Inputs &in, const fs::path &store_dir, unsigned jobs,
              Tally &tally)
{
    fs::remove_all(store_dir);
    harness::ResultStore store(store_dir.string());
    Round r;
    r.cellSeconds.assign(in.cells(), -1.0);
    std::map<std::string, std::size_t> index;
    for (std::size_t c = 0; c < in.cells(); ++c)
        index[in.cellId(c)] = c;
    std::vector<double> completions;
    harness::SupervisorConfig cfg;
    cfg.store = &store;
    cfg.jobs = jobs;
    cfg.maxAttempts = 1;
    cfg.preAttempt = [&index](const std::string &w, const std::string &s,
                              unsigned) {
        tlCell = index.at(w + "/" + s);
        tlCellCpu = threadCpuS();
    };
    cfg.progress = [&](std::size_t, std::size_t) {
        double cpu = threadCpuS() - tlCellCpu;
        completions.push_back(wallS());
        r.cellSeconds[tlCell] = cpu;
        r.simSeconds += cpu;
    };
    double w0 = wallS();
    harness::SweepReport rep =
        harness::runSupervisedMatrix(in.workloads, in.specs, in.params, cfg);
    double w1 = wallS();

    r.wall = w1 - w0;
    r.cellJson.resize(in.cells());
    r.primarySeconds = r.cellSeconds;
    for (std::size_t c = 0; c < in.cells(); ++c) {
        const harness::CellResult &cell =
            rep.cells[c / in.workloads.size()][c % in.workloads.size()];
        bool ok = cell.outcome == harness::CellOutcome::Computed;
        if (!ok) {
            tally.check(false, in.cellId(c) + ": " +
                                   harness::cellOutcomeName(cell.outcome) +
                                   " " + cell.error.reason);
            continue;
        }
        r.cellJson[c] = snapshotJson(cell.result);
        r.instructions += simulatedInstructions(in.params);
        ++r.cellsDone;
    }
    std::sort(completions.begin(), completions.end());
    unsigned pool = std::min<std::size_t>(jobs, in.cells());
    std::size_t idle_at = in.cells() - pool;  // 0-based completion index
    r.tailS = completions.size() > idle_at ? w1 - completions[idle_at] : r.wall;
    r.busyFrac = r.simSeconds / (r.wall * pool);
    return r;
}

/**
 * resume: per (workload, spec), a sampled run that checkpoints every
 * window start, then resumeSampledWindow on every window. The window
 * resumes are the timed cells; the sampled runs count toward kips.
 */
Round
resumeRound(const Inputs &in, const fs::path &dir, Tally &tally)
{
    Round r;
    const SampleGeometry &g = in.params.sampling;
    r.cellJson.resize(in.cells());
    r.cellSeconds.assign(in.cells() * g.windowCount, -1.0);
    r.primarySeconds.resize(in.cells());
    double w0 = wallS();
    double last_dispatch = w0;
    for (std::size_t c = 0; c < in.cells(); ++c) {
        fs::path cdir = dir / ("cell-" + std::to_string(c));
        fs::remove_all(cdir);
        fs::create_directories(cdir);
        SimParams p = in.params;
        p.sampling.checkpointDir = cdir.string();
        try {
            double t0 = threadCpuS();
            SampledResult sr = simulateSampled(in.workload(c), in.spec(c), p);
            double dt = threadCpuS() - t0;
            r.primarySeconds[c] = dt;
            r.simSeconds += dt;
            r.instructions += simulatedInstructions(p);
            r.cellJson[c] = snapshotJson(sr.aggregate);
            for (unsigned k = 0; k < g.windowCount; ++k) {
                std::string path =
                    (cdir / ("window-" + std::to_string(k) + ".ckpt"))
                        .string();
                last_dispatch = wallS();
                double t1 = threadCpuS();
                SimResult win =
                    resumeSampledWindow(in.workload(c), in.spec(c), p, path);
                double dw = threadCpuS() - t1;
                r.cellSeconds[c * g.windowCount + k] = dw;
                r.simSeconds += dw;
                r.instructions += g.windowWarmup + g.windowMeasure;
                std::string want = snapshotJson(sr.windows[k]);
                std::string got = snapshotJson(win);
                tally.check(got == want, in.cellId(c) + " window " +
                                             std::to_string(k) +
                                             " resumed differently");
                ++r.cellsDone;
            }
        } catch (const std::exception &e) {
            tally.check(false, in.cellId(c) + ": " + e.what());
        }
        fs::remove_all(cdir);
    }
    double w1 = wallS();
    r.wall = w1 - w0;
    r.busyFrac = r.simSeconds / r.wall;
    r.tailS = w1 - last_dispatch;
    return r;
}

Round
runRound(Kind kind, const Inputs &in, const fs::path &work, unsigned jobs,
         unsigned round, Tally &tally)
{
    switch (kind) {
      case Kind::Campaign:
        return campaignRound(in, work / ("store-" + std::to_string(round)),
                             jobs, tally);
      case Kind::Resume:
        return resumeRound(in, work / "ckpt", tally);
      default:
        return serialRound(in, tally);
    }
}

/**
 * Serve every cell again from a result store through
 * runSupervisedMatrix; each must come back FromStore and byte-identical
 * to the computed snapshot. The workload list is repeated so that one
 * matrix serves about kReplayCells cells and the pool's thread start-up
 * does not dominate. Returns the median over repeats of cells served
 * per wall second.
 */
double
storeReplay(const Inputs &in, const Round &ref, const fs::path &dir,
            unsigned jobs, double budget_s, Tally &tally)
{
    constexpr std::size_t kReplayCells = 1000;
    const SimParams &p = in.params;
    harness::ResultStore store(dir.string());
    for (std::size_t c = 0; c < in.cells(); ++c) {
        if (!ref.cellJson[c].empty())
            store.store(harness::makeStoreKey(in.workload(c), in.spec(c).name,
                                              p),
                        obs::snapshotFromJson(ref.cellJson[c]));
    }
    const std::size_t nw = in.workloads.size();
    std::vector<Workload> batch;
    while (batch.size() * in.specs.size() < kReplayCells)
        batch.insert(batch.end(), in.workloads.begin(), in.workloads.end());

    harness::SupervisorConfig cfg;
    cfg.store = &store;
    cfg.jobs = jobs;
    cfg.maxAttempts = 1;
    // A store miss would simulate; refuse instead so it shows as failed.
    cfg.preAttempt = [](const std::string &w, const std::string &s,
                        unsigned) {
        throw std::runtime_error("store miss for " + s + "/" + w);
    };
    std::vector<double> rates;
    const double start = wallS();
    for (int rep = 0; rep < 3 || wallS() - start < budget_s; ++rep) {
        double t0 = wallS();
        harness::SweepReport r =
            harness::runSupervisedMatrix(batch, in.specs, p, cfg);
        double dt = wallS() - t0;
        std::size_t served = 0;
        for (std::size_t s = 0; s < in.specs.size(); ++s) {
            for (std::size_t w = 0; w < batch.size(); ++w) {
                const harness::CellResult &cell = r.cells[s][w];
                std::size_t c = s * nw + w % nw;
                bool ok = cell.outcome == harness::CellOutcome::FromStore &&
                          snapshotJson(cell.result) == ref.cellJson[c];
                tally.check(ok, in.cellId(c) +
                                    " differs when served from store");
                served += ok;
            }
        }
        rates.push_back(static_cast<double>(served) / dt);
    }
    return median(rates);
}

// ----------------------------------------------------- traced lifecycle

/** Per-layer totals merged over traced cells. */
struct LayerStats
{
    std::uint64_t calls[kLayers] = {};
    std::int64_t selfNs[kLayers] = {};
    std::uint64_t nextEventCalls = 0;
    std::int64_t runNs = 0;
    std::uint64_t runInstructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t skipped = 0;
    std::uint64_t demandAccesses = 0;  //!< primary machines, whole run
    double primaryS = 0.0;             //!< machine build + primary runs
    double refS = 0.0;  //!< the same cells' untraced simulation calls
    std::vector<double> buildMs, saveMs, restoreMs, blobKb, putMs, getMs,
        snapshotMs, parseMs;
    std::vector<Span> spans;
};

void
merge(LayerStats &dst, const LayerStats &src)
{
    for (unsigned l = 0; l < kLayers; ++l) {
        dst.calls[l] += src.calls[l];
        dst.selfNs[l] += src.selfNs[l];
    }
    dst.nextEventCalls += src.nextEventCalls;
    dst.runNs += src.runNs;
    dst.runInstructions += src.runInstructions;
    dst.cycles += src.cycles;
    dst.skipped += src.skipped;
    dst.demandAccesses += src.demandAccesses;
    dst.primaryS += src.primaryS;
    dst.refS += src.refS;
    for (auto v : {&LayerStats::buildMs, &LayerStats::saveMs,
                   &LayerStats::restoreMs, &LayerStats::blobKb,
                   &LayerStats::putMs, &LayerStats::getMs,
                   &LayerStats::snapshotMs, &LayerStats::parseMs})
        (dst.*v).insert((dst.*v).end(), (src.*v).begin(), (src.*v).end());
    dst.spans.insert(dst.spans.end(), src.spans.begin(), src.spans.end());
}

MachineConfig
tracedConfig(const PrefetcherSpec &spec, const SimParams &params,
             Probe *probe)
{
    MachineConfig cfg = MachineConfig::sunnyCove(1);
    mem::ParsedBackend backend = mem::parseBackendSpec(params.memBackend);
    cfg.dram = backend.channel;
    cfg.memBackend = backend.sel;
    cfg.l1dPrefetcher = prefetch::decorate(
        spec.l1d, [probe](std::unique_ptr<Prefetcher> pf) {
            return std::make_unique<TimedPrefetcher>(std::move(pf), probe);
        });
    cfg.l2Prefetcher = spec.l2;
    cfg.memBackendHook = [sel = backend.sel, channel = backend.channel,
                          probe](const Cycle *clock) {
        return std::make_unique<TimedBackend>(
            mem::makeMemBackend(sel, channel, clock), probe);
    };
    return cfg;
}

SimResult
finish(const RunStats &roi)
{
    SimResult r;
    r.roi = roi;
    r.ipc = roi.core.ipc();
    r.energy = EnergyModel{}.evaluate(roi);
    return r;
}

/** A Machine with its wrapped generator, built under a span. */
struct TracedMachine
{
    std::unique_ptr<TraceGenerator> gen;
    std::unique_ptr<Machine> machine;
};

TracedMachine
buildMachine(const Workload &w, const MachineConfig &cfg, Probe &probe,
             int parent, LayerStats &ls)
{
    TracedMachine tm;
    int span = probe.openSpan("harness.machine_build", parent);
    tm.gen = std::make_unique<TimedGen>(w.make(), &probe);
    tm.machine = std::make_unique<Machine>(
        cfg, std::vector<TraceGenerator *>{tm.gen.get()});
    ls.buildMs.push_back(probe.closeSpan(span) * 1e-6);
    return tm;
}

void
timedRun(Machine &m, std::uint64_t instructions, Probe &probe, int parent,
         LayerStats &ls)
{
    std::uint64_t before = m.liveStats(0).core.instructions;
    int span = probe.openSpan("harness.run", parent);
    probe.active = true;
    m.run(instructions);
    probe.active = false;
    ls.runNs += probe.closeSpan(span);
    ls.runInstructions += m.liveStats(0).core.instructions - before;
}

/**
 * One traced cell: simulate through the wrappers (same steps as
 * simulate / simulateSampled), checkpoint each window start when the
 * machine supports it, resume every checkpoint into a fresh machine,
 * then export, store, load and parse the snapshot. Returns the
 * snapshot JSON, checked by the caller against the reference.
 */
std::string
tracedCell(const Inputs &in, std::size_t c,
           const harness::ResultStore &store, LayerStats &ls, Tally &tally)
{
    const Workload &w = in.workload(c);
    const PrefetcherSpec &spec = in.spec(c);
    const SimParams &p = in.params;
    Probe probe(in.cellId(c));
    MachineConfig cfg = tracedConfig(spec, p, &probe);
    int root = probe.openSpan("cell", -1);

    // Geometry: a full run is one window with no window warm-up.
    const SampleGeometry &g = p.sampling;
    unsigned windows = g.enabled() ? g.windowCount : 1;
    std::uint64_t win_warm = g.enabled() ? g.windowWarmup : 0;
    std::uint64_t win_meas = g.enabled() ? g.windowMeasure
                                         : p.measureInstructions;
    std::uint64_t gap = g.enabled() ? g.stride() - win_warm - win_meas : 0;

    std::int64_t t_primary = nowNs();
    TracedMachine tm = buildMachine(w, cfg, probe, root, ls);
    Machine &m = *tm.machine;
    bool ckpt = m.checkpointSupported();
    std::vector<std::string> blobs;
    std::vector<SimResult> wins;
    timedRun(m, p.warmupInstructions, probe, root, ls);
    for (unsigned k = 0; k < windows; ++k) {
        if (ckpt) {
            int span = probe.openSpan("harness.checkpoint.save", root);
            blobs.push_back(m.saveCheckpointBlob());
            ls.saveMs.push_back(probe.closeSpan(span) * 1e-6);
            ls.blobKb.push_back(blobs.back().size() / 1024.0);
        }
        if (win_warm > 0)
            timedRun(m, win_warm, probe, root, ls);
        RunStats start = m.liveStats(0);
        timedRun(m, win_meas, probe, root, ls);
        wins.push_back(finish(m.liveStats(0).diff(start)));
        if (k + 1 < windows && gap > 0)
            timedRun(m, gap, probe, root, ls);
    }
    ls.primaryS += (nowNs() - t_primary) * 1e-9;
    RunStats total = m.liveStats(0);
    ls.cycles += m.cycle();
    ls.skipped += m.skippedCycles();
    ls.demandAccesses += total.l1d.demandAccesses;

    RunStats sum;
    for (const SimResult &r : wins)
        sum.add(r.roi);
    SimResult agg = finish(sum);

    for (std::size_t k = 0; k < blobs.size(); ++k) {
        TracedMachine rm = buildMachine(w, cfg, probe, root, ls);
        int span = probe.openSpan("harness.checkpoint.restore", root);
        rm.machine->resumeFromBlob(blobs[k]);
        ls.restoreMs.push_back(probe.closeSpan(span) * 1e-6);
        if (win_warm > 0)
            timedRun(*rm.machine, win_warm, probe, root, ls);
        RunStats start = rm.machine->liveStats(0);
        timedRun(*rm.machine, win_meas, probe, root, ls);
        SimResult again = finish(rm.machine->liveStats(0).diff(start));
        tally.check(snapshotJson(again) == snapshotJson(wins[k]),
                    in.cellId(c) + " window " + std::to_string(k) +
                        " differs after checkpoint restore");
    }

    int span = probe.openSpan("obs.snapshot", root);
    obs::MetricsSnapshot snap = resultSnapshot(agg);
    std::string json = obs::toJson(snap);
    ls.snapshotMs.push_back(probe.closeSpan(span) * 1e-6);

    auto key = harness::makeStoreKey(w, spec.name, p);
    span = probe.openSpan("harness.store.put", root);
    store.store(key, snap);
    ls.putMs.push_back(probe.closeSpan(span) * 1e-6);
    span = probe.openSpan("harness.store.get", root);
    auto loaded = store.load(key);
    ls.getMs.push_back(probe.closeSpan(span) * 1e-6);
    tally.check(loaded && obs::toJson(*loaded) == json,
                in.cellId(c) + " store round trip differs");

    span = probe.openSpan("obs.parse", root);
    obs::MetricsSnapshot parsed = obs::snapshotFromJson(json);
    ls.parseMs.push_back(probe.closeSpan(span) * 1e-6);
    tally.check(obs::toJson(parsed) == json,
                in.cellId(c) + " JSON round trip differs");
    probe.closeSpan(root);

    for (unsigned l = 0; l < kLayers; ++l) {
        ls.calls[l] += probe.calls[l];
        ls.selfNs[l] += probe.selfNs[l];
    }
    ls.nextEventCalls += probe.nextEventCalls;
    ls.spans.insert(ls.spans.end(), probe.spans.begin(), probe.spans.end());
    return json;
}

// ------------------------------------------------------------- output

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(const Tally &tally, const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += tally.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(tally.attempted);
    out += ", \"failed\": " + std::to_string(tally.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
               obs::formatDouble(m.value) + ", \"unit\": \"" + m.unit +
               "\"}";
    }
    out += "}}";
    std::cout << out << std::endl;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        out += (ch == '\n') ? ' ' : ch;
    }
    return out + "\"";
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans,
           std::int64_t epoch)
{
    if (path.empty())
        return;
    fs::path p(path);
    if (p.has_parent_path())
        fs::create_directories(p.parent_path());
    std::ofstream f(path, std::ios::trunc);
    for (const Span &s : spans) {
        f << "{\"layer\": " << jsonString(s.layer)
          << ", \"cell\": " << jsonString(s.cell)
          << ", \"start_ns\": " << (s.start - epoch)
          << ", \"end_ns\": " << (s.end - epoch)
          << ", \"parent\": " << s.parent << "}\n";
    }
}

// --------------------------------------------------------------- main

struct Args
{
    Kind kind = Kind::Busy;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = ".bench_build/work";
    std::string spans;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            throw std::runtime_error("missing value for " + k);
        std::string v = argv[++i];
        if (k == "--workload") {
            const std::map<std::string, Kind> kinds = {
                {"busy", Kind::Busy},
                {"chase", Kind::Chase},
                {"campaign", Kind::Campaign},
                {"resume", Kind::Resume}};
            auto it = kinds.find(v);
            if (it == kinds.end())
                throw std::runtime_error("unknown workload '" + v + "'");
            a.kind = it->second;
            a.workload = v;
            have_workload = true;
        } else if (k == "--seed") {
            a.seed = std::stoull(v);
        } else if (k == "--seconds") {
            a.seconds = std::stod(v);
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                throw std::runtime_error("--trace must be 0 or 1");
            a.trace = v == "1";
        } else if (k == "--work-dir") {
            a.workDir = v;
        } else if (k == "--spans") {
            a.spans = v;
        } else {
            throw std::runtime_error("unknown option " + k);
        }
    }
    if (!have_workload)
        throw std::runtime_error("--workload is required");
    if (!(a.seconds > 0.0))
        throw std::runtime_error("--seconds must be positive");
    return a;
}

/** The run's checkpoint and store files, removed however the run ends. */
struct ScratchDir
{
    fs::path path;

    explicit ScratchDir(fs::path p) : path(std::move(p))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;
};

/** Set-up repeats until both bounds are met; setup_s is the median. */
constexpr int kSetupMinReps = 5;
constexpr int kSetupMaxReps = 100;
constexpr double kSetupBudgetS = 1.0;

int
run(const Args &args)
{
    const unsigned jobs = std::max(1u, std::thread::hardware_concurrency());
    const std::int64_t epoch = nowNs();
    const ScratchDir work(fs::path(args.workDir) /
                          (args.workload + "-" + std::to_string(::getpid())));

    // Set-up: generate the inputs (graphs, generators) and build every
    // cell's generator and Machine once. The first set-up feeds the run; the repeats for
    // the setup_s median come after peak RSS is read, so heap
    // fragmentation from rebuilding the graphs never shows as memory.
    std::vector<double> setup_s, build_s;
    Inputs in;
    auto setUp = [&] {
        double t0 = wallS();
        in = Inputs{};  // one copy of the inputs at a time
        in = makeInputs(args.kind, args.seed);
        double build = wallS() - t0;
        for (std::size_t c = 0; c < in.cells(); ++c) {
            double t1 = wallS();
            auto gen = in.workload(c).make();
            build += wallS() - t1;
            MachineConfig cfg = MachineConfig::sunnyCove(1);
            cfg.l1dPrefetcher = in.spec(c).l1d;
            Machine m(cfg, {gen.get()});
        }
        build_s.push_back(build);
        setup_s.push_back(wallS() - t0);
    };
    auto repeatSetUp = [&] {
        double spent = setup_s.front();
        for (int rep = 1; rep < kSetupMinReps ||
                          (rep < kSetupMaxReps && spent < kSetupBudgetS);
             ++rep) {
            setUp();
            spent += setup_s.back();
        }
    };
    setUp();

    Tally tally;
    std::vector<Metric> metrics;
    std::uint64_t digest = 0;
    std::string extra;

    if (!args.trace) {
        // Compute rounds until most of the budget is spent; each round
        // must reproduce the first byte for byte. The rest of the
        // budget serves the cells again from a result store.
        const double compute_budget = 0.85 * args.seconds;
        std::vector<std::vector<double>> cell_times;
        std::size_t samples = 0;
        double sim_s = 0.0, wall = 0.0;
        std::uint64_t instr = 0;
        std::size_t done = 0;
        Round first;
        const double t_start = wallS();
        double last_round = 0.0;  // no round starts that would overrun
        for (unsigned round = 0;
             round == 0 || wallS() - t_start + last_round < compute_budget;
             ++round) {
            const double r0 = wallS();
            Round r = runRound(args.kind, in, work.path, jobs, round, tally);
            last_round = wallS() - r0;
            if (round == 0) {
                first = r;
            } else {
                for (std::size_t c = 0; c < in.cells(); ++c)
                    tally.check(r.cellJson[c] == first.cellJson[c],
                                in.cellId(c) + " not reproducible");
            }
            cell_times.resize(r.cellSeconds.size());
            for (std::size_t i = 0; i < r.cellSeconds.size(); ++i) {
                if (r.cellSeconds[i] >= 0.0) {
                    cell_times[i].push_back(r.cellSeconds[i]);
                    ++samples;
                }
            }
            sim_s += r.simSeconds;
            wall += r.wall;
            instr += r.instructions;
            done += r.cellsDone;
        }
        double store_rate = storeReplay(in, first, work.path / "replay", jobs,
                                        0.15 * args.seconds, tally);
        digest = simDigest(first.cellJson);
        // Cell latency: each distinct cell's median over the rounds, then
        // percentiles across cells, so a percentile never lands on the
        // noisy edge between two cell kinds.
        std::vector<double> cell_medians;
        for (const std::vector<double> &t : cell_times)
            if (!t.empty())
                cell_medians.push_back(median(t));
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        repeatSetUp();
        metrics = {
            {"kips", instr / sim_s / 1000.0, "kinstr/s"},
            {"setup_s", median(setup_s), "s"},
            {"peak_rss_mb", ru.ru_maxrss / 1024.0, "MB"},
            {"cells_per_s", done / wall, "cells/s"},
            {"cell_ms_p50", quantile(cell_medians, 0.5) * 1e3, "ms"},
            {"cell_ms_p90", quantile(cell_medians, 0.9) * 1e3, "ms"},
            {"store_cells_per_s", store_rate, "cells/s"},
        };
        extra = ", \"cells\": " + std::to_string(cell_medians.size()) +
                ", \"cell_samples\": " + std::to_string(samples);
    } else {
        // Reference round (untraced), then traced rounds of every cell
        // until the budget is spent.
        Round ref = runRound(args.kind, in, work.path, jobs, 0, tally);
        LayerStats ls;
        std::mutex mutex;
        auto one = [&](std::size_t c, const harness::ResultStore &store) {
            LayerStats cell_ls;
            Tally cell_tally;
            std::string json;
            try {
                json = tracedCell(in, c, store, cell_ls, cell_tally);
            } catch (const std::exception &e) {
                cell_tally.check(false, in.cellId(c) + ": " + e.what());
            }
            cell_tally.check(json == ref.cellJson[c],
                             in.cellId(c) + " traced snapshot differs");
            cell_ls.refS = ref.primarySeconds[c];
            std::lock_guard<std::mutex> lock(mutex);
            merge(ls, cell_ls);
            tally.attempted += cell_tally.attempted;
            tally.failed += cell_tally.failed;
            for (const std::string &f : cell_tally.failures)
                if (tally.failures.size() < 8)
                    tally.failures.push_back(f);
        };
        // Every cell at least once; serial workloads may stop mid-round
        // once the budget is spent, the pool finishes its round.
        const double t_start = wallS();
        auto spent = [&] { return wallS() - t_start >= args.seconds; };
        std::size_t traced = 0;
        for (unsigned round = 0; traced < in.cells() || !spent(); ++round) {
            harness::ResultStore store(
                (work.path / ("traced-store-" + std::to_string(round)))
                    .string());
            if (args.kind == Kind::Campaign) {
                forEachIndexParallel(
                    in.cells(), [&](std::size_t c) { one(c, store); }, jobs);
                traced += in.cells();
                continue;
            }
            for (std::size_t c = 0;
                 c < in.cells() && (traced < in.cells() || !spent()); ++c) {
                one(c, store);
                ++traced;
            }
        }
        // Simulated counts: the reference ROI summed over the cells.
        RunStats roi;
        for (const std::string &j : ref.cellJson)
            if (!j.empty())
                roi.add(resultFromSnapshot(obs::snapshotFromJson(j)).roi);
        digest = simDigest(ref.cellJson);
        repeatSetUp();

        // Per-layer self time and Machine::run time, net of the clock
        // reads the wrappers themselves add (see TimerCost).
        const TimerCost timer = calibrateTimer();
        std::uint64_t wrapped_calls = 0;
        double self[kLayers];
        for (unsigned l = 0; l < kLayers; ++l) {
            wrapped_calls += ls.calls[l];
            self[l] = std::max(0.0, ls.selfNs[l] - ls.calls[l] * timer.inNs);
        }
        const double run_ns =
            std::max(1.0, ls.runNs - wrapped_calls * timer.fullNs);
        auto per = [&](unsigned l) {
            return ls.calls[l] ? self[l] / ls.calls[l] : 0.0;
        };
        double kinstr = ls.runInstructions / 1000.0;
        double trace_ns = self[TraceNext];
        double pf_ns = self[PfAccess] + self[PfFill];
        double dram_ns = self[DramTick] + self[DramSubmit];
        metrics = {
            {"trace.next_ns", per(TraceNext), "ns"},
            {"trace.host_share", trace_ns / run_ns, "ratio"},
            {"trace.build_s", median(build_s), "s"},
            {"prefetch.l1d.on_access_ns", per(PfAccess), "ns"},
            {"prefetch.l1d.on_fill_ns", per(PfFill), "ns"},
            {"prefetch.l1d.host_share", pf_ns / run_ns, "ratio"},
            {"prefetch.l1d.calls_per_kinstr",
             (ls.calls[PfAccess] + ls.calls[PfFill]) / kinstr,
             "calls/kinstr"},
            {"mem.dram.tick_ns", per(DramTick), "ns"},
            {"mem.dram.submit_ns", per(DramSubmit), "ns"},
            {"mem.dram.host_share", dram_ns / run_ns, "ratio"},
            {"mem.dram.next_event_calls_per_kinstr",
             ls.nextEventCalls / kinstr, "calls/kinstr"},
            {"mem.l1d.host_ns_per_access",
             ls.refS * 1e9 / ls.demandAccesses, "ns"},
            {"harness.substrate_share",
             1.0 - (trace_ns + pf_ns + dram_ns) / run_ns, "ratio"},
            {"harness.skipped_frac",
             ls.cycles ? static_cast<double>(ls.skipped) / ls.cycles : 0.0,
             "ratio"},
            {"harness.machine_build_ms", median(ls.buildMs), "ms"},
            {"harness.pool.busy_frac", ref.busyFrac, "ratio"},
            {"harness.pool.tail_s", ref.tailS, "s"},
            {"harness.store.put_ms", median(ls.putMs), "ms"},
            {"harness.store.get_ms", median(ls.getMs), "ms"},
            {"harness.checkpoint.save_ms", median(ls.saveMs), "ms"},
            {"harness.checkpoint.restore_ms", median(ls.restoreMs), "ms"},
            {"harness.checkpoint.blob_kb", median(ls.blobKb), "KB"},
            {"obs.snapshot_ms", median(ls.snapshotMs), "ms"},
            {"obs.parse_ms", median(ls.parseMs), "ms"},
            {"harness.tracing_overhead",
             ls.primaryS / ls.refS, "ratio"},
            {"cpu.instructions", double(roi.core.instructions), "count"},
            {"cpu.cycles", double(roi.core.cycles), "count"},
            {"cpu.ipc", roi.core.ipc(), "instr/cycle"},
            {"mem.l1d.demand_accesses", double(roi.l1d.demandAccesses),
             "count"},
            {"mem.l1d.demand_misses", double(roi.l1d.demandMisses), "count"},
            {"mem.l1d.mshr_merged", double(roi.l1d.demandMshrMerged),
             "count"},
            {"mem.l1d.pf_issued", double(roi.l1d.prefetchIssued), "count"},
            {"mem.l1d.pf_useful", double(roi.l1d.prefetchUseful), "count"},
            {"mem.l1d.pf_late", double(roi.l1d.prefetchLate), "count"},
            {"mem.l2.demand_misses", double(roi.l2.demandMisses), "count"},
            {"mem.llc.demand_misses", double(roi.llc.demandMisses), "count"},
            {"mem.dram.reads", double(roi.dram.reads), "count"},
            {"mem.dram.row_hits", double(roi.dram.rowHits), "count"},
            {"mem.dram.bus_busy_cycles", double(roi.dram.busBusyCycles),
             "count"},
            {"vm.stlb.misses", double(roi.stlb.misses), "count"},
        };
        extra = ", \"traced_cells\": " + std::to_string(traced) +
                ", \"timer_ns_per_call\": " + obs::formatDouble(timer.fullNs);
        writeSpans(args.spans, ls.spans, epoch);
    }

    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest));
    std::cout << "{\"info\": {\"workload\": " << jsonString(args.workload)
              << ", \"seed\": " << args.seed << ", \"nproc\": " << jobs
              << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
              << ", \"calib_ns_per_iter\": "
              << obs::formatDouble(calibrationNsPerIter())
              << ", \"sim_digest\": \"" << hex << "\"" << extra
              << ", \"failures\": [";
    for (std::size_t i = 0; i < tally.failures.size(); ++i)
        std::cout << (i ? ", " : "") << jsonString(tally.failures[i]);
    std::cout << "]}}" << std::endl;
    printResult(tally, metrics);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(perfbench::parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
