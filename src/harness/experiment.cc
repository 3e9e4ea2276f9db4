#include "harness/experiment.hh"

#include <cmath>

#include "mem/backend_registry.hh"
#include "prefetch/compose.hh"
#include "prefetch/registry.hh"
#include "sim/options.hh"
#include "sim/spec_parse.hh"
#include "verify/sim_error.hh"


namespace berti
{

namespace
{

std::uint64_t
bitsOf(const PrefetcherFactory &f)
{
    return f ? f()->storageBits() : 0;
}

} // namespace

MachineConfig
machineConfigFor(const PrefetcherSpec &spec, const SimParams &params,
                 unsigned cores)
{
    MachineConfig cfg = MachineConfig::sunnyCove(cores);
    // The memory backend ("" = dram:ddr4, the historical machine),
    // DRAM rate included: Figures 16-17 append ";mtps=N" to the spec.
    mem::ParsedBackend backend = mem::parseBackendSpec(params.memBackend);
    cfg.dram = backend.channel;
    cfg.memBackend = backend.sel;
    cfg.l1dPrefetcher = spec.l1d;
    cfg.l2Prefetcher = spec.l2;
    cfg.l1iPrefetcher = spec.l1i;
    if (params.forceAudit)
        cfg.audit.enabled = true;
    cfg.faults = params.faults;
    cfg.wallClockBudgetMs = params.wallClockBudgetMs;
    return cfg;
}

namespace
{

/** Derive ipc + energy from an already-filled ROI. */
SimResult
finishResult(RunStats roi)
{
    SimResult r;
    r.roi = roi;
    r.ipc = r.roi.core.ipc();
    r.energy = EnergyModel{}.evaluate(r.roi);
    return r;
}

/** A degenerate geometry measures nothing or overlaps its own windows;
 *  fail typed and loud instead of producing a silently-wrong sample. */
void
validateGeometry(const SampleGeometry &g)
{
    if (!g.enabled()) {
        throw verify::SimError(
            verify::ErrorKind::Config, "experiment",
            "sampled simulation requested with windowCount == 0");
    }
    if (g.windowMeasure == 0) {
        throw verify::SimError(
            verify::ErrorKind::Config, "experiment",
            "sampling windowMeasure must be positive — a window that "
            "measures 0 instructions contributes nothing");
    }
    if (g.stride() < g.windowWarmup + g.windowMeasure) {
        throw verify::SimError(
            verify::ErrorKind::Config, "experiment",
            "sampling stride " + std::to_string(g.stride()) +
                " is shorter than one window (warmup " +
                std::to_string(g.windowWarmup) + " + measure " +
                std::to_string(g.windowMeasure) +
                ") — windows would overlap");
    }
}

std::string
windowCheckpointPath(const std::string &dir, unsigned window)
{
    return dir + "/window-" + std::to_string(window) + ".ckpt";
}

/** Mean / sample stddev / 95% half-width over the per-window IPCs. */
void
computeDispersion(SampledResult &s)
{
    const std::size_t n = s.windows.size();
    if (n == 0)
        return;
    double sum = 0.0;
    for (const SimResult &w : s.windows)
        sum += w.ipc;
    s.ipcMean = sum / static_cast<double>(n);
    if (n > 1) {
        double sq = 0.0;
        for (const SimResult &w : s.windows) {
            double d = w.ipc - s.ipcMean;
            sq += d * d;
        }
        s.ipcStddev = std::sqrt(sq / static_cast<double>(n - 1));
        s.ipcCiHalfWidth =
            1.96 * s.ipcStddev / std::sqrt(static_cast<double>(n));
    }
}

/**
 * The one measurement loop behind every simulate entry point: global
 * warmup (or a checkpoint restore in its place), then per window an
 * optional checkpoint, the window warmup, the measured region and the
 * gap to the next window. A full run is the one-window geometry with
 * no window warmup that measures measureInstructions; a resume
 * re-measures a single window. Returns one SampledResult per core.
 */
std::vector<SampledResult>
runCell(const std::vector<Workload> &workloads, const PrefetcherSpec &spec,
        const SimParams &params, const std::string &resumePath = "")
{
    SampleGeometry g = params.sampling;
    if (g.enabled()) {
        validateGeometry(g);
    } else {
        g = SampleGeometry{};
        g.windowCount = 1;
        g.windowWarmup = 0;
        g.windowMeasure = params.measureInstructions;
    }
    if (!resumePath.empty()) {
        g.windowCount = 1;
        g.checkpointDir.clear();
    }
    const unsigned cores = static_cast<unsigned>(workloads.size());
    if (!g.checkpointDir.empty() && cores > 1) {
        throw verify::SimError(
            verify::ErrorKind::Config, "experiment",
            "per-window checkpoints are single-core only: "
            "resumeSampledWindow cannot rebuild a mix machine");
    }

    std::vector<std::unique_ptr<TraceGenerator>> gens;
    std::vector<TraceGenerator *> gen_ptrs;
    for (const Workload &w : workloads) {
        gens.push_back(w.make());
        gen_ptrs.push_back(gens.back().get());
    }
    Machine machine(machineConfigFor(spec, params, cores), gen_ptrs);

    if (!g.checkpointDir.empty()) {
        std::string why;
        if (!machine.checkpointSupported(&why)) {
            throw verify::SimError(
                verify::ErrorKind::Checkpoint, "experiment",
                "sampling checkpointDir is set but this machine cannot "
                "checkpoint: " + why);
        }
    }

    // A mix measures each core up to the moment it reached its target
    // (the paper's multi-core methodology); a lone core's live stats are
    // that same moment, and stay valid right after a checkpoint restore.
    auto stats = [&](unsigned c) {
        return cores == 1 ? machine.liveStats(0) : machine.coreSnapshot(c);
    };

    if (resumePath.empty())
        machine.run(params.warmupInstructions);
    else
        machine.resumeFrom(resumePath);

    std::vector<SampledResult> out(cores);
    const std::uint64_t gap = g.stride() - (g.windowWarmup + g.windowMeasure);
    for (unsigned k = 0; k < g.windowCount; ++k) {
        // Window boundary: persist the warm microarchitectural state so
        // this window can be re-simulated in isolation later.
        if (!g.checkpointDir.empty())
            machine.saveCheckpoint(windowCheckpointPath(g.checkpointDir, k));
        if (g.windowWarmup > 0)
            machine.run(g.windowWarmup);
        std::vector<RunStats> start;
        for (unsigned c = 0; c < cores; ++c)
            start.push_back(stats(c));
        machine.run(g.windowMeasure);
        for (unsigned c = 0; c < cores; ++c) {
            out[c].windowStartInstruction.push_back(
                start[c].core.instructions);
            out[c].windows.push_back(finishResult(stats(c).diff(start[c])));
        }
        // Simulated-but-unmeasured gap to the next window start.
        if (k + 1 < g.windowCount && gap > 0)
            machine.run(gap);
    }

    for (unsigned c = 0; c < cores; ++c) {
        SampledResult &s = out[c];
        for (const SimResult &w : s.windows)
            s.aggregate.roi.add(w.roi);
        s.aggregate = finishResult(s.aggregate.roi);
        s.instructionsSimulated = machine.liveStats(c).core.instructions;
        computeDispersion(s);
    }
    return out;
}

} // namespace

PrefetcherSpec
makeSpec(const std::string &combo)
{
    PrefetcherSpec spec;
    std::string l1_name = combo;
    std::string l2_name;
    // The level separator of a combo like "mlop+bingo" is the '+' at
    // paren depth 0, so a '+' inside a hybrid(...) child list would
    // belong to the spec.
    auto plus = sim::findTopLevel(combo, '+');
    if (plus != std::string::npos) {
        l1_name = combo.substr(0, plus);
        l2_name = combo.substr(plus + 1);
    }
    auto canon = [](const std::string &n) {
        return prefetch::isHybridSpec(n) ? prefetch::canonicalHybridSpec(n)
                                         : n;
    };
    spec.l1d = prefetch::make(l1_name);
    spec.l2 = prefetch::make(l2_name);
    spec.name = canon(l1_name) +
                (l2_name.empty() ? "" : "+" + canon(l2_name));
    spec.storageBits = bitsOf(spec.l1d) + bitsOf(spec.l2);
    return spec;
}

PrefetcherSpec
makeBertiSpec(const BertiConfig &cfg, const std::string &label)
{
    PrefetcherSpec spec;
    spec.name = label;
    spec.l1d = [cfg] { return std::make_unique<BertiPrefetcher>(cfg); };
    spec.storageBits = bitsOf(spec.l1d);
    return spec;
}

PrefetcherSpec
withL1iPrefetcher(PrefetcherSpec spec, const std::string &label,
                  PrefetcherFactory l1i)
{
    spec.name += ";l1i=" + label;
    spec.l1i = std::move(l1i);
    return spec;
}

void
SimParams::applyOptions(const sim::SimOptions &opt)
{
    sampling.windowCount = opt.sampleWindows;
    sampling.windowWarmup = opt.sampleWarmup;
    sampling.windowMeasure = opt.sampleMeasure;
    sampling.windowStride = opt.sampleStride;
    memBackend = opt.memBackend;
    forceAudit = forceAudit || opt.verify;
}

obs::MetricsSnapshot
resultSnapshot(const SimResult &result)
{
    obs::MetricsSnapshot snap = obs::snapshotOf(result.roi);
    snap.setGauge("ipc", result.ipc);
    obs::appendEnergy(snap, result.energy);
    return snap;
}

SimResult
resultFromSnapshot(const obs::MetricsSnapshot &snap)
{
    SimResult r;
    visitRunStatsCounters(r.roi,
                          [&snap](const std::string &name,
                                  std::uint64_t &value) {
                              value = snap.counter(name);
                          });
    r.ipc = r.roi.core.ipc();
    r.energy = EnergyModel{}.evaluate(r.roi);
    return r;
}

SimResult
simulate(const Workload &workload, const PrefetcherSpec &spec,
         const SimParams &params)
{
    return runCell({workload}, spec, params)[0].aggregate;
}

SampledResult
simulateSampled(const Workload &workload, const PrefetcherSpec &spec,
                const SimParams &params)
{
    validateGeometry(params.sampling);
    return runCell({workload}, spec, params)[0];
}

std::vector<SampledResult>
simulateMix(const std::vector<Workload> &mix, const PrefetcherSpec &spec,
            const SimParams &params)
{
    return runCell(mix, spec, params);
}

SimResult
resumeSampledWindow(const Workload &workload, const PrefetcherSpec &spec,
                    const SimParams &params,
                    const std::string &checkpointPath)
{
    validateGeometry(params.sampling);
    return runCell({workload}, spec, params, checkpointPath)[0].windows[0];
}

SampledError
sampledVsFull(const SampledResult &sampled, const SimResult &full)
{
    SampledError e;
    if (full.ipc > 0.0)
        e.ipcRel = std::abs(sampled.aggregate.ipc - full.ipc) / full.ipc;
    double full_mpki =
        full.roi.l1d.mpki(full.roi.core.instructions);
    double sampled_mpki = sampled.aggregate.roi.l1d.mpki(
        sampled.aggregate.roi.core.instructions);
    e.l1dMpkiAbs = std::abs(sampled_mpki - full_mpki);
    e.accuracyAbs = std::abs(sampled.aggregate.roi.l1d.accuracy() -
                             full.roi.l1d.accuracy());
    return e;
}

double
speedupGeomean(const std::vector<SimResult> &test,
               const std::vector<SimResult> &baseline)
{
    if (test.size() != baseline.size()) {
        throw verify::SimError(
            verify::ErrorKind::Config, "experiment",
            "speedupGeomean size mismatch: " + std::to_string(test.size()) +
                " test vs " + std::to_string(baseline.size()) +
                " baseline results; a truncated geomean would silently "
                "drop workloads");
    }
    std::vector<double> speedups;
    for (std::size_t i = 0; i < test.size(); ++i) {
        if (baseline[i].ipc <= 0.0) {
            // A non-positive baseline IPC means that workload never
            // simulated (or retired nothing); skipping it would quietly
            // drop it from the geomean, biasing the figure.
            throw verify::SimError(
                verify::ErrorKind::Config, "experiment",
                "speedupGeomean: baseline result " + std::to_string(i) +
                    " has non-positive IPC (" +
                    std::to_string(baseline[i].ipc) +
                    ") — that workload would be silently dropped from "
                    "the geomean");
        }
        speedups.push_back(test[i].ipc / baseline[i].ipc);
    }
    return geomean(speedups.data(), speedups.size());
}

} // namespace berti
