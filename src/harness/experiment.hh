/**
 * @file
 * Experiment harness: named prefetcher configurations (Table III), the
 * single-core and multi-core simulation drivers, and speedup helpers.
 * Every bench binary is a thin loop over these calls.
 */

#ifndef BERTI_HARNESS_EXPERIMENT_HH
#define BERTI_HARNESS_EXPERIMENT_HH

#include <string>
#include <vector>

#include "core/berti.hh"
#include "energy/energy_model.hh"
#include "harness/machine.hh"
#include "obs/export.hh"
#include "trace/registry.hh"
#include "verify/fault_injector.hh"

namespace berti
{

namespace sim
{
struct SimOptions;
} // namespace sim

/**
 * A named L1D(+L2) prefetcher combination, e.g. "berti", "ip-stride",
 * "mlop+bingo", "none". The storage figure covers the prefetcher
 * structures only (Figure 7's x axis).
 */
struct PrefetcherSpec
{
    std::string name;
    PrefetcherFactory l1d;   //!< null = none
    PrefetcherFactory l2;    //!< null = none
    /** Instruction-side prefetcher; null = none. Set it through
     *  withL1iPrefetcher so its presence shows in the name. */
    PrefetcherFactory l1i;
    std::uint64_t storageBits = 0;
};

/**
 * Build a spec by name. Any registry name works at either level; the
 * '+' at paren depth 0 separates L1D from L2 ("mlop+bingo"), so
 * hybrid(...) composition specs flow through unchanged ("hybrid(
 * berti,cmc;select=ip)+bingo"). Hybrid names are canonicalized into
 * spec.name (prefetch::canonicalHybridSpec), which is what result-store
 * keys record. An unknown or malformed name throws
 * verify::SimError(ErrorKind::Config).
 */
PrefetcherSpec makeSpec(const std::string &combo);

/** Berti with a custom configuration (sensitivity benches). */
PrefetcherSpec makeBertiSpec(const BertiConfig &cfg,
                             const std::string &label = "berti");

/**
 * spec plus an L1I prefetcher. The label joins the name
 * ("<spec>;l1i=<label>"), so cells with and without it never share a
 * result-store key or a stats sidecar.
 */
PrefetcherSpec withL1iPrefetcher(PrefetcherSpec spec,
                                 const std::string &label,
                                 PrefetcherFactory l1i);

/** Result of one single-core simulation region of interest. */
struct SimResult
{
    RunStats roi;
    double ipc = 0.0;
    EnergyBreakdown energy;
};

/**
 * Interval-sampling geometry (ARCHITECTURE.md, "Sampled simulation
 * intervals"). When enabled, simulate() replaces the single long
 * measurement region with windowCount measurement windows laid out over
 * the same generator stream: after the global warmup, window k starts
 * at instruction offset k * stride(), runs windowWarmup unmeasured
 * instructions to settle transient state, then measures windowMeasure
 * instructions. The aggregate over the windows reproduces the full-run
 * metrics within a small relative error at a fraction of the simulated
 * instructions.
 */
struct SampleGeometry
{
    /** Measurement windows; 0 disables sampling (full-run behaviour). */
    unsigned windowCount = 0;
    /** Unmeasured settle instructions at the head of each window. */
    std::uint64_t windowWarmup = 1000;
    /** Measured instructions per window (> 0 when enabled). */
    std::uint64_t windowMeasure = 8000;
    /** Window-start-to-window-start distance in instructions; 0 means
     *  back-to-back (windowWarmup + windowMeasure). Must cover one
     *  whole window — the gap instructions are simulated, unmeasured. */
    std::uint64_t windowStride = 0;
    /**
     * When non-empty, Machine checkpoints are saved as
     * <dir>/window-<k>.ckpt at each window start (before the window
     * warmup), so any window can later be re-simulated in isolation via
     * resumeSampledWindow(). Requires a checkpoint-capable machine
     * (see Machine::checkpointSupported). Never part of the result-store
     * fingerprint: checkpointing does not perturb simulated behaviour.
     */
    std::string checkpointDir;

    bool enabled() const { return windowCount > 0; }

    /** Canonical stride: the explicit one, or back-to-back windows. */
    std::uint64_t
    stride() const
    {
        return windowStride != 0 ? windowStride
                                 : windowWarmup + windowMeasure;
    }
};

/** Simulation lengths. Small by ChampSim standards but the generators
 *  are stationary, so measurements stabilise quickly. */
struct SimParams
{
    std::uint64_t warmupInstructions = 50000;
    std::uint64_t measureInstructions = 250000;

    /**
     * Memory-backend spec (mem/backend_registry.hh grammar), e.g.
     * "dram:ddr5" or "dram:hbm", and the one place the DRAM
     * rate is set ("dram:ddr4;mtps=1600"). Empty = the default
     * dram:ddr4 backend (bit-identical to the pre-backend harness).
     * The canonical form is folded into paramsFingerprint() whenever
     * it differs from the default, so result-store keys never collide
     * across backends.
     */
    std::string memBackend;

    /** Interval sampling; disabled (full-run measurement) by default.
     *  The geometry is part of paramsFingerprint(), so sampled and
     *  full-run cells never collide in the result store. */
    SampleGeometry sampling;

    /** Force invariant auditing on (in addition to BERTI_VERIFY=1). */
    bool forceAudit = false;

    /** Optional fault injection; must outlive the simulation call. */
    verify::FaultInjector *faults = nullptr;

    /** Wall-clock budget per simulation, in milliseconds (0 = none).
     *  Exceeding it throws verify::SimError(ErrorKind::Timeout); the
     *  supervised sweep turns that into a quarantined cell instead of a
     *  hung matrix. */
    std::uint64_t wallClockBudgetMs = 0;

    /**
     * Take the sampling geometry, the memory backend and --verify
     * (as forceAudit) from parsed options: the one mapping from
     * SimOptions onto SimParams, shared by the benches and sweep_tool.
     * Disabled sampling (sampleWindows 0) leaves the geometry inert.
     */
    void applyOptions(const sim::SimOptions &opt);
};

/**
 * Flat, diffable export of one SimResult: every ROI counter, the
 * derived per-level gauges, the headline "ipc" gauge and the energy
 * breakdown. This is the golden-stats schema — bit-identical for
 * identical simulations regardless of BERTI_JOBS.
 */
obs::MetricsSnapshot resultSnapshot(const SimResult &result);

/**
 * Inverse of resultSnapshot: rebuild a SimResult from its flat export.
 * Every ROI counter is copied back and the derived values (ipc, energy)
 * are recomputed from the ROI — both are pure functions of the
 * counters, so resultSnapshot(resultFromSnapshot(s)) == s bit-for-bit.
 * This is what lets the result store hand back cached cells that are
 * indistinguishable from freshly simulated ones.
 */
SimResult resultFromSnapshot(const obs::MetricsSnapshot &snap);

/**
 * One simulation as measurement windows (a full run is one window):
 * the per-window ROI results, their aggregate (a drop-in SimResult
 * whose counters are the component-wise sum over the measured windows),
 * and the dispersion statistics that turn the window sample into an
 * error estimate for the full-run value.
 */
struct SampledResult
{
    /** Per-window ROI results, in stream order. */
    std::vector<SimResult> windows;
    /** Instructions core 0 had retired when each window's measured
     *  region began (after the window warmup). */
    std::vector<std::uint64_t> windowStartInstruction;

    /** Windows summed; usable anywhere a full-run SimResult is. */
    SimResult aggregate;

    /** Total instructions actually simulated (global warmup + every
     *  window + inter-window gaps) — the cost side of the sampling
     *  trade, vs warmup + measure for a full run. */
    std::uint64_t instructionsSimulated = 0;

    /** Mean / sample stddev of the per-window IPCs, and the 95%
     *  confidence half-width (normal approximation,
     *  1.96 * stddev / sqrt(windows)). */
    double ipcMean = 0.0;
    double ipcStddev = 0.0;
    double ipcCiHalfWidth = 0.0;

    /** ipcCiHalfWidth / ipcMean: the relative confidence bound the
     *  sampled estimate claims for itself (0 when the mean is 0). */
    double ipcRelCi() const
    {
        return ipcMean > 0.0 ? ipcCiHalfWidth / ipcMean : 0.0;
    }
};

/**
 * The Table II machine with `cores` cores configured for one simulation
 * call: the spec's prefetchers, the memory backend parsed from
 * params.memBackend ("" = dram:ddr4), forceAudit, fault injection and
 * the wall-clock budget. The one mapping from options to a Machine:
 * options reach it through SimParams::applyOptions. An unknown backend
 * spec throws verify::SimError(ErrorKind::Config) naming the string.
 */
MachineConfig machineConfigFor(const PrefetcherSpec &spec,
                               const SimParams &params, unsigned cores);

/**
 * Run one workload on the Table II machine with the given spec. When
 * params.sampling is enabled this is simulateSampled(...).aggregate —
 * every caller of simulate() (benches, the supervisor) gets windowed
 * sampling by flipping the params, with the result-store key diverging
 * automatically via paramsFingerprint().
 */
SimResult simulate(const Workload &workload, const PrefetcherSpec &spec,
                   const SimParams &params = {});

/**
 * Windowed-sampling simulation of one workload. Throws
 * verify::SimError(ErrorKind::Config) on a degenerate geometry
 * (no windows, empty measured region, stride shorter than a window)
 * and ErrorKind::Checkpoint when checkpointDir is set on a machine
 * that cannot checkpoint (fault injection, non-serializable spec).
 */
SampledResult simulateSampled(const Workload &workload,
                              const PrefetcherSpec &spec,
                              const SimParams &params);

/**
 * Multi-core: one workload per core, shared LLC/DRAM. out[i] is core
 * i's result (snapshots via Machine::coreSnapshot); a full run is one
 * window, so .aggregate is the per-core region of interest either way.
 */
std::vector<SampledResult> simulateMix(const std::vector<Workload> &mix,
                                       const PrefetcherSpec &spec,
                                       const SimParams &params = {});

/**
 * Re-simulate one measurement window in isolation from the warm-state
 * checkpoint simulateSampled() saved at its start (single-core). The
 * returned window ROI is bit-identical to windows[k] of the sampled run
 * that wrote <checkpointDir>/window-<k>.ckpt — the resume path a sweep
 * uses to recompute or extend individual windows without replaying the
 * stream prefix.
 */
SimResult resumeSampledWindow(const Workload &workload,
                              const PrefetcherSpec &spec,
                              const SimParams &params,
                              const std::string &checkpointPath);

/** Sampled-vs-full error summary for the metrics the figures gate on. */
struct SampledError
{
    double ipcRel = 0.0;       //!< |sampled - full| / full IPC
    double l1dMpkiAbs = 0.0;   //!< |sampled - full| L1D demand MPKI
    double accuracyAbs = 0.0;  //!< |sampled - full| L1D pf accuracy
};

/** Compare a sampled aggregate against a full-run reference result. */
SampledError sampledVsFull(const SampledResult &sampled,
                           const SimResult &full);

/**
 * Geometric-mean speedup of test over baseline, element-wise. The two
 * vectors must be the same length — a mismatch means workloads went
 * missing from one side and throws verify::SimError(ErrorKind::Config)
 * instead of silently truncating the geomean.
 */
double speedupGeomean(const std::vector<SimResult> &test,
                      const std::vector<SimResult> &baseline);

} // namespace berti

#endif // BERTI_HARNESS_EXPERIMENT_HH
