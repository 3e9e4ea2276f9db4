/**
 * @file
 * Machine: assembles cores, private cache hierarchies, a shared LLC and
 * DRAM into the Table II (Sunny Cove-like) system, and steps the whole
 * thing cycle by cycle.
 */

#ifndef BERTI_HARNESS_MACHINE_HH
#define BERTI_HARNESS_MACHINE_HH

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "mem/backend_registry.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "obs/metrics.hh"
#include "sim/options.hh"
#include "sim/stats.hh"
#include "trace/instr.hh"
#include "verify/auditor.hh"
#include "verify/watchdog.hh"
#include "vm/tlb.hh"

namespace berti
{

namespace verify
{
class FaultInjector;
} // namespace verify

/** Factory for per-core prefetcher instances. */
using PrefetcherFactory = std::function<std::unique_ptr<Prefetcher>()>;

/** Test hook: build the memory backend yourself (scripted backends for
 *  the nextEventCycle() contract tests). Null = the registry builds
 *  from MachineConfig::memBackend + MachineConfig::dram. */
using MemBackendFactory =
    std::function<std::unique_ptr<mem::MemBackend>(const Cycle *clock)>;

struct MachineConfig
{
    unsigned cores = 1;
    CoreConfig core;
    CacheConfig l1i;
    CacheConfig l1d;
    CacheConfig l2;
    CacheConfig llc;      //!< sized per core at build time
    /** Per-channel DRAM timing/geometry (the whole backend when
     *  memBackend.channels == 1, which is the default). */
    DramConfig dram;
    /**
     * Memory-backend selection: the registry model that shaped `dram`
     * and the channel count the Machine builds (1 = a single Dram,
     * exactly the historical machine; > 1 = a line-interleaved
     * MultiChannelDram). Resolve both fields together from a spec
     * string via machineConfigFor (harness/experiment.hh) or
     * mem::parseBackendSpec — setting `dram` by hand on a
     * single-channel machine also keeps working.
     */
    mem::BackendSel memBackend;
    /** Test hook overriding backend construction entirely (see
     *  MemBackendFactory); fingerprints still describe `dram`. */
    MemBackendFactory memBackendHook;
    TranslationUnit::Config tlb;
    PrefetcherFactory l1dPrefetcher;  //!< null = no L1D prefetcher
    PrefetcherFactory l2Prefetcher;   //!< null = no L2 prefetcher
    PrefetcherFactory l1iPrefetcher;  //!< null = no L1I prefetcher

    // ------------------------------------------------ simulator speed
    /** Quiescence cycle-skip (bit-identical results; BERTI_CYCLE_SKIP=0
     *  disables). See ARCHITECTURE.md, "Performance". */
    bool cycleSkip = sim::SimOptions::fromEnv().cycleSkip;

    // ------------------------------------------------ hardening layer
    /** Invariant checking; defaults honour BERTI_VERIFY=1 so CI audits
     *  every existing test without modifying it. */
    verify::AuditConfig audit = verify::AuditConfig::fromEnv();
    /** Forward-progress watchdog; enabled by default. */
    verify::WatchdogConfig watchdog;
    /** Optional fault injection; must outlive the Machine. */
    verify::FaultInjector *faults = nullptr;

    /**
     * Wall-clock budget for the whole Machine lifetime, in milliseconds
     * (0 = unlimited). When set, run() probes the elapsed real time
     * every few thousand cycles and throws
     * verify::SimError(ErrorKind::Timeout) once the budget is spent —
     * the supervised-sweep deadline mechanism (see
     * harness/supervisor.hh). The probe period is a power-of-two cycle
     * count, so enabling a budget never perturbs simulated behaviour.
     */
    std::uint64_t wallClockBudgetMs = 0;

    /**
     * The paper's baseline system (Table II): 352-entry ROB 6-issue
     * 4-retire core; 32 KB L1I; 48 KB 12-way 5-cycle L1D with 16 MSHRs;
     * 512 KB 8-way 10-cycle SRRIP L2; 2 MB/core 16-way 20-cycle DRRIP
     * LLC; one DDR5-6400 channel per 4 cores.
     */
    static MachineConfig sunnyCove(unsigned cores = 1);
};

class Machine
{
  public:
    /**
     * Build the machine. The pointers must outlive the Machine. Throws
     * verify::SimError(ErrorKind::Config) when the configuration is
     * structurally invalid (generator count != cores, zero cores, bad
     * cache geometry, mis-wired prefetcher) — always-on validation.
     */
    Machine(const MachineConfig &cfg,
            std::vector<TraceGenerator *> generators);

    /**
     * Run until every core has retired at least target_instructions
     * *more* instructions than at call time. Finished cores keep
     * executing (their trace replays), as in the paper's multi-core
     * methodology; per-core statistics snapshots are taken the moment
     * each core reaches its target.
     *
     * When the forward-progress watchdog is enabled (default) and a
     * core's ROB head wedges — e.g. a leaked MSHR swallowed a load
     * response — run() throws verify::SimError(ErrorKind::Watchdog)
     * whose diagnostic() carries the structured state dump, instead of
     * spinning to the hard cycle bound.
     */
    void run(std::uint64_t target_instructions);

    /**
     * Structured state dump: per-core ROB/fetch-buffer state, queue
     * occupancies and in-flight MSHRs (with ages) of every cache level,
     * DRAM queues, and each L1D prefetcher's debugState().
     */
    std::string diagnostic() const;

    /** The invariant checker, when cfg.audit.enabled (else null). */
    verify::SimAuditor *auditor() { return audit.get(); }

    /** Per-core statistics snapshot taken when the core hit its target
     *  in the most recent run() (or live stats before any run). */
    RunStats coreSnapshot(unsigned core_id) const;

    /** Live statistics right now. */
    RunStats liveStats(unsigned core_id) const;

    /**
     * Machine-wide live statistics: core-private structures summed over
     * all cores, the shared LLC/DRAM counted once, cycles = wall clock.
     */
    RunStats aggregateStats() const;

    /**
     * The per-Machine metrics registry. Every component registered its
     * counters, derived gauges and histograms here at construction,
     * under "c<N>." per-core prefixes plus shared "llc." / "dram." /
     * "machine." / "energy." names.
     */
    obs::MetricsRegistry &metrics() { return metricsReg; }
    const obs::MetricsRegistry &metrics() const { return metricsReg; }

    /** Materialised snapshot of every registered metric, right now. */
    obs::MetricsSnapshot metricsSnapshot() const
    {
        return metricsReg.snapshot();
    }

    Cycle cycle() const { return clock; }

    // ------------------------------------------------------ checkpoints
    // Implemented in harness/checkpoint.cc; see ARCHITECTURE.md, "Crash
    // safety & resume" for the blob format and versioning rules.

    /**
     * Whether this machine can be checkpointed: every attached
     * prefetcher must support state serialization and fault injection
     * must be off (the injector's RNG is owned by the caller and not
     * restorable). When it returns false and `why` is non-null, `why`
     * receives the blocking reason.
     */
    bool checkpointSupported(std::string *why = nullptr) const;

    /**
     * Configuration fingerprint folded into every checkpoint header:
     * core count, cache geometries, DRAM/TLB parameters and attached
     * prefetcher names. Resuming on a machine with a different
     * fingerprint throws — a checkpoint is only meaningful on the
     * topology that wrote it.
     */
    std::uint64_t configFingerprint() const;

    /**
     * Serialize the complete architectural + statistics state into a
     * self-validating versioned blob (magic, format version, config
     * fingerprint, payload, FNV-1a-64 checksum). Deterministic: the
     * same machine state always yields byte-identical blobs, and a
     * restored machine re-serializes to the same bytes.
     */
    std::string saveCheckpointBlob() const;

    /** saveCheckpointBlob() written atomically (temp file + rename). */
    void saveCheckpoint(const std::string &path) const;

    /**
     * The state path that byte `offset` of saveCheckpointBlob() holds,
     * e.g. "core0.l1d.pf.table[3].slots[5]" ("header" and "checksum"
     * for the framing). Re-runs the save walk with a sim::PathProbe;
     * checkpoint compares use it to name the first divergent field.
     */
    std::string checkpointPathAt(std::size_t offset) const;

    /**
     * Restore a blob into this machine. The machine must be *pristine*
     * (freshly constructed, never run) and built with the same
     * configuration and equivalent trace generators as the saver: the
     * generators are not serialized, they are replayed (deterministic
     * streams) to re-synchronise their positions. Throws
     * verify::SimError(ErrorKind::Checkpoint) on a truncated, corrupt,
     * version- or config-incompatible blob, leaving no partial state
     * applied before validation completes. Runs a full auditor pass
     * after restore when auditing is enabled.
     */
    void resumeFromBlob(const std::string &blob);

    /** resumeFromBlob() on the contents of `path`. */
    void resumeFrom(const std::string &path);

    /** Cycles fast-forwarded by the quiescence skip in run() so far
     *  (0 when cfg.cycleSkip is off). Simulated time is unaffected —
     *  this is purely a wall-time diagnostic for the perf harness. */
    std::uint64_t skippedCycles() const { return cyclesSkipped; }

    Cache &l1d(unsigned core_id) { return *nodes[core_id]->l1dCache; }
    Cache &l2(unsigned core_id) { return *nodes[core_id]->l2Cache; }
    Cache &sharedLlc() { return *llc; }
    Core &core(unsigned core_id) { return *nodes[core_id]->cpu; }
    TranslationUnit &translation(unsigned core_id)
    {
        return *nodes[core_id]->tu;
    }

  private:
    struct CoreNode
    {
        std::unique_ptr<TranslationUnit> tu;
        std::unique_ptr<Cache> l1iCache;
        std::unique_ptr<Cache> l1dCache;
        std::unique_ptr<Cache> l2Cache;
        std::unique_ptr<Core> cpu;
    };

    MachineConfig cfg;
    Cycle clock = 0;
    /** Generators, retained for checkpoint-resume replay. */
    std::vector<TraceGenerator *> gens;
    /** Construction time, the wall-clock deadline's epoch. */
    std::chrono::steady_clock::time_point bornAt;
    std::uint64_t deadlineProbe = 0;
    // Declared before the components so it outlives none of them while
    // they register; it stores raw pointers into them, never owning.
    obs::MetricsRegistry metricsReg;
    std::unique_ptr<mem::MemBackend> dram;
    std::unique_ptr<Cache> llc;
    std::vector<std::unique_ptr<CoreNode>> nodes;
    std::vector<RunStats> snapshots;
    std::unique_ptr<verify::SimAuditor> audit;
    verify::ProgressWatchdog watchdog;
    std::uint64_t cyclesSkipped = 0;
    // Quiescence-probe backoff: scanning every component each tick is
    // pure overhead while the machine is busy, so failed probes back
    // off exponentially (capped). Skipping later (or less) than
    // possible is always safe — only *which* cycles are provably idle
    // matters for invariance, not when we notice.
    Cycle skipBackoff = 1;
    Cycle skipProbeAt = 0;
    // run()-loop scratch, preallocated so the run loop itself stays
    // allocation-free.
    std::vector<std::uint64_t> runTargets;
    std::vector<char> runDone;
    /** Size of the last checkpoint blob. The next save reserves it up
     *  front, so the blob is written without regrowing: every regrowth
     *  of a megabyte blob faults in fresh pages. */
    mutable std::size_t checkpointBytes = 0;

    void tick();

    /**
     * Earliest future cycle at which any component would do work given
     * no new input (kNever when everything is drained). The min over
     * every cache, core and the DRAM controller's own bounds.
     */
    Cycle nextInterestingCycle() const;

    /** Jump the clock forward over provably idle cycles, keeping the
     *  per-core cycle counters in lockstep (an idle tick's only effect). */
    void fastForward(Cycle cycles);

    void registerAllMetrics();

    [[noreturn]] void failWedged(unsigned core_id);

    // Checkpoint internals (harness/checkpoint.cc).
    sim::PtrMap clientMap() const;
    std::string writeCheckpoint(sim::PathProbe *probe) const;
    /** The one walk over the payload, shared by save and restore. */
    void visitPayload(sim::StateIO &io);
};

} // namespace berti

#endif // BERTI_HARNESS_MACHINE_HH
