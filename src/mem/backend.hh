/**
 * @file
 * MemBackend: the abstract memory-backend interface below the LLC.
 * Everything the rest of the simulator needs from "main memory" is
 * expressed here, so the concrete DRAM timing model is one pluggable
 * implementation among several (see mem/backend_registry.hh for the
 * model registry and spec grammar):
 *
 *   - the MemLevel enqueue surface (submitRead / submitWriteback) the
 *     LLC drives;
 *   - the tick() / nextEventCycle() drain contract the quiescence
 *     cycle-skip depends on: nextEventCycle() must never exceed the
 *     first future cycle at which tick() would do observable work, or
 *     a skip could jump past a pending completion (late bounds are
 *     correctness bugs; early bounds only cost speed);
 *   - one checkpoint walk (visitState) with a deterministic byte
 *     layout, reached through the saveState / loadState bridge;
 *   - metrics registration and an aggregated statistics snapshot;
 *   - the auditor hook: auditViolation() replaces the auditor's
 *     historical friend-access into Dram internals, so new backends
 *     get invariant checking without widening any friendship.
 */

#ifndef BERTI_MEM_BACKEND_HH
#define BERTI_MEM_BACKEND_HH

#include <string>

#include "mem/cache.hh"
#include "sim/serialize.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace berti::mem
{

class MemBackend : public MemLevel
{
  public:
    /** Advance one cycle: retire due completions, make at most the
     *  backend's per-cycle scheduling decisions. */
    virtual void tick() = 0;

    /**
     * Earliest future cycle at which tick() would do work given no new
     * input (kNever when fully drained). The quiescence cycle-skip
     * bound: returning a cycle later than the true next event is a
     * correctness bug (results would depend on the skip setting);
     * returning one earlier is always safe.
     */
    virtual Cycle nextEventCycle() const = 0;

    /** Aggregated access counters over the whole backend (summed over
     *  channels for multi-channel models). */
    virtual DramStats statsSnapshot() const = 0;

    /** Queued + in-flight reads, for diagnostics and drain checks. */
    virtual std::size_t pendingReads() const = 0;
    virtual std::size_t rqOccupancy() const = 0;
    virtual std::size_t wqOccupancy() const = 0;

    /** Optional fault-injection hook (null = no faults). */
    virtual void setFaultInjector(verify::FaultInjector *injector) = 0;

    /** Register counters/gauges under `prefix` ("dram." on the
     *  Machine). Called once at Machine construction. */
    virtual void registerMetrics(obs::MetricsRegistry &registry,
                                 const std::string &prefix) = 0;

    /**
     * Checkpoint bridge: the hooks the Machine, and any decorator
     * between it and the backend, call. Both run visitState over the
     * stream; decorators override these to forward.
     */
    virtual void
    saveState(sim::ByteWriter &w, const sim::PtrMap &clients) const
    {
        sim::StateIO io(w, &clients);
        const_cast<MemBackend *>(this)->visitState(io);
    }

    virtual void
    loadState(sim::ByteReader &r, const sim::PtrMap &clients)
    {
        sim::StateIO io(r, &clients);
        visitState(io);
    }

    /**
     * The one checkpoint walk (save and load). The layout must be
     * deterministic (the same state always serializes to the same
     * bytes) and self-delimiting; any layout change bumps
     * harness::kCheckpointVersion. The default refuses, typed.
     */
    virtual void
    visitState(sim::StateIO &io)
    {
        io.fail("memory backend '" + name() +
                "' does not support checkpointing");
    }

    /** False blocks Machine checkpointing with a typed reason (test
     *  doubles that carry unserializable state return false). */
    virtual bool checkpointSupported() const { return true; }

    /**
     * Auditor hook: re-validate the backend's structural invariants
     * (queue bounds, geometry consistency) and return a description of
     * the first violation, or "" when all hold. Called read-only from
     * verify::SimAuditor at its check interval.
     */
    virtual std::string auditViolation() const = 0;

    /** Short model name for diagnostics and audit failures. */
    virtual std::string name() const = 0;
};

} // namespace berti::mem

#endif // BERTI_MEM_BACKEND_HH
