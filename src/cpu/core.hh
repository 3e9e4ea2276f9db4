/**
 * @file
 * Trace-driven out-of-order core model in the ChampSim mould: a decoupled
 * front-end (L1I-gated fetch with branch prediction), in-order dispatch
 * into a ROB, loads issued to the L1D with address-translation latency,
 * out-of-order completion and in-order retirement.
 */

#ifndef BERTI_CPU_CORE_HH
#define BERTI_CPU_CORE_HH

#include <cstdint>

#include "cpu/branch_predictor.hh"
#include "mem/cache.hh"
#include "sim/ring.hh"
#include "sim/stats.hh"
#include "trace/instr.hh"
#include "vm/tlb.hh"

namespace berti
{

namespace verify
{
class SimAuditor;
} // namespace verify

struct CoreConfig
{
    unsigned robSize = 352;
    unsigned fetchWidth = 6;
    unsigned dispatchWidth = 6;
    unsigned retireWidth = 4;
    unsigned maxLoadsPerCycle = 2;   //!< L1D read ports
    unsigned maxStoresPerCycle = 1;  //!< L1D write port
    unsigned fetchBufferSize = 64;
    Cycle mispredictPenalty = 15;
    Cycle itlbMissLatency = 9;       //!< STLB latency + 1
    BranchPredictor::Config branch;
};

/**
 * One core. The owner ticks it once per cycle after ticking the memory
 * hierarchy below it.
 */
class Core : public ReadClient
{
  public:
    Core(const CoreConfig &cfg, const Cycle *clock, unsigned core_id,
         TraceGenerator *gen, Cache *l1i, Cache *l1d,
         TranslationUnit *translation);

    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    /** Advance one cycle: retire, issue, dispatch, fetch. */
    void tick();

    /**
     * Earliest future cycle at which tick() would make progress, given
     * no readDone arrives in between (kNever if the core is blocked
     * purely on memory responses). Quiescence cycle-skip input; the
     * bound must never be late.
     */
    Cycle nextEventCycle() const;

    // ReadClient: load and instruction-fetch completions from the L1s.
    void readDone(const MemRequest &req) override;

    /**
     * Register this core's retirement counters, the derived IPC gauge
     * and the private iTLB counters (under prefix + "itlb.") into the
     * registry. Called once at Machine construction.
     */
    void registerMetrics(obs::MetricsRegistry &registry,
                         const std::string &prefix);

    // Introspection for the forward-progress watchdog and diagnostics.
    std::size_t robOccupancy() const { return rob.size(); }
    std::uint64_t robHeadId() const
    {
        return rob.empty() ? 0 : rob.front().id;
    }
    bool robHeadDone() const
    {
        return !rob.empty() && rob.front().done;
    }
    std::size_t fetchBufferOccupancy() const { return fetchBuffer.size(); }
    std::size_t pendingAccessCount() const
    {
        return pendingAccesses.size();
    }
    std::size_t outstandingLoadCount() const
    {
        return outstandingLoads.size();
    }

    /**
     * Dynamic instructions pulled from the trace generator so far.
     * Resume replays the (deterministic) generator exactly this many
     * times to re-synchronise its position: fetch() draws one
     * instruction per allocated id, so the count is nextInstrId - 1.
     */
    std::uint64_t fetchedInstructions() const { return nextInstrId - 1; }

    /**
     * Checkpoint walk: stats, branch predictor, iTLB, ROB, fetch
     * buffer, pending accesses and the in-flight bookkeeping. The trace
     * generator itself is NOT serialized — see fetchedInstructions().
     */
    void visitState(sim::StateIO &io);

    CoreStats stats;

  private:
    friend class verify::SimAuditor;
    struct RobEntry
    {
        std::uint64_t id = 0;
        bool done = false;
        std::uint8_t pendingLoads = 0;
    };

    struct FetchedInstr
    {
        TraceInstr instr;
        std::uint64_t id = 0;
        std::uint64_t depLoadId = 0;  //!< 0 = no load dependence
    };

    struct PendingAccess
    {
        MemRequest req;
        Cycle readyCycle;  //!< after address translation
        bool isStore;
    };

    void retire();
    void dispatch();
    void issueMemory();
    void fetch();

    bool robFull() const { return rob.size() >= cfg.robSize; }

    CoreConfig cfg;
    const Cycle *clock;
    unsigned coreId;
    TraceGenerator *gen;
    Cache *l1i;
    Cache *l1d;
    TranslationUnit *translation;
    BranchPredictor branch;
    Tlb itlb;

    RingQueue<RobEntry> rob;
    RingQueue<FetchedInstr> fetchBuffer;
    RingQueue<PendingAccess> pendingAccesses;
    IdSet outstandingLoads;

    std::uint64_t nextInstrId = 1;
    std::uint64_t lastLoadId = 0;      //!< program-order last load
    Cycle fetchStallUntil = 0;
    Addr fetchLine = kNoAddr;          //!< instruction line in flight/ready
    bool fetchLinePending = false;     //!< waiting on an L1I fill
};

} // namespace berti

#endif // BERTI_CPU_CORE_HH
