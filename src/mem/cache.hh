/**
 * @file
 * Generic set-associative, non-inclusive cache level with MSHRs, read /
 * write / prefetch queues, bandwidth limits and prefetcher hook points.
 * Instances of this one class model L1I, L1D, L2 and the LLC.
 */

#ifndef BERTI_MEM_CACHE_HH
#define BERTI_MEM_CACHE_HH

#include <memory>
#include <string>
#include <vector>

#include "mem/replacement.hh"
#include "mem/request.hh"
#include "prefetch/prefetcher.hh"
#include "sim/ring.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace berti
{

class TranslationUnit;

namespace obs
{
class Histogram;
class MetricsRegistry;
} // namespace obs

namespace verify
{
class FaultInjector;
class SimAuditor;
} // namespace verify

/** Anything a cache can forward requests to (a lower cache or DRAM). */
class MemLevel
{
  public:
    virtual ~MemLevel() = default;

    /** Forward a read-type request. @return false if the queue is full. */
    virtual bool submitRead(MemRequest req) = 0;

    /** Forward a dirty line eviction. Always accepted (soft capacity). */
    virtual void submitWriteback(Addr p_line) = 0;
};

/** Field order leaves no padding hole: Cache embeds a copy, and its size
 *  is kept at 608 bytes (see Cache::tags). */
struct CacheConfig
{
    std::string name = "cache";
    Cycle latency = 5;        //!< tag+data lookup latency
    unsigned level = 1;       //!< 1 = L1, 2 = L2, 3 = LLC
    unsigned sets = 64;
    unsigned ways = 8;
    unsigned mshrs = 16;
    unsigned rqSize = 32;
    unsigned pqSize = 16;
    unsigned wqSize = 32;
    unsigned maxReadsPerCycle = 2;      //!< RQ lookups per cycle
    unsigned maxPrefetchesPerCycle = 1; //!< PQ lookups per cycle
    unsigned maxWritesPerCycle = 2;     //!< WQ drains per cycle
    ReplKind repl = ReplKind::Lru;
    bool isL1d = false;       //!< virtual-address prefetching + metadata
    /** Invoke the prefetcher on InstrFetch accesses (L1I prefetching). */
    bool trainOnInstrFetch = false;
};

/**
 * One cache level. Cycle-stepped: the owner calls tick() once per core
 * cycle, after ticking the level below it so responses propagate upward
 * within a cycle in the right order.
 */
class Cache : public MemLevel, public ReadClient, public PrefetchPort
{
  public:
    /**
     * Build the level. Throws verify::SimError(ErrorKind::Config) on a
     * structurally invalid configuration (zero sets/ways/MSHRs/queues)
     * — always-on validation, unlike an assert.
     */
    Cache(const CacheConfig &cfg, const Cycle *clock);
    ~Cache() override;

    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    void setLower(MemLevel *lower_level) { lower = lower_level; }

    /** L1D only: STLB used to translate virtual prefetch requests. */
    void setTranslation(TranslationUnit *tu) { translation = tu; }

    void setPrefetcher(std::unique_ptr<Prefetcher> pf);
    Prefetcher *prefetcher() { return pf.get(); }
    const Prefetcher *prefetcher() const { return pf.get(); }

    /** Optional fault-injection hook (null = no faults). */
    void setFaultInjector(verify::FaultInjector *injector)
    {
        faults = injector;
    }

    /**
     * Register this level's counters, derived gauges (accuracy, MSHR
     * occupancy), the fill-latency histogram and the attached
     * prefetcher's metrics (under prefix + "pf.") into the registry.
     * Called once at Machine construction; the registry must outlive
     * the cache.
     */
    void registerMetrics(obs::MetricsRegistry &registry,
                         const std::string &prefix);

    /**
     * Always-on wiring validation, called at machine construction:
     * an L1D with a prefetcher attached must have a TLB to translate
     * virtual prefetch addresses. Throws verify::SimError on violation
     * (this replaces a release-invisible assert in the prefetch path).
     */
    void validateWiring() const;

    // MemLevel: entry points used by cores and upper caches.
    bool submitRead(MemRequest req) override;
    void submitWriteback(Addr p_line) override;

    /** Advance one cycle: drain WQ, RQ, PQ, retry unsent MSHRs. */
    void tick();

    /**
     * Earliest future cycle at which tick() would do any work, given no
     * new input arrives (kNever if idle). Used by the Machine's
     * quiescence cycle-skip and, cached as dueCycle(), by its per-cache
     * tick gating; see ARCHITECTURE.md, "Performance". The bound must
     * never be late: pending writes and unsent MSHR retries are due next
     * cycle, queued reads/prefetches mature when the head finishes its
     * lookup latency. A mature read head parked on a full MSHR file
     * still counts as due next cycle, so a machine waiting on its
     * misses is never reported idle.
     */
    Cycle nextEventCycle() const;

    /**
     * Cached next due cycle: never later than nextEventCycle(), so the
     * owner may skip tick() on any cycle before it. tick() recomputes
     * it; submits and prefetch issues pull it to the next cycle, MSHR
     * releases and fills to the current one. Derived state, never
     * checkpointed: a fresh or restored cache is due at once.
     */
    Cycle dueCycle() const { return due; }

    /**
     * Whether the read-queue head is parked: it found the MSHR file
     * full, and only an MSHR release or a fill can change that, so
     * tick() skips the queue until one happens. Derived state, never
     * checkpointed: a restored cache re-derives it by retrying once.
     */
    bool readHeadParked() const { return headParked; }

    // ReadClient: response from the level below.
    void readDone(const MemRequest &req) override;

    // PrefetchPort.
    bool issuePrefetch(Addr line_addr, FillLevel level) override;
    double mshrOccupancy() const override;
    Cycle now() const override { return *clock; }

    /**
     * Zero-latency demand tag probe used by the instruction-fetch fast
     * path: on a hit it updates hit statistics and replacement state and
     * returns true; on a miss it changes nothing (the caller then
     * submits a regular read).
     */
    bool fastHit(Addr p_line);

    /** Non-mutating tag probe (tests and benches). */
    bool probe(Addr p_line) const;

    /** Dirty-bit probe for tests. */
    bool probeDirty(Addr p_line) const;

    const CacheConfig &config() const { return cfg; }
    std::size_t rqOccupancy() const { return rq.size(); }
    std::size_t pqOccupancy() const { return pq.size(); }
    std::size_t wqOccupancy() const { return wq.size(); }
    std::size_t mshrsInUse() const { return mshrUsed; }

    /** One in-flight miss, as exposed to diagnostics and tests. */
    struct MshrView
    {
        Addr pLine = kNoAddr;
        bool isPrefetch = false;
        bool hadDemand = false;
        bool sentBelow = false;
        Cycle age = 0;          //!< cycles outstanding
    };

    /** Snapshot of every valid MSHR entry (diagnostic dumps). */
    std::vector<MshrView> mshrSnapshot() const;

    /**
     * Checkpoint walk: full level state — lines, MSHRs, the free-list
     * order, queues, statistics, replacement state, the fill-latency
     * histogram and the attached prefetcher (through its saveState /
     * loadState bridge, which refuses typed when it cannot checkpoint).
     * Request client pointers travel through the StateIO's PtrMap.
     */
    void visitState(sim::StateIO &io);

    CacheStats stats;

  private:
    /** A line's payload. Its physical tag lives in lineTags() (kNoAddr
     *  = invalid way), so a lookup touches 8 bytes per way. */
    struct Line
    {
        Addr vLine = kNoAddr;
        bool dirty = false;
        bool prefetched = false;  //!< brought in by a prefetch
        bool pfUsed = false;      //!< prefetched line already demanded
        Cycle pfLatency = 0;      //!< 12-bit stored latency (0 = none)
    };

    struct MshrEntry
    {
        bool valid = false;
        Addr pLine = kNoAddr;
        Addr vLine = kNoAddr;
        Addr ip = 0;              //!< first demand requester's IP
        bool isPrefetch = false;  //!< allocated by a prefetch request
        bool hadDemand = false;   //!< a demand access waits on this line
        bool wantsDirty = false;  //!< an RFO waits on this line
        FillLevel fillLevel = FillLevel::L1;
        Cycle ts = 0;             //!< PQ-insert or allocation timestamp
        bool sentBelow = false;
        MemRequest fwd;           //!< request to (re)send below
        std::vector<MemRequest> waiters;  //!< capacity retained on reuse
    };

    /**
     * How the per-access prefetcher hooks are dispatched. Resolved once
     * in setPrefetcher so the L1D demand path pays a switch on a local
     * enum instead of two virtual calls per access: the dominant
     * configuration (Berti at L1D, nothing elsewhere) becomes a direct
     * devirtualized call / no call at all.
     */
    enum class PfDispatch : std::uint8_t
    {
        None,    //!< NoPrefetcher: skip the hooks entirely
        Berti,   //!< BertiPrefetcher (final): direct static dispatch
        Virtual  //!< anything else: classic virtual dispatch
    };

    unsigned setIndex(Addr p_line) const { return p_line % cfg.sets; }

    /** MSHR tag mirror: entry i is mshr[i].pLine while that entry is
     *  valid, kNoAddr while it is free. */
    Addr *mshrTags() const { return tags.get(); }
    /** Line tags: entry i is lines[i]'s physical line, kNoAddr for an
     *  invalid way. */
    Addr *lineTags() const { return tags.get() + cfg.mshrs; }

    /** Lookups scan only the tag arrays; kNoAddr never matches. */
    Line *findLine(Addr p_line);
    const Line *findLine(Addr p_line) const;
    MshrEntry *findMshr(Addr p_line);

    /** Take a free MSHR entry for p_line (null if the file is full). */
    MshrEntry *allocMshr(Addr p_line);

    /** Return an MSHR entry to the free list (waiters must be empty or
     *  already swapped out; capacity is retained for reuse). */
    void releaseMshr(MshrEntry *e);

    /** Wake the entry's waiters after releasing it, allocation-free. */
    void releaseAndWake(MshrEntry *e);

    unsigned wayOf(const Line &l) const
    {
        return static_cast<unsigned>((&l - lines.data()) % cfg.ways);
    }

    /** Run the prefetcher's access hook on a Load, an Rfo, or an
     *  InstrFetch when trainOnInstrFetch is set; other types do not
     *  train. Prefetches it issues synchronously are classified against
     *  info's line (see issuePrefetch). */
    void train(const Prefetcher::AccessInfo &info);
    void notifyFill(const Prefetcher::FillInfo &info);

    void processWrites();
    void retryUnsentMshrs();

    /** Handle up to max_per_cycle mature heads of queue (rq or pq). */
    void drain(RingQueue<MemRequest> &queue, unsigned max_per_cycle,
               bool own_prefetches);

    /**
     * Handle one queued request; returns false if it must stay queued.
     * own_prefetch marks an entry of this cache's own PQ: finding its
     * line present costs one tag read and nothing else, and a refusal
     * never parks the read queue.
     */
    bool handle(MemRequest &req, bool own_prefetch);

    /** Forward req without an MSHR, to fill at level; returns false if
     *  the level below refuses it. */
    bool sendBelow(const MemRequest &req, FillLevel level);

    /** Demand-hit bookkeeping: counters, Rfo dirtying, first use of a
     *  prefetched line and training. */
    void demandHit(Line &l, const MemRequest &req);

    /** Install a line; returns the installed way's Line. */
    Line &fillLine(Addr p_line, Addr v_line, bool dirty, bool prefetched);

    bool isDemand(AccessType t) const
    {
        return t == AccessType::Load || t == AccessType::Rfo ||
               t == AccessType::InstrFetch || t == AccessType::Translation;
    }

    friend class verify::SimAuditor;

    CacheConfig cfg;
    const Cycle *clock;
    MemLevel *lower = nullptr;
    TranslationUnit *translation = nullptr;
    verify::FaultInjector *faults = nullptr;
    std::unique_ptr<obs::Histogram> fillLatencyHist;
    std::unique_ptr<Prefetcher> pf;
    std::unique_ptr<ReplPolicy> repl;

    // Triggering line of the prefetcher hook currently running, used
    // to classify synchronously issued prefetches as cross-page.
    Addr trainVLine = kNoAddr;

    // Victim info of the most recent fillLine, consumed by readDone to
    // populate the prefetcher's FillInfo.
    Addr lastEvictedPLine = kNoAddr;
    bool lastEvictedUnusedPf = false;
    // Packed into the padding after the bool above, which keeps
    // sizeof(Cache) unchanged: a layout that grew it slowed perfbench
    // busy set-up (Machine construction) by about 20%.
    bool headParked = false;         //!< see readHeadParked()
    PfDispatch pfDispatch = PfDispatch::None;

    std::vector<Line> lines;         //!< sets * ways
    // One allocation for both tag arrays, mshrs MSHR tags then
    // sets * ways line tags, with kNoAddr marking an empty slot. A
    // unique_ptr rather than two vectors keeps sizeof(Cache) at 608:
    // a layout that grew it slowed Machine construction.
    std::unique_ptr<Addr[]> tags;
    std::vector<MshrEntry> mshr;
    std::vector<unsigned> mshrFree;  //!< free-list of mshr[] indices
    unsigned mshrUsed = 0;
    unsigned unsentMshrs = 0;        //!< valid entries with !sentBelow
    Cycle due = 0;                   //!< see dueCycle()
    RingQueue<MemRequest> rq;
    RingQueue<MemRequest> pq;
    RingQueue<Addr> wq;
    std::vector<MemRequest> wakeScratch;  //!< readDone waiter staging
};

} // namespace berti

#endif // BERTI_MEM_CACHE_HH
