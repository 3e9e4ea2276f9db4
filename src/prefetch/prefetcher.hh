/**
 * @file
 * Prefetcher framework: the hook interface a cache level invokes on
 * demand accesses / fills, and the issue port through which a prefetcher
 * injects requests. L1D prefetchers operate on virtual addresses (paper
 * section III); L2 prefetchers operate on physical addresses and are
 * page-bounded.
 */

#ifndef BERTI_PREFETCH_PREFETCHER_HH
#define BERTI_PREFETCH_PREFETCHER_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace berti
{

namespace sim
{
class ByteWriter;
class ByteReader;
class StateIO;
} // namespace sim

namespace obs
{
class MetricsRegistry;
} // namespace obs

/**
 * Services a prefetcher offers from its host cache: issuing requests and
 * observing time / MSHR pressure. Implemented by Cache.
 */
class PrefetchPort
{
  public:
    virtual ~PrefetchPort() = default;

    /**
     * Issue a prefetch for the given *line* address with a fill target.
     * At L1D the address is virtual and is translated through the STLB
     * (dropped on STLB miss, as in the paper). At L2/LLC it is physical.
     *
     * @return true if the request entered the prefetch queue.
     */
    virtual bool issuePrefetch(Addr line_addr, FillLevel level) = 0;

    /** Fraction of MSHR entries currently in use, in [0, 1]. */
    virtual double mshrOccupancy() const = 0;

    /** Current core-clock cycle. */
    virtual Cycle now() const = 0;
};

/**
 * Base class of every prefetcher. Hooks receive line addresses. A
 * prefetcher attached to L1D gets virtual line addresses in vLine; one
 * attached to L2 gets kNoAddr there and must use pLine.
 */
class Prefetcher
{
  public:
    /** Demand access outcome, reported at tag-lookup time. */
    struct AccessInfo
    {
        Addr vLine = kNoAddr;
        Addr pLine = kNoAddr;
        Addr ip = 0;
        AccessType type = AccessType::Load;
        bool hit = false;
        /** First demand hit on a line brought in by a prefetch. */
        bool firstHitOnPrefetch = false;
        /** Stored fetch latency of that prefetched line (0 = unknown). */
        Cycle prefetchLatency = 0;
    };

    /** Line-install event. */
    struct FillInfo
    {
        Addr vLine = kNoAddr;
        Addr pLine = kNoAddr;
        Addr ip = 0;            //!< first demand requester's IP (if any)
        bool byPrefetch = false;
        bool hadDemandWaiter = false;
        Cycle latency = 0;      //!< fill - MSHR/PQ timestamp
        Addr evictedPLine = kNoAddr;
        /** The victim was a prefetched line that was never demanded. */
        bool evictedUnusedPrefetch = false;
    };

    virtual ~Prefetcher() = default;

    /** Called once when attached to a cache. */
    void bind(PrefetchPort *p) { port = p; }

    virtual void onAccess(const AccessInfo &info) = 0;
    virtual void onFill(const FillInfo &) {}

    /**
     * Advance one cycle; most prefetchers are purely reactive.
     *
     * Contract: tick() must not rely on being called every cycle. The
     * host cache only drives it for prefetchers it cannot identify
     * statically (Cache::PfDispatch::Virtual), and the machine's
     * quiescence cycle-skip elides provably idle cycles entirely. A
     * design that needs per-cycle work must derive its timing from the
     * port clock (now()) inside its hooks, not from tick() counts.
     */
    virtual void tick() {}

    /** Hardware budget in bits, for the Table I / Figure 7 axes. */
    virtual std::uint64_t storageBits() const = 0;

    virtual std::string name() const = 0;

    /**
     * Register this prefetcher's metrics under the given prefix (e.g.
     * "c0.l1d.pf."). The base implementation registers the storage
     * budget as a gauge; implementations with interesting internal
     * state may add their own counters/histograms on top. Called once
     * by the host cache during Machine construction; the registry must
     * outlive the prefetcher (both belong to the same Machine).
     */
    virtual void registerMetrics(obs::MetricsRegistry &registry,
                                 const std::string &prefix);

    /**
     * One-line internal-state summary for watchdog/auditor diagnostic
     * dumps (table occupancies, counters). Empty by default.
     */
    virtual std::string debugState() const { return {}; }

    /**
     * Whether this prefetcher implements visitState below. Defaults to
     * false: Machine::saveCheckpoint refuses (typed,
     * ErrorKind::Checkpoint) rather than silently dropping learned
     * state. Stateless designs return true with an empty walk.
     */
    virtual bool checkpointSupported() const { return false; }

    /**
     * Checkpoint bridge: what a host cache, a hybrid parent or a
     * decorator calls. Both run visitState over the stream, so a
     * decorator overrides these to forward to the prefetcher it wraps.
     */
    virtual void saveState(sim::ByteWriter &w) const;
    virtual void loadState(sim::ByteReader &r);

    /**
     * The one checkpoint walk over internal state (save and load; see
     * sim::StateIO). Only reached when checkpointSupported(); the base
     * implementation throws the typed refusal.
     */
    virtual void visitState(sim::StateIO &io);

  protected:
    PrefetchPort *port = nullptr;
};

/**
 * Null prefetcher: never issues anything. Used by the no-prefetching
 * baselines and as the default for caches without a prefetcher.
 */
class NoPrefetcher : public Prefetcher
{
  public:
    void onAccess(const AccessInfo &) override {}
    std::uint64_t storageBits() const override { return 0; }
    std::string name() const override { return "none"; }

    // Stateless: checkpointable with an empty walk.
    bool checkpointSupported() const override { return true; }
    void visitState(sim::StateIO &) override {}
};

} // namespace berti

#endif // BERTI_PREFETCH_PREFETCHER_HH
