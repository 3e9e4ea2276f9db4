/**
 * @file
 * Untimed three-level reference hierarchy (L1D, L2, LLC over an infinite
 * backing memory) composed from RefCache levels. It models exactly the
 * functional behaviour the cycle simulator exhibits when demand traffic
 * is fully serialized (one access in flight, all queues drained between
 * accesses, no prefetcher):
 *
 *   - demand lookup walks L1 -> L2 -> LLC -> memory; the first hit level
 *     wins and every traversed level counts the access;
 *   - an RFO dirties the line at the hit level and every level it is
 *     subsequently filled into (the cycle model forwards the miss with
 *     its AccessType intact and fills with wantsDirty);
 *   - fills happen bottom-up (LLC first, L1 last), each preferring free
 *     capacity and otherwise evicting the exact-LRU victim;
 *   - a dirty victim is written back to the next level down through a
 *     FIFO queue; queues drain lower-level-first (the machine ticks the
 *     LLC before the L2), a writeback hitting below dirty-upgrades and
 *     touches LRU, a miss write-allocates the full line;
 *   - dirty LLC victims leave the hierarchy into the backing memory,
 *     recorded in arrival order.
 */

#ifndef BERTI_ORACLE_REF_HIERARCHY_HH
#define BERTI_ORACLE_REF_HIERARCHY_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "oracle/ref_cache.hh"
#include "sim/types.hh"

namespace berti::oracle
{

/** Which level serviced a demand access. */
enum class RefHitLevel : std::uint8_t
{
    L1,
    L2,
    Llc,
    Memory
};

struct RefHierarchyConfig
{
    RefCacheConfig l1{"ref-l1d", 16, 4};
    RefCacheConfig l2{"ref-l2", 32, 8};
    RefCacheConfig llc{"ref-llc", 64, 16};
};

class RefHierarchy
{
  public:
    explicit RefHierarchy(const RefHierarchyConfig &cfg);

    /** One serialized demand access (Load or RFO). */
    RefHitLevel demandAccess(Addr p_line, bool is_rfo);

    /** One serialized dirty eviction arriving at the L1D from above. */
    void demandWriteback(Addr p_line);

    RefCache &l1() { return l1Cache; }
    RefCache &l2() { return l2Cache; }
    RefCache &llc() { return llcCache; }
    const RefCache &l1() const { return l1Cache; }
    const RefCache &l2() const { return l2Cache; }
    const RefCache &llc() const { return llcCache; }

    /** Dirty lines that left the LLC, in writeback order. */
    const std::vector<Addr> &memoryWritebacks() const
    {
        return memWritebacks;
    }

    /** Reads that reached the backing memory (LLC demand misses). */
    std::uint64_t memoryReads = 0;

  private:
    /** Fill one level, routing any dirty victim to the right queue. */
    void fillInto(RefCache &level, Addr p_line, bool dirty);

    /** Drain both inter-level queues to empty, LLC-queue first. */
    void drainWritebacks();

    RefCache l1Cache;
    RefCache l2Cache;
    RefCache llcCache;
    std::deque<Addr> toL2;   //!< dirty L1 victims awaiting the L2
    std::deque<Addr> toLlc;  //!< dirty L2 victims awaiting the LLC
    std::vector<Addr> memWritebacks;
};

} // namespace berti::oracle

#endif // BERTI_ORACLE_REF_HIERARCHY_HH
