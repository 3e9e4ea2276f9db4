/**
 * @file
 * Untimed functional reference model of one set-associative cache level:
 * set-indexed maps, exact LRU recency, dirty bits and demand hit/miss
 * counting — no cycles, queues, MSHRs or bandwidth. It is the executable
 * specification the cycle-accurate Cache is differentially tested
 * against (tests/test_differential.cpp): when the cycle model is driven
 * with fully serialized demand traffic, every functional decision it
 * makes (classification, victim choice, dirty propagation, writeback
 * write-allocation) must be reproducible here from first principles.
 *
 * Deliberately implemented with different data structures than
 * mem/cache.cc (per-set address maps + recency stamps instead of a flat
 * way array + ReplPolicy) so a shared bug is unlikely to hide in shared
 * code.
 */

#ifndef BERTI_ORACLE_REF_CACHE_HH
#define BERTI_ORACLE_REF_CACHE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace berti::oracle
{

/** Geometry of one reference level. Replacement is always exact LRU. */
struct RefCacheConfig
{
    std::string name = "ref";
    unsigned sets = 64;
    unsigned ways = 8;
};

/** Outcome of one demand access at one level. */
enum class RefOutcome : std::uint8_t
{
    Hit,
    Miss
};

/** One resident line, as the reference model tracks it. */
struct RefLine
{
    bool dirty = false;
    std::uint64_t lastTouch = 0;  //!< exact-LRU recency stamp
};

/**
 * Test-only fault injection into the reference model itself, used to
 * demonstrate that the differential harness detects (and the shrinker
 * minimizes) a planted divergence. Production comparisons leave this
 * defaulted.
 */
struct RefPerturbation
{
    /** Skip the LRU recency update on every Nth hit (0 = never). */
    unsigned skipLruTouchEveryN = 0;
};

class RefCache
{
  public:
    explicit RefCache(const RefCacheConfig &cfg);

    /**
     * Demand lookup without side effects beyond LRU/dirty bookkeeping:
     * returns Hit and touches the line if present, else Miss (the
     * caller models the fetch and then calls fill()).
     */
    RefOutcome access(Addr p_line, bool is_rfo);

    /**
     * Install a line (demand fill or writeback write-allocate). If the
     * set is full the exact-LRU victim is evicted first; when that
     * victim is dirty its address is reported through evicted_dirty.
     * @return true when a victim was evicted, with *evicted set.
     */
    bool fill(Addr p_line, bool dirty, Addr *evicted,
              bool *evicted_dirty);

    /**
     * Writeback arriving from the level above: dirty-upgrade + LRU
     * touch when present (mirroring the cycle model's processWrites
     * hit path), full-line write-allocate install when absent.
     * @return true when the install evicted a victim.
     */
    bool writeback(Addr p_line, Addr *evicted, bool *evicted_dirty);

    bool contains(Addr p_line) const;
    bool isDirty(Addr p_line) const;

    /** Every resident line with its dirty bit, sorted by address. */
    std::vector<std::pair<Addr, bool>> contents() const;

    const RefCacheConfig &config() const { return cfg; }

    void setPerturbation(const RefPerturbation &p) { perturb = p; }

    // Functional counters compared against CacheStats.
    std::uint64_t demandAccesses = 0;
    std::uint64_t demandHits = 0;
    std::uint64_t demandMisses = 0;
    std::uint64_t fills = 0;        //!< all installs, incl. wb-allocate
    std::uint64_t writebacksOut = 0; //!< dirty victims pushed below

  private:
    using Set = std::map<Addr, RefLine>;

    unsigned setIndex(Addr p_line) const { return p_line % cfg.sets; }
    void touch(RefLine &line) { line.lastTouch = ++recencyTick; }

    RefCacheConfig cfg;
    RefPerturbation perturb;
    std::uint64_t recencyTick = 0;
    std::uint64_t hitTick = 0;      //!< perturbation counter
    std::vector<Set> sets;
};

} // namespace berti::oracle

#endif // BERTI_ORACLE_REF_CACHE_HH
