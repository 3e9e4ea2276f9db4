/**
 * @file
 * TLB hierarchy: L1 dTLB + unified STLB with a fixed-cost page walker,
 * mirroring Table II of the paper. Demand translations update state;
 * prefetch translations only probe the STLB and are dropped on a miss
 * (paper section III-B).
 */

#ifndef BERTI_VM_TLB_HH
#define BERTI_VM_TLB_HH

#include <cstdint>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"
#include "vm/page_table.hh"

namespace berti
{

namespace sim
{
class StateIO;
} // namespace sim

namespace obs
{
class MetricsRegistry;
} // namespace obs

namespace verify
{
class SimAuditor;
} // namespace verify

/** One set-associative TLB level with true-LRU replacement. */
class Tlb
{
  public:
    Tlb(unsigned sets, unsigned ways, Cycle latency);

    /** Demand lookup: updates LRU. */
    bool lookup(Addr vpage);

    /** Non-mutating probe (prefetch path). */
    bool probe(Addr vpage) const;

    void fill(Addr vpage);

    Cycle latency() const { return lat; }

    /** Register this level's counters into the registry. */
    void registerMetrics(obs::MetricsRegistry &registry,
                         const std::string &prefix);

    /** Checkpoint walk: LRU tick, entry array and counters. */
    void visitState(sim::StateIO &io);

    TlbStats stats;

  private:
    friend class verify::SimAuditor;

    struct Entry
    {
        Addr vpage = kNoAddr;
        std::uint64_t stamp = 0;
    };

    unsigned index(Addr vpage) const { return vpage & (sets - 1); }

    unsigned sets;
    unsigned ways;
    Cycle lat;
    std::uint64_t tick = 0;
    std::vector<Entry> entries;
};

/**
 * Full translation path of one core: dTLB -> STLB -> page walk. The page
 * walk has a fixed cost approximating the paper's PSCL-accelerated MMU.
 */
class TranslationUnit
{
  public:
    struct Config
    {
        unsigned dtlbSets = 16, dtlbWays = 4;   //!< 64 entries
        Cycle dtlbLatency = 1;
        unsigned stlbSets = 128, stlbWays = 16; //!< 2048 entries
        Cycle stlbLatency = 8;
        Cycle walkLatency = 80;
        std::uint64_t pageSeed = 0xA5A5;
    };

    explicit TranslationUnit(const Config &cfg);

    /** Demand translation: returns total latency and physical address. */
    struct Result
    {
        Cycle latency;
        Addr paddr;
    };
    Result translate(Addr vaddr);

    /**
     * Prefetch translation: STLB probe only. Returns true and sets paddr
     * on an STLB hit; a miss means the prefetch must be dropped.
     */
    bool prefetchTranslate(Addr vaddr, Addr &paddr);

    const Tlb &dtlb() const { return l1; }
    const Tlb &stlb() const { return l2; }
    const PageTable &pageTable() const { return pt; }

    TlbStats dtlbStats() const { return l1.stats; }
    TlbStats stlbStats() const { return l2.stats; }

    /**
     * Register both TLB levels' counters (under the two prefixes, e.g.
     * "c0.dtlb." / "c0.stlb."). Called once at Machine construction.
     */
    void registerMetrics(obs::MetricsRegistry &registry,
                         const std::string &dtlb_prefix,
                         const std::string &stlb_prefix);

    /** Checkpoint walk: both TLB levels. The page table is stateless
     *  (keyed permutation derived from the construction seed). */
    void visitState(sim::StateIO &io);

  private:
    Tlb l1;
    Tlb l2;
    Cycle walkLatency;
    PageTable pt;
};

} // namespace berti

#endif // BERTI_VM_TLB_HH
