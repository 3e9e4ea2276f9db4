/**
 * @file
 * Berti: the accurate local-delta L1D data prefetcher of the paper
 * (MICRO 2022). Berti learns, per instruction pointer, the *timely*
 * local deltas — differences between cache-line addresses of demand
 * accesses by the same IP that are far enough apart in time to hide the
 * measured fetch latency — estimates the coverage of each delta over
 * 16-search phases, and only prefetches with high-coverage deltas:
 * above the 65% watermark into L1D (when MSHR occupancy is below 70%),
 * between 35% and 65% into L2.
 *
 * The hardware structures mirror section III-C / Table I:
 *   - History table: 8-set x 16-way, FIFO; entries of {7-bit IP tag,
 *     24-bit line address, 16-bit timestamp}.
 *   - Table of deltas: 16-entry fully-associative, FIFO; entries of
 *     {10-bit IP tag, 4-bit phase counter, 16 x (13-bit delta, 4-bit
 *     coverage, 2-bit status)}.
 *   - Fetch-latency measurement piggybacks on MSHR/PQ timestamps and a
 *     12-bit per-L1D-line latency field (provided by the host cache).
 *
 * Every parameter is exposed in BertiConfig so the paper's sensitivity
 * studies (Figures 21/22, latency-counter width, cross-page ablation)
 * are plain parameter sweeps.
 */

#ifndef BERTI_CORE_BERTI_HH
#define BERTI_CORE_BERTI_HH

#include <cstdint>
#include <string>
#include <vector>

#include "prefetch/prefetcher.hh"
#include "sim/types.hh"

namespace berti
{

struct BertiConfig
{
    // History table geometry (8 x 16 = 128 entries in the paper).
    unsigned historySets = 8;
    unsigned historyWays = 16;

    // Table of deltas geometry.
    unsigned deltaTableEntries = 16;
    unsigned deltasPerEntry = 16;

    /** Youngest timely deltas collected per history search. */
    unsigned maxTimelyPerSearch = 8;

    /** Searches per coverage phase (the 4-bit counter "overflow"). */
    unsigned phaseLength = 16;

    // Coverage watermarks (fractions of phaseLength).
    double l1Watermark = 0.65;
    double l2Watermark = 0.35;
    double replWatermark = 0.50;    //!< below this, L2 deltas evictable

    // Warm-up issuing before the first phase completes: requires at
    // least this many gathered deltas and the stricter 80% watermark.
    unsigned warmupMinDeltas = 8;
    double warmupWatermark = 0.80;

    /** Max deltas allowed prefetch status per IP entry. */
    unsigned maxSelectedDeltas = 12;

    /** L1D MSHR occupancy above which L1-class deltas fill only to L2. */
    double mshrWatermark = 0.70;

    /** 13-bit signed delta range. */
    int maxDeltaMagnitude = (1 << 12) - 1;

    /** Latency counter width; overflow stores zero and skips training. */
    unsigned latencyBits = 12;

    /** Issue prefetches that cross a 4 KB page (section IV-J ablation). */
    bool crossPage = true;

    // ------------------------------------------------------------------
    // Mechanism ablations (not part of the hardware proposal; they
    // disable the two pillars the paper credits for Berti's accuracy).

    /**
     * When false, the history search ignores the measured fetch latency
     * and treats *every* older same-IP access as a delta source — i.e.
     * local deltas without timeliness (ablates section III-A).
     */
    bool requireTimely = true;

    /**
     * When true, every gathered delta is issued as if it had L1 status,
     * ignoring the coverage watermarks — MLOP-style unselective issuing
     * (ablates the high-confidence mechanism of section III-C).
     */
    bool issueAllDeltas = false;

    /**
     * Track local deltas per *page* instead of per IP: the DPC-3
     * precursor design the paper cites ("Berti: a per-page
     * best-request-time delta prefetcher"). The MICRO 2022 paper's
     * per-IP context is the default.
     */
    bool perPage = false;
};

/** Final so the L1D's resolved dispatch (Cache::PfDispatch::Berti)
 *  devirtualizes the per-access hook calls. */
class BertiPrefetcher final : public Prefetcher
{
  public:
    /** Per-delta prefetch decision, from most to least aggressive. */
    enum class DeltaStatus : std::uint8_t
    {
        NoPref,
        L2PrefRepl,  //!< L2-class with < 50% coverage: eviction candidate
        L2Pref,
        L1Pref
    };

    /** Introspection record used by tests and the Figure 3/4 benches. */
    struct DeltaInfo
    {
        int delta = 0;
        unsigned coverage = 0;      //!< hits within the current phase
        DeltaStatus status = DeltaStatus::NoPref;
    };

    explicit BertiPrefetcher(const BertiConfig &cfg = {});

    void onAccess(const AccessInfo &info) override;
    void onFill(const FillInfo &info) override;

    std::uint64_t storageBits() const override;
    std::string name() const override { return "berti"; }
    std::string debugState() const override;

    bool checkpointSupported() const override { return true; }
    void visitState(sim::StateIO &io) override;

    /** Learned deltas of an IP (empty when the IP is untracked). */
    std::vector<DeltaInfo> deltasFor(Addr ip) const;

    const BertiConfig &config() const { return cfg; }

    // Observability counters for tests/benches.
    std::uint64_t historySearches = 0;
    std::uint64_t timelyDeltasFound = 0;
    std::uint64_t phaseCompletions = 0;

  private:
    struct HistoryEntry
    {
        bool valid = false;
        std::uint16_t ipTag = 0;
        Addr line = 0;         //!< 24-bit virtual line address
        Cycle ts = 0;          //!< 16-bit timestamp (masked on compare)
        std::uint64_t order = 0;  //!< FIFO insertion order
    };

    struct DeltaSlot
    {
        bool valid = false;
        int delta = 0;
        std::uint8_t coverage = 0;       //!< current-phase hit counter
        DeltaStatus status = DeltaStatus::NoPref;
    };

    struct DeltaEntry
    {
        bool valid = false;
        std::uint16_t ipTag = 0;
        std::uint8_t counter = 0;        //!< searches this phase
        bool warm = false;               //!< completed at least one phase
        std::uint16_t gathered = 0;      //!< timely-delta occurrences
                                         //!< since allocation (warm-up)
        std::uint64_t order = 0;         //!< FIFO insertion order
        std::vector<DeltaSlot> slots;
    };

    /** Context key: the IP, or the page when cfg.perPage is set. */
    Addr contextOf(Addr ip, Addr v_line) const;

    unsigned historyIndex(Addr ip) const;
    std::uint16_t historyTag(Addr ip) const;
    std::uint16_t deltaTag(Addr ip) const;

    /** Record a demand access in the history table (FIFO within set). */
    void insertHistory(Addr ip, Addr v_line);

    /**
     * Search the history for accesses of this IP old enough that a
     * prefetch issued from them would have completed by demand_time,
     * and accumulate the resulting deltas for the IP.
     */
    void searchHistory(Addr ip, Addr v_line, Cycle demand_time,
                       Cycle latency);

    DeltaEntry *findDeltaEntry(Addr ip);
    const DeltaEntry *findDeltaEntry(Addr ip) const;
    DeltaEntry &allocDeltaEntry(Addr ip);

    /** Record one timely delta occurrence within the current phase. */
    void recordDelta(DeltaEntry &entry, int delta);

    /** Phase end: assign statuses from coverages and reset the phase. */
    void closePhase(DeltaEntry &entry);

    /** Issue prefetches for the IP's selected deltas from v_line. */
    void predict(Addr ip, Addr v_line);

    /** Latency-counter semantics: overflow -> 0 (skip training). */
    Cycle clampLatency(Cycle latency) const;

    BertiConfig cfg;
    std::vector<HistoryEntry> history;   //!< sets * ways
    std::vector<DeltaEntry> table;
    std::uint64_t orderTick = 0;

    /** One history-search candidate (searchHistory scratch). */
    struct Cand
    {
        std::uint64_t order;
        Addr line;
    };
    // Per-call scratch for searchHistory/closePhase, preallocated in the
    // constructor so the per-access training path never heap-allocates.
    std::vector<Cand> candScratch;
    std::vector<DeltaSlot *> orderScratch;
};

} // namespace berti

#endif // BERTI_CORE_BERTI_HH
