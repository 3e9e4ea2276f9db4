/**
 * @file
 * Pangloss-style Markov-chain delta prefetcher (Papaphilippou et al.,
 * PAPERS.md). Instead of correlating full addresses (huge state) it
 * approximates a Markov chain over *page-local deltas*: a transition
 * table counts how often delta d' followed delta d anywhere in the
 * address stream, and a small page table remembers each hot page's last
 * offset and last delta. Prediction walks the chain — from the current
 * delta take the most frequent successor, issue, and continue from the
 * predicted delta — staying inside the page like the paper's data
 * prefetcher.
 *
 * Transition counts use saturating frequency counters with halving
 * decay (Pangloss's ageing) so the chain adapts to phase changes;
 * every structure is fixed-size and checkpointable.
 */

#ifndef BERTI_PREFETCH_MARKOV_HH
#define BERTI_PREFETCH_MARKOV_HH

#include <vector>

#include "prefetch/prefetcher.hh"

namespace berti
{

class MarkovPrefetcher : public Prefetcher
{
  public:
    struct Config
    {
        unsigned pageEntries = 256;  //!< tracked pages (direct-mapped)
        unsigned successors = 4;     //!< candidate next-deltas per row
        unsigned chainDepth = 4;     //!< prediction-walk issue depth
        unsigned countMax = 15;      //!< saturate, then halve the row
        /** Minimum share of the row total a successor needs before it
         *  is trusted, in 1/16ths (Pangloss prunes rare transitions). */
        unsigned minShare16 = 4;
    };

    MarkovPrefetcher() : MarkovPrefetcher(Config{}) {}
    explicit MarkovPrefetcher(const Config &cfg);

    void onAccess(const AccessInfo &info) override;
    std::uint64_t storageBits() const override;
    std::string name() const override { return "markov"; }
    std::string debugState() const override;

    bool checkpointSupported() const override { return true; }
    void visitState(sim::StateIO &io) override;

  private:
    /** Deltas live in (-kLinesPerPage, kLinesPerPage) \ {0}; rows are
     *  indexed by delta + kLinesPerPage - 1 (zero row unused). */
    static constexpr unsigned kDeltaRows = 2 * kLinesPerPage - 1;

    struct PageEntry
    {
        bool valid = false;
        Addr page = 0;
        unsigned lastOffset = 0;
        int lastDelta = 0;  //!< 0 = no delta observed yet
    };

    struct Transition
    {
        int delta = 0;      //!< 0 = empty slot
        unsigned count = 0;
    };

    void train(int prev_delta, int next_delta);
    int predict(int delta) const;

    Config cfg;
    std::vector<PageEntry> pages;
    std::vector<Transition> rows;  //!< kDeltaRows * successors, row-major
};

} // namespace berti

#endif // BERTI_PREFETCH_MARKOV_HH
