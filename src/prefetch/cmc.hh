/**
 * @file
 * CMC-style temporal correlation prefetcher (after the ChampSim "cmc"
 * module; see also Triangel, PAPERS.md). Irregular workloads repeat
 * *miss sequences* rather than address arithmetic: the line that missed
 * after X last time tends to miss after X again. CMC records, for each
 * miss, its successor misses in a bounded set-associative correlation
 * table and replays the recorded chain when the trigger recurs.
 *
 * Unlike classic Markov prefetchers that key on full addresses with
 * unbounded metadata, every structure here is fixed-size, LRU-managed
 * and checkpointable, so the spec is a first-class citizen of the
 * registry (golden cells, checkpoint/resume, differential suites).
 */

#ifndef BERTI_PREFETCH_CMC_HH
#define BERTI_PREFETCH_CMC_HH

#include <vector>

#include "prefetch/prefetcher.hh"

namespace berti
{

class CmcPrefetcher : public Prefetcher
{
  public:
    struct Config
    {
        unsigned sets = 256;       //!< correlation-table sets
        unsigned ways = 4;         //!< associativity (LRU)
        unsigned successors = 2;   //!< recorded successors per trigger
        unsigned chainDepth = 3;   //!< chain-following issue depth
        unsigned confThreshold = 1; //!< hits before a successor replays
        unsigned confMax = 3;
    };

    CmcPrefetcher() : CmcPrefetcher(Config{}) {}
    explicit CmcPrefetcher(const Config &cfg);

    void onAccess(const AccessInfo &info) override;
    std::uint64_t storageBits() const override;
    std::string name() const override { return "cmc"; }
    std::string debugState() const override;

    bool checkpointSupported() const override { return true; }
    void visitState(sim::StateIO &io) override;

  private:
    struct Successor
    {
        Addr line = kNoAddr;
        unsigned conf = 0;
    };

    struct Entry
    {
        bool valid = false;
        Addr trigger = kNoAddr;
        std::vector<Successor> next;
        std::uint64_t lruStamp = 0;
    };

    Entry *find(Addr trigger);
    Entry &insert(Addr trigger);
    void train(Addr prev, Addr cur);

    Config cfg;
    std::vector<Entry> table;  //!< sets * ways, set-major
    Addr lastMiss = kNoAddr;
    std::uint64_t stamp = 0;   //!< LRU clock
};

} // namespace berti

#endif // BERTI_PREFETCH_CMC_HH
