/**
 * @file
 * Classic stream prefetcher (Iacobovici et al. / commercial "stream"
 * engines cited in the paper's related work). Monitors miss regions:
 * two or three same-direction misses in a region train a stream, which
 * then runs a configurable depth ahead of the demand pointer.
 */

#ifndef BERTI_PREFETCH_STREAM_HH
#define BERTI_PREFETCH_STREAM_HH

#include <vector>

#include "prefetch/prefetcher.hh"

namespace berti
{

class StreamPrefetcher : public Prefetcher
{
  public:
    struct Config
    {
        unsigned streams = 16;     //!< concurrently tracked streams
        unsigned trainHits = 2;    //!< same-direction misses to arm
        unsigned depth = 6;        //!< lines kept ahead of the demand
        unsigned window = 16;      //!< lines within which a miss matches
    };

    StreamPrefetcher() : StreamPrefetcher(Config{}) {}
    explicit StreamPrefetcher(const Config &cfg);

    void onAccess(const AccessInfo &info) override;

    std::uint64_t storageBits() const override;
    std::string name() const override { return "stream"; }

    bool checkpointSupported() const override { return true; }
    void visitState(sim::StateIO &io) override;

  private:
    struct Stream
    {
        bool valid = false;
        bool armed = false;
        bool up = true;
        Addr last = 0;
        unsigned confidence = 0;
        std::uint64_t lruStamp = 0;
    };

    Config cfg;
    std::vector<Stream> table;
    std::uint64_t tick = 0;
};

} // namespace berti

#endif // BERTI_PREFETCH_STREAM_HH
