/**
 * @file
 * Conventional IP-stride prefetcher: the baseline L1D prefetcher of the
 * paper's evaluation (24-entry fully-associative, Table II), modelled on
 * Intel's smart-memory-access stride prefetcher. An IP gains confidence
 * when consecutive accesses repeat the same line stride; confident IPs
 * prefetch a few strides ahead within the page.
 */

#ifndef BERTI_PREFETCH_IP_STRIDE_HH
#define BERTI_PREFETCH_IP_STRIDE_HH

#include <vector>

#include "prefetch/prefetcher.hh"

namespace berti
{

class IpStridePrefetcher : public Prefetcher
{
  public:
    struct Config
    {
        unsigned entries = 24;
        unsigned confThreshold = 2;  //!< strides to repeat before issuing
        unsigned confMax = 3;
        unsigned degree = 3;
        bool crossPage = false;      //!< conventional: stop at the page
    };

    IpStridePrefetcher() : IpStridePrefetcher(Config{}) {}
    explicit IpStridePrefetcher(const Config &cfg);

    void onAccess(const AccessInfo &info) override;
    std::uint64_t storageBits() const override;
    std::string name() const override { return "ip-stride"; }

    bool checkpointSupported() const override { return true; }
    void visitState(sim::StateIO &io) override;

  private:
    struct Entry
    {
        bool valid = false;
        Addr ip = 0;
        Addr lastLine = 0;
        int stride = 0;
        unsigned conf = 0;
        std::uint64_t lruStamp = 0;
    };

    Config cfg;
    std::vector<Entry> table;
    std::uint64_t tick = 0;
};

} // namespace berti

#endif // BERTI_PREFETCH_IP_STRIDE_HH
