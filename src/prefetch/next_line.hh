/**
 * @file
 * Next-line prefetcher: on every demand access, prefetch the following
 * cache line. The simplest useful baseline; also IPCP's fallback class.
 */

#ifndef BERTI_PREFETCH_NEXT_LINE_HH
#define BERTI_PREFETCH_NEXT_LINE_HH

#include "prefetch/prefetcher.hh"

namespace berti
{

class NextLinePrefetcher : public Prefetcher
{
  public:
    explicit NextLinePrefetcher(unsigned degree = 1) : degree(degree) {}

    void
    onAccess(const AccessInfo &info) override
    {
        Addr line = info.vLine != kNoAddr ? info.vLine : info.pLine;
        if (line == kNoAddr)
            return;
        for (unsigned k = 1; k <= degree; ++k)
            port->issuePrefetch(line + k, FillLevel::L1);
    }

    std::uint64_t storageBits() const override { return 0; }
    std::string name() const override { return "next-line"; }

    // Stateless (degree is configuration): checkpointable as a no-op.
    bool checkpointSupported() const override { return true; }
    void visitState(sim::StateIO &) override {}

  private:
    unsigned degree;
};

} // namespace berti

#endif // BERTI_PREFETCH_NEXT_LINE_HH
