/**
 * @file
 * Line-interleaved multi-channel memory backend: N independent Dram
 * channels behind one MemBackend surface. Consecutive lines round-robin
 * across channels (pLine % N), so streams exploit channel-level
 * parallelism while a 4 KB row's lines still map to one row per
 * channel (row hits survive the interleave). This is the HBM-class
 * model's composition layer in mem/backend_registry.hh.
 */

#ifndef BERTI_MEM_MULTICHANNEL_HH
#define BERTI_MEM_MULTICHANNEL_HH

#include <memory>
#include <vector>

#include "mem/backend.hh"
#include "mem/dram.hh"

namespace berti::mem
{

class MultiChannelDram : public MemBackend
{
  public:
    /** `channels` identical per-channel configs; throws
     *  verify::SimError(ErrorKind::Config) when channels == 0 (each
     *  channel's config is validated by the Dram constructor). */
    MultiChannelDram(const DramConfig &per_channel, unsigned channels,
                     const Cycle *clock);

    bool submitRead(MemRequest req) override;
    void submitWriteback(Addr p_line) override;

    void tick() override;
    Cycle nextEventCycle() const override;

    DramStats statsSnapshot() const override;
    std::size_t pendingReads() const override;
    std::size_t rqOccupancy() const override;
    std::size_t wqOccupancy() const override;

    void setFaultInjector(verify::FaultInjector *injector) override;

    /** Per-channel counters under "<prefix>ch<N>." plus aggregate
     *  "<prefix>reads"/"writes"/"row_hit_rate"/"avg_read_latency"
     *  gauges, so dashboards keyed on the single-channel names keep
     *  working against multi-channel machines. */
    void registerMetrics(obs::MetricsRegistry &registry,
                         const std::string &prefix) override;

    void visitState(sim::StateIO &io) override;

    std::string auditViolation() const override;
    std::string name() const override;

    unsigned channelCount() const
    {
        return static_cast<unsigned>(channels.size());
    }

  private:
    Dram &channelOf(Addr p_line)
    {
        return *channels[p_line % channels.size()];
    }

    std::vector<std::unique_ptr<Dram>> channels;
};

} // namespace berti::mem

#endif // BERTI_MEM_MULTICHANNEL_HH
