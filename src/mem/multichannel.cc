#include "mem/multichannel.hh"

#include "obs/metrics.hh"
#include "verify/sim_error.hh"

namespace berti::mem
{

MultiChannelDram::MultiChannelDram(const DramConfig &per_channel,
                                   unsigned channel_count,
                                   const Cycle *clock)
{
    if (channel_count == 0) {
        throw verify::SimError(verify::ErrorKind::Config,
                               "MultiChannelDram",
                               "channels must be > 0");
    }
    channels.reserve(channel_count);
    for (unsigned c = 0; c < channel_count; ++c)
        channels.push_back(std::make_unique<Dram>(per_channel, clock));
}

bool
MultiChannelDram::submitRead(MemRequest req)
{
    return channelOf(req.pLine).submitRead(req);
}

void
MultiChannelDram::submitWriteback(Addr p_line)
{
    channelOf(p_line).submitWriteback(p_line);
}

void
MultiChannelDram::tick()
{
    for (auto &ch : channels)
        ch->tick();
}

Cycle
MultiChannelDram::nextEventCycle() const
{
    Cycle next = kNever;
    for (const auto &ch : channels)
        next = std::min(next, ch->nextEventCycle());
    return next;
}

DramStats
MultiChannelDram::statsSnapshot() const
{
    DramStats sum;
    for (const auto &ch : channels)
        sum.add(ch->stats);
    return sum;
}

std::size_t
MultiChannelDram::pendingReads() const
{
    std::size_t n = 0;
    for (const auto &ch : channels)
        n += ch->pendingReads();
    return n;
}

std::size_t
MultiChannelDram::rqOccupancy() const
{
    std::size_t n = 0;
    for (const auto &ch : channels)
        n += ch->rqOccupancy();
    return n;
}

std::size_t
MultiChannelDram::wqOccupancy() const
{
    std::size_t n = 0;
    for (const auto &ch : channels)
        n += ch->wqOccupancy();
    return n;
}

void
MultiChannelDram::setFaultInjector(verify::FaultInjector *injector)
{
    for (auto &ch : channels)
        ch->setFaultInjector(injector);
}

void
MultiChannelDram::registerMetrics(obs::MetricsRegistry &registry,
                                  const std::string &prefix)
{
    for (std::size_t c = 0; c < channels.size(); ++c) {
        channels[c]->registerMetrics(
            registry, prefix + "ch" + std::to_string(c) + ".");
    }
    // Aggregates as gauges (the per-channel counters own the raw
    // cells); named like the single-channel counters so existing
    // dashboards resolve.
    registry.gauge(prefix + "reads", [this] {
        return static_cast<double>(statsSnapshot().reads);
    });
    registry.gauge(prefix + "writes", [this] {
        return static_cast<double>(statsSnapshot().writes);
    });
    registry.gauge(prefix + "row_hit_rate", [this] {
        DramStats s = statsSnapshot();
        std::uint64_t accesses = s.rowHits + s.rowMisses + s.rowConflicts;
        return accesses ? static_cast<double>(s.rowHits) / accesses : 0.0;
    });
    registry.gauge(prefix + "avg_read_latency", [this] {
        DramStats s = statsSnapshot();
        return s.readLatencyCount
                   ? static_cast<double>(s.readLatencySum) /
                         s.readLatencyCount
                   : 0.0;
    });
}

void
MultiChannelDram::visitState(sim::StateIO &io)
{
    io.tag(0xD7A3C000u, "multichannel dram");
    io.fixed("channels", channels,
             [&io](std::unique_ptr<Dram> &ch) { ch->visitState(io); });
    io.tag(0xD7A3C0FFu, "multichannel dram");
}

std::string
MultiChannelDram::auditViolation() const
{
    for (std::size_t c = 0; c < channels.size(); ++c) {
        std::string v = channels[c]->auditViolation();
        if (!v.empty())
            return "ch" + std::to_string(c) + ": " + v;
    }
    return {};
}

std::string
MultiChannelDram::name() const
{
    return "dram x" + std::to_string(channels.size());
}

} // namespace berti::mem
