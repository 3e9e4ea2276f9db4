#include "prefetch/prefetcher.hh"

#include "obs/metrics.hh"
#include "sim/serialize.hh"
#include "verify/sim_error.hh"

namespace berti
{

namespace
{

[[noreturn]] void
rejectCheckpoint(const std::string &name)
{
    throw verify::SimError(
        verify::ErrorKind::Checkpoint, name,
        "prefetcher '" + name + "' does not support checkpointing — "
        "its learned state cannot be saved or restored");
}

} // namespace

void
Prefetcher::saveState(sim::ByteWriter &w) const
{
    sim::StateIO io(w);
    const_cast<Prefetcher *>(this)->visitState(io);
}

void
Prefetcher::loadState(sim::ByteReader &r)
{
    sim::StateIO io(r);
    visitState(io);
}

void
Prefetcher::visitState(sim::StateIO &)
{
    rejectCheckpoint(name());
}

void
Prefetcher::registerMetrics(obs::MetricsRegistry &registry,
                            const std::string &prefix)
{
    registry.gauge(prefix + "storage_bits", [this] {
        return static_cast<double>(storageBits());
    });
}

} // namespace berti
