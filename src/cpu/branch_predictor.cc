#include "cpu/branch_predictor.hh"

#include "sim/serialize.hh"

namespace berti
{

BranchPredictor::BranchPredictor(const Config &config)
    : cfg(config),
      weights(static_cast<std::size_t>(cfg.tables) * cfg.entriesPerTable, 0)
{}

std::size_t
BranchPredictor::index(Addr ip, unsigned table) const
{
    // Each table sees a different history slice folded onto the IP.
    std::uint64_t slice = table == 0
        ? 0
        : history & ((1ull << (2 * table)) - 1);
    std::uint64_t h = (ip >> 2) ^ (slice * 0x9e3779b97f4a7c15ull) ^
                      (static_cast<std::uint64_t>(table) << 40);
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 32;
    return static_cast<std::size_t>(table) * cfg.entriesPerTable +
           (h & (cfg.entriesPerTable - 1));
}

int
BranchPredictor::sum(Addr ip) const
{
    int s = 0;
    for (unsigned t = 0; t < cfg.tables; ++t)
        s += weights[index(ip, t)];
    return s;
}

bool
BranchPredictor::predict(Addr ip) const
{
    return sum(ip) >= 0;
}

void
BranchPredictor::update(Addr ip, bool taken)
{
    int s = sum(ip);
    bool predicted = s >= 0;
    if (predicted != taken || (s < cfg.theta && s > -cfg.theta)) {
        for (unsigned t = 0; t < cfg.tables; ++t) {
            std::int8_t &w = weights[index(ip, t)];
            if (taken && w < cfg.weightMax)
                ++w;
            else if (!taken && w > -cfg.weightMax - 1)
                --w;
        }
    }
    history = (history << 1) | (taken ? 1 : 0);
}

void
BranchPredictor::visitState(sim::StateIO &io)
{
    io.u64(history);
    io.count("weights", weights.size());
    io.bytes(weights.data(), weights.size());
}

} // namespace berti
