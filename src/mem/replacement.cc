#include "mem/replacement.hh"

namespace berti
{

std::unique_ptr<ReplPolicy>
makeReplPolicy(ReplKind kind, unsigned sets, unsigned ways)
{
    switch (kind) {
      case ReplKind::Lru:
        return std::make_unique<LruPolicy>(sets, ways);
      case ReplKind::Fifo:
        return std::make_unique<FifoPolicy>(sets, ways);
      case ReplKind::Srrip:
        return std::make_unique<SrripPolicy>(sets, ways);
      case ReplKind::Drrip:
        return std::make_unique<DrripPolicy>(sets, ways);
    }
    return nullptr;
}

// ------------------------------------------------------------------ LRU

LruPolicy::LruPolicy(unsigned sets, unsigned ways)
    : ways(ways), stamp(static_cast<std::size_t>(sets) * ways, 0)
{}

void
LruPolicy::touch(unsigned set, unsigned way)
{
    stamp[static_cast<std::size_t>(set) * ways + way] = ++tick;
}

unsigned
LruPolicy::victim(unsigned set)
{
    std::size_t base = static_cast<std::size_t>(set) * ways;
    unsigned best = 0;
    for (unsigned w = 1; w < ways; ++w) {
        if (stamp[base + w] < stamp[base + best])
            best = w;
    }
    return best;
}

void
LruPolicy::onHit(unsigned set, unsigned way)
{
    touch(set, way);
}

void
LruPolicy::onFill(unsigned set, unsigned way, bool)
{
    touch(set, way);
}

void
LruPolicy::visitState(sim::StateIO &io)
{
    io.u64(tick);
    io.fixed("stamp", stamp, [&io](std::uint64_t &x) { io.u64(x); });
}

// ----------------------------------------------------------------- FIFO

FifoPolicy::FifoPolicy(unsigned sets, unsigned ways)
    : ways(ways), stamp(static_cast<std::size_t>(sets) * ways, 0)
{}

unsigned
FifoPolicy::victim(unsigned set)
{
    std::size_t base = static_cast<std::size_t>(set) * ways;
    unsigned best = 0;
    for (unsigned w = 1; w < ways; ++w) {
        if (stamp[base + w] < stamp[base + best])
            best = w;
    }
    return best;
}

void
FifoPolicy::onHit(unsigned, unsigned)
{
    // FIFO ignores reuse.
}

void
FifoPolicy::onFill(unsigned set, unsigned way, bool)
{
    stamp[static_cast<std::size_t>(set) * ways + way] = ++tick;
}

void
FifoPolicy::visitState(sim::StateIO &io)
{
    io.u64(tick);
    io.fixed("stamp", stamp, [&io](std::uint64_t &x) { io.u64(x); });
}

// ---------------------------------------------------------------- SRRIP

SrripPolicy::SrripPolicy(unsigned sets, unsigned ways)
    : ways(ways),
      rrpv(static_cast<std::size_t>(sets) * ways, kMaxRrpv)
{}

unsigned
SrripPolicy::victim(unsigned set)
{
    std::size_t base = static_cast<std::size_t>(set) * ways;
    for (;;) {
        for (unsigned w = 0; w < ways; ++w) {
            if (rrpv[base + w] == kMaxRrpv)
                return w;
        }
        for (unsigned w = 0; w < ways; ++w)
            ++rrpv[base + w];
    }
}

void
SrripPolicy::onHit(unsigned set, unsigned way)
{
    rrpv[static_cast<std::size_t>(set) * ways + way] = 0;
}

void
SrripPolicy::onFill(unsigned set, unsigned way, bool)
{
    rrpv[static_cast<std::size_t>(set) * ways + way] = kMaxRrpv - 1;
}

void
SrripPolicy::visitState(sim::StateIO &io)
{
    io.fixed("rrpv", rrpv, [&io](std::uint8_t &x) { io.u64(x); });
}

// ---------------------------------------------------------------- DRRIP

DrripPolicy::DrripPolicy(unsigned sets, unsigned ways)
    : SrripPolicy(sets, ways), sets(sets)
{}

DrripPolicy::SetRole
DrripPolicy::role(unsigned set) const
{
    // 32 leader sets of each flavour, spread through the index space.
    unsigned spacing = sets >= 64 ? sets / 64 : 1;
    if (set % spacing == 0) {
        unsigned leader = set / spacing;
        if (leader < 32)
            return leader % 2 == 0 ? SetRole::SrripLeader
                                   : SetRole::BrripLeader;
    }
    return SetRole::Follower;
}

void
DrripPolicy::onFill(unsigned set, unsigned way, bool prefetch)
{
    SetRole r = role(set);
    bool use_brrip;
    switch (r) {
      case SetRole::SrripLeader:
        // A fill here is a miss under SRRIP: evidence against SRRIP.
        use_brrip = false;
        psel = psel < 1023 ? psel + 1 : psel;
        break;
      case SetRole::BrripLeader:
        // A fill here is a miss under BRRIP: evidence against BRRIP.
        use_brrip = true;
        psel = psel > -1024 ? psel - 1 : psel;
        break;
      case SetRole::Follower:
      default:
        use_brrip = psel > 0;
        break;
    }
    std::size_t idx =
        static_cast<std::size_t>(set) * ways + way;
    if (use_brrip) {
        // Bimodal: distant insertion except 1-in-32 fills.
        rrpv[idx] = (++bipCounter % 32 == 0) ? kMaxRrpv - 1 : kMaxRrpv;
    } else {
        rrpv[idx] = kMaxRrpv - 1;
    }
    (void)prefetch;
}

void
DrripPolicy::visitState(sim::StateIO &io)
{
    SrripPolicy::visitState(io);
    io.i64(psel);
    io.u32(bipCounter);
}

} // namespace berti
