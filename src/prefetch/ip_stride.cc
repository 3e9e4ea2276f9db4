#include "prefetch/ip_stride.hh"

#include "sim/serialize.hh"

namespace berti
{

IpStridePrefetcher::IpStridePrefetcher(const Config &config)
    : cfg(config), table(cfg.entries)
{}

void
IpStridePrefetcher::onAccess(const AccessInfo &info)
{
    Addr line = info.vLine != kNoAddr ? info.vLine : info.pLine;
    if (line == kNoAddr)
        return;

    // Fully-associative lookup with LRU replacement.
    Entry *e = nullptr;
    Entry *victim = &table[0];
    for (auto &entry : table) {
        if (entry.valid && entry.ip == info.ip) {
            e = &entry;
            break;
        }
        if (!entry.valid || entry.lruStamp < victim->lruStamp)
            victim = &entry;
    }
    if (!e) {
        e = victim;
        e->valid = true;
        e->ip = info.ip;
        e->lastLine = line;
        e->stride = 0;
        e->conf = 0;
        e->lruStamp = ++tick;
        return;
    }
    e->lruStamp = ++tick;

    int stride = static_cast<int>(static_cast<std::int64_t>(line) -
                                  static_cast<std::int64_t>(e->lastLine));
    if (stride == 0)
        return;  // same line: no stride information

    if (stride == e->stride) {
        if (e->conf < cfg.confMax)
            ++e->conf;
    } else {
        e->conf = e->conf > 0 ? e->conf - 1 : 0;
        if (e->conf == 0)
            e->stride = stride;
    }
    e->lastLine = line;

    if (e->conf >= cfg.confThreshold && e->stride != 0) {
        for (unsigned k = 1; k <= cfg.degree; ++k) {
            Addr target = static_cast<Addr>(
                static_cast<std::int64_t>(line) +
                static_cast<std::int64_t>(k) * e->stride);
            if (!cfg.crossPage &&
                (target >> (kPageBits - kLineBits)) !=
                    (line >> (kPageBits - kLineBits))) {
                break;
            }
            port->issuePrefetch(target, FillLevel::L1);
        }
    }
}

std::uint64_t
IpStridePrefetcher::storageBits() const
{
    // ip tag (16) + last line (24) + stride (13) + conf (2) + LRU (5).
    return static_cast<std::uint64_t>(cfg.entries) * (16 + 24 + 13 + 2 + 5);
}

void
IpStridePrefetcher::visitState(sim::StateIO &io)
{
    io.u64(tick);
    io.fixed("table", table, [&io](Entry &e) {
        io.b(e.valid);
        io.u64(e.ip);
        io.u64(e.lastLine);
        io.i64(e.stride);
        io.u32(e.conf);
        io.u64(e.lruStamp);
    });
}

} // namespace berti
