#include "prefetch/stream.hh"

#include <cstdlib>

#include "sim/serialize.hh"

namespace berti
{

StreamPrefetcher::StreamPrefetcher(const Config &config)
    : cfg(config), table(cfg.streams)
{}

void
StreamPrefetcher::onAccess(const AccessInfo &info)
{
    if (info.hit)
        return;  // classic stream engines train on misses
    Addr line = info.vLine != kNoAddr ? info.vLine : info.pLine;
    if (line == kNoAddr)
        return;
    ++tick;

    // Match the miss to an existing stream within the window.
    Stream *s = nullptr;
    Stream *victim = &table[0];
    for (auto &st : table) {
        if (st.valid) {
            std::int64_t d = static_cast<std::int64_t>(line) -
                             static_cast<std::int64_t>(st.last);
            if (d != 0 && std::llabs(d) <= cfg.window &&
                (d > 0) == st.up) {
                s = &st;
                break;
            }
        }
        if (!st.valid || st.lruStamp < victim->lruStamp)
            victim = &st;
    }

    if (!s) {
        // Try the opposite direction before allocating fresh.
        for (auto &st : table) {
            if (!st.valid)
                continue;
            std::int64_t d = static_cast<std::int64_t>(line) -
                             static_cast<std::int64_t>(st.last);
            if (d != 0 && std::llabs(d) <= cfg.window) {
                st.up = d > 0;
                st.confidence = 1;
                st.armed = false;
                s = &st;
                break;
            }
        }
    }
    if (!s) {
        *victim = Stream{};
        victim->valid = true;
        victim->last = line;
        victim->lruStamp = tick;
        return;
    }

    s->last = line;
    s->lruStamp = tick;
    if (++s->confidence >= cfg.trainHits)
        s->armed = true;

    if (s->armed) {
        for (unsigned k = 1; k <= cfg.depth; ++k) {
            Addr target = s->up ? line + k : line - k;
            port->issuePrefetch(target, FillLevel::L1);
        }
    }
}

std::uint64_t
StreamPrefetcher::storageBits() const
{
    // last line (24) + direction + armed + confidence (3) + LRU (6).
    return static_cast<std::uint64_t>(cfg.streams) * (24 + 1 + 1 + 3 + 6);
}

void
StreamPrefetcher::visitState(sim::StateIO &io)
{
    io.u64(tick);
    io.fixed("table", table, [&io](Stream &s) {
        io.b(s.valid);
        io.b(s.armed);
        io.b(s.up);
        io.u64(s.last);
        io.u32(s.confidence);
        io.u64(s.lruStamp);
    });
}

} // namespace berti
