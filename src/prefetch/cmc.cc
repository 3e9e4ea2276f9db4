#include "prefetch/cmc.hh"

#include <sstream>

#include "sim/serialize.hh"

namespace berti
{

namespace
{

/** Set index: low line bits mixed with a page-granularity xor so
 *  strided aliasing does not pile one page onto one set. */
std::size_t
setOf(Addr line, unsigned sets)
{
    return static_cast<std::size_t>((line ^ (line >> 7)) & (sets - 1));
}

} // namespace

CmcPrefetcher::CmcPrefetcher(const Config &config)
    : cfg(config), table(static_cast<std::size_t>(cfg.sets) * cfg.ways)
{
    for (Entry &e : table)
        e.next.resize(cfg.successors);
}

CmcPrefetcher::Entry *
CmcPrefetcher::find(Addr trigger)
{
    std::size_t base = setOf(trigger, cfg.sets) * cfg.ways;
    for (unsigned w = 0; w < cfg.ways; ++w) {
        Entry &e = table[base + w];
        if (e.valid && e.trigger == trigger)
            return &e;
    }
    return nullptr;
}

CmcPrefetcher::Entry &
CmcPrefetcher::insert(Addr trigger)
{
    std::size_t base = setOf(trigger, cfg.sets) * cfg.ways;
    Entry *victim = &table[base];
    for (unsigned w = 0; w < cfg.ways; ++w) {
        Entry &e = table[base + w];
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lruStamp < victim->lruStamp)
            victim = &e;
    }
    victim->valid = true;
    victim->trigger = trigger;
    for (Successor &s : victim->next)
        s = Successor{};
    return *victim;
}

void
CmcPrefetcher::train(Addr prev, Addr cur)
{
    Entry *e = find(prev);
    if (!e)
        e = &insert(prev);
    e->lruStamp = ++stamp;

    // Recorded already: strengthen the match and age the others, so a
    // phase change dethrones a stale successor even when both sit at
    // the confidence cap. Otherwise replace the weakest slot
    // (decay-on-miss keeps a stale successor from squatting forever).
    Successor *match = nullptr;
    Successor *weakest = &e->next[0];
    for (Successor &s : e->next) {
        if (s.line == cur)
            match = &s;
        else if (s.conf < weakest->conf)
            weakest = &s;
    }
    if (match) {
        if (match->conf < cfg.confMax)
            ++match->conf;
        for (Successor &s : e->next) {
            if (&s != match && s.conf > 0)
                --s.conf;
        }
        return;
    }
    if (weakest->conf > 0) {
        --weakest->conf;
        return;
    }
    weakest->line = cur;
    weakest->conf = 1;
}

void
CmcPrefetcher::onAccess(const AccessInfo &info)
{
    Addr line = info.vLine != kNoAddr ? info.vLine : info.pLine;
    if (line == kNoAddr)
        return;
    if (info.hit)
        return;  // temporal correlation is a miss-stream property

    if (lastMiss != kNoAddr && lastMiss != line)
        train(lastMiss, line);
    lastMiss = line;

    // Replay: follow the recorded chain, most-confident successor
    // first, re-keying each hop so A->B->C replays from a miss on A.
    Addr cursor = line;
    for (unsigned depth = 0; depth < cfg.chainDepth; ++depth) {
        Entry *e = find(cursor);
        if (!e)
            break;
        const Successor *best = nullptr;
        for (const Successor &s : e->next) {
            if (s.line == kNoAddr || s.conf < cfg.confThreshold)
                continue;
            if (!best || s.conf > best->conf)
                best = &s;
        }
        if (!best)
            break;
        port->issuePrefetch(best->line, FillLevel::L1);
        cursor = best->line;
    }
}

std::uint64_t
CmcPrefetcher::storageBits() const
{
    // Per entry: truncated 32-bit trigger tag, LRU (8), and per
    // successor a 32-bit compressed line plus the confidence bits.
    std::uint64_t per_succ = 32 + 2;
    std::uint64_t per_entry = 32 + 8 + cfg.successors * per_succ;
    return static_cast<std::uint64_t>(cfg.sets) * cfg.ways * per_entry +
           64;  // lastMiss register
}

std::string
CmcPrefetcher::debugState() const
{
    std::size_t live = 0;
    for (const Entry &e : table)
        live += e.valid ? 1 : 0;
    std::ostringstream os;
    os << "cmc: " << live << "/" << table.size() << " entries live";
    return os.str();
}

void
CmcPrefetcher::visitState(sim::StateIO &io)
{
    io.u64(stamp);
    io.u64(lastMiss);
    io.fixed("table", table, [&io](Entry &e) {
        io.b(e.valid);
        io.u64(e.trigger);
        io.u64(e.lruStamp);
        io.each("next", e.next, [&io](Successor &s) {
            io.u64(s.line);
            io.u32(s.conf);
        });
    });
}

} // namespace berti
