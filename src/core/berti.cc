#include "core/berti.hh"

#include <algorithm>
#include <cassert>

#include "sim/serialize.hh"

namespace berti
{

namespace
{

constexpr Cycle kTimestampMask = 0xFFFF;  //!< 16-bit history timestamps

} // namespace

BertiPrefetcher::BertiPrefetcher(const BertiConfig &config)
    : cfg(config),
      history(static_cast<std::size_t>(cfg.historySets) * cfg.historyWays),
      table(cfg.deltaTableEntries)
{
    for (auto &e : table)
        e.slots.resize(cfg.deltasPerEntry);
    candScratch.reserve(cfg.historyWays);
    orderScratch.reserve(cfg.deltasPerEntry);
}

unsigned
BertiPrefetcher::historyIndex(Addr ip) const
{
    return static_cast<unsigned>((ip >> 2) % cfg.historySets);
}

std::uint16_t
BertiPrefetcher::historyTag(Addr ip) const
{
    // Seven bits above the index bits (section III-C / Figure 6).
    return static_cast<std::uint16_t>(
        (ip >> 2) / cfg.historySets & 0x7F);
}

std::uint16_t
BertiPrefetcher::deltaTag(Addr ip) const
{
    // 10-bit hash of the IP.
    std::uint64_t h = (ip >> 2) * 0x9e3779b97f4a7c15ull;
    return static_cast<std::uint16_t>(h >> 54);
}

Addr
BertiPrefetcher::contextOf(Addr ip, Addr v_line) const
{
    // The local-delta context: the IP (this paper) or the 4 KB page
    // (the DPC-3 precursor). Shifted so the >>2 in the index/tag
    // hashes keeps mixing well.
    return cfg.perPage ? (v_line >> (kPageBits - kLineBits)) << 2 : ip;
}

Cycle
BertiPrefetcher::clampLatency(Cycle latency) const
{
    Cycle max = (Cycle{1} << cfg.latencyBits) - 1;
    return latency > max ? 0 : latency;
}

void
BertiPrefetcher::insertHistory(Addr ip, Addr v_line)
{
    std::size_t base =
        static_cast<std::size_t>(historyIndex(ip)) * cfg.historyWays;
    // FIFO within the set: replace the oldest insertion.
    std::size_t victim = base;
    for (unsigned w = 0; w < cfg.historyWays; ++w) {
        if (!history[base + w].valid) {
            victim = base + w;
            break;
        }
        if (history[base + w].order < history[victim].order)
            victim = base + w;
    }
    HistoryEntry &e = history[victim];
    e.valid = true;
    e.ipTag = historyTag(ip);
    e.line = v_line & 0xFFFFFF;  // 24-bit stored line address
    e.ts = port->now() & kTimestampMask;
    e.order = ++orderTick;
}

void
BertiPrefetcher::searchHistory(Addr ip, Addr v_line, Cycle demand_time,
                               Cycle latency)
{
    latency = clampLatency(latency);
    if (latency == 0)
        return;  // overflowed counter or unknown: skip training

    ++historySearches;

    std::size_t base =
        static_cast<std::size_t>(historyIndex(ip)) * cfg.historyWays;
    std::uint16_t tag = historyTag(ip);

    // Collect matching entries whose access time is early enough that a
    // prefetch triggered then would have completed by demand_time:
    //   entry.ts + latency <= demand_time.
    std::vector<Cand> &cands = candScratch;
    cands.clear();
    Cycle demand_masked = demand_time & kTimestampMask;
    for (unsigned w = 0; w < cfg.historyWays; ++w) {
        const HistoryEntry &e = history[base + w];
        if (!e.valid || e.ipTag != tag)
            continue;
        // 16-bit wrap-safe age of the entry relative to the demand.
        Cycle age = (demand_masked - e.ts) & kTimestampMask;
        Cycle min_age = cfg.requireTimely ? latency : 1;
        if (age >= min_age && age < (kTimestampMask >> 1))
            cands.push_back({e.order, e.line});
    }

    // Keep the youngest maxTimelyPerSearch candidates.
    std::sort(cands.begin(), cands.end(),
              [](const Cand &a, const Cand &b) { return a.order > b.order; });
    if (cands.size() > cfg.maxTimelyPerSearch)
        cands.resize(cfg.maxTimelyPerSearch);

    DeltaEntry *entry = findDeltaEntry(ip);
    if (!entry)
        entry = &allocDeltaEntry(ip);

    for (const Cand &c : cands) {
        // Deltas computed over 24-bit stored line addresses.
        int delta = static_cast<int>(
            static_cast<std::int64_t>(v_line & 0xFFFFFF) -
            static_cast<std::int64_t>(c.line));
        if (delta == 0 || delta > cfg.maxDeltaMagnitude ||
            delta < -cfg.maxDeltaMagnitude) {
            continue;
        }
        ++timelyDeltasFound;
        recordDelta(*entry, delta);
    }

    if (++entry->counter >= cfg.phaseLength)
        closePhase(*entry);
}

BertiPrefetcher::DeltaEntry *
BertiPrefetcher::findDeltaEntry(Addr ip)
{
    std::uint16_t tag = deltaTag(ip);
    for (auto &e : table) {
        if (e.valid && e.ipTag == tag)
            return &e;
    }
    return nullptr;
}

const BertiPrefetcher::DeltaEntry *
BertiPrefetcher::findDeltaEntry(Addr ip) const
{
    return const_cast<BertiPrefetcher *>(this)->findDeltaEntry(ip);
}

BertiPrefetcher::DeltaEntry &
BertiPrefetcher::allocDeltaEntry(Addr ip)
{
    // FIFO over the fully-associative table.
    std::size_t victim = 0;
    for (std::size_t i = 0; i < table.size(); ++i) {
        if (!table[i].valid) {
            victim = i;
            break;
        }
        if (table[i].order < table[victim].order)
            victim = i;
    }
    DeltaEntry &e = table[victim];
    e.valid = true;
    e.ipTag = deltaTag(ip);
    e.counter = 0;
    e.warm = false;
    e.gathered = 0;
    e.order = ++orderTick;
    for (auto &s : e.slots)
        s = DeltaSlot{};
    return e;
}

void
BertiPrefetcher::recordDelta(DeltaEntry &entry, int delta)
{
    if (entry.gathered < 0xFFFF)
        ++entry.gathered;
    DeltaSlot *free_slot = nullptr;
    for (auto &s : entry.slots) {
        if (s.valid && s.delta == delta) {
            if (s.coverage < 15)
                ++s.coverage;
            return;
        }
        if (!s.valid && !free_slot)
            free_slot = &s;
    }
    if (free_slot) {
        free_slot->valid = true;
        free_slot->delta = delta;
        free_slot->coverage = 1;
        free_slot->status = DeltaStatus::NoPref;
        return;
    }

    // Eviction: lowest-coverage slot whose previous-phase status marked
    // it replaceable (L2PrefRepl or NoPref). Otherwise discard.
    DeltaSlot *victim = nullptr;
    for (auto &s : entry.slots) {
        if (s.status != DeltaStatus::L2PrefRepl &&
            s.status != DeltaStatus::NoPref) {
            continue;
        }
        if (!victim || s.coverage < victim->coverage)
            victim = &s;
    }
    if (victim) {
        victim->delta = delta;
        victim->coverage = 1;
        victim->status = DeltaStatus::NoPref;
    }
}

void
BertiPrefetcher::closePhase(DeltaEntry &entry)
{
    ++phaseCompletions;

    // Coverage fraction per delta over the phase, most covered first so
    // the maxSelectedDeltas bound keeps the best ones. Stable so equal
    // coverages rank in slot order, like a hardware priority encoder —
    // an unstable tie-break would make the selected set depend on the
    // standard library.
    std::vector<DeltaSlot *> &order = orderScratch;
    order.clear();
    for (auto &s : entry.slots) {
        if (s.valid)
            order.push_back(&s);
    }
    // In-place stable insertion sort: slots per entry are few (16 in
    // the paper's configuration) and std::stable_sort heap-allocates a
    // temporary buffer, which would break the allocation-free hot-path
    // guarantee. Strict comparison keeps ties in slot order, producing
    // exactly the std::stable_sort ordering.
    for (std::size_t i = 1; i < order.size(); ++i) {
        DeltaSlot *key = order[i];
        std::size_t j = i;
        while (j > 0 && order[j - 1]->coverage < key->coverage) {
            order[j] = order[j - 1];
            --j;
        }
        order[j] = key;
    }

    unsigned selected = 0;
    double phase = static_cast<double>(cfg.phaseLength);
    for (DeltaSlot *s : order) {
        double cov = static_cast<double>(s->coverage) / phase;
        if (cov > cfg.l1Watermark && selected < cfg.maxSelectedDeltas) {
            s->status = DeltaStatus::L1Pref;
            ++selected;
        } else if (cov > cfg.l2Watermark &&
                   selected < cfg.maxSelectedDeltas) {
            s->status = cov < cfg.replWatermark ? DeltaStatus::L2PrefRepl
                                                : DeltaStatus::L2Pref;
            ++selected;
        } else {
            s->status = DeltaStatus::NoPref;
        }
        s->coverage = 0;
    }
    entry.counter = 0;
    entry.warm = true;
}

void
BertiPrefetcher::predict(Addr ip, Addr v_line)
{
    const DeltaEntry *entry = findDeltaEntry(ip);
    if (!entry)
        return;

    bool mshr_free = port->mshrOccupancy() < cfg.mshrWatermark;

    auto issue = [&](int delta, bool l1_class) {
        Addr target = static_cast<Addr>(
            static_cast<std::int64_t>(v_line) + delta);
        if (!cfg.crossPage &&
            (target >> (kPageBits - kLineBits)) !=
                (v_line >> (kPageBits - kLineBits))) {
            return;
        }
        FillLevel level = (l1_class && mshr_free) ? FillLevel::L1
                                                  : FillLevel::L2;
        port->issuePrefetch(target, level);
    };

    if (cfg.issueAllDeltas) {
        // Selectivity ablation: fire every gathered delta.
        for (const auto &s : entry->slots) {
            if (s.valid)
                issue(s.delta, true);
        }
        return;
    }

    if (!entry->warm) {
        // Warm-up: before the first phase closes, issue only once at
        // least eight timely deltas have been gathered, and with the
        // stricter 80% coverage watermark (paper section III-C). The
        // occurrence count (not distinct slots) is what matters: an IP
        // whose delta table entry churns under FIFO pressure can still
        // prefetch its high-coverage deltas.
        if (entry->gathered < cfg.warmupMinDeltas ||
            entry->counter == 0) {
            return;
        }
        double searches = static_cast<double>(entry->counter);
        for (const auto &s : entry->slots) {
            if (s.valid &&
                static_cast<double>(s.coverage) / searches >=
                    cfg.warmupWatermark) {
                issue(s.delta, true);
            }
        }
        return;
    }

    for (const auto &s : entry->slots) {
        if (!s.valid)
            continue;
        if (s.status == DeltaStatus::L1Pref) {
            issue(s.delta, true);
        } else if (s.status == DeltaStatus::L2Pref ||
                   s.status == DeltaStatus::L2PrefRepl) {
            issue(s.delta, false);
        }
    }
}

void
BertiPrefetcher::onAccess(const AccessInfo &info)
{
    assert(port && "Berti must be bound to a cache");
    if (info.vLine == kNoAddr)
        return;

    Addr ctx = contextOf(info.ip, info.vLine);
    if (!info.hit) {
        // Demand miss: record in the history at demand time. The
        // matching search happens on the fill (with measured latency).
        insertHistory(ctx, info.vLine);
    } else if (info.firstHitOnPrefetch) {
        // First demand hit on a prefetched line: a miss the baseline
        // would have had. Record it and search with the stored latency.
        insertHistory(ctx, info.vLine);
        if (info.prefetchLatency != 0) {
            searchHistory(ctx, info.vLine, port->now(),
                          info.prefetchLatency);
        }
    }

    // Prediction runs on every L1D access (section III-C).
    predict(ctx, info.vLine);
}

void
BertiPrefetcher::onFill(const FillInfo &info)
{
    // Learn only on fills the baseline would have missed: demand misses
    // (including late prefetches a demand merged into). Pure prefetch
    // fills train later, at first-use time (see onAccess).
    if (!info.hadDemandWaiter || info.vLine == kNoAddr)
        return;
    Cycle demand_time = port->now() >= info.latency
        ? port->now() - info.latency : 0;
    searchHistory(contextOf(info.ip, info.vLine), info.vLine,
                  demand_time, info.latency);
}

std::uint64_t
BertiPrefetcher::storageBits() const
{
    // History table: per entry 7-bit tag + 24-bit line + 16-bit ts,
    // plus 4 FIFO bits per set.
    std::uint64_t history_bits =
        static_cast<std::uint64_t>(cfg.historySets) * cfg.historyWays *
            (7 + 24 + 16) +
        cfg.historySets * 4;
    // Table of deltas: 10-bit tag + 4-bit counter + FIFO 4 bits, and
    // per delta 13-bit delta + 4-bit coverage + 2-bit status.
    std::uint64_t table_bits =
        static_cast<std::uint64_t>(cfg.deltaTableEntries) *
        (10 + 4 + 4 + static_cast<std::uint64_t>(cfg.deltasPerEntry) *
                          (13 + 4 + 2));
    // PQ + MSHR timestamps (16 + 16 entries, 16 bits each).
    std::uint64_t queue_bits = (16 + 16) * 16;
    // Per-L1D-line latency counters (768 lines).
    std::uint64_t line_bits = 768ull * cfg.latencyBits;
    return history_bits + table_bits + queue_bits + line_bits;
}

std::string
BertiPrefetcher::debugState() const
{
    unsigned history_valid = 0;
    for (const auto &h : history)
        history_valid += h.valid ? 1 : 0;
    unsigned table_valid = 0;
    unsigned selected = 0;
    for (const auto &e : table) {
        if (!e.valid)
            continue;
        ++table_valid;
        for (const auto &s : e.slots) {
            if (s.valid && s.status != DeltaStatus::NoPref)
                ++selected;
        }
    }
    return "berti: history " + std::to_string(history_valid) + "/" +
           std::to_string(history.size()) + ", delta entries " +
           std::to_string(table_valid) + "/" +
           std::to_string(table.size()) + ", selected deltas " +
           std::to_string(selected) + ", searches " +
           std::to_string(historySearches) + ", timely " +
           std::to_string(timelyDeltasFound) + ", phases " +
           std::to_string(phaseCompletions);
}

std::vector<BertiPrefetcher::DeltaInfo>
BertiPrefetcher::deltasFor(Addr ip) const
{
    std::vector<DeltaInfo> out;
    const DeltaEntry *e = findDeltaEntry(ip);
    if (!e)
        return out;
    for (const auto &s : e->slots) {
        if (s.valid)
            out.push_back({s.delta, s.coverage, s.status});
    }
    return out;
}

void
BertiPrefetcher::visitState(sim::StateIO &io)
{
    io.u64(orderTick);
    io.u64(historySearches);
    io.u64(timelyDeltasFound);
    io.u64(phaseCompletions);
    io.fixed("history", history, [&io](HistoryEntry &h) {
        io.b(h.valid);
        io.u16(h.ipTag);
        io.u64(h.line);
        io.u64(h.ts);
        io.u64(h.order);
    });
    io.fixed("table", table, [&io](DeltaEntry &e) {
        io.b(e.valid);
        io.u16(e.ipTag);
        io.u8(e.counter);
        io.b(e.warm);
        io.u16(e.gathered);
        io.u64(e.order);
        io.fixed("slots", e.slots, [&io](DeltaSlot &s) {
            io.b(s.valid);
            io.i64(s.delta);
            io.u8(s.coverage);
            io.u8(s.status);
        });
    });
}

} // namespace berti
