#include "prefetch/markov.hh"

#include <sstream>

#include "sim/serialize.hh"

namespace berti
{

namespace
{

std::size_t
rowOf(int delta)
{
    return static_cast<std::size_t>(delta +
                                    static_cast<int>(kLinesPerPage) - 1);
}

} // namespace

MarkovPrefetcher::MarkovPrefetcher(const Config &config)
    : cfg(config), pages(cfg.pageEntries),
      rows(static_cast<std::size_t>(kDeltaRows) * cfg.successors)
{}

void
MarkovPrefetcher::train(int prev_delta, int next_delta)
{
    Transition *row = &rows[rowOf(prev_delta) * cfg.successors];

    Transition *slot = nullptr;
    Transition *weakest = &row[0];
    for (unsigned i = 0; i < cfg.successors; ++i) {
        if (row[i].delta == next_delta) {
            slot = &row[i];
            break;
        }
        if (row[i].count < weakest->count)
            weakest = &row[i];
    }
    if (!slot) {
        // Frequency replacement: evict the weakest only once it decays
        // to zero, so one noisy delta cannot flush a trained row.
        if (weakest->count > 0) {
            --weakest->count;
            return;
        }
        weakest->delta = next_delta;
        weakest->count = 1;
        return;
    }

    if (slot->count >= cfg.countMax) {
        // Pangloss ageing: halve the whole row, then bump. Relative
        // frequencies survive; stale history fades geometrically.
        for (unsigned i = 0; i < cfg.successors; ++i)
            row[i].count /= 2;
    }
    ++slot->count;
}

int
MarkovPrefetcher::predict(int delta) const
{
    const Transition *row = &rows[rowOf(delta) * cfg.successors];
    unsigned total = 0;
    for (unsigned i = 0; i < cfg.successors; ++i)
        total += row[i].count;
    if (total == 0)
        return 0;

    const Transition *best = nullptr;
    for (unsigned i = 0; i < cfg.successors; ++i) {
        if (row[i].delta == 0 || row[i].count == 0)
            continue;
        if (!best || row[i].count > best->count)
            best = &row[i];
    }
    if (!best || best->count * 16 < cfg.minShare16 * total)
        return 0;
    return best->delta;
}

void
MarkovPrefetcher::onAccess(const AccessInfo &info)
{
    Addr line = info.vLine != kNoAddr ? info.vLine : info.pLine;
    if (line == kNoAddr)
        return;

    Addr page = line >> (kPageBits - kLineBits);
    unsigned offset =
        static_cast<unsigned>(line & (kLinesPerPage - 1));

    PageEntry &e = pages[static_cast<std::size_t>(
        (page ^ (page >> 9)) % cfg.pageEntries)];
    if (!e.valid || e.page != page) {
        e.valid = true;
        e.page = page;
        e.lastOffset = offset;
        e.lastDelta = 0;
        return;
    }

    int delta = static_cast<int>(offset) - static_cast<int>(e.lastOffset);
    if (delta == 0)
        return;
    if (e.lastDelta != 0)
        train(e.lastDelta, delta);
    e.lastOffset = offset;
    e.lastDelta = delta;

    // Prediction walk: chain the most likely next deltas, page-bounded.
    int cursor_off = static_cast<int>(offset);
    int cur_delta = delta;
    for (unsigned depth = 0; depth < cfg.chainDepth; ++depth) {
        int next = predict(cur_delta);
        if (next == 0)
            break;
        cursor_off += next;
        if (cursor_off < 0 ||
            cursor_off >= static_cast<int>(kLinesPerPage))
            break;
        Addr target = (page << (kPageBits - kLineBits)) +
                      static_cast<Addr>(cursor_off);
        port->issuePrefetch(target, FillLevel::L1);
        cur_delta = next;
    }
}

std::uint64_t
MarkovPrefetcher::storageBits() const
{
    // Page entry: 20-bit truncated page tag + 6-bit offset + 7-bit
    // delta + valid. Transition: 7-bit delta + count bits.
    std::uint64_t page_bits =
        static_cast<std::uint64_t>(cfg.pageEntries) * (20 + 6 + 7 + 1);
    unsigned count_bits = 1;
    while ((1u << count_bits) <= cfg.countMax)
        ++count_bits;
    std::uint64_t row_bits = static_cast<std::uint64_t>(kDeltaRows) *
                             cfg.successors * (7 + count_bits);
    return page_bits + row_bits;
}

std::string
MarkovPrefetcher::debugState() const
{
    std::size_t live_pages = 0;
    for (const PageEntry &e : pages)
        live_pages += e.valid ? 1 : 0;
    std::size_t live_rows = 0;
    for (std::size_t r = 0; r < kDeltaRows; ++r) {
        for (unsigned i = 0; i < cfg.successors; ++i) {
            if (rows[r * cfg.successors + i].count > 0) {
                ++live_rows;
                break;
            }
        }
    }
    std::ostringstream os;
    os << "markov: " << live_pages << "/" << pages.size() << " pages, "
       << live_rows << "/" << kDeltaRows << " delta rows trained";
    return os.str();
}

void
MarkovPrefetcher::visitState(sim::StateIO &io)
{
    io.fixed("pages", pages, [&io](PageEntry &e) {
        io.b(e.valid);
        io.u64(e.page);
        io.u32(e.lastOffset);
        io.i64(e.lastDelta);
    });
    io.fixed("rows", rows, [&io](Transition &t) {
        io.i64(t.delta);
        io.u32(t.count);
    });
}

} // namespace berti
