#include "oracle/ref_cache.hh"

#include <algorithm>

namespace berti::oracle
{

RefCache::RefCache(const RefCacheConfig &config)
    : cfg(config), sets(config.sets)
{
}

RefOutcome
RefCache::access(Addr p_line, bool is_rfo)
{
    ++demandAccesses;
    Set &set = sets[setIndex(p_line)];
    auto it = set.find(p_line);
    if (it == set.end()) {
        ++demandMisses;
        return RefOutcome::Miss;
    }
    ++demandHits;
    ++hitTick;
    bool skip_touch = perturb.skipLruTouchEveryN != 0 &&
                      hitTick % perturb.skipLruTouchEveryN == 0;
    if (!skip_touch)
        touch(it->second);
    if (is_rfo)
        it->second.dirty = true;
    return RefOutcome::Hit;
}

bool
RefCache::fill(Addr p_line, bool dirty, Addr *evicted, bool *evicted_dirty)
{
    Set &set = sets[setIndex(p_line)];
    bool victimised = false;
    if (set.size() >= cfg.ways) {
        // Exact LRU: evict the entry with the lowest recency stamp.
        auto victim = set.begin();
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->second.lastTouch < victim->second.lastTouch)
                victim = it;
        }
        if (evicted)
            *evicted = victim->first;
        if (evicted_dirty)
            *evicted_dirty = victim->second.dirty;
        if (victim->second.dirty)
            ++writebacksOut;
        set.erase(victim);
        victimised = true;
    }
    RefLine line;
    line.dirty = dirty;
    set[p_line] = line;
    touch(set[p_line]);
    ++fills;
    return victimised;
}

bool
RefCache::writeback(Addr p_line, Addr *evicted, bool *evicted_dirty)
{
    Set &set = sets[setIndex(p_line)];
    auto it = set.find(p_line);
    if (it != set.end()) {
        it->second.dirty = true;
        touch(it->second);
        return false;
    }
    // Non-inclusive write-allocate of the full evicted line.
    return fill(p_line, true, evicted, evicted_dirty);
}

bool
RefCache::contains(Addr p_line) const
{
    const Set &set = sets[setIndex(p_line)];
    return set.find(p_line) != set.end();
}

bool
RefCache::isDirty(Addr p_line) const
{
    const Set &set = sets[setIndex(p_line)];
    auto it = set.find(p_line);
    return it != set.end() && it->second.dirty;
}

std::vector<std::pair<Addr, bool>>
RefCache::contents() const
{
    std::vector<std::pair<Addr, bool>> out;
    for (const Set &set : sets) {
        for (const auto &[addr, line] : set)
            out.emplace_back(addr, line.dirty);
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace berti::oracle
