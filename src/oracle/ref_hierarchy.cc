#include "oracle/ref_hierarchy.hh"

namespace berti::oracle
{

RefHierarchy::RefHierarchy(const RefHierarchyConfig &cfg)
    : l1Cache(cfg.l1), l2Cache(cfg.l2), llcCache(cfg.llc)
{
}

void
RefHierarchy::fillInto(RefCache &level, Addr p_line, bool dirty)
{
    Addr victim = kNoAddr;
    bool victim_dirty = false;
    if (!level.fill(p_line, dirty, &victim, &victim_dirty))
        return;
    if (!victim_dirty)
        return;
    if (&level == &l1Cache)
        toL2.push_back(victim);
    else if (&level == &l2Cache)
        toLlc.push_back(victim);
    else
        memWritebacks.push_back(victim);
}

void
RefHierarchy::drainWritebacks()
{
    // The machine ticks the LLC before each L2, so an LLC-queue entry is
    // always consumed before the next L2-queue entry: LLC-first priority
    // reproduces the cycle model's drain order.
    while (!toLlc.empty() || !toL2.empty()) {
        if (!toLlc.empty()) {
            Addr line = toLlc.front();
            toLlc.pop_front();
            Addr victim = kNoAddr;
            bool victim_dirty = false;
            if (llcCache.writeback(line, &victim, &victim_dirty) &&
                victim_dirty) {
                memWritebacks.push_back(victim);
            }
            continue;
        }
        Addr line = toL2.front();
        toL2.pop_front();
        Addr victim = kNoAddr;
        bool victim_dirty = false;
        if (l2Cache.writeback(line, &victim, &victim_dirty) &&
            victim_dirty) {
            toLlc.push_back(victim);
        }
    }
}

RefHitLevel
RefHierarchy::demandAccess(Addr p_line, bool is_rfo)
{
    RefHitLevel level = RefHitLevel::Memory;
    if (l1Cache.access(p_line, is_rfo) == RefOutcome::Hit) {
        level = RefHitLevel::L1;
    } else if (l2Cache.access(p_line, is_rfo) == RefOutcome::Hit) {
        level = RefHitLevel::L2;
        fillInto(l1Cache, p_line, is_rfo);
    } else if (llcCache.access(p_line, is_rfo) == RefOutcome::Hit) {
        level = RefHitLevel::Llc;
        fillInto(l2Cache, p_line, is_rfo);
        fillInto(l1Cache, p_line, is_rfo);
    } else {
        ++memoryReads;
        fillInto(llcCache, p_line, is_rfo);
        fillInto(l2Cache, p_line, is_rfo);
        fillInto(l1Cache, p_line, is_rfo);
    }
    drainWritebacks();
    return level;
}

void
RefHierarchy::demandWriteback(Addr p_line)
{
    Addr victim = kNoAddr;
    bool victim_dirty = false;
    if (l1Cache.writeback(p_line, &victim, &victim_dirty) && victim_dirty)
        toL2.push_back(victim);
    drainWritebacks();
}

} // namespace berti::oracle
