#include "vm/tlb.hh"

#include "obs/metrics.hh"
#include "sim/serialize.hh"

namespace berti
{

Tlb::Tlb(unsigned sets, unsigned ways, Cycle latency)
    : sets(sets), ways(ways), lat(latency),
      entries(static_cast<std::size_t>(sets) * ways)
{}

bool
Tlb::lookup(Addr vpage)
{
    ++stats.accesses;
    std::size_t base = static_cast<std::size_t>(index(vpage)) * ways;
    for (unsigned w = 0; w < ways; ++w) {
        if (entries[base + w].vpage == vpage) {
            entries[base + w].stamp = ++tick;
            return true;
        }
    }
    ++stats.misses;
    return false;
}

bool
Tlb::probe(Addr vpage) const
{
    std::size_t base = static_cast<std::size_t>(index(vpage)) * ways;
    for (unsigned w = 0; w < ways; ++w) {
        if (entries[base + w].vpage == vpage)
            return true;
    }
    return false;
}

void
Tlb::fill(Addr vpage)
{
    std::size_t base = static_cast<std::size_t>(index(vpage)) * ways;
    std::size_t victim = base;
    for (unsigned w = 0; w < ways; ++w) {
        if (entries[base + w].vpage == vpage)
            return;  // already present
        if (entries[base + w].stamp < entries[victim].stamp)
            victim = base + w;
    }
    entries[victim].vpage = vpage;
    entries[victim].stamp = ++tick;
}

TranslationUnit::TranslationUnit(const Config &cfg)
    : l1(cfg.dtlbSets, cfg.dtlbWays, cfg.dtlbLatency),
      l2(cfg.stlbSets, cfg.stlbWays, cfg.stlbLatency),
      walkLatency(cfg.walkLatency), pt(cfg.pageSeed)
{}

TranslationUnit::Result
TranslationUnit::translate(Addr vaddr)
{
    Addr vpage = pageAddr(vaddr);
    Cycle latency = l1.latency();
    if (!l1.lookup(vpage)) {
        latency += l2.latency();
        if (!l2.lookup(vpage)) {
            latency += walkLatency;
            l2.fill(vpage);
        }
        l1.fill(vpage);
    }
    return {latency, pt.translate(vaddr)};
}

bool
TranslationUnit::prefetchTranslate(Addr vaddr, Addr &paddr)
{
    Addr vpage = pageAddr(vaddr);
    ++l2.stats.prefetchProbes;
    if (!l2.probe(vpage)) {
        ++l2.stats.prefetchProbeMisses;
        return false;
    }
    paddr = pt.translate(vaddr);
    return true;
}

void
Tlb::registerMetrics(obs::MetricsRegistry &registry,
                     const std::string &prefix)
{
    forEachStatField(stats,
                     [&](const char *name, std::uint64_t &cell) {
                         registry.counter(prefix + name, &cell);
                     });
}

void
TranslationUnit::registerMetrics(obs::MetricsRegistry &registry,
                                 const std::string &dtlb_prefix,
                                 const std::string &stlb_prefix)
{
    l1.registerMetrics(registry, dtlb_prefix);
    l2.registerMetrics(registry, stlb_prefix);
}

void
Tlb::visitState(sim::StateIO &io)
{
    io.u64(tick);
    io.fixed("entries", entries, [&io](Entry &e) {
        io.u64(e.vpage);
        io.u64(e.stamp);
    });
    io.stats("stats", stats);
}

void
TranslationUnit::visitState(sim::StateIO &io)
{
    io.section("dtlb", [&] { l1.visitState(io); });
    io.section("stlb", [&] { l2.visitState(io); });
}

} // namespace berti
