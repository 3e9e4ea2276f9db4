#include "verify/auditor.hh"

#include <cstdlib>

#include "cpu/core.hh"
#include "mem/backend.hh"
#include "mem/cache.hh"
#include "sim/options.hh"
#include "vm/tlb.hh"

namespace berti::verify
{

AuditConfig
AuditConfig::fromEnv()
{
    return fromOptions(sim::SimOptions::fromEnv());
}

AuditConfig
AuditConfig::fromOptions(const sim::SimOptions &opt)
{
    AuditConfig cfg;
    cfg.enabled = opt.verify;
    cfg.interval = opt.verifyInterval;
    return cfg;
}

SimAuditor::SimAuditor(const AuditConfig &config, const Cycle *clock_ptr)
    : cfg(config), clock(clock_ptr)
{}

void
SimAuditor::attach(const Cache *cache)
{
    caches.push_back(cache);
}

void
SimAuditor::attach(const mem::MemBackend *backend)
{
    backends.push_back(backend);
}

void
SimAuditor::attach(const Core *core)
{
    cores.push_back(core);
}

void
SimAuditor::attach(const TranslationUnit *tu)
{
    tus.push_back(tu);
}

void
SimAuditor::tick()
{
    if (*clock - lastCheck < cfg.interval)
        return;
    lastCheck = *clock;
    checkNow();
}

void
SimAuditor::checkNow() const
{
    ++checks;
    for (const Cache *c : caches)
        checkCache(*c);
    for (const mem::MemBackend *b : backends)
        checkMemBackend(*b);
    for (const Core *c : cores)
        checkCore(*c);
    for (const TranslationUnit *t : tus)
        checkTranslation(*t);
}

void
SimAuditor::fail(const std::string &component,
                 const std::string &reason) const
{
    throw SimError(ErrorKind::Invariant, component, reason, {}, 0,
                   "cycle " + std::to_string(*clock));
}

void
SimAuditor::checkCache(const Cache &cache) const
{
    const CacheConfig &ccfg = cache.cfg;
    const std::string &name = ccfg.name;

    // ------------------------------------------------ MSHR bookkeeping
    unsigned valid = 0;
    unsigned unsent = 0;
    for (const auto &e : cache.mshr) {
        if (!e.valid)
            continue;
        ++valid;
        if (!e.sentBelow)
            ++unsent;
        if (e.pLine == kNoAddr)
            fail(name, "valid MSHR entry with no line address");
        Cycle age = *clock >= e.ts ? *clock - e.ts : 0;
        if (age > cfg.mshrLeakCycles) {
            fail(name,
                 "leaked MSHR entry: line " + std::to_string(e.pLine) +
                     (e.isPrefetch ? " (prefetch)" : " (demand)") +
                     " outstanding for " + std::to_string(age) +
                     " cycles (timestamp bookkeeping would corrupt "
                     "Berti's latency measurement)");
        }
    }
    if (valid != cache.mshrUsed) {
        fail(name, "MSHR in-use count " +
                       std::to_string(cache.mshrUsed) + " != " +
                       std::to_string(valid) + " valid entries");
    }

    // -------------------------------------------- MSHR arena free-list
    // The free-list and the valid bits must partition the arena: a live
    // entry on the free-list would be recycled while a response is
    // still in flight.
    if (cache.mshrFree.size() != ccfg.mshrs - cache.mshrUsed) {
        fail(name, "MSHR free-list holds " +
                       std::to_string(cache.mshrFree.size()) +
                       " entries; expected " +
                       std::to_string(ccfg.mshrs - cache.mshrUsed));
    }
    for (unsigned idx : cache.mshrFree) {
        if (idx >= ccfg.mshrs)
            fail(name, "MSHR free-list index " + std::to_string(idx) +
                           " out of range");
        if (cache.mshr[idx].valid)
            fail(name, "live MSHR entry " + std::to_string(idx) +
                           " present on the free-list (would be "
                           "recycled under an in-flight response)");
    }
    if (cache.unsentMshrs != unsent)
        fail(name, "unsent-MSHR count " +
                       std::to_string(cache.unsentMshrs) + " != " +
                       std::to_string(unsent) +
                       " valid entries awaiting a lower-level slot "
                       "(retry scheduling would stall or spin)");

    // ---------------------------------------- derived tick scheduling
    // A due cycle later than the next event would skip a tick that has
    // work; a head parked with a free MSHR would never be retried.
    if (cache.due > cache.nextEventCycle())
        fail(name, "cached due cycle " + std::to_string(cache.due) +
                       " is later than the next event at cycle " +
                       std::to_string(cache.nextEventCycle()) +
                       " (an input did not pull it in)");
    if (cache.headParked && (cache.rq.empty() || !cache.mshrFree.empty()))
        fail(name, "read-queue head parked with an empty RQ or a free "
                   "MSHR (no release or fill will retry it)");

    // ------------------------------------------------- queue occupancy
    if (cache.rq.size() > ccfg.rqSize)
        fail(name, "RQ occupancy " + std::to_string(cache.rq.size()) +
                       " exceeds declared bound " +
                       std::to_string(ccfg.rqSize));
    if (cache.pq.size() > ccfg.pqSize)
        fail(name, "PQ occupancy " + std::to_string(cache.pq.size()) +
                       " exceeds declared bound " +
                       std::to_string(ccfg.pqSize));
    // The WQ is soft-capacity by design (fills must never deadlock), so
    // its declared bound is a burst multiple of the configured size.
    std::size_t wq_bound = 16ull * ccfg.wqSize + 256;
    if (cache.wq.size() > wq_bound)
        fail(name, "WQ occupancy " + std::to_string(cache.wq.size()) +
                       " exceeds soft bound " + std::to_string(wq_bound));

    // ------------------------------------------- tag-array consistency
    for (unsigned set = 0; set < ccfg.sets; ++set) {
        std::size_t base = static_cast<std::size_t>(set) * ccfg.ways;
        for (unsigned w = 0; w < ccfg.ways; ++w) {
            const auto &line = cache.lines[base + w];
            if (!line.valid)
                continue;
            if (line.pLine == kNoAddr)
                fail(name, "valid line with no address in set " +
                               std::to_string(set));
            if (cache.setIndex(line.pLine) != set)
                fail(name, "line " + std::to_string(line.pLine) +
                               " stored in foreign set " +
                               std::to_string(set));
            for (unsigned w2 = w + 1; w2 < ccfg.ways; ++w2) {
                const auto &other = cache.lines[base + w2];
                if (other.valid && other.pLine == line.pLine)
                    fail(name, "duplicate tag " +
                                   std::to_string(line.pLine) +
                                   " in set " + std::to_string(set));
            }
        }
    }

    // ----------------------------------------------------- stats algebra
    const CacheStats &s = cache.stats;
    if (s.demandAccesses !=
        s.demandHits + s.demandMisses + s.demandMshrMerged) {
        fail(name, "stats algebra broken: accesses " +
                       std::to_string(s.demandAccesses) +
                       " != hits + misses + merges");
    }
}

void
SimAuditor::checkMemBackend(const mem::MemBackend &backend) const
{
    // The backend owns its invariants (queue bounds, geometry
    // consistency); the hook returns "" while they hold.
    std::string violation = backend.auditViolation();
    if (!violation.empty())
        fail(backend.name(), violation);
}

void
SimAuditor::checkCore(const Core &core) const
{
    std::string name = "core" + std::to_string(core.coreId);
    if (core.rob.size() > core.cfg.robSize)
        fail(name, "ROB occupancy " + std::to_string(core.rob.size()) +
                       " exceeds declared bound " +
                       std::to_string(core.cfg.robSize));
    if (core.fetchBuffer.size() > core.cfg.fetchBufferSize)
        fail(name, "fetch buffer occupancy " +
                       std::to_string(core.fetchBuffer.size()) +
                       " exceeds declared bound " +
                       std::to_string(core.cfg.fetchBufferSize));

    std::uint64_t last_id = 0;
    std::uint64_t pending_entries = 0;
    for (const auto &e : core.rob) {
        if (e.id <= last_id)
            fail(name, "ROB ids not strictly increasing");
        last_id = e.id;
        if (!e.done && e.pendingLoads == 0)
            fail(name, "ROB entry " + std::to_string(e.id) +
                           " incomplete with no pending loads");
        if (e.pendingLoads > 0) {
            ++pending_entries;
            if (!core.outstandingLoads.count(e.id))
                fail(name, "ROB entry " + std::to_string(e.id) +
                               " has pending loads but is missing from "
                               "the outstanding-load set");
        }
    }
    if (core.outstandingLoads.size() != pending_entries)
        fail(name, "outstanding-load set holds " +
                       std::to_string(core.outstandingLoads.size()) +
                       " ids but the ROB has " +
                       std::to_string(pending_entries) +
                       " load-pending entries (leaked id)");
}

void
SimAuditor::checkTlb(const Tlb &tlb, const TranslationUnit &tu,
                     const std::string &label) const
{
    for (unsigned set = 0; set < tlb.sets; ++set) {
        std::size_t base = static_cast<std::size_t>(set) * tlb.ways;
        for (unsigned w = 0; w < tlb.ways; ++w) {
            Addr vpage = tlb.entries[base + w].vpage;
            if (vpage == kNoAddr)
                continue;
            if (tlb.index(vpage) != set)
                fail(label, "page " + std::to_string(vpage) +
                                " cached in foreign set " +
                                std::to_string(set));
            for (unsigned w2 = w + 1; w2 < tlb.ways; ++w2) {
                if (tlb.entries[base + w2].vpage == vpage)
                    fail(label, "duplicate page " +
                                    std::to_string(vpage) + " in set " +
                                    std::to_string(set));
            }
            // Agree with the page table: the mapping must be stable and
            // inside the 40-bit physical page domain.
            Addr ppage = tu.pageTable().translatePage(vpage);
            if (ppage != tu.pageTable().translatePage(vpage))
                fail(label, "page table translation unstable for page " +
                                std::to_string(vpage));
            if (ppage >> 40 != 0)
                fail(label, "translation of page " +
                                std::to_string(vpage) +
                                " escapes the physical domain");
        }
    }
}

void
SimAuditor::checkTranslation(const TranslationUnit &tu) const
{
    checkTlb(tu.dtlb(), tu, "dTLB");
    checkTlb(tu.stlb(), tu, "STLB");
}

} // namespace berti::verify
