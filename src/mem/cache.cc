#include "mem/cache.hh"

#include <algorithm>

#include "core/berti.hh"
#include "obs/metrics.hh"
#include "verify/fault_injector.hh"
#include "verify/sim_error.hh"
#include "vm/tlb.hh"

namespace berti
{

namespace
{

/** Always-on structural validation; throws instead of asserting. */
void
validateCacheConfig(const CacheConfig &cfg)
{
    auto reject = [&cfg](const std::string &reason) {
        throw verify::SimError(verify::ErrorKind::Config, cfg.name,
                               reason);
    };
    if (cfg.sets == 0 || cfg.ways == 0)
        reject("cache geometry requires sets > 0 and ways > 0");
    if (cfg.mshrs == 0)
        reject("at least one MSHR is required");
    if (cfg.rqSize == 0)
        reject("read queue size must be positive");
    if (cfg.maxReadsPerCycle == 0 || cfg.maxWritesPerCycle == 0)
        reject("per-cycle read/write bandwidth must be positive");
}

} // namespace

Cache::Cache(const CacheConfig &config, const Cycle *clock_ptr)
    : cfg(config), clock(clock_ptr),
      fillLatencyHist(
          std::make_unique<obs::Histogram>(obs::Histogram::log2())),
      pf(std::make_unique<NoPrefetcher>()),
      repl(makeReplPolicy(cfg.repl, cfg.sets, cfg.ways)),
      // Filled from one blank Line: value-initialising each 24-byte
      // element field by field took twice as long (Machine set-up).
      lines(static_cast<std::size_t>(cfg.sets) * cfg.ways, Line{}),
      tags(std::make_unique_for_overwrite<Addr[]>(cfg.mshrs + lines.size())),
      mshr(cfg.mshrs)
{
    validateCacheConfig(cfg);
    pf->bind(this);
    std::fill_n(tags.get(), cfg.mshrs + lines.size(), kNoAddr);

    // Steady-state allocation-free hot path: every queue, the MSHR
    // free-list and the waiter-wake scratch are sized up front. The
    // write queue is soft-capacity (submitWriteback never refuses), so
    // it reserves headroom and only reallocates under burst pressure.
    rq.reserve(cfg.rqSize);
    pq.reserve(cfg.pqSize ? cfg.pqSize : 1);
    wq.reserve(2 * static_cast<std::size_t>(cfg.wqSize) + 8);
    mshrFree.reserve(cfg.mshrs);
    for (unsigned i = cfg.mshrs; i-- > 0;)
        mshrFree.push_back(i);
    wakeScratch.reserve(8);
    for (auto &e : mshr)
        e.waiters.reserve(8);
}

Cache::~Cache() = default;

void
Cache::setPrefetcher(std::unique_ptr<Prefetcher> prefetcher)
{
    pf = prefetcher ? std::move(prefetcher)
                    : std::make_unique<NoPrefetcher>();
    pf->bind(this);

    // Resolve the dispatch mode once: the per-access hooks then either
    // skip the call (no prefetcher) or call BertiPrefetcher (a final
    // class) directly instead of through the vtable.
    if (dynamic_cast<NoPrefetcher *>(pf.get()))
        pfDispatch = PfDispatch::None;
    else if (dynamic_cast<BertiPrefetcher *>(pf.get()))
        pfDispatch = PfDispatch::Berti;
    else
        pfDispatch = PfDispatch::Virtual;
}

void
Cache::notifyAccess(const Prefetcher::AccessInfo &info)
{
    switch (pfDispatch) {
      case PfDispatch::None:
        break;
      case PfDispatch::Berti:
        static_cast<BertiPrefetcher &>(*pf).onAccess(info);
        break;
      case PfDispatch::Virtual:
        pf->onAccess(info);
        break;
    }
}

void
Cache::notifyFill(const Prefetcher::FillInfo &info)
{
    switch (pfDispatch) {
      case PfDispatch::None:
        break;
      case PfDispatch::Berti:
        static_cast<BertiPrefetcher &>(*pf).onFill(info);
        break;
      case PfDispatch::Virtual:
        pf->onFill(info);
        break;
    }
}

void
Cache::registerMetrics(obs::MetricsRegistry &registry,
                       const std::string &prefix)
{
    forEachStatField(stats, [&registry, &prefix](const char *name,
                                                 std::uint64_t &cell) {
        registry.counter(prefix + name, &cell);
    });
    registry.gauge(prefix + "accuracy",
                   [this] { return stats.accuracy(); });
    registry.gauge(prefix + "mshr_occupancy",
                   [this] { return mshrOccupancy(); });
    registry.histogram(prefix + "fill_latency", fillLatencyHist.get());
    pf->registerMetrics(registry, prefix + "pf.");
}

void
Cache::validateWiring() const
{
    if (cfg.isL1d && !translation &&
        dynamic_cast<const NoPrefetcher *>(pf.get()) == nullptr) {
        throw verify::SimError(
            verify::ErrorKind::Config, cfg.name,
            "an L1D with a prefetcher needs a TLB to translate virtual "
            "prefetch addresses (setTranslation was never called)");
    }
    if (!lower) {
        throw verify::SimError(verify::ErrorKind::Config, cfg.name,
                               "no lower level attached (setLower was "
                               "never called)");
    }
}

std::vector<Cache::MshrView>
Cache::mshrSnapshot() const
{
    std::vector<MshrView> out;
    out.reserve(mshrUsed);
    for (const auto &e : mshr) {
        if (!e.valid)
            continue;
        MshrView v;
        v.pLine = e.pLine;
        v.isPrefetch = e.isPrefetch;
        v.hadDemand = e.hadDemand;
        v.sentBelow = e.sentBelow;
        v.age = *clock >= e.ts ? *clock - e.ts : 0;
        out.push_back(v);
    }
    return out;
}

Cache::Line *
Cache::findLine(Addr p_line)
{
    if (p_line == kNoAddr)
        return nullptr;  // the empty-way marker is never a hit
    std::size_t base = static_cast<std::size_t>(setIndex(p_line)) * cfg.ways;
    const Addr *set = lineTags() + base;
    for (unsigned w = 0; w < cfg.ways; ++w) {
        if (set[w] == p_line)
            return &lines[base + w];
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr p_line) const
{
    return const_cast<Cache *>(this)->findLine(p_line);
}

Cache::MshrEntry *
Cache::findMshr(Addr p_line)
{
    if (p_line == kNoAddr)
        return nullptr;  // the free-entry marker is never a match
    const Addr *tag = mshrTags();
    for (unsigned i = 0; i < cfg.mshrs; ++i) {
        if (tag[i] == p_line)
            return &mshr[i];
    }
    return nullptr;
}

Cache::MshrEntry *
Cache::allocMshr(Addr p_line)
{
    if (mshrFree.empty())
        return nullptr;
    unsigned idx = mshrFree.back();
    MshrEntry &e = mshr[idx];
    mshrFree.pop_back();
    // Field-wise reset instead of `e = MshrEntry{}` so the waiters
    // vector keeps its capacity across reuse (allocation-free arena).
    e.pLine = p_line;
    mshrTags()[idx] = p_line;
    e.vLine = kNoAddr;
    e.ip = 0;
    e.isPrefetch = false;
    e.hadDemand = false;
    e.wantsDirty = false;
    e.fillLevel = FillLevel::L1;
    e.ts = 0;
    e.sentBelow = false;
    e.fwd = MemRequest{};
    e.waiters.clear();
    e.valid = true;
    ++mshrUsed;
    return &e;
}

void
Cache::releaseMshr(MshrEntry *e)
{
    if (!e->sentBelow)
        --unsentMshrs;
    e->valid = false;
    --mshrUsed;
    auto idx = static_cast<unsigned>(e - mshr.data());
    mshrTags()[idx] = kNoAddr;
    mshrFree.push_back(idx);
    headParked = false;
    due = std::min(due, *clock);
}

void
Cache::releaseAndWake(MshrEntry *e)
{
    // Stage the waiters in the member scratch so waking them does not
    // allocate. Wakes never re-enter this cache's readDone (clients are
    // strictly upper levels / cores), so one scratch suffices.
    wakeScratch.swap(e->waiters);
    releaseMshr(e);
    for (auto &w : wakeScratch) {
        if (w.client)
            w.client->readDone(w);
    }
    wakeScratch.clear();
}

bool
Cache::submitRead(MemRequest req)
{
    if (rq.size() >= cfg.rqSize)
        return false;
    req.enqueueCycle = *clock;
    rq.push_back(req);
    due = std::min(due, *clock + 1);
    return true;
}

void
Cache::submitWriteback(Addr p_line)
{
    // Soft capacity: writebacks are never refused to keep the fill path
    // deadlock-free; sizes beyond wqSize only happen in short bursts.
    wq.push_back(p_line);
    due = std::min(due, *clock + 1);
}

bool
Cache::issuePrefetch(Addr line_addr, FillLevel level)
{
    MemRequest req;
    req.type = AccessType::Prefetch;
    req.fillLevel = level;
    req.enqueueCycle = *clock;

    // Deduplicate against in-flight prefetch-queue entries before even
    // translating (ChampSim merges same-address PQ inserts the same way).
    for (const auto &queued : pq) {
        if ((cfg.isL1d ? queued.vLine : queued.pLine) == line_addr)
            return true;
    }

    if (cfg.isL1d) {
        // Virtual request: translate through the STLB; drop on miss.
        req.vLine = line_addr;
        Addr paddr = 0;
        if (!translation) {
            // Mis-wired configuration: validated at machine construction
            // (validateWiring), but a hand-built Cache can still reach
            // here — fail with a typed error, never UB.
            throw verify::SimError(
                verify::ErrorKind::Config, cfg.name,
                "L1D prefetching requires a TLB (setTranslation was "
                "never called)");
        }
        if (!translation->prefetchTranslate(lineToByte(line_addr), paddr)) {
            ++stats.prefetchDroppedTlb;
            return false;
        }
        req.pLine = lineAddr(paddr);
    } else {
        req.pLine = line_addr;
    }

    if (pq.size() >= cfg.pqSize) {
        ++stats.prefetchDroppedFull;
        return false;
    }
    pq.push_back(req);
    due = std::min(due, *clock + 1);
    ++stats.prefetchIssued;

    // Classify against the access that (synchronously) triggered this
    // prefetch: a target on another 4 KB page is the cross-page regime
    // Berti's section IV-J ablates. Prefetchers that issue from tick()
    // have no live trigger and are left unclassified.
    if (trainVLine != kNoAddr &&
        (line_addr >> (kPageBits - kLineBits)) !=
            (trainVLine >> (kPageBits - kLineBits))) {
        ++stats.prefetchCrossPage;
    }
    return true;
}

double
Cache::mshrOccupancy() const
{
    return static_cast<double>(mshrUsed) / static_cast<double>(cfg.mshrs);
}

bool
Cache::fastHit(Addr p_line)
{
    Line *l = findLine(p_line);
    if (!l)
        return false;
    ++stats.demandAccesses;
    ++stats.demandHits;
    ++stats.tagReads;
    ++stats.dataReads;
    Prefetcher::AccessInfo info;
    info.pLine = p_line;
    info.vLine = l->vLine;
    info.type = AccessType::InstrFetch;
    info.hit = true;
    if (l->prefetched && !l->pfUsed) {
        l->pfUsed = true;
        ++stats.prefetchUseful;
        info.firstHitOnPrefetch = true;
    }
    repl->onHit(setIndex(p_line),
                static_cast<unsigned>((l - lines.data()) % cfg.ways));
    if (cfg.trainOnInstrFetch) {
        trainVLine = cfg.isL1d ? info.vLine : info.pLine;
        notifyAccess(info);
        trainVLine = kNoAddr;
    }
    return true;
}

bool
Cache::probe(Addr p_line) const
{
    return findLine(p_line) != nullptr;
}

bool
Cache::probeDirty(Addr p_line) const
{
    const Line *l = findLine(p_line);
    return l && l->dirty;
}

void
Cache::tick()
{
    processWrites();
    processReads();
    processPrefetches();
    retryUnsentMshrs();
    // Prefetcher tick, devirtualized like the hooks. Prefetcher::tick
    // is contractually event-driven-safe (no timed work while the cache
    // is idle — see prefetcher.hh), which is what lets nextEventCycle()
    // ignore it.
    if (pfDispatch == PfDispatch::Virtual)
        pf->tick();
    due = nextEventCycle();
}

Cycle
Cache::nextEventCycle() const
{
    // Pending writes and unsent MSHR retries are attempted every cycle.
    if (!wq.empty() || unsentMshrs > 0)
        return *clock + 1;
    Cycle next = kNever;
    // Reads/prefetches are head-of-line: only the head's maturity
    // (enqueue + lookup latency) gates progress. A parked read head is
    // mature, so it stays due next cycle like any blocked head.
    if (!rq.empty()) {
        Cycle ready = rq.front().enqueueCycle + cfg.latency;
        next = std::min(next, std::max(ready, *clock + 1));
    }
    if (!pq.empty()) {
        Cycle ready = pq.front().enqueueCycle + cfg.latency;
        next = std::min(next, std::max(ready, *clock + 1));
    }
    return next;
}

void
Cache::processWrites()
{
    for (unsigned n = 0; n < cfg.maxWritesPerCycle && !wq.empty(); ++n) {
        Addr p_line = wq.front();
        wq.pop_front();
        ++stats.tagReads;
        if (Line *l = findLine(p_line)) {
            l->dirty = true;
            ++stats.dataWrites;
            repl->onHit(setIndex(p_line),
                        static_cast<unsigned>(
                            (l - lines.data()) % cfg.ways));
        } else {
            // Non-inclusive write-allocate: the upper level evicted a
            // full dirty line, install it here without fetching below.
            fillLine(p_line, kNoAddr, true, false);
        }
    }
}

void
Cache::processReads()
{
    if (headParked)
        return;  // the head would find the MSHR file full again
    unsigned done = 0;
    while (done < cfg.maxReadsPerCycle && !rq.empty()) {
        MemRequest &req = rq.front();
        if (req.enqueueCycle + cfg.latency > *clock)
            break;  // models the tag/data lookup latency
        if (!handleRead(req))
            break;  // head-of-line blocking on MSHR/lower pressure
        rq.pop_front();
        ++done;
    }
}

void
Cache::processPrefetches()
{
    unsigned done = 0;
    while (done < cfg.maxPrefetchesPerCycle && !pq.empty()) {
        MemRequest &req = pq.front();
        if (req.enqueueCycle + cfg.latency > *clock)
            break;
        if (!handlePrefetch(req))
            break;
        pq.pop_front();
        ++done;
    }
}

bool
Cache::handleRead(MemRequest &req)
{
    // NOTE: statistics are counted only on success exits; a false
    // return re-presents the same request next cycle (head-of-line
    // blocking) and must be side-effect free.
    bool demand = isDemand(req.type);

    if (Line *l = findLine(req.pLine)) {
        // ------------------------------------------------------- hit
        ++stats.tagReads;
        unsigned way = static_cast<unsigned>((l - lines.data()) % cfg.ways);
        repl->onHit(setIndex(req.pLine), way);
        if (demand) {
            ++stats.demandAccesses;
            ++stats.demandHits;
            if (req.type == AccessType::Rfo) {
                l->dirty = true;
                ++stats.dataWrites;
            } else {
                ++stats.dataReads;
            }

            Prefetcher::AccessInfo info;
            info.vLine = l->vLine != kNoAddr ? l->vLine : req.vLine;
            info.pLine = req.pLine;
            info.ip = req.ip;
            info.type = req.type;
            info.hit = true;
            if (l->prefetched && !l->pfUsed) {
                l->pfUsed = true;
                ++stats.prefetchUseful;
                info.firstHitOnPrefetch = true;
                info.prefetchLatency = l->pfLatency;
                l->pfLatency = 0;  // reset after the training search
            }
            if (req.type == AccessType::Load ||
                req.type == AccessType::Rfo ||
                (cfg.trainOnInstrFetch &&
                 req.type == AccessType::InstrFetch)) {
                trainVLine = cfg.isL1d ? info.vLine : info.pLine;
                notifyAccess(info);
                trainVLine = kNoAddr;
            }
        } else {
            // An in-flight prefetch from above found the line here.
            ++stats.dataReads;
        }
        if (req.client)
            req.client->readDone(req);
        return true;
    }

    // ----------------------------------------------------------- miss
    if (req.type == AccessType::Prefetch &&
        static_cast<unsigned>(req.fillLevel) > cfg.level) {
        // Fill target is below this level: pass through without MSHR.
        MemRequest fwd = req;
        fwd.client = nullptr;
        if (!lower->submitRead(fwd))
            return false;
        ++stats.tagReads;
        ++stats.requestsBelow;
        return true;
    }

    if (MshrEntry *e = findMshr(req.pLine)) {
        // Merge into the outstanding miss.
        // Merges count as accesses but not as extra misses: the miss is
        // attributed once, to the MSHR-allocating access (ChampSim
        // merges same-line requests in the queues the same way).
        ++stats.tagReads;
        if (demand) {
            ++stats.demandAccesses;
            ++stats.demandMshrMerged;
            if (e->isPrefetch && !e->hadDemand) {
                ++stats.prefetchLate;
                e->ip = req.ip;
                e->vLine = req.vLine;
            }
            e->hadDemand = true;
            if (req.type == AccessType::Rfo)
                e->wantsDirty = true;
        }
        if (req.client || req.instrId)
            e->waiters.push_back(req);
        // No prefetcher hook for merges: ChampSim coalesces same-line
        // demands in the read queue, so the prefetcher observes one
        // training event per missing line, not one per load.
        return true;
    }

    MshrEntry *e = allocMshr(req.pLine);
    if (!e) {
        // Ownerless in-flight prefetches (nobody above waits on them)
        // are demoted below instead of head-of-line blocking the RQ.
        if (req.type == AccessType::Prefetch && !req.client &&
            cfg.level < 3) {
            MemRequest fwd = req;
            fwd.fillLevel = static_cast<FillLevel>(cfg.level + 1);
            if (!lower->submitRead(fwd))
                return false;
            ++stats.tagReads;
            ++stats.requestsBelow;
            return true;
        }
        // Only a release (free MSHR) or a fill (a hit) can change this
        // outcome; park the queue until releaseMshr/fillLine clears it.
        headParked = true;
        return false;
    }

    ++stats.tagReads;
    if (demand) {
        ++stats.demandAccesses;
        ++stats.demandMisses;
    }
    e->vLine = req.vLine;
    e->ip = req.ip;
    e->isPrefetch = req.type == AccessType::Prefetch;
    e->hadDemand = demand;
    e->wantsDirty = req.type == AccessType::Rfo;
    e->fillLevel = req.fillLevel;
    e->ts = e->isPrefetch ? req.enqueueCycle : *clock;
    if (req.client || req.instrId)
        e->waiters.push_back(req);

    MemRequest fwd = req;
    fwd.client = this;
    e->fwd = fwd;
    e->sentBelow = lower->submitRead(fwd);
    if (e->sentBelow)
        ++stats.requestsBelow;
    else
        ++unsentMshrs;

    if (demand && (req.type == AccessType::Load ||
                   req.type == AccessType::Rfo ||
                   (cfg.trainOnInstrFetch &&
                    req.type == AccessType::InstrFetch))) {
        Prefetcher::AccessInfo info;
        info.vLine = req.vLine;
        info.pLine = req.pLine;
        info.ip = req.ip;
        info.type = req.type;
        info.hit = false;
        trainVLine = cfg.isL1d ? info.vLine : info.pLine;
        notifyAccess(info);
        trainVLine = kNoAddr;
    }
    return true;
}

bool
Cache::handlePrefetch(MemRequest &req)
{
    if (findLine(req.pLine)) {
        ++stats.tagReads;
        return true;  // already present: drop silently
    }
    if (findMshr(req.pLine) && static_cast<unsigned>(req.fillLevel) <=
                                   cfg.level) {
        ++stats.tagReads;
        return true;  // already being fetched
    }

    if (static_cast<unsigned>(req.fillLevel) > cfg.level) {
        // e.g. Berti L2-fill prefetch issued from the L1D PQ: hand it to
        // the level below; it allocates its own MSHR there.
        MemRequest fwd = req;
        fwd.client = nullptr;
        if (!lower->submitRead(fwd))
            return false;
        ++stats.tagReads;
        ++stats.requestsBelow;
        return true;
    }

    MshrEntry *e = allocMshr(req.pLine);
    if (!e) {
        // MSHRs exhausted by demand misses. Rather than head-of-line
        // blocking the PQ behind demand pressure, demote the prefetch
        // one level (fill below instead) — the same orchestration idea
        // as Berti's MSHR-occupancy watermark.
        if (cfg.level >= 3)
            return false;
        MemRequest fwd = req;
        fwd.client = nullptr;
        fwd.fillLevel = static_cast<FillLevel>(cfg.level + 1);
        if (!lower->submitRead(fwd))
            return false;
        ++stats.tagReads;
        ++stats.requestsBelow;
        return true;
    }

    ++stats.tagReads;
    e->vLine = req.vLine;
    e->ip = req.ip;
    e->isPrefetch = true;
    e->fillLevel = req.fillLevel;
    e->ts = req.enqueueCycle;  // PQ-insert timestamp (paper section III-C)

    MemRequest fwd = req;
    fwd.client = this;
    e->fwd = fwd;
    e->sentBelow = lower->submitRead(fwd);
    if (e->sentBelow)
        ++stats.requestsBelow;
    else
        ++unsentMshrs;
    return true;
}

void
Cache::retryUnsentMshrs()
{
    if (unsentMshrs == 0)
        return;
    for (auto &e : mshr) {
        if (e.valid && !e.sentBelow) {
            e.sentBelow = lower->submitRead(e.fwd);
            if (e.sentBelow) {
                ++stats.requestsBelow;
                --unsentMshrs;
            }
        }
    }
}

Cache::Line &
Cache::fillLine(Addr p_line, Addr v_line, bool dirty, bool prefetched)
{
    unsigned set = setIndex(p_line);
    std::size_t base = static_cast<std::size_t>(set) * cfg.ways;

    headParked = false;  // the parked head may hit this line now
    due = std::min(due, *clock);

    // Prefer an invalid way.
    lastEvictedPLine = kNoAddr;
    lastEvictedUnusedPf = false;
    Addr *set_tags = lineTags() + base;
    unsigned way = cfg.ways;
    for (unsigned w = 0; w < cfg.ways; ++w) {
        if (set_tags[w] == kNoAddr) {
            way = w;
            break;
        }
    }
    if (way == cfg.ways) {
        way = repl->victim(set);
        Line &victim = lines[base + way];
        if (victim.dirty) {
            lower->submitWriteback(set_tags[way]);
            ++stats.writebacks;
        }
        lastEvictedPLine = set_tags[way];
        if (victim.prefetched && !victim.pfUsed) {
            ++stats.prefetchUseless;
            lastEvictedUnusedPf = true;
        }
    }

    Line &l = lines[base + way];
    set_tags[way] = p_line;
    l.vLine = v_line;
    l.dirty = dirty;
    l.prefetched = prefetched;
    l.pfUsed = false;
    l.pfLatency = 0;
    repl->onFill(set, way, prefetched);
    ++stats.fills;
    ++stats.tagWrites;
    ++stats.dataWrites;
    return l;
}

void
Cache::readDone(const MemRequest &req)
{
    MshrEntry *e = findMshr(req.pLine);
    if (!e)
        return;  // pass-through request; nothing waits here

    bool fill_prefetched = e->isPrefetch && !e->hadDemand;

    // Fault injection: a dropped pure-prefetch fill frees the MSHR and
    // wakes any upper-level prefetch clients without installing the
    // line — the prefetch is simply wasted. Demand fills never drop.
    if (fill_prefetched && faults && faults->dropPrefetchFill()) {
        releaseAndWake(e);
        return;
    }

    // Raw fetch latency; the consumer (e.g. Berti) applies its own
    // latency-counter width and overflow-to-zero semantics.
    Cycle latency = *clock - e->ts;
    stats.fillLatencySum += latency;
    ++stats.fillLatencyCount;
    fillLatencyHist->record(latency);

    if (Line *present = findLine(e->pLine)) {
        // The line was installed while the miss was in flight (a dirty
        // writeback from above write-allocated it). Filling again would
        // put a duplicate tag in the set — update the existing copy and
        // wake the waiters instead. The SimAuditor's duplicate-tag
        // invariant guards this path.
        present->dirty |= e->wantsDirty;
        releaseAndWake(e);
        return;
    }

    Line &l = fillLine(e->pLine, e->vLine, e->wantsDirty, fill_prefetched);
    if (e->isPrefetch) {
        ++stats.prefetchFills;
        if (e->hadDemand)
            ++stats.prefetchUseful;  // late but useful
        else
            l.pfLatency = latency;   // kept for hit-time training
    }

    Prefetcher::FillInfo info;
    info.vLine = e->vLine;
    info.pLine = e->pLine;
    info.ip = e->ip;
    info.byPrefetch = e->isPrefetch;
    info.hadDemandWaiter = e->hadDemand;
    info.latency = latency;
    info.evictedPLine = lastEvictedPLine;
    info.evictedUnusedPrefetch = lastEvictedUnusedPf;
    notifyFill(info);

    // Wake every waiter (cores and upper caches).
    releaseAndWake(e);
}

// ---------------------------------------------------------------------
// Checkpointing. Transient per-call scratch (trainVLine, the
// lastEvicted* pair, wakeScratch) is dead between ticks and deliberately
// not serialized. Neither is the derived scheduling state (due,
// headParked): its defaults make a restored cache tick and retry its
// read head once. Freed MSHR entries keep stale field junk at runtime,
// so only valid entries are written; a resume target is pristine, so
// the omitted entries are already default on load — that keeps
// save -> load -> save byte-identical.

void
Cache::visitState(sim::StateIO &io)
{
    io.tag(0xCAC4E000u, cfg.name.c_str());
    io.stats("stats", stats);

    // The blob keeps a pLine and a valid bit per line. Both are read
    // from, and restore, the line's lineTags() entry; a load rejects a
    // pair that disagrees, which would not re-save byte-identically.
    io.each("lines", lines, [&](Line &l) {
        Addr &tag = lineTags()[&l - lines.data()];
        Addr p_line = tag;
        bool valid = tag != kNoAddr;
        io.u64(p_line);
        io.u64(l.vLine);
        io.b(valid);
        if (valid != (p_line != kNoAddr))
            io.fail("line tag and valid bit disagree in " + cfg.name);
        tag = p_line;
        io.b(l.dirty);
        io.b(l.prefetched);
        io.b(l.pfUsed);
        io.u64(l.pfLatency);
    });

    io.fixed("mshr", mshr, [&](MshrEntry &e) {
        io.b(e.valid);
        if (!e.valid)
            return;  // a resume target's entry and tag are already free
        io.u64(e.pLine);
        mshrTags()[&e - mshr.data()] = e.pLine;
        io.u64(e.vLine);
        io.u64(e.ip);
        io.b(e.isPrefetch);
        io.b(e.hadDemand);
        io.b(e.wantsDirty);
        io.u8(e.fillLevel);
        io.u64(e.ts);
        io.b(e.sentBelow);
        io.request(e.fwd);
        io.list("waiters", e.waiters,
                [&io](MemRequest &req) { io.request(req); });
    });
    io.list("mshr_free", mshrFree, [&io](unsigned &idx) { io.u32(idx); });
    if (mshrFree.size() > mshr.size() ||
        std::any_of(mshrFree.begin(), mshrFree.end(),
                    [this](unsigned idx) { return idx >= mshr.size(); }))
        io.fail("MSHR free-list does not fit the MSHR file of " + cfg.name);
    io.u32(mshrUsed);
    io.u32(unsentMshrs);

    io.list("rq", rq, [&io](MemRequest &req) { io.request(req); });
    io.list("pq", pq, [&io](MemRequest &req) { io.request(req); });
    io.list("wq", wq, [&io](Addr &a) { io.u64(a); });

    io.section("repl", [&] { repl->visitState(io); });
    io.section("fill_latency", [&] { fillLatencyHist->visitState(io); });
    io.tag(0xCAC4EBF0u, cfg.name.c_str());
    io.section("pf", [&] { io.bridge(*pf); });
    io.tag(0xCAC4E0FFu, cfg.name.c_str());
}

} // namespace berti
