#include "cpu/core.hh"

#include "obs/metrics.hh"
#include "sim/serialize.hh"

namespace berti
{

Core::Core(const CoreConfig &config, const Cycle *clock_ptr,
           unsigned core_id, TraceGenerator *generator, Cache *l1i_cache,
           Cache *l1d_cache, TranslationUnit *tu)
    : cfg(config), clock(clock_ptr), coreId(core_id), gen(generator),
      l1i(l1i_cache), l1d(l1d_cache), translation(tu), branch(cfg.branch),
      itlb(16, 4, 1)
{
    // Allocation-free steady state: structural bounds are known up
    // front. pendingAccesses can transiently exceed the ROB (stores
    // survive retirement until issued), so it gets headroom and the
    // ring only grows under extreme store backpressure.
    rob.reserve(cfg.robSize);
    fetchBuffer.reserve(cfg.fetchBufferSize);
    pendingAccesses.reserve(2 * static_cast<std::size_t>(cfg.robSize));
    outstandingLoads.reserve(cfg.robSize);
}

void
Core::tick()
{
    ++stats.cycles;
    retire();
    issueMemory();
    dispatch();
    fetch();
}

void
Core::retire()
{
    for (unsigned n = 0; n < cfg.retireWidth && !rob.empty(); ++n) {
        if (!rob.front().done)
            break;
        rob.pop_front();
        ++stats.instructions;
    }
}

void
Core::dispatch()
{
    for (unsigned n = 0; n < cfg.dispatchWidth; ++n) {
        if (fetchBuffer.empty() || robFull())
            return;
        FetchedInstr &fi = fetchBuffer.front();
        const TraceInstr &in = fi.instr;

        // Address dependence: a pointer-chasing load cannot compute its
        // address until the producing load completes.
        if (fi.depLoadId && outstandingLoads.count(fi.depLoadId))
            return;

        RobEntry entry;
        entry.id = fi.id;
        entry.done = true;

        if (in.isLoad()) {
            ++stats.loads;
            auto queueLoad = [&](Addr vaddr) {
                auto tr = translation->translate(vaddr);
                MemRequest req;
                req.vLine = lineAddr(vaddr);
                req.pLine = lineAddr(tr.paddr);
                req.ip = in.ip;
                req.type = AccessType::Load;
                req.coreId = coreId;
                req.instrId = fi.id;
                req.client = this;
                pendingAccesses.push_back({req, *clock + tr.latency,
                                           false});
                ++entry.pendingLoads;
            };
            queueLoad(in.load0);
            if (in.load1 != kNoAddr)
                queueLoad(in.load1);
            entry.done = false;
            outstandingLoads.insert(fi.id);
        }
        if (in.isStore()) {
            ++stats.stores;
            auto tr = translation->translate(in.store);
            MemRequest req;
            req.vLine = lineAddr(in.store);
            req.pLine = lineAddr(tr.paddr);
            req.ip = in.ip;
            req.type = AccessType::Rfo;
            req.coreId = coreId;
            req.client = nullptr;  // stores complete post-retirement
            pendingAccesses.push_back({req, *clock + tr.latency, true});
        }

        rob.push_back(entry);
        fetchBuffer.pop_front();
    }
}

void
Core::issueMemory()
{
    unsigned loads = 0;
    unsigned stores = 0;
    for (std::size_t i = 0; i < pendingAccesses.size();) {
        if (loads >= cfg.maxLoadsPerCycle && stores >= cfg.maxStoresPerCycle)
            break;
        PendingAccess &a = pendingAccesses[i];
        if (a.readyCycle > *clock) {
            ++i;
            continue;
        }
        unsigned &count = a.isStore ? stores : loads;
        unsigned limit =
            a.isStore ? cfg.maxStoresPerCycle : cfg.maxLoadsPerCycle;
        if (count >= limit) {
            ++i;
            continue;
        }
        if (!l1d->submitRead(a.req))
            break;  // L1D read queue full: try again next cycle
        ++count;
        pendingAccesses.erase(i);
    }
}

void
Core::fetch()
{
    if (fetchStallUntil > *clock || fetchLinePending)
        return;

    for (unsigned n = 0; n < cfg.fetchWidth; ++n) {
        if (fetchBuffer.size() >= cfg.fetchBufferSize)
            return;

        TraceInstr in = gen->next();

        // Instruction-cache gate: a new instruction line must be present
        // in the L1I before the instruction can enter the fetch buffer.
        Addr v_line = lineAddr(in.ip);
        if (v_line != fetchLine) {
            Addr paddr = translation->pageTable().translate(in.ip);
            if (!itlb.lookup(pageAddr(in.ip))) {
                itlb.fill(pageAddr(in.ip));
                fetchStallUntil = *clock + cfg.itlbMissLatency;
            }
            Addr p_line = lineAddr(paddr);
            fetchLine = v_line;
            if (!l1i->fastHit(p_line)) {
                MemRequest req;
                req.vLine = v_line;
                req.pLine = p_line;
                req.ip = in.ip;
                req.type = AccessType::InstrFetch;
                req.coreId = coreId;
                req.client = this;
                if (l1i->submitRead(req))
                    fetchLinePending = true;
                else
                    fetchLine = kNoAddr;  // retry next cycle
                // The instruction itself still enters the buffer below;
                // subsequent fetches wait for the fill.
            }
        }

        FetchedInstr fi;
        fi.instr = in;
        fi.id = nextInstrId++;
        if (in.dependsOnPrevLoad)
            fi.depLoadId = lastLoadId;
        if (in.isLoad())
            lastLoadId = fi.id;
        fetchBuffer.push_back(fi);

        if (in.isBranch) {
            ++stats.branches;
            bool predicted = branch.predict(in.ip);
            branch.update(in.ip, in.taken);
            if (predicted != in.taken) {
                ++stats.mispredicts;
                // Redirect after resolve: stall the front-end.
                fetchStallUntil = *clock + cfg.mispredictPenalty;
                return;
            }
        }
        if (fetchLinePending)
            return;
    }
}

Cycle
Core::nextEventCycle() const
{
    Cycle next = kNever;

    // Retirement: the head completing is an external event (readDone);
    // an already-done head retires next tick.
    if (robHeadDone())
        return *clock + 1;

    // Memory issue: any translated access that is (or becomes) ready.
    for (const PendingAccess &a : pendingAccesses)
        next = std::min(next, std::max(a.readyCycle, *clock + 1));

    // Dispatch: possible next tick unless the ROB is full (unblocked by
    // retirement, handled above) or the head waits on an outstanding
    // load (unblocked by readDone, an external event).
    if (!fetchBuffer.empty() && !robFull()) {
        const FetchedInstr &fi = fetchBuffer.front();
        if (!(fi.depLoadId && outstandingLoads.count(fi.depLoadId)))
            next = std::min(next, *clock + 1);
    }

    // Fetch: generators never run dry, so an unblocked front-end with
    // buffer space always has work — at the stall horizon if redirect /
    // iTLB penalties are pending, next tick otherwise. An L1I miss in
    // flight (fetchLinePending) is an external event.
    if (!fetchLinePending && fetchBuffer.size() < cfg.fetchBufferSize)
        next = std::min(next, std::max(fetchStallUntil, *clock + 1));

    return next;
}

void
Core::readDone(const MemRequest &req)
{
    if (req.type == AccessType::InstrFetch) {
        fetchLinePending = false;
        return;
    }

    // Load completion. ROB ids are consecutive (dispatch pushes fetch
    // order, and the auditor checks it), so the entry sits at a fixed
    // offset from the head.
    if (rob.empty() || req.instrId < rob.front().id)
        return;
    std::uint64_t slot = req.instrId - rob.front().id;
    if (slot >= rob.size())
        return;
    RobEntry &e = rob[slot];
    if (e.pendingLoads > 0)
        --e.pendingLoads;
    if (e.pendingLoads == 0) {
        e.done = true;
        outstandingLoads.erase(e.id);
    }
}

void
Core::registerMetrics(obs::MetricsRegistry &registry,
                      const std::string &prefix)
{
    forEachStatField(stats,
                     [&](const char *name, std::uint64_t &cell) {
                         registry.counter(prefix + name, &cell);
                     });
    registry.gauge(prefix + "ipc", [this] { return stats.ipc(); });
    itlb.registerMetrics(registry, prefix + "itlb.");
}

void
Core::visitState(sim::StateIO &io)
{
    io.tag(0xC03E0000u + coreId, "core");
    io.stats("stats", stats);
    io.section("branch", [&] { branch.visitState(io); });
    io.section("itlb", [&] { itlb.visitState(io); });

    io.list("rob", rob, [&io](RobEntry &e) {
        io.u64(e.id);
        io.b(e.done);
        io.u8(e.pendingLoads);
    });
    io.list("fetch_buffer", fetchBuffer, [&io](FetchedInstr &f) {
        io.u64(f.instr.ip);
        io.u64(f.instr.load0);
        io.u64(f.instr.load1);
        io.u64(f.instr.store);
        io.b(f.instr.isBranch);
        io.b(f.instr.taken);
        io.b(f.instr.dependsOnPrevLoad);
        io.u64(f.id);
        io.u64(f.depLoadId);
    });
    io.list("pending", pendingAccesses, [&io](PendingAccess &p) {
        io.request(p.req);
        io.u64(p.readyCycle);
        io.b(p.isStore);
    });
    std::vector<std::uint64_t> loads = outstandingLoads.raw();
    io.list("outstanding_loads", loads,
            [&io](std::uint64_t &id) { io.u64(id); });
    if (io.loading())
        outstandingLoads.assign(std::move(loads));

    io.u64(nextInstrId);
    io.u64(lastLoadId);
    io.u64(fetchStallUntil);
    io.u64(fetchLine);
    io.b(fetchLinePending);
    io.tag(0xC03E00FFu, "core");
}

} // namespace berti
