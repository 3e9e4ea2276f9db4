#include "mem/dram.hh"

#include "obs/metrics.hh"
#include "verify/fault_injector.hh"
#include "verify/sim_error.hh"

namespace berti
{

namespace
{

[[noreturn]] void
rejectField(const std::string &field, const std::string &detail)
{
    throw verify::SimError(verify::ErrorKind::Config, "DramConfig",
                           field + " " + detail);
}

} // namespace

void
DramConfig::validate() const
{
    if (banks == 0)
        rejectField("banks", "must be > 0");
    if (rqSize == 0)
        rejectField("rqSize", "must be > 0");
    if (wqSize == 0)
        rejectField("wqSize", "must be > 0");
    if (rowBytes < kLineSize || rowBytes % kLineSize != 0) {
        rejectField("rowBytes",
                    "= " + std::to_string(rowBytes) +
                        " must be a positive multiple of the " +
                        std::to_string(kLineSize) + " B line size");
    }
    if (mtps == 0)
        rejectField("mtps", "must be > 0");
    if (busBytes == 0)
        rejectField("busBytes", "must be > 0");
    if (tRp == 0)
        rejectField("tRp", "must be > 0");
    if (tRcd == 0)
        rejectField("tRcd", "must be > 0");
    if (tCas == 0)
        rejectField("tCas", "must be > 0");
    if (!(writeDrainWatermark > 0.0) || writeDrainWatermark > 1.0) {
        rejectField("writeDrainWatermark",
                    "= " + std::to_string(writeDrainWatermark) +
                        " must be in (0, 1]");
    }
    if (burstCycles() == 0) {
        rejectField("mtps/busBytes",
                    "data rate so high a 64 B burst rounds to 0 cycles "
                    "(mtps=" + std::to_string(mtps) +
                        ", busBytes=" + std::to_string(busBytes) + ")");
    }
}

Dram::Dram(const DramConfig &config, const Cycle *clock_ptr)
    : cfg(config), clock(clock_ptr), banks(cfg.banks)
{
    cfg.validate();
    // Allocation-free steady state: queue rings at their configured
    // bounds (wq is soft-capacity, so headroom), and the completion
    // heap's backing vector pre-reserved past the read-queue bound.
    rq.reserve(cfg.rqSize);
    wq.reserve(2 * static_cast<std::size_t>(cfg.wqSize) + 8);
    std::vector<Completion> backing;
    backing.reserve(cfg.rqSize + 8);
    inflight = decltype(inflight)(std::greater<Completion>(),
                                  std::move(backing));
}

Addr
Dram::rowOf(Addr p_line) const
{
    return p_line / (cfg.rowBytes / kLineSize);
}

unsigned
Dram::bankOf(Addr p_line) const
{
    // Row-interleaved banking: consecutive 4 KB rows land on different
    // banks so streams exploit bank-level parallelism.
    return static_cast<unsigned>(rowOf(p_line) % cfg.banks);
}

bool
Dram::submitRead(MemRequest req)
{
    if (rq.size() >= cfg.rqSize)
        return false;
    req.enqueueCycle = *clock;
    rq.push_back(req);
    return true;
}

void
Dram::submitWriteback(Addr p_line)
{
    // Soft capacity (see Cache::submitWriteback); drained with priority
    // once past the watermark.
    wq.push_back(p_line);
}

Cycle
Dram::accessBank(Addr p_line)
{
    Bank &bank = banks[bankOf(p_line)];
    Addr row = rowOf(p_line);

    Cycle start = std::max(*clock, bank.readyCycle);
    Cycle access;   //!< command-to-data latency
    Cycle occupy;   //!< bank busy time before the next command
    if (bank.openRow == row) {
        // Column accesses to an open row pipeline at burst rate.
        access = cfg.tCas;
        occupy = cfg.burstCycles();
        ++stats.rowHits;
    } else if (bank.openRow == kNoAddr) {
        access = cfg.tRcd + cfg.tCas;
        occupy = cfg.tRcd + cfg.burstCycles();
        ++stats.rowMisses;
    } else {
        access = cfg.tRp + cfg.tRcd + cfg.tCas;
        occupy = cfg.tRp + cfg.tRcd + cfg.burstCycles();
        ++stats.rowConflicts;
    }
    bank.openRow = row;

    Cycle data_ready = start + access;
    Cycle bus_start = std::max(data_ready, busFreeCycle);
    Cycle finish = bus_start + cfg.burstCycles();
    busFreeCycle = finish;
    bank.readyCycle = start + occupy;
    stats.busBusyCycles += cfg.burstCycles();
    return finish + cfg.linkLatency;
}

void
Dram::scheduleOne()
{
    // Hysteretic write drain: start at the high watermark, stop when
    // half-empty or a read arrives and pressure is off.
    std::size_t high =
        static_cast<std::size_t>(cfg.writeDrainWatermark * cfg.wqSize);
    if (wq.size() >= high)
        drainingWrites = true;
    if (wq.empty() || (drainingWrites && wq.size() < cfg.wqSize / 2))
        drainingWrites = false;

    bool do_write = drainingWrites || (rq.empty() && !wq.empty());
    if (do_write) {
        // FR-FCFS among writes: first row hit, else oldest.
        std::size_t pick = 0;
        for (std::size_t i = 0; i < wq.size(); ++i) {
            if (banks[bankOf(wq[i])].openRow == rowOf(wq[i])) {
                pick = i;
                break;
            }
        }
        Addr p_line = wq[pick];
        wq.erase(pick);
        accessBank(p_line);
        ++stats.writes;
        return;
    }

    if (rq.empty())
        return;

    // FR-FCFS among reads: the oldest request to an open row wins,
    // otherwise the oldest request overall. The row-hit preference is
    // unbounded: a stream of row hits may bypass the oldest read
    // indefinitely.
    std::size_t pick = 0;
    for (std::size_t i = 0; i < rq.size(); ++i) {
        if (banks[bankOf(rq[i].pLine)].openRow == rowOf(rq[i].pLine)) {
            pick = i;
            break;
        }
    }

    MemRequest req = rq[pick];
    rq.erase(pick);
    Cycle finish = accessBank(req.pLine);
    ++stats.reads;
    if (faults) {
        // Injected faults: a latency spike delays the response; a lost
        // read swallows it entirely (the requester's MSHR wedges — the
        // watchdog/auditor failure mode under test).
        if (faults->loseDramRead())
            return;
        finish += faults->extraDramLatency(req);
    }
    // Queue-to-data read latency, after any injected spike; lost reads
    // never complete, so they are deliberately not counted.
    stats.readLatencySum += finish - req.enqueueCycle;
    ++stats.readLatencyCount;
    inflight.push({finish, nextCompletionSeq++, req});
}

void
Dram::tick()
{
    while (!inflight.empty() && inflight.top().finish <= *clock) {
        MemRequest req = inflight.top().req;
        inflight.pop();
        if (req.client)
            req.client->readDone(req);
    }

    // One scheduling decision per cycle; the bus/bank timing inside
    // accessBank serialises actual service. The lookahead window lets
    // commands issue while earlier data is still in the CAS pipeline —
    // it covers a full precharge+activate+CAS plus a few bursts of bus
    // backlog, so row hits stream at burst rate.
    Cycle lookahead =
        cfg.tRp + cfg.tRcd + cfg.tCas + 4 * cfg.burstCycles();
    if (busFreeCycle <= *clock + lookahead)
        scheduleOne();
}

Cycle
Dram::nextEventCycle() const
{
    Cycle next = kNever;
    if (!inflight.empty())
        next = std::max(inflight.top().finish, *clock + 1);
    // A stale drainingWrites flag counts as pending work: scheduleOne
    // clears it even with empty queues, and skipping that tick would
    // let the hysteresis state diverge from an unskipped run.
    if (!rq.empty() || !wq.empty() || drainingWrites) {
        // The scheduler gate reopens once the bus backlog re-enters the
        // lookahead window.
        Cycle lookahead =
            cfg.tRp + cfg.tRcd + cfg.tCas + 4 * cfg.burstCycles();
        Cycle gate = busFreeCycle > lookahead ? busFreeCycle - lookahead
                                              : 0;
        next = std::min(next, std::max(gate, *clock + 1));
    }
    return next;
}

std::string
Dram::auditViolation() const
{
    if (rq.size() > cfg.rqSize) {
        return "read queue occupancy " + std::to_string(rq.size()) +
               " exceeds declared bound " + std::to_string(cfg.rqSize);
    }
    std::size_t wq_bound = 16ull * cfg.wqSize + 256;
    if (wq.size() > wq_bound) {
        return "write queue occupancy " + std::to_string(wq.size()) +
               " exceeds soft bound " + std::to_string(wq_bound);
    }
    if (banks.size() != cfg.banks)
        return "bank array size mismatch";
    return {};
}

void
Dram::visitState(sim::StateIO &io)
{
    io.tag(0xD7A30000u, "dram");
    io.stats("stats", stats);
    io.each("banks", banks, [&io](Bank &b) {
        io.u64(b.openRow);
        io.u64(b.readyCycle);
    });
    io.list("rq", rq, [&io](MemRequest &req) { io.request(req); });
    io.list("wq", wq, [&io](Addr &a) { io.u64(a); });
    io.b(drainingWrites);
    io.u64(busFreeCycle);
    io.u64(nextCompletionSeq);

    // The heap travels drained: pops come out in (finish, seq) order,
    // which is total, so the serialized layout is deterministic.
    std::vector<Completion> sorted;
    if (!io.loading()) {
        for (auto heap = inflight; !heap.empty(); heap.pop())
            sorted.push_back(heap.top());
    }
    io.list("inflight", sorted, [&io](Completion &c) {
        io.u64(c.finish);
        io.u64(c.seq);
        io.request(c.req);
    });
    if (io.loading()) {
        inflight = {};
        for (const Completion &c : sorted)
            inflight.push(c);
    }
    io.tag(0xD7A300FFu, "dram");
}

void
Dram::registerMetrics(obs::MetricsRegistry &registry,
                      const std::string &prefix)
{
    forEachStatField(stats,
                     [&](const char *name, std::uint64_t &cell) {
                         registry.counter(prefix + name, &cell);
                     });
    registry.gauge(prefix + "row_hit_rate", [this] {
        std::uint64_t accesses =
            stats.rowHits + stats.rowMisses + stats.rowConflicts;
        return accesses ? static_cast<double>(stats.rowHits) / accesses
                        : 0.0;
    });
    registry.gauge(prefix + "avg_read_latency", [this] {
        return stats.readLatencyCount
                   ? static_cast<double>(stats.readLatencySum) /
                         stats.readLatencyCount
                   : 0.0;
    });
    registry.gauge(prefix + "bus_utilization", [this] {
        return *clock ? static_cast<double>(stats.busBusyCycles) / *clock
                      : 0.0;
    });
}

} // namespace berti
