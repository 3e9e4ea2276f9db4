/**
 * @file
 * Host-time probes for the benchmark's traced runs. Three timing
 * wrappers sit at layer boundaries the simulator already exposes:
 *
 *   - TimedGen around the TraceGenerator handed to the Machine (trace);
 *   - TimedPrefetcher, installed with prefetch::decorate, around the
 *     L1D prefetcher (prefetch);
 *   - TimedBackend, installed through MachineConfig::memBackendHook,
 *     around mem::makeMemBackend (mem.dram).
 *
 * Each wrapper reports to one Probe, owned by the cell being simulated
 * and used from one thread only. The Probe keeps a stack of open calls
 * so a layer's self time excludes the wrapped calls nested inside it
 * (a DRAM tick delivers fills that reach the prefetcher's onFill).
 * Calls are timed only while a Machine::run is in progress, so the
 * generator replay inside a checkpoint restore is not billed to trace.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mem/backend.hh"
#include "prefetch/prefetcher.hh"
#include "trace/instr.hh"

namespace perfbench
{

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Wrapped call sites, one self-time bucket each. */
enum Layer : unsigned
{
    TraceNext,
    PfAccess,
    PfFill,
    DramTick,
    DramSubmit,
    kLayers
};

/** One recorded span: layer, owning cell, start, end, parent index. */
struct Span
{
    std::string layer;
    std::string cell;
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1;  //!< index into the same cell's spans, -1 = root
};

class Probe
{
  public:
    explicit Probe(std::string cell_id) : cell(std::move(cell_id)) {}

    /** True while Machine::run executes; wrappers time only then. */
    bool active = false;

    std::uint64_t calls[kLayers] = {};
    std::int64_t selfNs[kLayers] = {};
    std::uint64_t nextEventCalls = 0;

    std::string cell;
    std::vector<Span> spans;

    std::int64_t
    enter()
    {
        childNs.push_back(0);
        return nowNs();
    }

    void
    leave(Layer layer, std::int64_t start)
    {
        std::int64_t dur = nowNs() - start;
        std::int64_t child = childNs.back();
        childNs.pop_back();
        selfNs[layer] += dur - child;
        ++calls[layer];
        if (!childNs.empty())
            childNs.back() += dur;
    }

    /** Open a cell-level span; returns its index for closeSpan(). */
    int
    openSpan(const char *layer, int parent)
    {
        spans.push_back({layer, cell, nowNs(), 0, parent});
        return static_cast<int>(spans.size()) - 1;
    }

    /** Close a span and return its duration in nanoseconds. */
    std::int64_t
    closeSpan(int index)
    {
        spans[index].end = nowNs();
        return spans[index].end - spans[index].start;
    }

  private:
    std::vector<std::int64_t> childNs;
};

/**
 * What timing one wrapped call costs, measured on an empty body:
 * `fullNs` is the whole enter/leave pair, which the enclosing
 * Machine::run pays; `inNs` is the part that lands inside the measured
 * interval, which the call's own self time includes. Subtracting them
 * keeps cheap calls (a generator step, a DRAM tick) from being mostly
 * clock reads.
 */
struct TimerCost
{
    double fullNs = 0.0;
    double inNs = 0.0;
};

inline TimerCost
calibrateTimer()
{
    constexpr int kCalls = 200000;
    std::vector<TimerCost> reps;
    for (int r = 0; r < 5; ++r) {
        Probe p("timer-calibration");
        std::int64_t t0 = nowNs();
        for (int i = 0; i < kCalls; ++i)
            p.leave(TraceNext, p.enter());
        double full = static_cast<double>(nowNs() - t0) / kCalls;
        reps.push_back({full, static_cast<double>(p.selfNs[TraceNext]) /
                                  kCalls});
    }
    std::sort(reps.begin(), reps.end(),
              [](const TimerCost &a, const TimerCost &b) {
                  return a.fullNs < b.fullNs;
              });
    return reps[reps.size() / 2];
}

class TimedGen : public berti::TraceGenerator
{
  public:
    TimedGen(std::unique_ptr<berti::TraceGenerator> inner_gen, Probe *p)
        : inner(std::move(inner_gen)), probe(p)
    {}

    berti::TraceInstr
    next() override
    {
        if (!probe->active)
            return inner->next();
        std::int64_t t = probe->enter();
        berti::TraceInstr instr = inner->next();
        probe->leave(TraceNext, t);
        return instr;
    }

  private:
    std::unique_ptr<berti::TraceGenerator> inner;
    Probe *probe;
};

/**
 * Timing decorator for an L1D prefetcher. Like oracle::TeePrefetcher it
 * interposes on the issue port and binds the inner prefetcher lazily;
 * tick, metrics registration and the checkpoint hooks pass straight
 * through, and name() is the inner name so checkpoint fingerprints of
 * wrapped and unwrapped machines agree.
 */
class TimedPrefetcher : public berti::Prefetcher, public berti::PrefetchPort
{
  public:
    TimedPrefetcher(std::unique_ptr<berti::Prefetcher> inner_pf, Probe *p)
        : inner(std::move(inner_pf)), probe(p)
    {}

    void
    onAccess(const AccessInfo &info) override
    {
        bindInner();
        if (!probe->active)
            return inner->onAccess(info);
        std::int64_t t = probe->enter();
        inner->onAccess(info);
        probe->leave(PfAccess, t);
    }

    void
    onFill(const FillInfo &info) override
    {
        bindInner();
        if (!probe->active)
            return inner->onFill(info);
        std::int64_t t = probe->enter();
        inner->onFill(info);
        probe->leave(PfFill, t);
    }

    void
    tick() override
    {
        bindInner();
        inner->tick();
    }

    std::uint64_t storageBits() const override
    {
        return inner->storageBits();
    }
    std::string name() const override { return inner->name(); }
    std::string debugState() const override { return inner->debugState(); }

    void
    registerMetrics(berti::obs::MetricsRegistry &registry,
                    const std::string &prefix) override
    {
        inner->registerMetrics(registry, prefix);
    }

    bool checkpointSupported() const override
    {
        return inner->checkpointSupported();
    }
    void saveState(berti::sim::ByteWriter &w) const override
    {
        inner->saveState(w);
    }
    void
    loadState(berti::sim::ByteReader &r) override
    {
        bindInner();
        inner->loadState(r);
    }

    bool
    issuePrefetch(berti::Addr line_addr, berti::FillLevel level) override
    {
        return port->issuePrefetch(line_addr, level);
    }
    double mshrOccupancy() const override { return port->mshrOccupancy(); }
    berti::Cycle now() const override { return port->now(); }

  private:
    /** Prefetcher::bind is non-virtual, so the inner prefetcher is
     *  pointed at this port on the first hook call. */
    void
    bindInner()
    {
        if (!innerBound) {
            inner->bind(this);
            innerBound = true;
        }
    }

    std::unique_ptr<berti::Prefetcher> inner;
    Probe *probe;
    bool innerBound = false;
};

/** Timing wrapper for the memory backend below the LLC. */
class TimedBackend : public berti::mem::MemBackend
{
  public:
    TimedBackend(std::unique_ptr<berti::mem::MemBackend> inner_be, Probe *p)
        : inner(std::move(inner_be)), probe(p)
    {}

    bool
    submitRead(berti::MemRequest req) override
    {
        if (!probe->active)
            return inner->submitRead(req);
        std::int64_t t = probe->enter();
        bool ok = inner->submitRead(req);
        probe->leave(DramSubmit, t);
        return ok;
    }

    void
    submitWriteback(berti::Addr p_line) override
    {
        if (!probe->active)
            return inner->submitWriteback(p_line);
        std::int64_t t = probe->enter();
        inner->submitWriteback(p_line);
        probe->leave(DramSubmit, t);
    }

    void
    tick() override
    {
        if (!probe->active)
            return inner->tick();
        std::int64_t t = probe->enter();
        inner->tick();
        probe->leave(DramTick, t);
    }

    berti::Cycle
    nextEventCycle() const override
    {
        if (probe->active)
            ++probe->nextEventCalls;
        return inner->nextEventCycle();
    }

    berti::DramStats statsSnapshot() const override
    {
        return inner->statsSnapshot();
    }
    std::size_t pendingReads() const override
    {
        return inner->pendingReads();
    }
    std::size_t rqOccupancy() const override { return inner->rqOccupancy(); }
    std::size_t wqOccupancy() const override { return inner->wqOccupancy(); }
    void setFaultInjector(berti::verify::FaultInjector *injector) override
    {
        inner->setFaultInjector(injector);
    }
    void
    registerMetrics(berti::obs::MetricsRegistry &registry,
                    const std::string &prefix) override
    {
        inner->registerMetrics(registry, prefix);
    }
    void
    saveState(berti::sim::ByteWriter &w,
              const berti::sim::PtrMap &clients) const override
    {
        inner->saveState(w, clients);
    }
    void
    loadState(berti::sim::ByteReader &r,
              const berti::sim::PtrMap &clients) override
    {
        inner->loadState(r, clients);
    }
    bool checkpointSupported() const override
    {
        return inner->checkpointSupported();
    }
    std::string auditViolation() const override
    {
        return inner->auditViolation();
    }
    std::string name() const override { return inner->name(); }

  private:
    std::unique_ptr<berti::mem::MemBackend> inner;
    Probe *probe;
};

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
