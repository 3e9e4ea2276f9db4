/**
 * @file
 * DRAM controller + device timing model: FR-FCFS scheduling (the
 * paper's Table II controller), per-bank open-page row buffers, read
 * priority with a write-drain watermark, and a shared data bus whose
 * burst time is derived from the configured MTPS and bus width (so the
 * DDR4/DDR5/LPDDR5/HBM presets of mem/backend_registry.hh — and
 * Figures 16-17's speed sweep — are config knobs on one model). One
 * Dram is one channel; the MultiChannelDram backend
 * (mem/multichannel.hh) composes several.
 */

#ifndef BERTI_MEM_DRAM_HH
#define BERTI_MEM_DRAM_HH

#include <queue>
#include <vector>

#include "mem/backend.hh"
#include "mem/cache.hh"
#include "mem/request.hh"
#include "sim/ring.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace berti
{

namespace verify
{
class FaultInjector;
} // namespace verify

struct DramConfig
{
    unsigned banks = 16;
    unsigned rqSize = 64;
    unsigned wqSize = 64;
    unsigned rowBytes = 4096;     //!< row-buffer size per bank
    Cycle tRp = 50;               //!< 12.5 ns at 4 GHz
    Cycle tRcd = 50;
    Cycle tCas = 50;
    unsigned mtps = 6400;         //!< mega-transfers/s on the data bus
    unsigned busBytes = 8;        //!< data bus width in bytes
    double writeDrainWatermark = 7.0 / 8.0;

    /**
     * Off-chip round-trip overhead (controller front-end, PHY, on-die
     * interconnect) added to the data-return path. Calibrated so the
     * average L1D fill latency lands near the paper's reported 278
     * cycles (section IV-A) — without it, a dependency-free trace's ROB
     * hides DRAM entirely and prefetching has nothing to gain.
     */
    Cycle linkLatency = 120;

    /** Core cycles the bus is busy transferring one 64 B line. */
    Cycle
    burstCycles() const
    {
        // bytes/s = mtps * 1e6 * busBytes; cycles = 64 B / rate * 4 GHz.
        return static_cast<Cycle>(
            64ull * 4000 /
            (static_cast<unsigned long long>(busBytes) * mtps));
    }

    /**
     * Reject degenerate geometry/timing at construction: throws
     * verify::SimError(ErrorKind::Config) naming the bad field (zero
     * banks/queues/mtps/busBytes, a row smaller than or not a multiple
     * of the line size, zero activate/CAS timings, an out-of-range
     * write-drain watermark, or a data rate so high the 64 B burst
     * rounds to zero cycles). Called by the Dram constructor, so no
     * backend can be built on silently-broken timings.
     */
    void validate() const;
};

/**
 * Single-channel DRAM: the concrete MemBackend every registry model
 * configures. Reads complete through ReadClient callbacks; writes are
 * fire-and-forget.
 */
class Dram : public mem::MemBackend
{
  public:
    Dram(const DramConfig &cfg, const Cycle *clock);

    bool submitRead(MemRequest req) override;
    void submitWriteback(Addr p_line) override;

    void tick() override;

    /**
     * Earliest future cycle at which tick() would do work (kNever when
     * fully drained). Quiescence cycle-skip input; the bound accounts
     * for the scheduler's bus lookahead gate so no scheduling decision
     * is reached late.
     */
    Cycle nextEventCycle() const override;

    std::size_t pendingReads() const override
    {
        return rq.size() + inflight.size();
    }
    std::size_t rqOccupancy() const override { return rq.size(); }
    std::size_t wqOccupancy() const override { return wq.size(); }

    /** Optional fault-injection hook (null = no faults). */
    void setFaultInjector(verify::FaultInjector *injector) override
    {
        faults = injector;
    }

    /**
     * Register the DRAM access counters, a derived row-hit-rate gauge,
     * the average read latency and the bus utilisation into the
     * registry. Called once at Machine construction.
     */
    void registerMetrics(obs::MetricsRegistry &registry,
                         const std::string &prefix) override;

    DramStats stats;

    DramStats statsSnapshot() const override { return stats; }

    /** Queue-bound / geometry invariants (the auditor hook). */
    std::string auditViolation() const override;

    std::string name() const override { return "dram"; }

    /**
     * Checkpoint walk: banks, queues, the write-drain hysteresis flag,
     * bus state and the in-flight completion heap (drained in ascending
     * order so the blob is deterministic).
     */
    void visitState(sim::StateIO &io) override;

  private:
    struct Bank
    {
        Addr openRow = kNoAddr;
        Cycle readyCycle = 0;
    };

    struct Completion
    {
        Cycle finish;
        /** Issue order, breaking same-cycle ties so the heap's pop
         *  order — and therefore a checkpoint's drained-heap layout —
         *  is a deterministic total order. */
        std::uint64_t seq;
        MemRequest req;

        bool
        operator>(const Completion &o) const
        {
            if (finish != o.finish)
                return finish > o.finish;
            return seq > o.seq;
        }
    };

    Addr rowOf(Addr p_line) const;
    unsigned bankOf(Addr p_line) const;

    /** Access latency at the bank (row hit/empty/conflict accounting). */
    Cycle accessBank(Addr p_line);

    void scheduleOne();

    DramConfig cfg;
    const Cycle *clock;
    verify::FaultInjector *faults = nullptr;
    std::vector<Bank> banks;
    RingQueue<MemRequest> rq;
    RingQueue<Addr> wq;
    bool drainingWrites = false;
    Cycle busFreeCycle = 0;
    std::uint64_t nextCompletionSeq = 0;
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<Completion>>
        inflight;
};

} // namespace berti

#endif // BERTI_MEM_DRAM_HH
