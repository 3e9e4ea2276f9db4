/**
 * @file
 * Synthetic workload generators. Each generator reproduces an access
 * pattern *class* that the paper analyses so the prefetchers exercise the
 * same code paths they would on the corresponding SPEC CPU2017 / CloudSuite
 * traces (see DESIGN.md section 1 for the substitution rationale).
 */

#ifndef BERTI_TRACE_GENERATORS_HH
#define BERTI_TRACE_GENERATORS_HH

#include <cstdint>
#include <vector>

#include "sim/ring.hh"
#include "sim/rng.hh"
#include "trace/instr.hh"

namespace berti
{

/**
 * Convenience base: generators enqueue small instruction groups (memory
 * access + ALU padding + loop branches) and next() drains the queue.
 */
class QueuedGen : public TraceGenerator
{
  public:
    TraceInstr next() override;

  protected:
    /** Refill hook: must enqueue at least one instruction. */
    virtual void refill() = 0;

    void emitAlu(Addr ip, unsigned count);
    void emitLoad(Addr ip, Addr vaddr, bool depends_on_prev = false);
    void emitStore(Addr ip, Addr vaddr);
    void emitBranch(Addr ip, bool taken);

    RingQueue<TraceInstr> queue;

  private:
    bool loadEmitted = false;  //!< a load is already in the stream
};

/**
 * Sequential streaming over large arrays with several concurrent streams,
 * akin to STREAM/bwaves/fotonik-class SPEC behaviour. Loads walk each
 * stream by a fixed byte step; every stream has a distinct IP.
 */
class StreamGen : public QueuedGen
{
  public:
    struct Params
    {
        unsigned streams = 4;          //!< concurrent stream count
        unsigned strideLines = 1;      //!< line delta between touched lines
        unsigned stepBytes = 8;        //!< per-load walk within a line
        unsigned aluPerMem = 5;        //!< padding instructions per load
        std::uint64_t regionLines = 1u << 20;  //!< wrap region per stream
        std::uint64_t seed = 1;
    };

    explicit StreamGen(const Params &params);

  protected:
    void refill() override;

  private:
    Params p;
    std::vector<Addr> cursor;
    unsigned turn = 0;
    unsigned iter = 0;
};

/**
 * N instruction pointers, each with its own constant line stride over its
 * own region, interleaved round-robin. With nIps in the hundreds this is
 * the CactuBSSN regime where per-IP tables thrash and global-delta
 * prefetchers win; with a handful of IPs it is classic multi-stride code.
 */
class MultiStrideGen : public QueuedGen
{
  public:
    struct Params
    {
        unsigned nIps = 8;
        std::vector<int> strides;     //!< line strides, cycled over IPs
        unsigned aluPerMem = 6;
        std::uint64_t regionLines = 1u << 18;
        std::uint64_t seed = 2;
        /**
         * Pick the next IP at random instead of round-robin. Per-IP
         * strides stay perfectly regular, but the *global* access
         * stream becomes aperiodic — the mcf_s-782 situation where
         * global-delta prefetchers lose confidence while local-delta
         * prefetchers are unaffected (paper section IV-C).
         */
        bool randomInterleave = false;
    };

    explicit MultiStrideGen(const Params &params);

  protected:
    void refill() override;

  private:
    Params p;
    Rng rng;
    std::vector<Addr> cursor;
    std::vector<int> stride;
    unsigned turn = 0;
};

/**
 * lbm-like kernel: several load IPs (the real kernel reads ~19
 * distributions per cell) whose successive accesses each alternate line
 * deltas +1, +2 (paper section II-B). IP-stride gains no confidence on
 * them; Berti learns timely multiples of +3 with full coverage. A
 * slower store stream writes results back.
 */
class LbmLikeGen : public QueuedGen
{
  public:
    struct Params
    {
        unsigned streams = 8;      //!< alternating-stride load IPs
        unsigned aluPerMem = 10;
        std::uint64_t regionLines = 1u << 20;
        std::uint64_t seed = 3;
    };

    explicit LbmLikeGen(const Params &params);

  protected:
    void refill() override;

  private:
    Params p;
    std::vector<Addr> cursor;
    std::vector<bool> phase;
    unsigned turn = 0;
    unsigned iter = 0;
};

/**
 * mcf-like kernel: a pointer-chasing IP over a large chain plus several
 * IPs with *different* per-IP repeating delta cycles (paper Figure 3:
 * the best delta differs per IP; one irregular cycle is the -1,-5,-2,-1,
 * -4,-1 example of section II-B).
 */
class McfLikeGen : public QueuedGen
{
  public:
    struct Params
    {
        unsigned chaseEvery = 4;       //!< pointer-chase frequency
        unsigned aluPerMem = 6;
        std::uint64_t chainNodes = 1u << 16;
        std::uint64_t regionLines = 1u << 19;
        std::uint64_t seed = 4;
    };

    explicit McfLikeGen(const Params &params);

  protected:
    void refill() override;

  private:
    Params p;
    Rng rng;
    std::vector<std::uint32_t> chain;  //!< random cycle, in visit order
    std::uint32_t chainPos;            //!< index into chain
    /// per-IP repeating delta cycles (line deltas)
    std::vector<std::vector<int>> cycles;
    std::vector<Addr> cursor;
    std::vector<unsigned> cyclePos;
    unsigned turn = 0;
};

/**
 * gcc-like mixed integer code: a hot, cache-resident working set with
 * occasional strided sweeps and pattern-heavy branches. Low-to-moderate
 * MPKI, exercises the everything-hits fast path of the prefetchers.
 */
class GccLikeGen : public QueuedGen
{
  public:
    struct Params
    {
        std::uint64_t hotLines = 256;    //!< fits in L1D
        unsigned sweepLen = 64;          //!< (kept for compatibility)
        unsigned sweepEvery = 48;        //!< /8+1 hot accesses per line
        unsigned aluPerMem = 3;
        std::uint64_t seed = 5;
    };

    explicit GccLikeGen(const Params &params);

  protected:
    void refill() override;

  private:
    Params p;
    Rng rng;
    ZipfDist hot;  //!< hot-set line popularity
    Addr sweepCursor;
    unsigned sinceSweep = 0;
    unsigned iter = 0;
};

/** Uniform random lines over a big region: prefetch-hostile control. */
class RandomGen : public QueuedGen
{
  public:
    struct Params
    {
        std::uint64_t regionLines = 1u << 22;
        unsigned aluPerMem = 8;
        std::uint64_t seed = 6;
    };

    explicit RandomGen(const Params &params);

  protected:
    void refill() override;

  private:
    Params p;
    Rng rng;
};

/** Pure serial pointer chase: latency-bound, nothing to prefetch early. */
class PointerChaseGen : public QueuedGen
{
  public:
    struct Params
    {
        std::uint64_t chainNodes = 1u << 18;
        unsigned aluPerMem = 10;
        std::uint64_t seed = 7;
    };

    explicit PointerChaseGen(const Params &params);

  protected:
    void refill() override;

  private:
    Params p;
    std::vector<std::uint32_t> chain;  //!< random cycle, in visit order
    std::uint32_t pos;                 //!< index into chain
};

/**
 * CloudSuite-like server workload: huge instruction footprint (front-end
 * bound, high L1I MPKI), shallow data reuse with a hot set plus sparse
 * random records, and poorly predictable branches. Data MPKI is low by
 * construction, matching the paper's CloudSuite analysis.
 */
class CloudLikeGen : public QueuedGen
{
  public:
    struct Params
    {
        std::uint64_t codeLines = 4096;    //!< distinct instruction lines
        std::uint64_t hotLines = 512;
        std::uint64_t coldLines = 1u << 21;
        double coldFraction = 0.06;
        double branchEvery = 6.0;
        double takenBias = 0.6;
        unsigned aluPerMem = 4;
        std::uint64_t seed = 8;
    };

    explicit CloudLikeGen(const Params &params);

  protected:
    void refill() override;

  private:
    Params p;
    Rng rng;
    ZipfDist hot;  //!< hot-set line popularity
    std::uint64_t codePos = 0;
};

} // namespace berti

#endif // BERTI_TRACE_GENERATORS_HH
