#include "oracle/microtrace.hh"

#include <cstdlib>

#include "sim/options.hh"
#include "trace/champsim.hh"
#include "verify/sim_error.hh"

namespace berti::oracle
{

namespace
{

// All generators place data in a small region so the deliberately tiny
// differential caches (16x4 L1) see real capacity and conflict pressure.
constexpr Addr kBaseLine = lineAddr(0x10000000ull);

MicroOp
load(Addr line, Addr ip, unsigned gap = 0)
{
    return {MicroOpKind::Load, line, ip, gap};
}

/**
 * Interleaved strides whose deltas keep crossing 4 KB page boundaries:
 * several IPs with large positive/negative line strides, the cactu-like
 * regime that exercises Berti's cross-page issuing and the hierarchy's
 * page-spanning fills.
 */
MicroTrace
genPageCrossingStrides(std::uint64_t seed, std::size_t n_ops)
{
    Rng rng(seed);
    MicroTrace t;
    struct Stream
    {
        Addr ip;
        Addr pos;
        std::int64_t stride;
    };
    std::vector<Stream> streams;
    unsigned n_streams = 2 + static_cast<unsigned>(rng.nextBounded(4));
    for (unsigned s = 0; s < n_streams; ++s) {
        // Strides around the 64-lines-per-page boundary, signed.
        std::int64_t stride =
            static_cast<std::int64_t>(rng.nextBounded(2 * kLinesPerPage)) -
            static_cast<std::int64_t>(kLinesPerPage);
        if (stride == 0)
            stride = kLinesPerPage;  // always page-crossing
        streams.push_back({0x400000 + 4 * s,
                           kBaseLine + rng.nextBounded(512), stride});
    }
    while (t.ops.size() < n_ops) {
        Stream &s = streams[rng.nextBounded(streams.size())];
        bool rfo = rng.nextBool(0.2);
        t.ops.push_back({rfo ? MicroOpKind::Rfo : MicroOpKind::Load,
                         s.pos, s.ip, 0});
        s.pos = static_cast<Addr>(
            static_cast<std::int64_t>(s.pos) + s.stride);
        // Keep inside an 8 MB window so the pattern stays plausible.
        if (s.pos < kBaseLine || s.pos > kBaseLine + (1u << 17))
            s.pos = kBaseLine + rng.nextBounded(512);
    }
    return t;
}

/**
 * Set-aliasing storm: every address maps to a handful of cache sets
 * (strides that are multiples of the L1 set count), forcing constant
 * evictions, dirty-victim writebacks and LRU decisions — the regime
 * where a recency or victim-choice bug shows immediately.
 */
MicroTrace
genAliasingSets(std::uint64_t seed, std::size_t n_ops)
{
    Rng rng(seed);
    MicroTrace t;
    unsigned n_sets = 1 + static_cast<unsigned>(rng.nextBounded(3));
    unsigned depth = 6 + static_cast<unsigned>(rng.nextBounded(6));
    while (t.ops.size() < n_ops) {
        unsigned set = static_cast<unsigned>(rng.nextBounded(n_sets));
        unsigned way = static_cast<unsigned>(rng.nextBounded(depth));
        // Multiples of 64 lines alias in a 16-set L1 and a 32-set L2.
        Addr line = kBaseLine + set + 64ull * way;
        bool rfo = rng.nextBool(0.4);
        t.ops.push_back({rfo ? MicroOpKind::Rfo : MicroOpKind::Load,
                         line, 0x400000 + 4 * set, 0});
    }
    return t;
}

/**
 * TLB-thrashing sweep: one access per page over far more pages than any
 * TLB holds, revisited in a rotating pattern. At the hierarchy level
 * this is a worst-case reuse-distance workload.
 */
MicroTrace
genTlbThrash(std::uint64_t seed, std::size_t n_ops)
{
    Rng rng(seed);
    MicroTrace t;
    unsigned n_pages = 128 + static_cast<unsigned>(rng.nextBounded(128));
    Addr page = rng.nextBounded(n_pages);
    while (t.ops.size() < n_ops) {
        Addr line = kBaseLine + page * kLinesPerPage +
                    rng.nextBounded(kLinesPerPage);
        bool rfo = rng.nextBool(0.25);
        t.ops.push_back({rfo ? MicroOpKind::Rfo : MicroOpKind::Load,
                         line, 0x400100, 0});
        page = (page + 1 + rng.nextBounded(7)) % n_pages;
    }
    return t;
}

/**
 * Writeback races: RFOs dirty a small aliasing working set, interleaved
 * with explicit writebacks of recently missed lines at zero gap — in
 * the concurrent driver this is exactly the duplicate-tag regime of the
 * writeback-racing-inflight-miss bug.
 */
MicroTrace
genWritebackRaces(std::uint64_t seed, std::size_t n_ops)
{
    Rng rng(seed);
    MicroTrace t;
    std::vector<Addr> recent;
    while (t.ops.size() < n_ops) {
        Addr line = kBaseLine + 64ull * rng.nextBounded(16) +
                    rng.nextBounded(2);
        double roll = rng.nextDouble();
        if (roll < 0.45 || recent.empty()) {
            t.ops.push_back(load(line, 0x400200,
                                 static_cast<unsigned>(
                                     rng.nextBounded(3))));
            recent.push_back(line);
        } else if (roll < 0.7) {
            t.ops.push_back({MicroOpKind::Rfo, line, 0x400204,
                             static_cast<unsigned>(rng.nextBounded(3))});
            recent.push_back(line);
        } else {
            // Write back a line whose miss may still be in flight.
            Addr victim = recent[rng.nextBounded(recent.size())];
            t.ops.push_back({MicroOpKind::Writeback, victim,
                             kWritebackSentinelIp, 0});
        }
        if (recent.size() > 8)
            recent.erase(recent.begin());
    }
    return t;
}

/**
 * Pointer-chase-like permutation walk: a hash-scrambled cycle over a
 * region larger than the L1, with no learnable stride.
 */
MicroTrace
genPointerChase(std::uint64_t seed, std::size_t n_ops)
{
    Rng rng(seed);
    MicroTrace t;
    unsigned region = 256 + static_cast<unsigned>(rng.nextBounded(256));
    std::uint64_t mult = rng.next() | 1;  // odd => bijective mod 2^64
    Addr idx = rng.nextBounded(region);
    while (t.ops.size() < n_ops) {
        Addr line = kBaseLine + (idx * mult + 12345) % region;
        t.ops.push_back(load(line, 0x400300 + 4 * (idx % 4)));
        idx = (idx * mult + 12345) % region;
    }
    return t;
}

/** Uniform chaos: random kind, line and gap over a small region. */
MicroTrace
genRandomMix(std::uint64_t seed, std::size_t n_ops)
{
    Rng rng(seed);
    MicroTrace t;
    while (t.ops.size() < n_ops) {
        MicroOp op;
        double roll = rng.nextDouble();
        op.kind = roll < 0.6 ? MicroOpKind::Load
                  : roll < 0.85 ? MicroOpKind::Rfo
                                : MicroOpKind::Writeback;
        op.line = kBaseLine + rng.nextBounded(1024);
        op.ip = op.kind == MicroOpKind::Writeback
                    ? kWritebackSentinelIp
                    : 0x400400 + 4 * rng.nextBounded(8);
        op.gap = static_cast<unsigned>(rng.nextBounded(4));
        t.ops.push_back(op);
    }
    return t;
}

} // namespace

const std::vector<MicroTraceClass> &
microTraceClasses()
{
    static const std::vector<MicroTraceClass> classes = {
        {"page-crossing-strides", genPageCrossingStrides},
        {"aliasing-sets", genAliasingSets},
        {"tlb-thrash", genTlbThrash},
        {"writeback-races", genWritebackRaces},
        {"pointer-chase", genPointerChase},
        {"random-mix", genRandomMix},
    };
    return classes;
}

const MicroTraceClass &
findMicroTraceClass(const std::string &name)
{
    for (const auto &c : microTraceClasses()) {
        if (c.name == name)
            return c;
    }
    throw verify::SimError(verify::ErrorKind::Config, "microtrace",
                           "unknown micro-trace class: " + name);
}

std::vector<TraceInstr>
toInstrs(const MicroTrace &trace)
{
    std::vector<TraceInstr> out;
    out.reserve(trace.ops.size());
    for (const MicroOp &op : trace.ops) {
        for (unsigned g = 0; g < op.gap; ++g) {
            TraceInstr filler;
            filler.ip = kGapSentinelIp;
            out.push_back(filler);
        }
        TraceInstr in;
        Addr byte = lineToByte(op.line);
        switch (op.kind) {
          case MicroOpKind::Load:
            in.ip = op.ip;
            in.load0 = byte;
            break;
          case MicroOpKind::Rfo:
            in.ip = op.ip;
            in.load0 = byte;
            in.store = byte;
            break;
          case MicroOpKind::Writeback:
            in.ip = kWritebackSentinelIp;
            in.store = byte;
            break;
        }
        out.push_back(in);
    }
    return out;
}

MicroTrace
fromInstrs(const std::vector<TraceInstr> &instrs)
{
    MicroTrace t;
    unsigned gap = 0;
    for (const TraceInstr &in : instrs) {
        if (!in.isMem()) {
            ++gap;
            continue;
        }
        MicroOp op;
        op.gap = gap;
        gap = 0;
        if (in.ip == kWritebackSentinelIp && in.load0 == kNoAddr) {
            op.kind = MicroOpKind::Writeback;
            op.ip = kWritebackSentinelIp;
            op.line = lineAddr(in.store);
        } else if (in.store != kNoAddr) {
            op.kind = MicroOpKind::Rfo;
            op.ip = in.ip;
            op.line = lineAddr(in.store);
        } else {
            op.kind = MicroOpKind::Load;
            op.ip = in.ip;
            op.line = lineAddr(in.load0);
        }
        t.ops.push_back(op);
    }
    return t;
}

bool
saveArtifact(const std::string &path, const MicroTrace &trace)
{
    return saveChampSim(path, toInstrs(trace)).ok();
}

MicroTrace
loadArtifact(const std::string &path)
{
    return fromInstrs(loadChampSim(path));  // throws the typed error
}

std::uint64_t
testSeed(std::uint64_t fallback)
{
    sim::SimOptions opt = sim::SimOptions::fromEnv();
    return opt.hasTestSeed ? opt.testSeed : fallback;
}

unsigned
propertyIterations(unsigned base)
{
    return base * sim::SimOptions::fromEnv().propIterMultiplier;
}

std::string
artifactDir()
{
    return sim::SimOptions::fromEnv().artifactDir;
}

} // namespace berti::oracle
