#include "trace/generators.hh"

#include <algorithm>

namespace berti
{

namespace
{

/// Data regions of the synthetic virtual address space. Each generator
/// object places its structures at these page-aligned bases.
constexpr Addr kIpBase = 0x400000;
constexpr Addr kRegion0 = 0x10000000;
constexpr Addr kRegionStride = 0x40000000;  //!< 1 GB apart, never overlap

Addr
regionBase(unsigned idx)
{
    return kRegion0 + static_cast<Addr>(idx) * kRegionStride;
}

Addr
siteIp(unsigned site)
{
    return kIpBase + 4 * static_cast<Addr>(site);
}

/// A random Hamiltonian cycle over n nodes (pointer-chase chain), as
/// the order in which it visits them: node chain[i]'s successor is
/// chain[(i + 1) % n].
std::vector<std::uint32_t>
buildChain(std::uint64_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint32_t> perm(n);
    for (std::uint64_t i = 0; i < n; ++i)
        perm[i] = static_cast<std::uint32_t>(i);
    for (std::uint64_t i = n - 1; i > 0; --i) {
        std::uint64_t j = rng.nextBounded(i + 1);
        std::swap(perm[i], perm[j]);
    }
    return perm;
}

/// Position of node 0 in a chain: where every chase starts.
std::uint32_t
chainStart(const std::vector<std::uint32_t> &chain)
{
    return static_cast<std::uint32_t>(
        std::find(chain.begin(), chain.end(), 0u) - chain.begin());
}

/// The chain position after pos, wrapping at the end.
std::uint32_t
chainStep(const std::vector<std::uint32_t> &chain, std::uint32_t pos)
{
    return pos + 1 == chain.size() ? 0 : pos + 1;
}

} // namespace

TraceInstr
QueuedGen::next()
{
    if (queue.empty())
        refill();
    TraceInstr i = queue.front();
    queue.pop_front();
    return i;
}

void
QueuedGen::emitAlu(Addr ip, unsigned count)
{
    for (unsigned i = 0; i < count; ++i) {
        TraceInstr in;
        in.ip = ip + 4 * i;
        queue.push_back(in);
    }
}

void
QueuedGen::emitLoad(Addr ip, Addr vaddr, bool depends_on_prev)
{
    TraceInstr in;
    in.ip = ip;
    in.load0 = vaddr;
    // The stream's first load has no earlier load to depend on; the
    // core gives it no dependence either way, and a trace file has no
    // load register for it to read.
    in.dependsOnPrevLoad = depends_on_prev && loadEmitted;
    loadEmitted = true;
    queue.push_back(in);
}

void
QueuedGen::emitStore(Addr ip, Addr vaddr)
{
    TraceInstr in;
    in.ip = ip;
    in.store = vaddr;
    queue.push_back(in);
}

void
QueuedGen::emitBranch(Addr ip, bool taken)
{
    TraceInstr in;
    in.ip = ip;
    in.isBranch = true;
    in.taken = taken;
    queue.push_back(in);
}

// ---------------------------------------------------------------- Stream

StreamGen::StreamGen(const Params &params) : p(params)
{
    for (unsigned s = 0; s < p.streams; ++s)
        cursor.push_back(regionBase(s));
}

void
StreamGen::refill()
{
    unsigned s = turn;
    turn = (turn + 1) % p.streams;

    emitLoad(siteIp(100 + s), cursor[s]);
    emitAlu(siteIp(200 + s), p.aluPerMem);

    cursor[s] += p.stepBytes;
    // Advance to the next line (honouring strideLines) once a line is
    // fully consumed at stepBytes granularity.
    if (pageOffset(cursor[s]) % kLineSize == 0 && p.strideLines > 1)
        cursor[s] += static_cast<Addr>(p.strideLines - 1) * kLineSize;
    if (cursor[s] >= regionBase(s) + lineToByte(p.regionLines))
        cursor[s] = regionBase(s);

    // Loop-back branch each 16 iterations: strongly biased taken.
    if (++iter % 16 == 0)
        emitBranch(siteIp(300), iter % 256 != 0);
}

// ----------------------------------------------------------- MultiStride

MultiStrideGen::MultiStrideGen(const Params &params)
    : p(params), rng(p.seed * 97 + 1)
{
    if (p.strides.empty())
        p.strides = {1, 2, 3, 4, -1, 6, 8, 5};
    Rng init(p.seed);
    for (unsigned i = 0; i < p.nIps; ++i) {
        stride.push_back(p.strides[i % p.strides.size()]);
        // Start each IP somewhere inside its region so negative strides
        // have room to run.
        cursor.push_back(regionBase(i % 48) +
                         lineToByte(p.regionLines / 2 +
                                    init.nextBounded(p.regionLines / 4)));
    }
}

void
MultiStrideGen::refill()
{
    unsigned i;
    if (p.randomInterleave) {
        i = static_cast<unsigned>(rng.nextBounded(p.nIps));
    } else {
        i = turn;
        turn = (turn + 1) % p.nIps;
    }

    emitLoad(siteIp(1000 + i), cursor[i]);
    emitAlu(siteIp(4000 + i), p.aluPerMem);

    std::int64_t delta = static_cast<std::int64_t>(stride[i]) *
                         static_cast<std::int64_t>(kLineSize);
    cursor[i] = static_cast<Addr>(static_cast<std::int64_t>(cursor[i]) +
                                  delta);
    Addr base = regionBase(i % 48);
    Addr top = base + lineToByte(p.regionLines);
    if (cursor[i] < base || cursor[i] >= top)
        cursor[i] = base + lineToByte(p.regionLines / 2);

    if (i == 0)
        emitBranch(siteIp(5000), true);
}

// ------------------------------------------------------------------ Lbm

LbmLikeGen::LbmLikeGen(const Params &params) : p(params)
{
    for (unsigned s = 0; s < p.streams; ++s) {
        cursor.push_back(regionBase(s));
        phase.push_back(false);
    }
}

void
LbmLikeGen::refill()
{
    unsigned s = turn;
    turn = (turn + 1) % p.streams;

    emitLoad(siteIp(10 + s), cursor[s]);
    emitAlu(siteIp(30 + s), p.aluPerMem);
    // Result lines are written back at a quarter of the read rate, as in
    // the real kernel's fused store stream.
    if (s == 0 && iter % 4 == 0) {
        emitStore(siteIp(25),
                  cursor[s] + regionBase(40) - regionBase(0));
    }

    // Alternate line deltas +1, +2: lines 0, 1, 3, 4, 6, 7, ...
    cursor[s] += phase[s] ? 2 * kLineSize : kLineSize;
    phase[s] = !phase[s];
    if (cursor[s] >= regionBase(s) + lineToByte(p.regionLines)) {
        cursor[s] = regionBase(s);
        phase[s] = false;
    }
    if (++iter % 8 == 0)
        emitBranch(siteIp(29), iter % 128 != 0);
}

// ------------------------------------------------------------------ Mcf

McfLikeGen::McfLikeGen(const Params &params)
    : p(params), rng(p.seed), chain(buildChain(p.chainNodes, p.seed * 31)),
      chainPos(chainStart(chain))
{
    // Per-IP repeating delta cycles; deliberately distinct per IP so a
    // single global delta cannot cover them (paper Figure 3).
    cycles = {
        {-1, -5, -2, -1, -4, -1},   // section II-B irregular example
        {62},                        // the BOP-friendly global stride
        {3, 3, 3, 3, 10},
        {-7},
        {17, 1},
        {2, 2, 2, 9},
    };
    for (std::size_t i = 0; i < cycles.size(); ++i) {
        cursor.push_back(regionBase(4 + static_cast<unsigned>(i)) +
                         lineToByte(p.regionLines / 2));
        cyclePos.push_back(0);
    }
}

void
McfLikeGen::refill()
{
    if (turn % p.chaseEvery == 0) {
        // Pointer-chase IP: serial dependent loads over the chain.
        Addr node_addr = regionBase(3) +
                         static_cast<Addr>(chain[chainPos]) * kLineSize;
        emitLoad(siteIp(50), node_addr, true);
        chainPos = chainStep(chain, chainPos);
        emitAlu(siteIp(60), p.aluPerMem);
    }
    unsigned i = turn % static_cast<unsigned>(cycles.size());
    ++turn;

    emitLoad(siteIp(70 + i), cursor[i]);
    emitAlu(siteIp(80 + i), p.aluPerMem);

    int d = cycles[i][cyclePos[i]];
    cyclePos[i] = (cyclePos[i] + 1) % static_cast<unsigned>(cycles[i].size());
    std::int64_t next_cursor = static_cast<std::int64_t>(cursor[i]) +
                               static_cast<std::int64_t>(d) * kLineSize;
    Addr base = regionBase(4 + i);
    Addr top = base + lineToByte(p.regionLines);
    if (next_cursor < static_cast<std::int64_t>(base) ||
        next_cursor >= static_cast<std::int64_t>(top)) {
        next_cursor = static_cast<std::int64_t>(base +
                                                lineToByte(p.regionLines / 2));
    }
    cursor[i] = static_cast<Addr>(next_cursor);

    if (turn % 12 == 0)
        emitBranch(siteIp(90), rng.nextBool(0.9));
}

// ------------------------------------------------------------------ Gcc

GccLikeGen::GccLikeGen(const Params &params)
    : p(params), rng(p.seed), hot(p.hotLines, 0.9), sweepCursor(regionBase(1))
{}

void
GccLikeGen::refill()
{
    // The cold strided walk is interleaved with the hot-set work (as in
    // real integer code), one line every few accesses — not a tight
    // burst, so its per-IP miss interval is realistic.
    if (++sinceSweep >= p.sweepEvery / 3 + 1) {
        emitLoad(siteIp(110), sweepCursor);
        sweepCursor += kLineSize;
        emitAlu(siteIp(120), p.aluPerMem);
        if (sweepCursor >= regionBase(1) + lineToByte(1u << 20))
            sweepCursor = regionBase(1);
        sinceSweep = 0;
        return;
    }

    // Hot-set access with a Zipf bias: mostly L1-resident.
    Addr line = hot(rng);
    emitLoad(siteIp(100), regionBase(0) + lineToByte(line) +
                          8 * rng.nextBounded(8));
    emitAlu(siteIp(130), p.aluPerMem);
    if (++iter % 4 == 0)
        emitBranch(siteIp(140), rng.nextBool(0.75));
}

// --------------------------------------------------------------- Random

RandomGen::RandomGen(const Params &params) : p(params), rng(p.seed)
{}

void
RandomGen::refill()
{
    emitLoad(siteIp(150), regionBase(0) +
                          lineToByte(rng.nextBounded(p.regionLines)));
    emitAlu(siteIp(160), p.aluPerMem);
}

// --------------------------------------------------------- PointerChase

PointerChaseGen::PointerChaseGen(const Params &params)
    : p(params), chain(buildChain(p.chainNodes, p.seed * 17)),
      pos(chainStart(chain))
{}

void
PointerChaseGen::refill()
{
    emitLoad(siteIp(170), regionBase(0) +
                          static_cast<Addr>(chain[pos]) * kLineSize, true);
    pos = chainStep(chain, pos);
    emitAlu(siteIp(180), p.aluPerMem);
}

// ---------------------------------------------------------------- Cloud

CloudLikeGen::CloudLikeGen(const Params &params)
    : p(params), rng(p.seed), hot(p.hotLines, 0.8)
{}

void
CloudLikeGen::refill()
{
    // Walk a large code footprint: each group of instructions comes from
    // a new instruction line, defeating the 32 KB L1I.
    Addr ip = kIpBase + lineToByte(codePos % p.codeLines);
    codePos += 1 + rng.nextBounded(3);

    bool cold = rng.nextBool(p.coldFraction);
    Addr line = cold ? p.hotLines + rng.nextBounded(p.coldLines)
                     : hot(rng);
    emitLoad(ip, regionBase(0) + lineToByte(line) + 8 * rng.nextBounded(8));
    emitAlu(ip + 8, p.aluPerMem);
    if (rng.nextBool(1.0 / p.branchEvery))
        emitBranch(ip + 8 + 4 * p.aluPerMem, rng.nextBool(p.takenBias));
}

} // namespace berti
