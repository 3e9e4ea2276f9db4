#include "trace/registry.hh"

#include <mutex>

#include "trace/champsim.hh"
#include "trace/gap_kernels.hh"
#include "trace/generators.hh"
#include "trace/graph.hh"
#include "verify/sim_error.hh"

namespace berti
{

namespace
{

/// One registry graph: its recipe and, once built, the shared Csr.
/// Each graph has its own lock, so a worker that needs one graph never
/// waits behind the build of another.
struct GraphSlot
{
    constexpr GraphSlot(const char *n, Csr (*b)()) : name(n), build(b) {}

    const char *name;
    Csr (*build)();
    std::mutex mutex;
    std::shared_ptr<const Csr> graph;  //!< null until a build succeeds
};

constinit GraphSlot graphSlots[] = {
    {"kron", [] { return makeKronGraph(1u << 19, 8, 0xC0FFEE); }},
    {"urand", [] { return makeUniformGraph(1u << 19, 8, 0xBEEF); }},
    {"road", [] { return makeRoadGraph(768, 512, 0xF00D); }},
    // Denser power law: fewer nodes, heavier hubs (Twitter-like).
    {"twitter", [] { return makeKronGraph(1u << 18, 16, 0x717717); }},
    // Sparser, larger crawl-like graph.
    {"web", [] { return makeKronGraph(1u << 19, 6, 0x3EB); }},
};

} // namespace

/// Graphs are expensive to build and immutable; share them across all
/// kernel workloads and across repeated bench invocations. Workload
/// make() runs concurrently under the parallel runner; a build that
/// throws leaves its slot empty, so the next caller builds it again.
std::shared_ptr<const Csr>
registryGraph(const std::string &name)
{
    for (GraphSlot &slot : graphSlots) {
        if (name != slot.name)
            continue;
        std::lock_guard<std::mutex> lock(slot.mutex);
        if (!slot.graph)
            slot.graph = std::make_shared<const Csr>(slot.build());
        return slot.graph;
    }
    throw verify::SimError(verify::ErrorKind::Config, "registryGraph",
                           "unknown graph: '" + name + "'");
}

namespace
{

std::vector<Workload>
buildRegistry()
{
    std::vector<Workload> w;

    // ----------------------------------------------- SPEC CPU2017-like
    w.push_back({"stream-like.1", "spec", [] {
        StreamGen::Params p;
        p.streams = 4;
        p.stepBytes = 16;
        p.aluPerMem = 4;
        p.seed = 101;
        return std::make_unique<StreamGen>(p);
    }});
    w.push_back({"roms-like.1070", "spec", [] {
        StreamGen::Params p;
        p.streams = 6;
        p.strideLines = 2;
        p.stepBytes = 64;
        p.aluPerMem = 5;
        p.seed = 102;
        return std::make_unique<StreamGen>(p);
    }});
    w.push_back({"bwaves-like.1740", "spec", [] {
        MultiStrideGen::Params p;
        p.nIps = 6;
        p.strides = {1, 2, 4, 8, 3, 5};
        p.aluPerMem = 4;
        p.seed = 103;
        return std::make_unique<MultiStrideGen>(p);
    }});
    w.push_back({"lbm-like.2676", "spec", [] {
        LbmLikeGen::Params p;
        p.seed = 104;
        return std::make_unique<LbmLikeGen>(p);
    }});
    w.push_back({"mcf-like.1554", "spec", [] {
        McfLikeGen::Params p;
        p.seed = 105;
        return std::make_unique<McfLikeGen>(p);
    }});
    w.push_back({"mcf-like.782", "spec", [] {
        // Three stride IPs dominate, tightly interleaved: global-delta
        // prefetchers are confused by the interleaving (paper IV-C).
        MultiStrideGen::Params p;
        p.nIps = 3;
        p.strides = {1, 3, -2};
        p.aluPerMem = 7;
        p.randomInterleave = true;
        p.seed = 106;
        return std::make_unique<MultiStrideGen>(p);
    }});
    w.push_back({"mcf-like.1536", "spec", [] {
        // Dominated by a serial pointer chase: nothing is timely.
        PointerChaseGen::Params p;
        p.seed = 107;
        return std::make_unique<PointerChaseGen>(p);
    }});
    w.push_back({"cactu-like.709", "spec", [] {
        // Hundreds of interleaved strided IPs overflow per-IP tables
        // (the CactuBSSN outlier of the paper).
        MultiStrideGen::Params p;
        p.nIps = 320;
        p.strides = {1};
        p.aluPerMem = 14;
        p.seed = 108;
        return std::make_unique<MultiStrideGen>(p);
    }});
    w.push_back({"gcc-like.2226", "spec", [] {
        GccLikeGen::Params p;
        p.seed = 109;
        return std::make_unique<GccLikeGen>(p);
    }});
    w.push_back({"xz-like.3167", "spec", [] {
        GccLikeGen::Params p;
        p.hotLines = 3072;   // spills L1D into L2
        p.sweepEvery = 24;
        p.sweepLen = 96;
        p.seed = 110;
        return std::make_unique<GccLikeGen>(p);
    }});
    w.push_back({"omnetpp-like.874", "spec", [] {
        RandomGen::Params p;
        p.regionLines = 1u << 16;  // 4 MB: LLC-resident-ish, L1/L2 hostile
        p.seed = 111;
        return std::make_unique<RandomGen>(p);
    }});
    w.push_back({"fotonik-like.8225", "spec", [] {
        StreamGen::Params p;
        p.streams = 10;
        p.stepBytes = 32;
        p.aluPerMem = 4;
        p.seed = 112;
        return std::make_unique<StreamGen>(p);
    }});
    w.push_back({"wrf-like.1212", "spec", [] {
        MultiStrideGen::Params p;
        p.nIps = 12;
        p.strides = {1, 1, 2, 2, 3, 4, -1, 5};
        p.aluPerMem = 5;
        p.seed = 113;
        return std::make_unique<MultiStrideGen>(p);
    }});
    w.push_back({"cam4-like.490", "spec", [] {
        StreamGen::Params p;
        p.streams = 8;
        p.stepBytes = 8;
        p.aluPerMem = 6;
        p.seed = 114;
        return std::make_unique<StreamGen>(p);
    }});
    w.push_back({"pop2-like.017", "spec", [] {
        // Irregularly interleaved strided IPs (global-delta hostile).
        MultiStrideGen::Params p;
        p.nIps = 16;
        p.strides = {2, 5, 7, -3};
        p.aluPerMem = 5;
        p.randomInterleave = true;
        p.seed = 115;
        return std::make_unique<MultiStrideGen>(p);
    }});
    w.push_back({"nab-like.863", "spec", [] {
        GccLikeGen::Params p;
        p.hotLines = 512;
        p.sweepEvery = 40;
        p.seed = 116;
        return std::make_unique<GccLikeGen>(p);
    }});
    w.push_back({"x264-like.29", "spec", [] {
        GccLikeGen::Params p;
        p.hotLines = 1024;
        p.sweepEvery = 64;
        p.aluPerMem = 6;
        p.seed = 117;
        return std::make_unique<GccLikeGen>(p);
    }});
    w.push_back({"deepsjeng-like.1378", "spec", [] {
        // L2-resident random working set: hostile to every prefetcher
        // but cheap to miss.
        RandomGen::Params p;
        p.regionLines = 1u << 13;  // 512 KB
        p.aluPerMem = 5;
        p.seed = 118;
        return std::make_unique<RandomGen>(p);
    }});
    w.push_back({"parest-like.1094", "spec", [] {
        // 10 concurrent strided IPs: within reach of Berti's 16-entry
        // delta table (cactu-like.709 covers the table-overflow regime).
        MultiStrideGen::Params p;
        p.nIps = 10;
        p.strides = {1, 2};
        p.aluPerMem = 4;
        p.seed = 119;
        return std::make_unique<MultiStrideGen>(p);
    }});
    w.push_back({"bwaves-like.2609", "spec", [] {
        StreamGen::Params p;
        p.streams = 12;
        p.strideLines = 3;
        p.stepBytes = 64;
        p.aluPerMem = 3;
        p.seed = 120;
        return std::make_unique<StreamGen>(p);
    }});
    w.push_back({"mcf-like.472", "spec", [] {
        McfLikeGen::Params p;
        p.chaseEvery = 2;  // chase-heavier phase of mcf
        p.seed = 121;
        return std::make_unique<McfLikeGen>(p);
    }});
    w.push_back({"lbm-like.3766", "spec", [] {
        LbmLikeGen::Params p;
        p.streams = 12;
        p.aluPerMem = 8;
        p.seed = 122;
        return std::make_unique<LbmLikeGen>(p);
    }});

    // -------------------------------------------------------------- GAP
    struct KernelDef { const char *tag; GapKernel k; };
    const KernelDef kernels[] = {
        {"bfs", GapKernel::Bfs},       {"pr", GapKernel::PageRank},
        {"cc", GapKernel::Cc},         {"sssp", GapKernel::Sssp},
        {"bc", GapKernel::Bc},
    };
    // Larger-than-LLC graphs: property arrays of 4 MB+ and edge arrays
    // of 16 MB+ keep the gathers DRAM-resident, as with the paper's
    // graph inputs.
    std::uint64_t gap_seed = 200;
    for (const auto &k : kernels) {
        for (const GraphSlot &slot : graphSlots) {
            std::string name = std::string(k.tag) + "-" + slot.name;
            GapKernel kern = k.k;
            std::string graph_name = slot.name;
            std::uint64_t seed = ++gap_seed;
            w.push_back({name, "gap", [kern, graph_name, seed] {
                return std::make_unique<GapGen>(kern,
                                                registryGraph(graph_name),
                                                seed);
            }});
        }
    }

    // ------------------------------------------------------- CloudSuite
    struct CloudDef
    {
        const char *name;
        std::uint64_t code_lines;
        std::uint64_t hot_lines;
        double cold_fraction;
    };
    const CloudDef clouds[] = {
        {"cassandra-like", 6144, 512, 0.05},
        {"classification-like", 2048, 256, 0.12},
        {"cloud9-like", 8192, 768, 0.02},
        {"nutch-like", 7168, 640, 0.03},
        {"streaming-like", 3072, 384, 0.08},
    };
    std::uint64_t cloud_seed = 300;
    for (const auto &c : clouds) {
        CloudLikeGen::Params p;
        p.codeLines = c.code_lines;
        p.hotLines = c.hot_lines;
        p.coldFraction = c.cold_fraction;
        p.seed = ++cloud_seed;
        w.push_back({c.name, "cloud", [p] {
            return std::make_unique<CloudLikeGen>(p);
        }});
    }

    return w;
}

} // namespace

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> registry = buildRegistry();
    return registry;
}

std::vector<Workload>
suiteWorkloads(const std::string &suite)
{
    std::vector<Workload> out;
    for (const auto &w : allWorkloads()) {
        if (w.suite == suite)
            out.push_back(w);
    }
    return out;
}

std::vector<Workload>
specGapWorkloads()
{
    std::vector<Workload> out = suiteWorkloads("spec");
    for (auto &w : suiteWorkloads("gap"))
        out.push_back(w);
    return out;
}

const Workload &
findWorkload(const std::string &name)
{
    for (const auto &w : allWorkloads()) {
        if (w.name == name)
            return w;
    }
    throw verify::SimError(verify::ErrorKind::Config, "findWorkload",
                           "unknown workload: '" + name + "'");
}

Workload
resolveWorkload(const std::string &name)
{
    constexpr const char *kPrefix = "file:";
    constexpr std::size_t kPrefixLen = 5;
    if (name.compare(0, kPrefixLen, kPrefix) != 0)
        return findWorkload(name);

    std::string path = name.substr(kPrefixLen);
    if (path.empty()) {
        throw verify::SimError(verify::ErrorKind::Config,
                               "resolveWorkload",
                               "malformed file: workload '" + name +
                                   "' (empty path)");
    }

    if (!isChampSimTracePath(path)) {
        throw verify::SimError(
            verify::ErrorKind::Config, "resolveWorkload",
            "unsupported trace extension in workload '" + name +
                "' (expected .champsim[.xz|.gz])");
    }

    Workload w;
    w.name = name;
    w.suite = "file";
    // Hash now: a missing or unreadable file fails at resolve time with
    // a typed TraceIo error instead of inside a worker thread, and the
    // result-store key is pinned to this exact file content.
    w.contentHash = fileContentHash(path).value();
    w.make = [path] { return std::make_unique<ChampSimReplayGen>(path); };
    return w;
}

} // namespace berti
