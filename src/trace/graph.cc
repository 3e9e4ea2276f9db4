#include "trace/graph.hh"

#include <algorithm>

#include "sim/rng.hh"

namespace berti
{

namespace
{

/// Assemble a CSR from an unsorted (src, dst) edge list with a stable
/// counting sort by source.
Csr
fromEdges(std::uint32_t nodes,
          std::vector<std::pair<std::uint32_t, std::uint32_t>> &edges)
{
    Csr g;
    g.numNodes = nodes;
    g.rowPtr.assign(nodes + 1, 0);
    for (const auto &e : edges)
        ++g.rowPtr[e.first + 1];
    for (std::uint32_t i = 0; i < nodes; ++i)
        g.rowPtr[i + 1] += g.rowPtr[i];
    g.col.resize(edges.size());
    std::vector<std::uint32_t> fill(g.rowPtr.begin(), g.rowPtr.end() - 1);
    for (const auto &e : edges)
        g.col[fill[e.first]++] = e.second;
    return g;
}

} // namespace

bool
Csr::valid() const
{
    if (rowPtr.size() != static_cast<std::size_t>(numNodes) + 1)
        return false;
    if (rowPtr.front() != 0 || rowPtr.back() != col.size())
        return false;
    for (std::size_t i = 0; i + 1 < rowPtr.size(); ++i) {
        if (rowPtr[i] > rowPtr[i + 1])
            return false;
    }
    return std::all_of(col.begin(), col.end(),
                       [this](std::uint32_t v) { return v < numNodes; });
}

Csr
makeUniformGraph(std::uint32_t nodes, std::uint32_t avg_degree,
                 std::uint64_t seed)
{
    // Edges come out in source order, every node with avg_degree of
    // them, so the CSR is written in place.
    Rng rng(seed);
    Csr g;
    g.numNodes = nodes;
    g.rowPtr.resize(static_cast<std::size_t>(nodes) + 1);
    for (std::uint32_t u = 0; u <= nodes; ++u)
        g.rowPtr[u] = u * avg_degree;
    g.col.resize(static_cast<std::size_t>(nodes) * avg_degree);
    for (std::uint32_t &v : g.col)
        v = static_cast<std::uint32_t>(rng.nextBounded(nodes));
    return g;
}

Csr
makeKronGraph(std::uint32_t nodes, std::uint32_t avg_degree,
              std::uint64_t seed)
{
    // Edges come out in source order, so the CSR is written in place.
    // A first pass over the same draws fixes rowPtr, skipping the
    // target draws, so col is allocated once at its final size.
    const ZipfDist degree(4ull * avg_degree, 0.8);
    const ZipfDist target(nodes, 0.75);
    Csr g;
    g.numNodes = nodes;
    g.rowPtr.resize(static_cast<std::size_t>(nodes) + 1);
    Rng count(seed);
    std::uint32_t edges = 0;
    for (std::uint32_t u = 0; u < nodes; ++u) {
        g.rowPtr[u] = edges;
        // Per-node degree itself follows a power law.
        std::uint32_t deg = 1 + static_cast<std::uint32_t>(degree(count));
        for (std::uint32_t d = 0; d < deg; ++d)
            target.discard(count);
        edges += deg;
    }
    g.rowPtr[nodes] = edges;

    Rng rng(seed);
    g.col.resize(edges);
    for (std::uint32_t u = 0; u < nodes; ++u) {
        degree.discard(rng);
        for (std::uint32_t e = g.rowPtr[u]; e < g.rowPtr[u + 1]; ++e) {
            std::uint32_t v = static_cast<std::uint32_t>(target(rng));
            // Scatter hub IDs across the range so locality is realistic.
            g.col[e] = static_cast<std::uint32_t>(
                (static_cast<std::uint64_t>(v) * 2654435761ull) % nodes);
        }
    }
    return g;
}

Csr
makeRoadGraph(std::uint32_t width, std::uint32_t height, std::uint64_t seed)
{
    Rng rng(seed);
    std::uint32_t nodes = width * height;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    edges.reserve(static_cast<std::size_t>(nodes) * 4);
    auto id = [width](std::uint32_t x, std::uint32_t y) {
        return y * width + x;
    };
    for (std::uint32_t y = 0; y < height; ++y) {
        for (std::uint32_t x = 0; x < width; ++x) {
            std::uint32_t u = id(x, y);
            if (x + 1 < width) {
                edges.emplace_back(u, id(x + 1, y));
                edges.emplace_back(id(x + 1, y), u);
            }
            if (y + 1 < height) {
                edges.emplace_back(u, id(x, y + 1));
                edges.emplace_back(id(x, y + 1), u);
            }
            // Rare shortcut (bridge/highway) edges.
            if (rng.nextBool(0.01)) {
                edges.emplace_back(
                    u, static_cast<std::uint32_t>(rng.nextBounded(nodes)));
            }
        }
    }
    return fromEdges(nodes, edges);
}

} // namespace berti
