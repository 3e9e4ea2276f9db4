#include "oracle/shrink.hh"

namespace berti::oracle
{

namespace
{

/** Copy of trace with ops[from, from+len) removed. */
MicroTrace
without(const MicroTrace &t, std::size_t from, std::size_t len)
{
    MicroTrace out;
    out.ops.reserve(t.ops.size() - len);
    for (std::size_t i = 0; i < t.ops.size(); ++i) {
        if (i < from || i >= from + len)
            out.ops.push_back(t.ops[i]);
    }
    return out;
}

} // namespace

MicroTrace
shrinkTrace(const MicroTrace &failing, const StillFails &fails,
            ShrinkStats *stats)
{
    MicroTrace current = failing;
    std::uint64_t runs = 0;

    // Chunked deletion, halving the chunk until single ops. Restart at
    // the largest useful chunk after any successful deletion — a
    // smaller trace often admits big deletions again.
    bool progressed = true;
    while (progressed && current.ops.size() > 1) {
        progressed = false;
        for (std::size_t chunk = current.ops.size() / 2; chunk >= 1;
             chunk /= 2) {
            std::size_t i = 0;
            while (i + chunk <= current.ops.size() &&
                   current.ops.size() > 1) {
                MicroTrace candidate = without(current, i, chunk);
                ++runs;
                if (fails(candidate)) {
                    current = std::move(candidate);
                    progressed = true;
                    // Same index now holds the next chunk; retry there.
                } else {
                    i += chunk;
                }
            }
            if (progressed)
                break;  // restart from the biggest chunk
        }
    }

    // Gap normalization: zero every gap the failure does not need.
    for (std::size_t i = 0; i < current.ops.size(); ++i) {
        if (current.ops[i].gap == 0)
            continue;
        MicroTrace candidate = current;
        candidate.ops[i].gap = 0;
        ++runs;
        if (fails(candidate))
            current = std::move(candidate);
    }

    if (stats) {
        stats->originalOps = failing.ops.size();
        stats->shrunkOps = current.ops.size();
        stats->predicateRuns = runs;
    }
    return current;
}

MicroTrace
shrinkToArtifact(const MicroTrace &failing, const StillFails &fails,
                 const std::string &label, std::string *artifact_path,
                 ShrinkStats *stats)
{
    MicroTrace shrunk = shrinkTrace(failing, fails, stats);
    std::string path = artifactDir() + "/" + label + ".champsim";
    saveArtifact(path, shrunk);
    if (artifact_path)
        *artifact_path = path;
    return shrunk;
}

} // namespace berti::oracle
