/**
 * @file
 * Greedy micro-trace shrinker (ddmin-style). Given a failing trace and a
 * predicate that re-runs the failure, it repeatedly deletes chunks —
 * halves, quarters, down to single ops — keeping any deletion that still
 * fails, then zeroes the gaps it can. The result is a near-minimal
 * counterexample dumped as a replayable .champsim artifact.
 */

#ifndef BERTI_ORACLE_SHRINK_HH
#define BERTI_ORACLE_SHRINK_HH

#include <cstdint>
#include <functional>
#include <string>

#include "oracle/microtrace.hh"

namespace berti::oracle
{

/** Re-runs the failing property: true = this trace still fails. */
using StillFails = std::function<bool(const MicroTrace &)>;

struct ShrinkStats
{
    std::size_t originalOps = 0;
    std::size_t shrunkOps = 0;
    std::uint64_t predicateRuns = 0;
};

/**
 * Minimize a failing trace. The predicate must return true for the
 * input trace (the caller established the failure); the returned trace
 * is guaranteed to still satisfy it.
 */
MicroTrace shrinkTrace(const MicroTrace &failing, const StillFails &fails,
                       ShrinkStats *stats = nullptr);

/**
 * Shrink and persist: minimizes, writes the artifact to
 * artifactDir()/<label>.champsim, and returns the minimized trace. The
 * path written is reported through *artifact_path when non-null.
 */
MicroTrace shrinkToArtifact(const MicroTrace &failing,
                            const StillFails &fails,
                            const std::string &label,
                            std::string *artifact_path = nullptr,
                            ShrinkStats *stats = nullptr);

} // namespace berti::oracle

#endif // BERTI_ORACLE_SHRINK_HH
