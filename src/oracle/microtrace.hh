/**
 * @file
 * Property-based micro-traces for the differential oracle: a tiny
 * line-granular operation model (Load / RFO / Writeback with an optional
 * idle gap), deterministic seeded generators producing adversarial
 * interleavings, and a lossless mapping to the ChampSim trace format so
 * any failing trace is a replayable artifact.
 *
 * Seeding convention: every test derives its RNG seed through
 * testSeed(), which honours BERTI_TEST_SEED so a divergence reported in
 * a CI log is reproducible locally from the seed alone. Iteration
 * counts scale with BERTI_PROP_ITERS (the nightly job sets 10).
 */

#ifndef BERTI_ORACLE_MICROTRACE_HH
#define BERTI_ORACLE_MICROTRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "sim/types.hh"
#include "trace/instr.hh"

namespace berti::oracle
{

enum class MicroOpKind : std::uint8_t
{
    Load,
    Rfo,
    Writeback
};

/**
 * One hierarchy-level operation. Addresses are *line* addresses. The gap
 * is idle cycles before the op in the concurrent driver (the serialized
 * driver ignores it — every op runs to completion there).
 */
struct MicroOp
{
    MicroOpKind kind = MicroOpKind::Load;
    Addr line = 0;
    Addr ip = 0x400000;
    unsigned gap = 0;

    bool operator==(const MicroOp &o) const
    {
        return kind == o.kind && line == o.line && ip == o.ip &&
               gap == o.gap;
    }
};

struct MicroTrace
{
    std::vector<MicroOp> ops;

    std::size_t size() const { return ops.size(); }
};

/** A named seeded generator of one adversarial workload class. */
struct MicroTraceClass
{
    std::string name;
    MicroTrace (*generate)(std::uint64_t seed, std::size_t n_ops);
};

/**
 * All registered workload classes: page-crossing strides, aliasing sets,
 * TLB-thrashing page walks, writeback races, pointer-chase permutations
 * and a uniform random mix.
 */
const std::vector<MicroTraceClass> &microTraceClasses();

/** Lookup by name; throws verify::SimError(Config) when unknown. */
const MicroTraceClass &findMicroTraceClass(const std::string &name);

// ---------------------------------------------------------------- trace
// round-trip: one TraceInstr per op (Load -> load, RFO -> load+store,
// Writeback -> store at a sentinel IP), gaps encoded as preceding
// non-memory filler instructions so artifacts stay plain .champsim files a
// Machine can also replay.

/** IP marking a store record as an explicit writeback op. */
constexpr Addr kWritebackSentinelIp = 0xFFFF0000ull;

/** IP of the non-memory filler instructions that encode gaps. */
constexpr Addr kGapSentinelIp = 0xFFFF0040ull;

std::vector<TraceInstr> toInstrs(const MicroTrace &trace);
MicroTrace fromInstrs(const std::vector<TraceInstr> &instrs);

/** Save/load a micro trace as a .champsim artifact. */
bool saveArtifact(const std::string &path, const MicroTrace &trace);
MicroTrace loadArtifact(const std::string &path);

/**
 * The base RNG seed for property tests: BERTI_TEST_SEED when set
 * (decimal or 0x-prefixed hex), otherwise fallback. Failing tests must
 * log the seed they used.
 */
std::uint64_t testSeed(std::uint64_t fallback);

/** base * BERTI_PROP_ITERS (>= 1); the nightly depth job exports 10. */
unsigned propertyIterations(unsigned base);

/** Directory for shrunk counterexample artifacts: BERTI_ARTIFACT_DIR
 *  when set, else the current directory. */
std::string artifactDir();

} // namespace berti::oracle

#endif // BERTI_ORACLE_MICROTRACE_HH
