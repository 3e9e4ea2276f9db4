/**
 * @file
 * Named workload registry. Workloads are grouped into the three suites of
 * the paper's evaluation (memory-intensive SPEC CPU2017-like, GAP, and
 * CloudSuite-like); every bench and example addresses workloads by name.
 */

#ifndef BERTI_TRACE_REGISTRY_HH
#define BERTI_TRACE_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "trace/instr.hh"

namespace berti
{

struct Csr;

/** A named, reproducible workload. */
struct Workload
{
    std::string name;   //!< e.g. "mcf-like.1554" or "file:/t/x.champsim"
    std::string suite;  //!< "spec", "gap", "cloud" or "file"
    std::function<std::unique_ptr<TraceGenerator>()> make;

    /**
     * For file-backed workloads: FNV-1a-64 of the trace file's raw
     * bytes, folded into every result-store key so two different files
     * that ever lived at the same path can never collide in the cache.
     * 0 for synthetic workloads (their name + code version pin them).
     */
    std::uint64_t contentHash = 0;
};

/**
 * One of the registry's shared GAP input graphs ("kron", "urand",
 * "road", "twitter", "web"), built on first use and shared by every
 * kernel workload over it. Throws verify::SimError(ErrorKind::Config)
 * for any other name.
 */
std::shared_ptr<const Csr> registryGraph(const std::string &name);

/** Every registered workload, in a stable order. */
const std::vector<Workload> &allWorkloads();

/** Workloads of one suite ("spec", "gap", "cloud"). */
std::vector<Workload> suiteWorkloads(const std::string &suite);

/** Workloads of the spec+gap union the paper averages over. */
std::vector<Workload> specGapWorkloads();

/** Look up one registered workload by name; throws
 *  verify::SimError(ErrorKind::Config) naming the string if unknown. */
const Workload &findWorkload(const std::string &name);

/**
 * Resolve a workload by registry name or `file:` URI. A name of the
 * form `file:/path/to/foo.champsim[.xz|.gz]` yields a ChampSim-trace
 * replay workload (suite "file"); the file's content hash is computed
 * here so the result store can key on it. Errors are typed: an unknown
 * registry name, an empty `file:` path or one without a ChampSim
 * extension throws
 * verify::SimError(ErrorKind::Config) naming the offending workload
 * string; an unreadable trace file throws
 * verify::SimError(ErrorKind::TraceIo) with the path.
 */
Workload resolveWorkload(const std::string &name);

} // namespace berti

#endif // BERTI_TRACE_REGISTRY_HH
