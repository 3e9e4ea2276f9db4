/**
 * @file
 * Content-addressed, crash-safe store of per-cell sweep results.
 *
 * A "cell" is one (workload, prefetcher spec) point of a sweep matrix
 * run with fixed SimParams on a fixed code version. Its result — the
 * deterministic resultSnapshot JSON — is cached under a key derived
 * from exactly those four coordinates, so an interrupted sweep resumes
 * by recomputing only the cells that never landed, and a stale cache
 * can never be served across a parameter or code change (the key
 * simply differs).
 *
 * Crash safety: every write goes through obs::writeFile (temp file +
 * atomic rename), every read verifies an FNV-1a-64 payload checksum
 * and the full key echo before the JSON is parsed. A corrupt or torn
 * entry is treated as a cache miss and unlinked — the store self-heals
 * by recomputation, it never propagates damaged data.
 */

#ifndef BERTI_HARNESS_RESULT_STORE_HH
#define BERTI_HARNESS_RESULT_STORE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "harness/experiment.hh"
#include "obs/metrics.hh"

namespace berti::harness
{

/** The coordinates that address one sweep cell. */
struct StoreKey
{
    std::string workload;     //!< workload id, e.g. "mcf-like.472"
    std::string spec;         //!< prefetcher spec name, e.g. "berti"
    std::uint64_t paramsHash = 0;  //!< paramsFingerprint(SimParams)
    std::string codeVersion;  //!< resultStoreCodeVersion()

    /**
     * For file-backed (`file:`) workloads: the trace file's content
     * hash (Workload::contentHash), folded into hash() when non-zero.
     * Two different trace files that ever lived at the same path can
     * therefore never collide in the cache; synthetic workloads keep
     * their historical keys (0 is not folded).
     */
    std::uint64_t contentHash = 0;

    /** Content hash over every coordinate. */
    std::uint64_t hash() const;

    /** Filesystem-safe file stem: "<spec>__<workload>-<hash hex>". */
    std::string stem() const;

    /** Human-readable one-line rendering (logs and key echo). */
    std::string describe() const;
};

/**
 * Fingerprint of the SimParams fields that affect cell results:
 * warmup/measure lengths, the canonical sampling geometry (window
 * count, per-window warmup/measure, stride) so sampled and full-run
 * cells always address distinct store entries, and the canonical
 * memory-backend spec, DRAM rate included (folded only when it differs
 * from the default dram:ddr4, so distinct backends can never share a
 * cell). Changing the hashed fields invalidates every older store key
 * once, by design: old caches recompute rather than risk serving
 * results from different params.
 */
std::uint64_t paramsFingerprint(const SimParams &params);

/**
 * Code-version string folded into every key: the BERTI_CODE_VERSION
 * environment variable when set, else the compiled-in git revision
 * (the BERTI_CODE_VERSION macro, stamped by CMake), else "dev".
 */
std::string resultStoreCodeVersion();

/** Build the key for one cell. */
StoreKey makeStoreKey(const std::string &workload, const std::string &spec,
                      const SimParams &params,
                      const std::string &codeVersion =
                          resultStoreCodeVersion());

/** Build the key for one cell from a resolved Workload, folding the
 *  trace file's content hash in for file-backed workloads. */
StoreKey makeStoreKey(const Workload &workload, const std::string &spec,
                      const SimParams &params,
                      const std::string &codeVersion =
                          resultStoreCodeVersion());

/**
 * The on-disk store: one "<stem>.result" file per completed cell, one
 * "<stem>.failed" marker per quarantined cell. Construction creates
 * the directory and sweeps away stale *.tmp staging files left by a
 * killed writer.
 */
class ResultStore
{
  public:
    explicit ResultStore(std::string directory);

    const std::string &directory() const { return dir; }

    /** Stale .tmp files removed at construction (diagnostics). */
    std::size_t staleTempFilesRemoved() const { return staleTmpRemoved; }

    /**
     * Cached snapshot for a key, or nullopt on a miss. A present but
     * corrupt entry (bad header, checksum or key mismatch, unparsable
     * payload) counts as a miss AND is unlinked so the slot heals by
     * recomputation.
     */
    std::optional<obs::MetricsSnapshot> load(const StoreKey &key) const;

    /** Atomically persist a cell result (temp file + rename). */
    void store(const StoreKey &key, const obs::MetricsSnapshot &snap) const;

    /** Whether a (possibly corrupt) entry file exists for the key. */
    bool contains(const StoreKey &key) const;

    /** Drop a cached entry, if present. */
    void remove(const StoreKey &key) const;

    // ---------------------------------------------------- quarantine
    /** Persist a quarantine marker carrying the failure description. */
    void markQuarantined(const StoreKey &key,
                         const std::string &reason) const;

    /** The quarantine reason, or nullopt when the cell is not marked. */
    std::optional<std::string> loadQuarantine(const StoreKey &key) const;

    /** Lift a quarantine marker (the --rerun-failed tier). */
    void clearQuarantine(const StoreKey &key) const;

    /** Path of the entry file for a key (tests / diagnostics). */
    std::string entryPath(const StoreKey &key) const;

    /** Path of the quarantine marker for a key. */
    std::string quarantinePath(const StoreKey &key) const;

  private:
    std::string dir;
    std::size_t staleTmpRemoved = 0;
};

} // namespace berti::harness

#endif // BERTI_HARNESS_RESULT_STORE_HH
