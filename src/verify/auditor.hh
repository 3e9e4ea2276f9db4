/**
 * @file
 * Structural invariant checker. A SimAuditor attaches (read-only) to
 * every cache level, the DRAM controller, each core and each
 * translation unit, and re-validates the machine's structural
 * invariants at a configurable cycle interval:
 *
 *   - MSHR bookkeeping is leak-free: the in-use count matches the valid
 *     entries, and no entry is older than a leak threshold (a leaked
 *     entry would silently corrupt Berti's measured fill latency), and
 *     each MSHR's tag mirror holds its line while valid, kNoAddr when free;
 *   - RQ / PQ / WQ occupancies stay within their declared bounds;
 *   - a cache's cached due cycle is never later than its next event,
 *     and a parked read-queue head always waits on a full MSHR file;
 *   - tag arrays never hold two copies of the same line, and every
 *     valid line maps to the set it sits in;
 *   - the cache-stats algebra holds (accesses = hits + misses + merges);
 *   - ROB / fetch-buffer occupancies respect the core configuration,
 *     ROB ids are consecutive, and the outstanding-load set matches the
 *     ROB's pending entries;
 *   - TLB sets hold no duplicate pages, every cached page sits in its
 *     home set, and each cached translation agrees with the page table.
 *
 * Checks are compiled in always (no NDEBUG dependence) and enabled via
 * MachineConfig::audit; AuditConfig::fromEnv() lets CI switch them on
 * for every existing test by exporting BERTI_VERIFY=1. A violation
 * throws SimError(ErrorKind::Invariant) with a diagnostic dump.
 */

#ifndef BERTI_VERIFY_AUDITOR_HH
#define BERTI_VERIFY_AUDITOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"
#include "verify/sim_error.hh"

namespace berti
{
class Cache;
class Core;
class Tlb;
class TranslationUnit;

namespace mem
{
class MemBackend;
} // namespace mem
} // namespace berti

namespace berti::sim
{
struct SimOptions;
} // namespace berti::sim

namespace berti::verify
{

struct AuditConfig
{
    bool enabled = false;
    Cycle interval = 4096;        //!< cycles between full checks
    Cycle mshrLeakCycles = 200000; //!< older MSHR entries count as leaked

    /**
     * Environment-driven default, so CI can audit every existing test
     * without touching them: BERTI_VERIFY=1 enables auditing, and
     * BERTI_VERIFY_INTERVAL overrides the check interval.
     */
    static AuditConfig fromEnv();

    /** The same knobs taken from an already-parsed options value. */
    static AuditConfig fromOptions(const sim::SimOptions &opt);
};

class SimAuditor
{
  public:
    SimAuditor(const AuditConfig &cfg, const Cycle *clock);

    // Registration (observation only; the auditor never mutates).
    void attach(const Cache *cache);
    /** Any memory backend: invariants come from its auditViolation()
     *  hook, so new backends are auditable without friend access. */
    void attach(const mem::MemBackend *backend);
    void attach(const Core *core);
    void attach(const TranslationUnit *tu);

    /** Run a full check when the interval has elapsed. */
    void tick();

    /** Run a full check immediately; throws SimError on violation. */
    void checkNow() const;

    /**
     * Cycle of the next interval check. Quiescence cycle-skip bound:
     * the auditor's clock-sensitive checks (MSHR-age leaks) must fire
     * at exactly the cycles they would without skipping.
     */
    Cycle nextCheckCycle() const { return lastCheck + cfg.interval; }

    std::uint64_t checksRun() const { return checks; }

  private:
    void checkCache(const Cache &cache) const;
    void checkMemBackend(const mem::MemBackend &backend) const;
    void checkCore(const Core &core) const;
    void checkTranslation(const TranslationUnit &tu) const;
    void checkTlb(const Tlb &tlb, const TranslationUnit &tu,
                  const std::string &label) const;

    [[noreturn]] void fail(const std::string &component,
                           const std::string &reason) const;

    AuditConfig cfg;
    const Cycle *clock;
    Cycle lastCheck = 0;
    mutable std::uint64_t checks = 0;

    std::vector<const Cache *> caches;
    std::vector<const mem::MemBackend *> backends;
    std::vector<const Core *> cores;
    std::vector<const TranslationUnit *> tus;
};

} // namespace berti::verify

#endif // BERTI_VERIFY_AUDITOR_HH
