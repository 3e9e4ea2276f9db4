/**
 * @file
 * Supervised sweep execution: the crash-safe layer over the worker
 * pool. Every (workload, spec) cell of a matrix gets
 *
 *  - a result-store lookup first, so interrupted sweeps resume from
 *    the cells that already completed,
 *  - a wall-clock deadline (SimParams::wallClockBudgetMs, enforced
 *    inside Machine::run as a typed Timeout error),
 *  - bounded retries with exponential backoff on any SimError,
 *  - quarantine after the attempts are exhausted: the failure is
 *    recorded as a typed per-cell error plus an on-disk marker, and
 *    the rest of the matrix keeps running — graceful degradation,
 *    never a lost sweep.
 *
 * The supervisor state machine per cell:
 *
 *   quarantined marker present and !rerunFailed -> SkippedQuarantined
 *   store hit                                   -> FromStore
 *   attempt 1..maxAttempts (backoff between)    -> Computed on success
 *   attempts exhausted                          -> Quarantined (marker)
 */

#ifndef BERTI_HARNESS_SUPERVISOR_HH
#define BERTI_HARNESS_SUPERVISOR_HH

#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/parallel.hh"
#include "harness/result_store.hh"
#include "verify/sim_error.hh"

namespace berti::harness
{

/** How one supervised cell reached its final state. */
enum class CellOutcome : std::uint8_t
{
    Computed,            //!< simulated (possibly after retries)
    FromStore,           //!< served from the result store
    Quarantined,         //!< all attempts failed; marker written
    SkippedQuarantined   //!< marker from an earlier sweep, not rerun
};

const char *cellOutcomeName(CellOutcome outcome);

/** Final state of one (workload, spec) cell. */
struct CellResult
{
    std::string workload;
    std::string spec;
    CellOutcome outcome = CellOutcome::Computed;
    SimResult result;          //!< meaningful when ok()
    unsigned attempts = 0;     //!< simulation attempts actually made
    std::uint64_t backoffMsTotal = 0;

    /** Last failure, when outcome is (Skipped)Quarantined. SimError is
     *  not default-constructible, so the fields travel unpacked, next to
     *  the original exception (null for a cell skipped as quarantined,
     *  which never ran). */
    struct Error
    {
        bool has = false;
        verify::ErrorKind kind = verify::ErrorKind::Worker;
        std::string component;
        std::string reason;
        std::exception_ptr cause;
    } error;

    bool ok() const
    {
        return outcome == CellOutcome::Computed ||
               outcome == CellOutcome::FromStore;
    }
};

struct SupervisorConfig
{
    /** Simulation attempts per cell before quarantine (>= 1). */
    unsigned maxAttempts = 3;

    /** Backoff before retry k (1-based) is
     *  min(backoffBaseMs << (k - 1), backoffMaxMs), computed
     *  overflow-safely: any base/shift combination that would wrap
     *  saturates at backoffMaxMs. */
    std::uint64_t backoffBaseMs = 10;
    std::uint64_t backoffMaxMs = 2000;

    /** Optional result store (null = recompute everything). Refused
     *  (typed Config error) when the SimParams carry a fault injector:
     *  fault-perturbed results would share store keys with clean runs
     *  and poison the cache. */
    const ResultStore *store = nullptr;

    /** Retry cells an earlier sweep quarantined (clears their markers
     *  first) instead of skipping them. */
    bool rerunFailed = false;

    /** Worker threads (0 = parallelJobCount()); forced to 1 when the
     *  SimParams carry a fault injector, whose shared draw sequence must
     *  not depend on thread interleaving. */
    unsigned jobs = 0;

    ProgressFn progress;

    /**
     * Test hook, called before every simulation attempt with (workload,
     * spec, 1-based attempt). A throw from here counts as that
     * attempt's failure — how the tests script "fails N times, then
     * succeeds" and "always crashes" cells without touching the
     * simulator.
     */
    std::function<void(const std::string &workload,
                       const std::string &spec, unsigned attempt)>
        preAttempt;
};

/** Outcome of a whole supervised matrix. */
struct SweepReport
{
    std::vector<std::string> workloads;
    std::vector<std::string> specs;

    /** cells[s][w] matches specs[s] x workloads[w]. */
    std::vector<std::vector<CellResult>> cells;

    std::size_t computed = 0;
    std::size_t fromStore = 0;
    std::size_t quarantined = 0;
    std::size_t skippedQuarantined = 0;

    bool allOk() const { return quarantined + skippedQuarantined == 0; }

    /**
     * The out[spec][workload] result grid, or — when any cell failed —
     * the original exception of the lowest-index failed cell (row-major,
     * the pool's input order), rethrown with its kind, component, reason
     * and machine diagnostic intact.
     */
    std::vector<std::vector<SimResult>> results() const;

    /** One-line human summary, e.g. "12 computed, 3 from store, ...". */
    std::string summary() const;
};

/**
 * Run specs x workloads under supervision: the one matrix runner (with
 * no store it is the plain parallel matrix the benches use). Partial
 * results by design: a deterministically crashing cell ends up
 * Quarantined with its typed error while every other cell completes
 * normally — the call only throws for structural misuse
 * (maxAttempts == 0), never for cell failures; SweepReport::results()
 * turns a failed cell back into its exception.
 */
SweepReport runSupervisedMatrix(const std::vector<Workload> &workloads,
                                const std::vector<PrefetcherSpec> &specs,
                                const SimParams &params = {},
                                const SupervisorConfig &config = {});

} // namespace berti::harness

#endif // BERTI_HARNESS_SUPERVISOR_HH
