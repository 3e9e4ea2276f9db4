/**
 * @file
 * The worker pool under runSupervisedMatrix (harness/supervisor.hh), the
 * one matrix runner. Every job builds its own Machine and trace
 * generator from the workload's factory, so results are bit-identical
 * regardless of thread count.
 *
 * Contract:
 *  - Result ordering always matches input ordering; the schedule never
 *    leaks into the output.
 *  - Worker failures are captured and the first one *in input order* is
 *    rethrown after all jobs finish, so a verify::SimError thrown by a
 *    simulation surfaces to the caller with its kind/diagnostic intact.
 *  - The pool size defaults to std::thread::hardware_concurrency() and
 *    can be overridden with the BERTI_JOBS environment variable; a
 *    malformed BERTI_JOBS is a verify::SimError(ErrorKind::Config).
 */

#ifndef BERTI_HARNESS_PARALLEL_HH
#define BERTI_HARNESS_PARALLEL_HH

#include <cstddef>
#include <functional>
#include <string>

namespace berti
{

/**
 * Observer for job completion, called after each finished job. Calls
 * are serialized by the pool (never concurrent), but may come from any
 * worker thread and in any completion order; `done` is the number of
 * jobs finished so far and is strictly increasing across calls.
 */
using ProgressFn = std::function<void(std::size_t done, std::size_t total)>;

/**
 * Worker-pool size: BERTI_JOBS when set (must be a positive integer,
 * else throws verify::SimError(ErrorKind::Config)), otherwise
 * hardware_concurrency(), with a floor of 1.
 */
unsigned parallelJobCount();

/**
 * Run fn(0), ..., fn(total - 1) on a pool of `jobs` worker threads
 * (0 = parallelJobCount()). All indices run even if some fail; after
 * the pool drains, the failure with the smallest index is rethrown.
 * This is the scheduling primitive under runSupervisedMatrix; benches
 * whose cells are not one workload each (multi-core mixes) use it
 * directly.
 */
void forEachIndexParallel(std::size_t total,
                          const std::function<void(std::size_t)> &fn,
                          unsigned jobs = 0,
                          const ProgressFn &progress = {});

/**
 * A ProgressFn that renders `[bench] <label> done/total` on stderr,
 * rewriting the line in place and finishing it with a newline. Safe to
 * hand to the pool: the pool serializes progress calls.
 */
ProgressFn stderrProgress(std::string label);

} // namespace berti

#endif // BERTI_HARNESS_PARALLEL_HH
