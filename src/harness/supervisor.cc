#include "harness/supervisor.hh"

#include <chrono>
#include <thread>

namespace berti::harness
{

namespace
{

std::uint64_t
backoffForAttempt(const SupervisorConfig &cfg, unsigned attempt)
{
    // Backoff before retry `attempt` (2-based: no wait before the
    // first attempt): base << (attempt - 2), capped. The shift can wrap
    // std::uint64_t long before shift 63 when the base is large (e.g.
    // base 1000 ms has wrapped to 0 by shift 61), which would collapse
    // the capped backoff to near zero — so test the cap *before*
    // shifting, with the division-form comparison that cannot overflow.
    std::uint64_t shift = attempt - 2;
    if (shift >= 63 || cfg.backoffBaseMs > (cfg.backoffMaxMs >> shift))
        return cfg.backoffMaxMs;
    return cfg.backoffBaseMs << shift;
}

/** Run one cell through the supervisor state machine. */
CellResult
superviseCell(const Workload &workload, const PrefetcherSpec &spec,
              const SimParams &params, const SupervisorConfig &cfg)
{
    CellResult cell;
    cell.workload = workload.name;
    cell.spec = spec.name;

    StoreKey key = makeStoreKey(workload, spec.name, params);

    if (cfg.store) {
        auto quarantine = cfg.store->loadQuarantine(key);
        if (quarantine) {
            if (!cfg.rerunFailed) {
                cell.outcome = CellOutcome::SkippedQuarantined;
                cell.error.has = true;
                cell.error.kind = verify::ErrorKind::Worker;
                cell.error.component = "Supervisor";
                cell.error.reason = "quarantined by an earlier sweep: " +
                                    *quarantine;
                return cell;
            }
            cfg.store->clearQuarantine(key);
        }

        if (auto cached = cfg.store->load(key)) {
            cell.outcome = CellOutcome::FromStore;
            cell.result = resultFromSnapshot(*cached);
            return cell;
        }
    }

    for (unsigned attempt = 1; attempt <= cfg.maxAttempts; ++attempt) {
        if (attempt > 1) {
            std::uint64_t ms = backoffForAttempt(cfg, attempt);
            cell.backoffMsTotal += ms;
            std::this_thread::sleep_for(std::chrono::milliseconds(ms));
        }
        ++cell.attempts;
        try {
            if (cfg.preAttempt)
                cfg.preAttempt(workload.name, spec.name, attempt);
            cell.result = simulate(workload, spec, params);
            cell.outcome = CellOutcome::Computed;
            if (cfg.store)
                cfg.store->store(key, resultSnapshot(cell.result));
            return cell;
        } catch (const verify::SimError &e) {
            cell.error = {true, e.kind(), e.component(), e.reason(),
                          std::current_exception()};
        } catch (const std::exception &e) {
            cell.error = {true, verify::ErrorKind::Worker, "Supervisor",
                          e.what(), std::current_exception()};
        }
    }

    cell.outcome = CellOutcome::Quarantined;
    if (cfg.store) {
        cfg.store->markQuarantined(
            key, std::string(verify::errorKindName(cell.error.kind)) +
                     " after " + std::to_string(cell.attempts) +
                     " attempts: " + cell.error.reason);
    }
    return cell;
}

} // namespace

const char *
cellOutcomeName(CellOutcome outcome)
{
    switch (outcome) {
      case CellOutcome::Computed:
        return "computed";
      case CellOutcome::FromStore:
        return "from-store";
      case CellOutcome::Quarantined:
        return "quarantined";
      case CellOutcome::SkippedQuarantined:
        return "skipped-quarantined";
    }
    return "unknown";
}

std::vector<std::vector<SimResult>>
SweepReport::results() const
{
    std::vector<std::vector<SimResult>> grid(cells.size());
    for (std::size_t s = 0; s < cells.size(); ++s) {
        for (const CellResult &cell : cells[s]) {
            if (!cell.ok()) {
                if (cell.error.cause)
                    std::rethrow_exception(cell.error.cause);
                throw verify::SimError(cell.error.kind,
                                       cell.error.component,
                                       cell.error.reason);
            }
            grid[s].push_back(cell.result);
        }
    }
    return grid;
}

std::string
SweepReport::summary() const
{
    return std::to_string(computed) + " computed, " +
           std::to_string(fromStore) + " from store, " +
           std::to_string(quarantined) + " quarantined, " +
           std::to_string(skippedQuarantined) + " skipped-quarantined";
}

SweepReport
runSupervisedMatrix(const std::vector<Workload> &workloads,
                    const std::vector<PrefetcherSpec> &specs,
                    const SimParams &params, const SupervisorConfig &config)
{
    if (config.maxAttempts == 0) {
        throw verify::SimError(verify::ErrorKind::Config, "Supervisor",
                               "maxAttempts must be at least 1");
    }
    if (config.store && params.faults) {
        // paramsFingerprint cannot see the injector's configuration or
        // RNG state, so a fault-perturbed cell would hash to the same
        // store key as a clean run — poisoning the cache for every
        // later clean sweep. Refuse the combination outright.
        throw verify::SimError(
            verify::ErrorKind::Config, "Supervisor",
            "a result store cannot be combined with fault injection: "
            "fault-perturbed results share store keys with clean runs "
            "and would be served to later clean sweeps — run fault "
            "campaigns without a store");
    }

    SweepReport report;
    for (const Workload &w : workloads)
        report.workloads.push_back(w.name);
    for (const PrefetcherSpec &s : specs)
        report.specs.push_back(s.name);
    report.cells.resize(specs.size());
    for (auto &row : report.cells)
        row.resize(workloads.size());

    // A shared fault injector's draw sequence must not depend on thread
    // interleaving, so fault campaigns run on one worker.
    unsigned jobs = params.faults ? 1 : config.jobs;

    std::size_t total = specs.size() * workloads.size();
    forEachIndexParallel(
        total,
        [&](std::size_t i) {
            std::size_t s = i / workloads.size();
            std::size_t w = i % workloads.size();
            report.cells[s][w] =
                superviseCell(workloads[w], specs[s], params, config);
        },
        jobs, config.progress);

    for (const auto &row : report.cells) {
        for (const CellResult &cell : row) {
            switch (cell.outcome) {
              case CellOutcome::Computed:
                ++report.computed;
                break;
              case CellOutcome::FromStore:
                ++report.fromStore;
                break;
              case CellOutcome::Quarantined:
                ++report.quarantined;
                break;
              case CellOutcome::SkippedQuarantined:
                ++report.skippedQuarantined;
                break;
            }
        }
    }
    return report;
}

} // namespace berti::harness
