/**
 * @file
 * Crash-safe sweep CLI over the supervised worker layer: runs a
 * (workload x spec) matrix with a content-addressed result store, so a
 * killed sweep resumes from its completed cells, deterministic
 * failures are retried with backoff and then quarantined, and the
 * final matrix is emitted as per-cell JSON sidecars byte-identical to
 * an uninterrupted run.
 *
 * Usage:
 *   sweep_tool [options]
 *     --workloads=a,b,c     workload names and/or file: trace URIs
 *                           (file:/path/foo.champsim[.xz|.gz] or
 *                           file:/path/foo.trace; default: a small trio)
 *     --specs=x,y           prefetcher specs (default: none,berti)
 *     --store=DIR           result store directory (enables resume)
 *     --out=DIR             write per-cell resultSnapshot JSON here
 *     --warmup=N --measure=N --dram-mtps=N
 *     --mem-backend=SPEC    memory backend (mem/backend_registry.hh
 *                           grammar, e.g. dram:ddr5 or
 *                           "dram:hbm;sched=fcfs"; default dram:ddr4)
 *     --sample-windows=N    sampled mode: N measurement windows (0=off)
 *     --sample-warmup=N     per-window warmup instructions
 *     --sample-measure=N    per-window measured instructions (> 0)
 *     --sample-stride=N     window start spacing (0 = back-to-back)
 *     --hybrid-*=N          hybrid selector geometry
 *     --jobs=N              worker threads (default: BERTI_JOBS, else
 *                           all hardware threads)
 *     --attempts=N          max attempts per cell (default 3)
 *     --deadline-ms=N       per-simulation wall-clock budget
 *     --backoff-ms=N        base retry backoff (default 10)
 *     --rerun-failed        retry cells quarantined by earlier sweeps
 *     --poison=SPEC/WORKLOAD  deterministically fail that cell (tests)
 *     --quick               tiny warmup/measure for smoke tests
 *     --verify              run the invariant auditor in every cell
 *
 * Every other argument must be a SimOptions flag. SimOptions parses the
 * flags shared with the benches and their BERTI_* environment
 * variables, and SimParams::applyOptions carries them into each cell.
 * Every numeric flag is strict, and a malformed one is a typed Config
 * error.
 *
 * Exit status: 0 all cells ok, 2 when any cell is quarantined (the
 * rest of the matrix still completed and was stored), 1 on usage or
 * structural errors.
 */

#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/parallel.hh"
#include "harness/result_store.hh"
#include "harness/supervisor.hh"
#include "obs/export.hh"
#include "sim/options.hh"
#include "sim/spec_parse.hh"
#include "trace/registry.hh"
#include "verify/sim_error.hh"

namespace
{

using namespace berti;

struct Options
{
    std::vector<std::string> workloads = {"mcf-like.472",
                                          "bwaves-like.2609",
                                          "cactu-like.709"};
    std::vector<std::string> specs = {"none", "berti"};
    std::string storeDir;
    std::string outDir;
    sim::SimOptions simOpt = sim::SimOptions::fromEnv();
    SimParams params;
    unsigned attempts = 3;
    std::uint64_t backoffMs = 10;
    bool rerunFailed = false;
    std::string poisonSpec;
    std::string poisonWorkload;
};

/** False on a usage error (reported on stderr); malformed values throw
 *  verify::SimError(ErrorKind::Config). */
bool
parseArgs(int argc, char **argv, Options &opt)
{
    auto valueOf = [](const std::string &arg, const std::string &flag,
                      std::string &out) {
        if (arg.compare(0, flag.size(), flag) != 0)
            return false;
        out = arg.substr(flag.size());
        return true;
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string v;
        // Lists split on commas at paren depth 0, so composed specs
        // like "hybrid(berti,cmc)" stay one element.
        if (valueOf(arg, "--workloads=", v)) {
            opt.workloads = sim::splitTopLevel(v, ',');
        } else if (valueOf(arg, "--specs=", v)) {
            opt.specs = sim::splitTopLevel(v, ',');
        } else if (valueOf(arg, "--store=", v)) {
            opt.storeDir = v;
        } else if (valueOf(arg, "--out=", v)) {
            opt.outDir = v;
        } else if (valueOf(arg, "--warmup=", v)) {
            opt.params.warmupInstructions =
                sim::parseInteger("--warmup", v, 0);
        } else if (valueOf(arg, "--measure=", v)) {
            opt.params.measureInstructions =
                sim::parseInteger("--measure", v, 0);
        } else if (valueOf(arg, "--dram-mtps=", v)) {
            opt.params.dramMtps = static_cast<unsigned>(
                sim::parseInteger("--dram-mtps", v, 1));
        } else if (valueOf(arg, "--attempts=", v)) {
            opt.attempts = static_cast<unsigned>(
                sim::parseInteger("--attempts", v, 0));
        } else if (valueOf(arg, "--deadline-ms=", v)) {
            opt.params.wallClockBudgetMs =
                sim::parseInteger("--deadline-ms", v, 0);
        } else if (valueOf(arg, "--backoff-ms=", v)) {
            opt.backoffMs = sim::parseInteger("--backoff-ms", v, 0);
        } else if (arg == "--rerun-failed") {
            opt.rerunFailed = true;
        } else if (valueOf(arg, "--poison=", v)) {
            std::size_t slash = v.find('/');
            if (slash == std::string::npos) {
                std::cerr << "error: --poison needs SPEC/WORKLOAD\n";
                return false;
            }
            opt.poisonSpec = v.substr(0, slash);
            opt.poisonWorkload = v.substr(slash + 1);
        } else if (arg == "--quick") {
            opt.params.warmupInstructions = 2000;
            opt.params.measureInstructions = 10000;
        } else if (!opt.simOpt.applyFlag(arg)) {
            std::cerr << "error: unknown argument '" << arg << "'\n";
            return false;
        }
    }
    opt.params.applyOptions(opt.simOpt);
    return !opt.workloads.empty() && !opt.specs.empty();
}

/** Sidecar path for one cell under --out (no store key in the name:
 *  the layout is byte-comparable across runs with `diff -r`). */
std::string
sidecarPath(const std::string &dir, const std::string &spec,
            const std::string &workload)
{
    return dir + "/" + obs::sanitizeLabel(spec) + "__" +
           obs::sanitizeLabel(workload) + ".json";
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Options opt;
        if (!parseArgs(argc, argv, opt))
            return 1;

        std::vector<Workload> workloads;
        for (const std::string &name : opt.workloads)
            workloads.push_back(resolveWorkload(name));
        // Options-aware resolution: hybrid specs pick up the selector
        // geometry and canonicalize their store-key names accordingly.
        std::vector<PrefetcherSpec> specs;
        for (const std::string &name : opt.specs)
            specs.push_back(makeSpec(name, opt.simOpt));

        std::unique_ptr<harness::ResultStore> store;
        if (!opt.storeDir.empty()) {
            store = std::make_unique<harness::ResultStore>(opt.storeDir);
            if (store->staleTempFilesRemoved() > 0) {
                std::cerr << "sweep: removed "
                          << store->staleTempFilesRemoved()
                          << " stale .tmp file(s) from "
                          << opt.storeDir << "\n";
            }
        }

        harness::SupervisorConfig sup;
        sup.maxAttempts = opt.attempts;
        sup.backoffBaseMs = opt.backoffMs;
        sup.store = store.get();
        sup.rerunFailed = opt.rerunFailed;
        sup.jobs = opt.simOpt.jobs;
        sup.progress = stderrProgress("sweep");
        if (!opt.poisonSpec.empty()) {
            std::string pspec = opt.poisonSpec;
            std::string pworkload = opt.poisonWorkload;
            sup.preAttempt = [pspec, pworkload](
                                 const std::string &workload,
                                 const std::string &spec, unsigned) {
                if (spec == pspec && workload == pworkload) {
                    throw verify::SimError(
                        verify::ErrorKind::Fault, "sweep_tool",
                        "cell poisoned by --poison (deterministic "
                        "failure for crash-safety tests)");
                }
            };
        }

        harness::SweepReport report = harness::runSupervisedMatrix(
            workloads, specs, opt.params, sup);

        for (std::size_t s = 0; s < report.cells.size(); ++s) {
            for (const harness::CellResult &cell : report.cells[s]) {
                if (cell.ok() && !opt.outDir.empty()) {
                    obs::writeFile(
                        sidecarPath(opt.outDir, cell.spec, cell.workload),
                        obs::toJson(resultSnapshot(cell.result)) + "\n");
                }
                if (!cell.ok()) {
                    std::cerr << "sweep: cell " << cell.spec << "/"
                              << cell.workload << " "
                              << harness::cellOutcomeName(cell.outcome)
                              << " ["
                              << verify::errorKindName(cell.error.kind)
                              << "] " << cell.error.reason << "\n";
                }
            }
        }

        std::cout << "sweep: " << report.summary() << "\n";
        if (store) {
            std::cout << "sweep: store=" << store->directory()
                      << " code=" << harness::resultStoreCodeVersion()
                      << " params="
                      << harness::paramsFingerprint(opt.params) << "\n";
        }
        return report.quarantined + report.skippedQuarantined > 0 ? 2 : 0;
    } catch (const verify::SimError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
