/**
 * @file
 * Simulator-speed harness: how fast does the simulator itself run?
 *
 * For one workload per access-pattern class (low-MLP pointer chasing,
 * streaming, irregular/mixed) and spec in {none, berti}, the harness
 * runs the identical simulation twice — quiescence cycle-skip off and
 * on — and reports host throughput as simulated Mcycles/s and demand
 * Maccesses/s plus the skip speedup. The two runs must produce
 * byte-identical result snapshots (the skip's core invariant); any
 * divergence fails the bench.
 *
 * Output: a human-readable table on stdout and a metrics-snapshot JSON
 * document (--out, default BENCH_simspeed.json) in the standard
 * versioned schema, so run_benches.sh and CI diff it with the same
 * tooling as every other stats artifact.
 *
 * CI gate: --baseline <file> --max-regress <frac> re-reads a previous
 * document and fails when any throughput gauge drops by more than the
 * given fraction. Wall-clock numbers are noisy across hosts, so the
 * checked-in baseline is a conservative floor, not a measured value.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hh"
#include "harness/machine.hh"
#include "obs/export.hh"
#include "prefetch/registry.hh"
#include "sim/options.hh"
#include "trace/registry.hh"

namespace
{

using namespace berti;
using namespace berti::bench;

struct ClassDef
{
    const char *cls;       //!< access-pattern class label
    const char *workload;  //!< registered workload name
};

// One representative per class the paper's analysis distinguishes. The
// pointer chase is the low-MLP case the cycle-skip targets: one load in
// flight, hundreds of provably idle cycles per miss.
constexpr ClassDef kClasses[] = {
    {"pointer-chase", "mcf-like.1536"},
    {"streaming", "bwaves-like.2609"},
    {"mixed", "cactu-like.709"},
};

constexpr const char *kSpecs[] = {"none", "berti"};

struct Measurement
{
    double seconds = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t accesses = 0;
    std::uint64_t skipped = 0;
    std::string snapshotJson;  //!< resultSnapshot, for invariance check

    double mcyclesPerSec() const
    {
        return seconds > 0 ? static_cast<double>(cycles) / seconds / 1e6
                           : 0.0;
    }
    double maccessesPerSec() const
    {
        return seconds > 0
                   ? static_cast<double>(accesses) / seconds / 1e6
                   : 0.0;
    }
};

Measurement
runOnce(const Workload &workload, const PrefetcherSpec &spec,
        const SimParams &params, const sim::SimOptions &opt,
        bool cycle_skip)
{
    auto gen = workload.make();
    MachineConfig cfg = MachineConfig::sunnyCove(1);
    cfg.applyOptions(opt);
    cfg.cycleSkip = cycle_skip;
    cfg.l1dPrefetcher = spec.l1d;
    cfg.l2Prefetcher = spec.l2;

    Machine machine(cfg, {gen.get()});

    auto t0 = std::chrono::steady_clock::now();
    machine.run(params.warmupInstructions);
    RunStats start = machine.liveStats(0);
    machine.run(params.measureInstructions);
    RunStats end = machine.liveStats(0);
    auto t1 = std::chrono::steady_clock::now();

    SimResult r;
    r.roi = end.diff(start);
    r.ipc = r.roi.core.ipc();

    Measurement m;
    m.seconds = std::chrono::duration<double>(t1 - t0).count();
    m.cycles = machine.cycle();
    m.accesses = end.l1d.demandAccesses;
    m.skipped = machine.skippedCycles();
    m.snapshotJson = obs::toJson(resultSnapshot(r));
    return m;
}

/** Throughput gauges under "<workload>.<spec>.<mode>." prefixes. */
void
recordGauges(obs::MetricsSnapshot &snap, const std::string &prefix,
             const Measurement &m)
{
    snap.setGauge(prefix + "mcycles_per_s", m.mcyclesPerSec());
    snap.setGauge(prefix + "maccesses_per_s", m.maccessesPerSec());
    snap.setGauge(prefix + "skipped_frac",
                  m.cycles ? static_cast<double>(m.skipped) / m.cycles
                           : 0.0);
}

int
checkBaseline(const obs::MetricsSnapshot &actual,
              const std::string &baseline_path, double max_regress)
{
    std::ifstream in(baseline_path);
    if (!in) {
        std::fprintf(stderr, "perf_simspeed: cannot read baseline %s\n",
                     baseline_path.c_str());
        return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    obs::MetricsSnapshot base =
        obs::snapshotFromJson(buf.str(), baseline_path);

    int failures = 0;
    for (const auto &kv : base.values()) {
        // Gate throughput floors and the skip speedups; skipped_frac
        // is informational.
        if (kv.second.kind != obs::MetricKind::Gauge ||
            (kv.first.find("_per_s") == std::string::npos &&
             kv.first.find("skip_speedup") == std::string::npos))
            continue;
        if (!actual.contains(kv.first)) {
            std::fprintf(stderr, "REGRESSION %s: missing from run\n",
                         kv.first.c_str());
            ++failures;
            continue;
        }
        double measured = actual.gauge(kv.first);
        double floor = kv.second.d * (1.0 - max_regress);
        if (measured < floor) {
            std::fprintf(stderr,
                         "REGRESSION %s: %.3f < floor %.3f "
                         "(baseline %.3f, max-regress %.0f%%)\n",
                         kv.first.c_str(), measured, floor, kv.second.d,
                         max_regress * 100.0);
            ++failures;
        }
    }
    if (failures == 0)
        std::printf("baseline check OK (%s, max-regress %.0f%%)\n",
                    baseline_path.c_str(), max_regress * 100.0);
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    sim::SimOptions opt = sim::SimOptions::fromEnvAndArgs(argc, argv);

    std::string out_path = "BENCH_simspeed.json";
    std::string baseline_path;
    double max_regress = 0.20;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--out=", 0) == 0) {
            out_path = a.substr(6);
        } else if (a.rfind("--baseline=", 0) == 0) {
            baseline_path = a.substr(11);
        } else if (a.rfind("--max-regress=", 0) == 0) {
            max_regress = std::atof(a.c_str() + 14);
        } else {
            std::fprintf(stderr, "perf_simspeed: unknown argument %s\n",
                         a.c_str());
            return 2;
        }
    }

    SimParams params = defaultParams(opt);

    obs::MetricsSnapshot snap;
    int rc = 0;

    std::printf("%-14s %-7s %11s %11s %11s %9s %9s\n", "class", "spec",
                "Mcyc/s:off", "Mcyc/s:on", "speedup", "Macc/s:on",
                "skip%");
    for (const ClassDef &c : kClasses) {
        const Workload &w = findWorkload(c.workload);
        for (const char *spec_name : kSpecs) {
            PrefetcherSpec spec = makeSpec(spec_name);
            Measurement off =
                runOnce(w, spec, params, opt, /*cycle_skip=*/false);
            Measurement on =
                runOnce(w, spec, params, opt, /*cycle_skip=*/true);

            // The tentpole invariant: skipping provably idle cycles
            // must not change a single statistic.
            if (off.snapshotJson != on.snapshotJson) {
                std::fprintf(stderr,
                             "DIVERGENCE: %s/%s differs between "
                             "cycle-skip off and on\n",
                             c.cls, spec_name);
                rc = 1;
            }

            double speedup =
                off.mcyclesPerSec() > 0
                    ? on.mcyclesPerSec() / off.mcyclesPerSec()
                    : 0.0;
            std::printf("%-14s %-7s %11.2f %11.2f %10.2fx %9.2f %8.1f%%\n",
                        c.cls, spec_name, off.mcyclesPerSec(),
                        on.mcyclesPerSec(), speedup,
                        on.maccessesPerSec(),
                        100.0 * (on.cycles
                                     ? static_cast<double>(on.skipped) /
                                           on.cycles
                                     : 0.0));

            std::string prefix = obs::sanitizeLabel(c.cls) + "." +
                                 obs::sanitizeLabel(spec_name);
            recordGauges(snap, prefix + ".skip_off.", off);
            recordGauges(snap, prefix + ".skip_on.", on);
            snap.setGauge(prefix + ".skip_speedup", speedup);
        }
    }

    obs::writeFile(out_path, obs::toJson(snap));
    std::printf("wrote %s\n", out_path.c_str());

    if (!baseline_path.empty()) {
        int brc = checkBaseline(snap, baseline_path, max_regress);
        if (brc != 0)
            rc = brc;
    }
    return rc;
}
