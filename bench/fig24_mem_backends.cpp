/**
 * @file
 * Figure 24: Berti timeliness sensitivity across memory backends. The
 * same prefetcher specs run against every registered timing model
 * (DDR4, DDR5, LPDDR5, HBM — see mem/backend_registry.hh), showing how
 * Berti's speedup, accuracy and late-prefetch fraction track the
 * memory system's latency/bandwidth corner: local deltas are learned
 * from measured fill latencies, so a slower memory stretches the
 * timeliness window while a high-bandwidth stack shrinks it.
 *
 * --backends=a,b,... overrides the swept backend list (CI smoke runs
 * two cells); each backend's per-cell stats sidecars land in their own
 * BERTI_STATS_DIR subdirectory so identical spec x workload names
 * never collide across backends.
 */

#include "common.hh"

#include "mem/backend_registry.hh"

int
main(int argc, char **argv)
{
    using namespace berti;
    using namespace berti::bench;

    sim::SimOptions opt = sim::SimOptions::fromEnvAndArgs(argc, argv);

    // Default sweep: every registered model at its preset geometry.
    std::vector<std::string> backends;
    for (const std::string &model : mem::knownBackendModels())
        backends.push_back("dram:" + model);
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.compare(0, 11, "--backends=") != 0)
            rejectArgument(argv[0], arg);
        backends = sim::splitTopLevel(arg.substr(11), ',');
    }

    const std::vector<std::string> spec_names = {"none", "ip-stride",
                                                 "berti"};

    std::cout << "Figure 24: Berti vs memory backend (timeliness "
                 "sensitivity across timing models)\n\n";

    auto workloads = specGapWorkloads();
    auto extra = extraTraceWorkloads(opt);
    workloads.insert(workloads.end(), extra.begin(), extra.end());

    TextTable t({"backend", "prefetcher", "speedup", "accuracy",
                 "late%", "read lat", "row hit%"});

    for (const std::string &backend : backends) {
        // Parse up front: a typo in --backends= should fail before any
        // simulation, with the SimError naming the offending spec.
        mem::ParsedBackend parsed = mem::parseBackendSpec(backend);

        SimParams params = defaultParams(opt);
        params.memBackend = backend;

        std::vector<PrefetcherSpec> specs;
        for (const auto &name : spec_names)
            specs.push_back(makeSpec(name));

        auto grid = runSpecMatrix(opt, workloads, specs, params,
                                  parsed.canonical, parsed.canonical);
        std::map<std::string, std::vector<SimResult>> m;
        for (std::size_t s = 0; s < specs.size(); ++s)
            m.emplace(spec_names[s], std::move(grid[s]));

        for (const auto &name : spec_names) {
            if (name == "none")
                continue;
            // Suite-aggregate DRAM behaviour under this prefetcher:
            // mean read latency and row-buffer locality, from the new
            // dram.read_latency_* / row-hit counters.
            double lat_sum = 0, lat_n = 0, hits = 0, acts = 0;
            for (const SimResult &r : m[name]) {
                lat_sum += static_cast<double>(r.roi.dram.readLatencySum);
                lat_n += static_cast<double>(r.roi.dram.readLatencyCount);
                hits += static_cast<double>(r.roi.dram.rowHits);
                acts += static_cast<double>(r.roi.dram.rowHits +
                                            r.roi.dram.rowMisses +
                                            r.roi.dram.rowConflicts);
            }
            t.addRow({parsed.canonical, name,
                      TextTable::num(suiteSpeedup(workloads, m[name],
                                                  m["none"], "")),
                      TextTable::num(suiteAccuracy(workloads, m[name], "")),
                      TextTable::num(100.0 * suiteLateFraction(
                                                 workloads, m[name], "")),
                      TextTable::num(lat_n > 0 ? lat_sum / lat_n : 0.0),
                      TextTable::num(acts > 0 ? 100.0 * hits / acts
                                              : 0.0)});
        }
    }
    t.print(std::cout);
    return 0;
}
