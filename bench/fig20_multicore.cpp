/**
 * @file
 * Figure 20: 4-core heterogeneous mixes (randomly drawn from the
 * memory-intensive SPEC-like + GAP pool), speedup relative to the
 * 4-core system with IP-stride at every L1D. Per-core speedups are
 * combined with the geometric mean per mix, then averaged.
 */

#include "common.hh"
#include "sim/rng.hh"

int
main(int argc, char **argv)
{
    using namespace berti;
    using namespace berti::bench;
    const sim::SimOptions opt = sim::SimOptions::fromEnvAndArgs(argc, argv);

    const unsigned kMixes = 8;
    const unsigned kCores = 4;

    auto pool = specGapWorkloads();
    Rng rng(0x20221001);
    std::vector<std::vector<Workload>> mixes;
    for (unsigned i = 0; i < kMixes; ++i) {
        std::vector<Workload> mix;
        for (unsigned c = 0; c < kCores; ++c)
            mix.push_back(pool[rng.nextBounded(pool.size())]);
        mixes.push_back(mix);
    }

    SimParams params = defaultParams(opt);
    params.warmupInstructions /= 2;   // 4 cores: keep runtime sane
    params.measureInstructions /= 2;

    const std::vector<std::string> specs = {
        "ip-stride", "mlop", "ipcp", "berti",
        "mlop+bingo", "berti+spp-ppf", "ipcp+ipcp",
    };

    std::cout << "Figure 20: 4-core mix speedups vs IP-stride (" << kMixes
              << " random heterogeneous mixes)\n\n";

    // Every (spec, mix) 4-core simulation is an independent job;
    // grid[spec][mix] holds the per-core results in input order.
    std::vector<PrefetcherSpec> spec_objs;
    for (const auto &name : specs)
        spec_objs.push_back(makeSpec(name, opt));
    std::vector<std::vector<std::vector<SampledResult>>> grid(
        specs.size(), std::vector<std::vector<SampledResult>>(mixes.size()));
    forEachIndexParallel(
        specs.size() * mixes.size(),
        [&](std::size_t cell) {
            std::size_t s = cell / mixes.size();
            std::size_t mi = cell % mixes.size();
            grid[s][mi] = simulateMix(mixes[mi], spec_objs[s], params);
        },
        opt.jobs, stderrProgress("fig20 mixes"));

    // speedups[spec][mix]
    std::map<std::string, std::vector<double>> speedups;
    for (std::size_t s = 0; s < specs.size(); ++s) {
        if (specs[s] == "ip-stride")
            continue;
        for (std::size_t mi = 0; mi < mixes.size(); ++mi) {
            std::vector<double> ratio;
            for (unsigned c = 0; c < kCores; ++c)
                ratio.push_back(grid[s][mi][c].aggregate.ipc /
                                grid[0][mi][c].aggregate.ipc);
            speedups[specs[s]].push_back(
                geomean(ratio.data(), ratio.size()));
        }
    }

    TextTable t({"configuration", "mean-mix-speedup", "best-mix",
                 "worst-mix"});
    for (const auto &name : specs) {
        if (name == "ip-stride")
            continue;
        const auto &v = speedups[name];
        double best = v[0], worst = v[0];
        for (double s : v) {
            best = std::max(best, s);
            worst = std::min(worst, s);
        }
        t.addRow({name, TextTable::num(geomean(v.data(), v.size())),
                  TextTable::num(best), TextTable::num(worst)});
    }
    t.print(std::cout);
    return 0;
}
