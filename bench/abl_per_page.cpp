/**
 * @file
 * Heritage comparison: per-IP local deltas (this paper) versus the
 * per-page context of the DPC-3 precursor the paper cites ("Berti: a
 * per-page best-request-time delta prefetcher"). The per-IP context is
 * what separates interleaved streams; per-page folds every IP touching
 * a page into one delta history.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace berti;
    using namespace berti::bench;
    const sim::SimOptions opt = sim::SimOptions::fromEnvAndArgs(argc, argv);

    auto workloads = specGapWorkloads();
    SimParams params = defaultParams(opt);

    std::vector<PrefetcherSpec> specs = {makeSpec("ip-stride")};
    for (bool per_page : {false, true}) {
        BertiConfig cfg;
        cfg.perPage = per_page;
        specs.push_back(
            makeBertiSpec(cfg, per_page ? "berti-page" : "berti-ip"));
    }
    auto grid = runSpecMatrix(opt, workloads, specs, params, "abl_per_page");
    const auto &base = grid[0];

    std::cout << "Heritage: per-IP (MICRO 2022) vs per-page (DPC-3) "
                 "delta context\n\n";
    TextTable t({"context", "speedup-spec", "speedup-gap", "speedup-all",
                 "accuracy-spec+gap"});
    for (std::size_t v = 0; v < 2; ++v) {
        const auto &r = grid[v + 1];
        t.addRow({v == 1 ? "per-page (DPC-3)" : "per-IP (paper)",
                  TextTable::num(suiteSpeedup(workloads, r, base,
                                              "spec")),
                  TextTable::num(suiteSpeedup(workloads, r, base, "gap")),
                  TextTable::num(suiteSpeedup(workloads, r, base, "")),
                  TextTable::pct(suiteAccuracy(workloads, r, ""))});
    }
    t.print(std::cout);
    return 0;
}
