/**
 * @file
 * Section IV-J ablation: cross-page prefetching. Berti trains and
 * issues on virtual addresses, so prefetches may cross 4 KB pages (as
 * long as the STLB can translate them); this bench disables issuing
 * across pages (training unchanged) and reports the loss.
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
    for (bool cross : {true, false}) {
        BertiConfig cfg;
        cfg.crossPage = cross;
        specs.push_back(
            makeBertiSpec(cfg, cross ? "berti" : "berti-nocross"));
    }
    auto grid = runSpecMatrix(opt, workloads, specs, params, "abl_cross_page");
    const auto &base = grid[0];

    std::cout << "Ablation (section IV-J): cross-page prefetching\n\n";
    TextTable t({"configuration", "SPEC17", "GAP", "all"});
    for (std::size_t v = 0; v < 2; ++v) {
        const auto &r = grid[v + 1];
        t.addRow({v == 0 ? "cross-page (default)" : "page-bounded",
                  TextTable::num(
                      suiteSpeedup(workloads, r, base, "spec")),
                  TextTable::num(suiteSpeedup(workloads, r, base, "gap")),
                  TextTable::num(suiteSpeedup(workloads, r, base, ""))});
    }
    t.print(std::cout);
    return 0;
}
