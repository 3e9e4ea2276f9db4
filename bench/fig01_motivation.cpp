/**
 * @file
 * Figure 1: prefetch accuracy and dynamic memory-hierarchy energy of
 * state-of-the-art prefetchers (IPCP, MLOP, SPP-PPF at L2, Bingo at L2)
 * versus Berti, averaged over the memory-intensive SPEC CPU2017-like
 * and GAP suites. Energy is normalised to no prefetching.
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
    auto m = runMatrix(opt, workloads,
                       {"none", "mlop", "ipcp", "none+spp-ppf",
                        "none+bingo", "berti"},
                       params);

    std::cout << "Figure 1(a): prefetch accuracy (useful / prefetch "
                 "fills)\n";
    TextTable acc({"prefetcher", "level", "SPEC17-accuracy",
                   "GAP-accuracy"});
    struct Row
    {
        const char *spec;
        const char *label;
        const char *level;
        bool l2;
    };
    const Row rows[] = {
        {"mlop", "MLOP", "L1D", false},
        {"ipcp", "IPCP", "L1D", false},
        {"none+spp-ppf", "SPP-PPF", "L2", true},
        {"none+bingo", "Bingo", "L2", true},
        {"berti", "Berti", "L1D", false},
    };
    for (const Row &r : rows) {
        acc.addRow({r.label, r.level,
                    TextTable::pct(suiteAccuracy(workloads, m[r.spec],
                                                 "spec", r.l2)),
                    TextTable::pct(suiteAccuracy(workloads, m[r.spec],
                                                 "gap", r.l2))});
    }
    acc.print(std::cout);

    std::cout << "\nFigure 1(b): dynamic energy normalised to no "
                 "prefetching\n";
    TextTable en({"prefetcher", "SPEC17-energy", "GAP-energy"});
    for (const Row &r : rows) {
        auto norm = [&](const std::string &suite) {
            double base = suiteMean(workloads, m["none"], suite,
                                    [](const SimResult &s) {
                                        return s.energy.total() /
                                               s.roi.core.instructions;
                                    });
            double val = suiteMean(workloads, m[r.spec], suite,
                                   [](const SimResult &s) {
                                       return s.energy.total() /
                                              s.roi.core.instructions;
                                   });
            return base > 0 ? val / base : 0.0;
        };
        en.addRow({r.label, TextTable::num(norm("spec")),
                   TextTable::num(norm("gap"))});
    }
    en.print(std::cout);
    return 0;
}
