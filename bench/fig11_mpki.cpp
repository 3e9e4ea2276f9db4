/**
 * @file
 * Figure 11: average demand MPKI at L1D, L2 and LLC with each L1D
 * prefetcher (and without prefetching), per suite.
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
                       {"none", "ip-stride", "mlop", "ipcp", "berti"},
                       params);

    std::cout << "Figure 11: demand MPKI with L1D prefetchers\n\n";
    TextTable t({"prefetcher", "suite", "L1D-MPKI", "L2-MPKI",
                 "LLC-MPKI"});
    for (const char *name :
         {"none", "ip-stride", "mlop", "ipcp", "berti"}) {
        for (const char *suite : {"spec", "gap"}) {
            auto mpki = [](const CacheStats &c, const SimResult &s) {
                return c.mpki(s.roi.core.instructions);
            };
            t.addRow(
                {name, suite,
                 TextTable::num(suiteMean(workloads, m[name], suite,
                                          [&](const SimResult &s) {
                                              return mpki(s.roi.l1d, s);
                                          }),
                                1),
                 TextTable::num(suiteMean(workloads, m[name], suite,
                                          [&](const SimResult &s) {
                                              return mpki(s.roi.l2, s);
                                          }),
                                1),
                 TextTable::num(suiteMean(workloads, m[name], suite,
                                          [&](const SimResult &s) {
                                              return mpki(s.roi.llc, s);
                                          }),
                                1)});
        }
    }
    t.print(std::cout);
    return 0;
}
