/**
 * @file
 * Figure 13: L2 and LLC demand MPKI for multi-level prefetching
 * combinations (with the L1D-only variants for reference).
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace berti;
    using namespace berti::bench;
    const sim::SimOptions opt = parseOptions(argc, argv);

    auto workloads = specGapWorkloads();
    SimParams params = defaultParams(opt);
    const std::vector<std::string> specs = {
        "mlop", "berti", "ipcp",       "mlop+bingo", "mlop+spp-ppf",
        "berti+bingo", "berti+spp-ppf", "ipcp+ipcp",
    };
    auto m = runMatrix(opt, workloads, specs, params);

    std::cout << "Figure 13: demand MPKI with multi-level "
                 "prefetching\n\n";
    TextTable t({"configuration", "suite", "L2-MPKI", "LLC-MPKI"});
    for (const auto &name : specs) {
        for (const char *suite : {"spec", "gap"}) {
            t.addRow(
                {name, suite,
                 TextTable::num(
                     suiteMean(workloads, m[name], suite,
                               [](const SimResult &s) {
                                   return s.roi.l2.mpki(
                                       s.roi.core.instructions);
                               }),
                     1),
                 TextTable::num(
                     suiteMean(workloads, m[name], suite,
                               [](const SimResult &s) {
                                   return s.roi.llc.mpki(
                                       s.roi.core.instructions);
                               }),
                     1)});
        }
    }
    t.print(std::cout);
    return 0;
}
