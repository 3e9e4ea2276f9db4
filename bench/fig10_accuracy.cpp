/**
 * @file
 * Figure 10: L1D prefetch accuracy, split into timely and late useful
 * prefetches, per suite.
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
    auto m = runMatrix(opt, workloads, {"mlop", "ipcp", "berti"}, params);

    std::cout << "Figure 10: prefetch accuracy at the L1D (useful = "
                 "timely + late)\n\n";
    TextTable t({"prefetcher", "suite", "accuracy", "timely", "late"});
    for (const char *name : {"mlop", "ipcp", "berti"}) {
        for (const char *suite : {"spec", "gap"}) {
            double acc = suiteAccuracy(workloads, m[name], suite);
            double late_frac =
                suiteLateFraction(workloads, m[name], suite);
            t.addRow({name, suite, TextTable::pct(acc),
                      TextTable::pct(acc - late_frac),
                      TextTable::pct(late_frac)});
        }
    }
    t.print(std::cout);
    return 0;
}
