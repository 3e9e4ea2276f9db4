/**
 * @file
 * Figure 14: traffic between hierarchy levels (demand + prefetch +
 * writeback requests), normalised to no prefetching, per suite.
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
    const std::vector<std::string> specs = {
        "none", "ip-stride", "mlop", "ipcp", "berti",
        "mlop+bingo", "berti+bingo", "berti+spp-ppf",
    };
    auto m = runMatrix(opt, workloads, specs, params);

    std::cout << "Figure 14: memory-hierarchy traffic normalised to no "
                 "prefetching\n\n";
    TextTable t({"configuration", "suite", "L1D->L2", "L2->LLC",
                 "LLC->DRAM"});
    auto per_instr = [](double v, const SimResult &s) {
        return v / static_cast<double>(s.roi.core.instructions);
    };
    for (const auto &name : specs) {
        for (const char *suite : {"spec", "gap"}) {
            auto norm = [&](auto metric) {
                double base = suiteMean(workloads, m["none"], suite,
                                        metric);
                double val = suiteMean(workloads, m[name], suite,
                                       metric);
                return base > 0 ? val / base : 0.0;
            };
            t.addRow(
                {name, suite,
                 TextTable::num(norm([&](const SimResult &s) {
                     return per_instr(trafficBelow(s.roi.l1d), s);
                 })),
                 TextTable::num(norm([&](const SimResult &s) {
                     return per_instr(trafficBelow(s.roi.l2), s);
                 })),
                 TextTable::num(norm([&](const SimResult &s) {
                     return per_instr(trafficBelow(s.roi.llc), s);
                 }))});
        }
    }
    t.print(std::cout);
    return 0;
}
