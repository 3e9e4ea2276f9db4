/**
 * @file
 * Figure 15: dynamic energy of the memory hierarchy (L1D+L2+LLC+DRAM),
 * normalised to no prefetching, per suite.
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
        "none", "ip-stride", "mlop", "ipcp", "berti",
        "mlop+bingo", "mlop+spp-ppf", "berti+bingo", "berti+spp-ppf",
    };
    auto m = runMatrix(opt, workloads, specs, params);

    std::cout << "Figure 15: dynamic energy normalised to no "
                 "prefetching\n\n";
    TextTable t({"configuration", "SPEC17", "GAP"});
    auto energy_pi = [](const SimResult &s) {
        return s.energy.total() /
               static_cast<double>(s.roi.core.instructions);
    };
    for (const auto &name : specs) {
        auto norm = [&](const char *suite) {
            double base =
                suiteMean(workloads, m["none"], suite, energy_pi);
            double val = suiteMean(workloads, m[name], suite, energy_pi);
            return base > 0 ? val / base : 0.0;
        };
        t.addRow({name, TextTable::num(norm("spec")),
                  TextTable::num(norm("gap"))});
    }
    t.print(std::cout);
    return 0;
}
