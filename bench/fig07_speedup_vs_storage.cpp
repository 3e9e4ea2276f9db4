/**
 * @file
 * Figure 7: geometric-mean speedup over the IP-stride baseline versus
 * prefetcher storage, across memory-intensive SPEC CPU2017-like and
 * GAP workloads, for single-level (L1D or L2) and multi-level
 * combinations.
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
        "ip-stride",   "mlop",        "ipcp",         "berti",
        "none+spp-ppf", "none+bingo", "mlop+bingo",   "mlop+spp-ppf",
        "berti+bingo", "berti+spp-ppf", "ipcp+ipcp",
    };
    auto m = runMatrix(opt, workloads, specs, params);

    std::cout << "Figure 7: speedup vs storage (baseline: L1D "
                 "IP-stride)\n\n";
    TextTable t({"configuration", "kind", "storage-KB",
                 "speedup-spec+gap"});
    auto kind = [](const std::string &name) {
        if (name.find('+') == std::string::npos)
            return "L1D";
        if (name.rfind("none+", 0) == 0)
            return "L2";
        return "L1D+L2";
    };
    for (const auto &name : specs) {
        double s =
            suiteSpeedup(workloads, m[name], m["ip-stride"], "");
        t.addRow({name, kind(name), TextTable::num(storageKb(opt, name), 2),
                  TextTable::num(s)});
    }
    t.print(std::cout);
    return 0;
}
