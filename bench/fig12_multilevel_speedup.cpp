/**
 * @file
 * Figure 12: speedup of multi-level prefetching combinations (L1D+L2)
 * over the IP-stride baseline, per suite, against Berti alone.
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
        "ip-stride",  "berti",        "mlop+bingo", "mlop+spp-ppf",
        "berti+bingo", "berti+spp-ppf", "ipcp+ipcp",
    };
    auto m = runMatrix(opt, workloads, specs, params);

    std::cout << "Figure 12: multi-level prefetching speedup vs "
                 "IP-stride\n\n";
    TextTable t({"configuration", "SPEC17", "GAP", "all"});
    for (const auto &name : specs) {
        if (name == "ip-stride")
            continue;
        t.addRow({name,
                  TextTable::num(suiteSpeedup(workloads, m[name],
                                              m["ip-stride"], "spec")),
                  TextTable::num(suiteSpeedup(workloads, m[name],
                                              m["ip-stride"], "gap")),
                  TextTable::num(suiteSpeedup(workloads, m[name],
                                              m["ip-stride"], ""))});
    }
    t.print(std::cout);
    return 0;
}
