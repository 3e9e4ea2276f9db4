/**
 * @file
 * Figure 8: per-suite geometric-mean speedup of the L1D prefetchers
 * (MLOP, IPCP, Berti) over the IP-stride baseline.
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
    auto m = runMatrix(opt, workloads, {"ip-stride", "mlop", "ipcp", "berti"},
                       params);

    std::cout << "Figure 8: speedup of L1D prefetchers vs IP-stride\n\n";
    TextTable t({"prefetcher", "SPEC17", "GAP", "all"});
    for (const char *name : {"mlop", "ipcp", "berti"}) {
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
