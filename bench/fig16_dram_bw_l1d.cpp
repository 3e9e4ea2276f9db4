/**
 * @file
 * Figure 16: L1D prefetcher speedups (vs IP-stride at the same DRAM
 * speed) under constrained DRAM bandwidth: DDR5-6400, DDR4-3200 and
 * DDR3-1600 transfer rates.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace berti;
    using namespace berti::bench;
    const sim::SimOptions opt = sim::SimOptions::fromEnvAndArgs(argc, argv);

    auto workloads = specGapWorkloads();
    std::cout << "Figure 16: L1D prefetchers under constrained DRAM "
                 "bandwidth (speedup vs IP-stride at same MTPS)\n\n";
    TextTable t({"prefetcher", "MTPS", "SPEC17", "GAP", "all"});
    for (unsigned mtps : {6400u, 3200u, 1600u}) {
        SimParams params = defaultParams(opt);
        params.dramMtps = mtps;
        auto m = runMatrix(opt, workloads,
                           {"ip-stride", "mlop", "ipcp", "berti"},
                           params);
        for (const char *name : {"mlop", "ipcp", "berti"}) {
            t.addRow(
                {name, std::to_string(mtps),
                 TextTable::num(suiteSpeedup(workloads, m[name],
                                             m["ip-stride"], "spec")),
                 TextTable::num(suiteSpeedup(workloads, m[name],
                                             m["ip-stride"], "gap")),
                 TextTable::num(suiteSpeedup(workloads, m[name],
                                             m["ip-stride"], ""))});
        }
    }
    t.print(std::cout);
    return 0;
}
