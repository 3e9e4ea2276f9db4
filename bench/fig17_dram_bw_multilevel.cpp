/**
 * @file
 * Figure 17: multi-level prefetching combinations under constrained
 * DRAM bandwidth (6400 / 3200 / 1600 MTPS), speedup vs IP-stride at
 * the same transfer rate.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace berti;
    using namespace berti::bench;
    const sim::SimOptions opt = parseOptions(argc, argv);

    auto workloads = specGapWorkloads();
    std::cout << "Figure 17: multi-level prefetching under constrained "
                 "DRAM bandwidth\n\n";
    TextTable t({"configuration", "MTPS", "SPEC17", "GAP", "all"});
    for (unsigned mtps : {6400u, 3200u, 1600u}) {
        SimParams params = defaultParams(opt);
        params.memBackend = backendAtRate(opt, mtps);
        auto m = runMatrix(opt, workloads,
                           {"ip-stride", "berti", "mlop+bingo",
                            "berti+spp-ppf"},
                           params,
                           mem::canonicalBackendSpec(params.memBackend));
        for (const char *name :
             {"berti", "mlop+bingo", "berti+spp-ppf"}) {
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
