/**
 * @file
 * Figure 9: per-workload speedups of the L1D prefetchers over
 * IP-stride, for every SPEC CPU2017-like and GAP trace.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace berti;
    using namespace berti::bench;
    const sim::SimOptions opt = parseOptions(argc, argv);

    auto workloads = specGapWorkloads();
    // Real ChampSim traces requested via BERTI_TRACE_WORKLOADS ride
    // along as extra per-trace rows (suite "file").
    for (auto &w : extraTraceWorkloads(opt))
        workloads.push_back(std::move(w));
    SimParams params = defaultParams(opt);
    auto m = runMatrix(opt, workloads, {"ip-stride", "mlop", "ipcp", "berti"},
                       params);

    std::cout << "Figure 9: per-trace speedup vs IP-stride\n\n";
    TextTable t({"workload", "suite", "MLOP", "IPCP", "Berti"});
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        double base = m["ip-stride"][i].ipc;
        t.addRow({workloads[i].name, workloads[i].suite,
                  TextTable::num(m["mlop"][i].ipc / base),
                  TextTable::num(m["ipcp"][i].ipc / base),
                  TextTable::num(m["berti"][i].ipc / base)});
    }
    t.addRow({"geomean-all", "",
              TextTable::num(
                  suiteSpeedup(workloads, m["mlop"], m["ip-stride"], "")),
              TextTable::num(
                  suiteSpeedup(workloads, m["ipcp"], m["ip-stride"], "")),
              TextTable::num(suiteSpeedup(workloads, m["berti"],
                                          m["ip-stride"], ""))});
    t.print(std::cout);
    return 0;
}
