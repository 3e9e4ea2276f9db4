/**
 * @file
 * Figure 18: CloudSuite-like speedups for L1D prefetchers and
 * multi-level combinations, with the per-workload breakdown (the paper
 * highlights Classification as the one benchmark where only Berti
 * helps, and the low data-MPKI regime overall).
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace berti;
    using namespace berti::bench;
    const sim::SimOptions opt = parseOptions(argc, argv);

    auto workloads = suiteWorkloads("cloud");
    SimParams params = defaultParams(opt);
    const std::vector<std::string> specs = {
        "ip-stride", "mlop", "ipcp", "berti",
        "mlop+bingo", "berti+spp-ppf",
    };
    auto m = runMatrix(opt, workloads, specs, params);

    std::cout << "Figure 18: CloudSuite speedup vs IP-stride\n\n";
    TextTable t({"workload", "MLOP", "IPCP", "Berti", "MLOP+Bingo",
                 "Berti+SPP-PPF", "L1D-MPKI", "L1I-MPKI"});
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        double base = m["ip-stride"][i].ipc;
        const SimResult &none = m["ip-stride"][i];
        t.addRow({workloads[i].name,
                  TextTable::num(m["mlop"][i].ipc / base),
                  TextTable::num(m["ipcp"][i].ipc / base),
                  TextTable::num(m["berti"][i].ipc / base),
                  TextTable::num(m["mlop+bingo"][i].ipc / base),
                  TextTable::num(m["berti+spp-ppf"][i].ipc / base),
                  TextTable::num(none.roi.l1d.mpki(
                                     none.roi.core.instructions), 1),
                  TextTable::num(none.roi.l1i.mpki(
                                     none.roi.core.instructions), 1)});
    }
    t.addRow({"geomean",
              TextTable::num(suiteSpeedup(workloads, m["mlop"],
                                          m["ip-stride"], "cloud")),
              TextTable::num(suiteSpeedup(workloads, m["ipcp"],
                                          m["ip-stride"], "cloud")),
              TextTable::num(suiteSpeedup(workloads, m["berti"],
                                          m["ip-stride"], "cloud")),
              TextTable::num(suiteSpeedup(workloads, m["mlop+bingo"],
                                          m["ip-stride"], "cloud")),
              TextTable::num(suiteSpeedup(workloads, m["berti+spp-ppf"],
                                          m["ip-stride"], "cloud")),
              "", ""});
    t.print(std::cout);
    return 0;
}
