/**
 * @file
 * Section V qualitative comparisons, quantified: the related-work
 * prefetchers the paper discusses but does not plot — stream, SMS,
 * VLDP, MISB and Pythia — against Berti, on the SPEC+GAP pool.
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
        "ip-stride", "stream",      "none+sms",   "none+vldp",
        "none+misb", "none+pythia", "berti",
    };
    auto m = runMatrix(opt, workloads, specs, params);

    std::cout << "Related work (section V): speedup vs IP-stride and "
                 "L1D accuracy\n\n";
    TextTable t({"configuration", "speedup-spec", "speedup-gap",
                 "speedup-all", "storage-KB"});
    for (const auto &name : specs) {
        if (name == "ip-stride")
            continue;
        t.addRow({name,
                  TextTable::num(suiteSpeedup(workloads, m[name],
                                              m["ip-stride"], "spec")),
                  TextTable::num(suiteSpeedup(workloads, m[name],
                                              m["ip-stride"], "gap")),
                  TextTable::num(suiteSpeedup(workloads, m[name],
                                              m["ip-stride"], "")),
                  TextTable::num(storageKb(opt, name), 2)});
    }
    t.print(std::cout);
    return 0;
}
