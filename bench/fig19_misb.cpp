/**
 * @file
 * Figure 19: interaction with the MISB temporal prefetcher at L2 —
 * speedups of MLOP/IPCP/Berti with and without MISB, on CloudSuite
 * (where temporal patterns help) and on SPEC+GAP (where SPP-PPF is the
 * better L2 companion).
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace berti;
    using namespace berti::bench;
    const sim::SimOptions opt = parseOptions(argc, argv);

    SimParams params = defaultParams(opt);
    const std::vector<std::string> specs = {
        "ip-stride",  "mlop",      "ipcp",      "berti",
        "mlop+misb", "ipcp+misb", "berti+misb", "berti+spp-ppf",
    };

    std::cout << "Figure 19: speedup with and without MISB at L2 (vs "
                 "IP-stride)\n\n";
    TextTable t({"configuration", "cloud", "spec+gap"});

    auto cloud = suiteWorkloads("cloud");
    auto specgap = specGapWorkloads();
    auto mc = runMatrix(opt, cloud, specs, params);
    auto ms = runMatrix(opt, specgap, specs, params);

    for (const auto &name : specs) {
        if (name == "ip-stride")
            continue;
        t.addRow({name,
                  TextTable::num(suiteSpeedup(cloud, mc[name],
                                              mc["ip-stride"], "cloud")),
                  TextTable::num(suiteSpeedup(specgap, ms[name],
                                              ms["ip-stride"], ""))});
    }
    t.print(std::cout);
    return 0;
}
