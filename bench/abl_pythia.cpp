/**
 * @file
 * Section V claim check: "Berti is an L1D prefetcher in contrast to
 * Pythia, and with Berti at the L1D, we find negligible performance
 * improvement with Pythia (less than 1%)". Runs Berti alone, Pythia
 * (at L2) alone, and Berti+Pythia, and reports the marginal gain of
 * adding Pythia on top of Berti.
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
    auto m = runMatrix(opt, workloads,
                       {"ip-stride", "none+pythia", "berti",
                        "berti+pythia"},
                       params);

    std::cout << "Related-work check (section V): Pythia on top of "
                 "Berti\n\n";
    TextTable t({"configuration", "SPEC17", "GAP", "all"});
    for (const char *name :
         {"none+pythia", "berti", "berti+pythia"}) {
        t.addRow({name,
                  TextTable::num(suiteSpeedup(workloads, m[name],
                                              m["ip-stride"], "spec")),
                  TextTable::num(suiteSpeedup(workloads, m[name],
                                              m["ip-stride"], "gap")),
                  TextTable::num(suiteSpeedup(workloads, m[name],
                                              m["ip-stride"], ""))});
    }
    t.print(std::cout);

    double marginal =
        suiteSpeedup(workloads, m["berti+pythia"], m["berti"], "");
    std::cout << "\nMarginal gain of Pythia on top of Berti: "
              << TextTable::pct(marginal - 1.0)
              << " (paper: less than 1%)\n";
    return 0;
}
