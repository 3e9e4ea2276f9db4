/**
 * @file
 * Figure 23: hybrid prefetcher composition — the fig19-class suite
 * comparison regenerated with hybrid(...) specs next to their static
 * children. Shows what each selection policy buys: union forwarding
 * under the budget governor, the per-IP credit selector, and
 * set-dueling (which should match or beat its best static child).
 *
 * Extra `file:` traces from BERTI_TRACE_WORKLOADS / --trace-workloads
 * ride along as a third suite column when present.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace berti;
    using namespace berti::bench;

    sim::SimOptions opt = sim::SimOptions::fromEnvAndArgs(argc, argv);
    SimParams params = defaultParams(opt);

    const std::vector<std::string> specs = {
        "none",
        "berti",
        "cmc",
        "markov",
        "hybrid(berti,cmc)",
        "hybrid(berti,cmc;select=ip)",
        "hybrid(berti,cmc;select=duel)",
        "hybrid(berti,markov;select=ip)",
        "hybrid(berti,markov;select=duel)",
    };

    std::cout << "Figure 23: hybrid composition vs static children "
                 "(speedup vs no prefetching)\n\n";

    auto cloud = suiteWorkloads("cloud");
    auto specgap = specGapWorkloads();
    auto extra = extraTraceWorkloads(opt);

    auto mc = runMatrix(opt, cloud, specs, params);
    auto ms = runMatrix(opt, specgap, specs, params);
    std::map<std::string, std::vector<SimResult>> mx;
    if (!extra.empty())
        mx = runMatrix(opt, extra, specs, params);

    std::vector<std::string> header = {"configuration", "cloud",
                                       "spec+gap"};
    if (!extra.empty())
        header.push_back("file traces");
    header.push_back("KB");
    TextTable t(header);

    for (const auto &name : specs) {
        if (name == "none")
            continue;
        std::vector<std::string> row = {
            name,
            TextTable::num(
                suiteSpeedup(cloud, mc[name], mc["none"], "cloud")),
            TextTable::num(
                suiteSpeedup(specgap, ms[name], ms["none"], ""))};
        if (!extra.empty()) {
            row.push_back(TextTable::num(
                suiteSpeedup(extra, mx[name], mx["none"], "")));
        }
        row.push_back(TextTable::num(storageKb(opt, name)));
        t.addRow(row);
    }
    t.print(std::cout);
    return 0;
}
