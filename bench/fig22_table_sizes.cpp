/**
 * @file
 * Figure 22: sensitivity to Berti's table sizes. Scales the history
 * table, the table of deltas and the number of deltas per entry from
 * 0.25x to 4x independently and reports speedup vs IP-stride.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace berti;
    using namespace berti::bench;
    const sim::SimOptions opt = sim::SimOptions::fromEnvAndArgs(argc, argv);

    const char *subset[] = {"stream-like.1", "lbm-like.2676",
                            "mcf-like.1554", "bwaves-like.1740",
                            "pr-urand", "cc-kron"};
    std::vector<Workload> workloads;
    for (const char *n : subset)
        workloads.push_back(findWorkload(n));

    SimParams params = defaultParams(opt);

    const double scales[] = {0.25, 0.5, 1.0, 2.0, 4.0};
    std::vector<PrefetcherSpec> specs = {makeSpec("ip-stride")};
    for (double s : scales) {
        auto scaled = [s](unsigned v) {
            return std::max(1u, static_cast<unsigned>(v * s));
        };
        BertiConfig hist, dtab, ndel;
        hist.historySets = scaled(8);
        dtab.deltaTableEntries = scaled(16);
        ndel.deltasPerEntry = scaled(16);
        for (const BertiConfig &cfg : {hist, dtab, ndel})
            specs.push_back(makeBertiSpec(cfg));
    }
    auto grid = runSpecMatrix(opt, workloads, specs, params, "fig22");
    const auto &base = grid[0];

    std::cout << "Figure 22: speedup vs size of the Berti tables "
                 "(1x = paper configuration)\n\n";
    TextTable t({"scale", "history-table", "table-of-deltas",
                 "num-deltas"});
    std::size_t cell = 1;
    for (double s : scales) {
        std::vector<std::string> row = {TextTable::num(s, 2) + "x"};
        for (int dim = 0; dim < 3; ++dim)
            row.push_back(TextTable::num(speedupGeomean(grid[cell++], base)));
        t.addRow(row);
    }
    t.print(std::cout);
    return 0;
}
