/**
 * @file
 * Figure 21: sensitivity to the L1 and L2 coverage watermarks. Sweeps
 * the (L1, L2) watermark grid on a representative workload subset and
 * prints normalised speedup (vs the IP-stride baseline) per cell; the
 * paper's chosen point is (65%, 35%).
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace berti;
    using namespace berti::bench;
    const sim::SimOptions opt = parseOptions(argc, argv);

    const char *subset[] = {"stream-like.1", "lbm-like.2676",
                            "mcf-like.1554", "bwaves-like.1740",
                            "pr-urand", "cc-kron"};
    std::vector<Workload> workloads;
    for (const char *n : subset)
        workloads.push_back(findWorkload(n));

    SimParams params = defaultParams(opt);

    const double l1_wms[] = {0.35, 0.50, 0.65, 0.80, 0.95};
    const double l2_wms[] = {0.20, 0.35, 0.50};

    std::vector<PrefetcherSpec> specs = {makeSpec("ip-stride")};
    for (double l1 : l1_wms) {
        for (double l2 : l2_wms) {
            BertiConfig cfg;
            cfg.l1Watermark = l1;
            cfg.l2Watermark = std::min(l2, l1);
            specs.push_back(makeBertiSpec(cfg));
        }
    }
    auto grid = runSpecMatrix(opt, workloads, specs, params, "fig21");
    const auto &base = grid[0];

    std::cout << "Figure 21: speedup vs IP-stride for L1/L2 coverage "
                 "watermarks (paper's choice: L1=65%, L2=35%)\n\n";
    TextTable t({"L1-watermark", "L2=20%", "L2=35%", "L2=50%"});
    std::size_t cell = 1;
    for (double l1 : l1_wms) {
        std::vector<std::string> row = {TextTable::pct(l1, 0)};
        for (std::size_t l2 = 0; l2 < std::size(l2_wms); ++l2)
            row.push_back(TextTable::num(speedupGeomean(grid[cell++], base)));
        t.addRow(row);
    }
    t.print(std::cout);
    return 0;
}
