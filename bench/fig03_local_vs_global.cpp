/**
 * @file
 * Figure 3: the best deltas are per-IP (local), not global. Runs the
 * mcf-like workload, then dumps the local deltas Berti selected for
 * each of its IPs alongside the single global offset BOP converged to —
 * showing that no global delta covers the per-IP patterns.
 */

#include "common.hh"
#include "core/berti.hh"
#include "harness/machine.hh"
#include "prefetch/bop.hh"

int
main(int argc, char **argv)
{
    using namespace berti;
    using namespace berti::bench;
    const sim::SimOptions opt = parseOptions(argc, argv);

    const Workload &w = findWorkload("mcf-like.1554");
    SimParams params = defaultParams(opt);

    // Run Berti and BOP as two parallel jobs, keeping each machine
    // alive so its prefetcher tables can be dumped afterwards.
    std::unique_ptr<TraceGenerator> gens[2];
    std::unique_ptr<Machine> machines[2];
    const PrefetcherFactory factories[2] = {
        [] { return std::make_unique<BertiPrefetcher>(); },
        [] { return std::make_unique<BopPrefetcher>(); },
    };
    forEachIndexParallel(2, [&](std::size_t i) {
        gens[i] = w.make();
        MachineConfig cfg = MachineConfig::sunnyCove(1);
        cfg.applyOptions(opt);
        cfg.l1dPrefetcher = factories[i];
        machines[i] = std::make_unique<Machine>(
            cfg, std::vector<TraceGenerator *>{gens[i].get()});
        machines[i]->run(params.warmupInstructions +
                         params.measureInstructions);
    });
    auto *berti_pf = dynamic_cast<BertiPrefetcher *>(
        machines[0]->l1d(0).prefetcher());
    auto *bop_pf =
        dynamic_cast<BopPrefetcher *>(machines[1]->l1d(0).prefetcher());

    std::cout << "Figure 3: Berti local deltas per IP vs BOP global "
                 "delta (" << w.name << ")\n\n";
    TextTable t({"IP", "selected local deltas (status L1/L2)"});
    // The mcf-like generator's delta-cycle IPs are sites 70..75.
    for (unsigned site = 70; site <= 75; ++site) {
        Addr ip = 0x400000 + 4 * site;
        std::string deltas;
        for (const auto &d : berti_pf->deltasFor(ip)) {
            if (d.status == BertiPrefetcher::DeltaStatus::NoPref)
                continue;
            deltas += (d.delta > 0 ? "+" : "") + std::to_string(d.delta);
            deltas += d.status == BertiPrefetcher::DeltaStatus::L1Pref
                          ? "(L1) " : "(L2) ";
        }
        char buf[32];
        std::snprintf(buf, sizeof(buf), "0x%llx",
                      static_cast<unsigned long long>(ip));
        t.addRow({buf, deltas.empty() ? "-" : deltas});
    }
    t.print(std::cout);

    std::cout << "\nBOP global delta for the whole application: +"
              << bop_pf->bestOffset() << "\n";

    // Coverage comparison (paper: BOP covers ~2% of mcf accesses).
    auto grid = runSpecMatrix(
        opt, {w}, {makeSpec("berti"), makeSpec("bop"), makeSpec("none")},
        params, "fig03 coverage");
    const SimResult &rb = grid[0][0];
    const SimResult &rg = grid[1][0];
    const SimResult &rn = grid[2][0];
    auto coverage = [&](const SimResult &r) {
        double covered = static_cast<double>(rn.roi.l1d.demandMisses) -
                         static_cast<double>(r.roi.l1d.demandMisses);
        return covered / static_cast<double>(rn.roi.l1d.demandMisses);
    };
    std::cout << "\nL1D miss coverage: Berti "
              << TextTable::pct(coverage(rb)) << " vs BOP "
              << TextTable::pct(coverage(rg)) << "\n";
    return 0;
}
