/**
 * @file
 * Tables II and III: the simulated baseline system parameters and the
 * evaluated prefetcher configurations, printed from the live config
 * structs (so the tables cannot drift from the code).
 */

#include "common.hh"
#include "harness/machine.hh"

int
main(int argc, char **argv)
{
    using namespace berti;
    using namespace berti::bench;
    const sim::SimOptions opt = sim::SimOptions::fromEnvAndArgs(argc, argv);

    MachineConfig m = MachineConfig::sunnyCove(1);
    std::cout << "Table II: simulation parameters of the baseline "
                 "system\n\n";
    TextTable t({"component", "configuration"});
    auto cache_row = [&](const char *name, const CacheConfig &c) {
        t.addRow({name,
                  std::to_string(c.sets * c.ways * kLineSize / 1024) +
                      " KB, " + std::to_string(c.ways) + "-way, " +
                      std::to_string(c.latency) + " cycles, " +
                      std::to_string(c.mshrs) + " MSHRs, repl=" +
                      makeReplPolicy(c.repl, c.sets, c.ways)->name()});
    };
    t.addRow({"Core",
              "out-of-order, hashed-perceptron branch predictor, " +
                  std::to_string(m.core.dispatchWidth) + "-issue, " +
                  std::to_string(m.core.retireWidth) + "-retire, " +
                  std::to_string(m.core.robSize) + "-entry ROB"});
    t.addRow({"L1 dTLB", "64 entries, 4-way, 1 cycle"});
    t.addRow({"STLB", "2048 entries, 16-way, 8 cycles"});
    cache_row("L1I", m.l1i);
    cache_row("L1D", m.l1d);
    cache_row("L2", m.l2);
    cache_row("LLC (per core)", m.llc);
    t.addRow({"DRAM",
              "1 channel / 4 cores, " + std::to_string(m.dram.mtps) +
                  " MTPS, FR-FCFS, " + std::to_string(m.dram.banks) +
                  " banks, 4 KB open-page rows, tRP=tRCD=tCAS=" +
                  std::to_string(m.dram.tRp) + " cycles"});
    t.print(std::cout);

    std::cout << "\nTable III: evaluated prefetcher configurations\n\n";
    TextTable p({"prefetcher", "level", "storage (KB)"});
    struct Row { const char *name; const char *level; };
    for (const Row r : std::initializer_list<Row>{
             {"ip-stride", "L1D (baseline)"},
             {"mlop", "L1D"},
             {"ipcp", "L1D"},
             {"berti", "L1D"},
             {"none+spp-ppf", "L2"},
             {"none+bingo", "L2"},
             {"none+vldp", "L2"},
             {"none+misb", "L2 (temporal)"}}) {
        p.addRow({r.name, r.level,
                  TextTable::num(storageKb(opt, r.name), 2)});
    }
    p.print(std::cout);
    return 0;
}
