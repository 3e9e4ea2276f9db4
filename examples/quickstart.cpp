/**
 * @file
 * Quickstart: simulate one workload on the paper's baseline system with
 * three prefetcher configurations (none, IP-stride, Berti) and print
 * IPC, MPKI and prefetch accuracy. Mirrors the minimal flow every bench
 * uses: pick a workload, pick a prefetcher spec, simulate, read stats.
 *
 * Usage: quickstart [workload-name]   (default: stream-like.1)
 */

#include <iostream>
#include <string>

#include "harness/experiment.hh"
#include "harness/table.hh"

int
main(int argc, char **argv)
{
    using namespace berti;

    std::string workload_name = argc > 1 ? argv[1] : "stream-like.1";
    const Workload &workload = findWorkload(workload_name);

    std::cout << "workload: " << workload.name << " (suite "
              << workload.suite << ")\n\n";

    TextTable table({"prefetcher", "IPC", "speedup", "L1D-MPKI",
                     "L2-MPKI", "LLC-MPKI", "pf-accuracy",
                     "storage-KB"});

    SimResult baseline;
    for (std::string name : {"none", "ip-stride", "berti"}) {
        PrefetcherSpec spec = makeSpec(name);
        SimResult r = simulate(workload, spec);
        if (name == "none")
            baseline = r;
        std::uint64_t instr = r.roi.core.instructions;
        table.addRow({
            spec.name,
            TextTable::num(r.ipc),
            TextTable::num(baseline.ipc > 0 ? r.ipc / baseline.ipc : 1.0),
            TextTable::num(r.roi.l1d.mpki(instr), 1),
            TextTable::num(r.roi.l2.mpki(instr), 1),
            TextTable::num(r.roi.llc.mpki(instr), 1),
            TextTable::pct(r.roi.l1d.accuracy()),
            TextTable::num(static_cast<double>(spec.storageBits) / 8192.0,
                           2),
        });
    }
    table.print(std::cout);
    return 0;
}
