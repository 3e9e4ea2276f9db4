/**
 * @file
 * Trace utility CLI: record workloads into ChampSim trace files,
 * inspect trace statistics, and simulate a trace file as one
 * simulate() cell (every SimOptions flag and BERTI_* variable applies).
 * Usage: see the message main() prints.
 */

#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/table.hh"
#include "sim/options.hh"
#include "trace/champsim.hh"
#include "trace/registry.hh"

namespace
{

using namespace berti;

int
cmdRecord(const std::string &workload, std::uint64_t count,
          const std::string &path)
{
    // resolveWorkload: registry names and file: URIs both record, so
    // the tool doubles as a ChampSim trace re-encoder.
    if (compressionForPath(path) != TraceCompression::None ||
        !isChampSimTracePath(path)) {
        std::cerr << "error: record writes a raw .champsim file, not '"
                  << path << "'\n";
        return 1;
    }
    auto gen = resolveWorkload(workload).make();
    auto written = saveChampSim(path, *gen, count);
    if (!written.ok()) {
        std::cerr << "error: " << written.error().what() << "\n";
        return 1;
    }
    std::cout << "recorded " << count << " instructions of " << workload
              << " to " << path << " (" << written.value()
              << " bytes)\n";
    return 0;
}

int
cmdInfo(const std::string &path)
{
    resolveWorkload("file:" + path);  // typed extension/file errors
    std::vector<TraceInstr> instrs = loadChampSim(path);
    if (instrs.empty()) {
        std::cerr << "error: " << path << " holds no instructions\n";
        return 1;
    }
    std::uint64_t loads = 0, stores = 0, branches = 0, taken = 0,
                  deps = 0;
    std::set<Addr> ips, pages;
    for (const auto &in : instrs) {
        loads += in.isLoad() ? 1 : 0;
        stores += in.isStore() ? 1 : 0;
        branches += in.isBranch ? 1 : 0;
        taken += in.taken ? 1 : 0;
        deps += in.dependsOnPrevLoad ? 1 : 0;
        ips.insert(in.ip);
        if (in.isLoad())
            pages.insert(pageAddr(in.load0));
        if (in.isStore())
            pages.insert(pageAddr(in.store));
    }
    double n = static_cast<double>(instrs.size());
    TextTable t({"metric", "value"});
    t.addRow({"instructions", std::to_string(instrs.size())});
    t.addRow({"loads", TextTable::pct(loads / n)});
    t.addRow({"stores", TextTable::pct(stores / n)});
    t.addRow({"branches", TextTable::pct(branches / n)});
    t.addRow({"taken-rate",
              branches ? TextTable::pct(static_cast<double>(taken) /
                                        branches)
                       : "-"});
    t.addRow({"dependent-loads", std::to_string(deps)});
    t.addRow({"distinct-IPs", std::to_string(ips.size())});
    t.addRow({"distinct-data-pages", std::to_string(pages.size())});
    t.print(std::cout);
    return 0;
}

int
cmdRun(const sim::SimOptions &opt, const std::string &path,
       const std::string &pf, std::uint64_t instructions)
{
    // The whole trace from its first instruction: no warmup region.
    SimParams params;
    params.warmupInstructions = 0;
    params.measureInstructions = instructions;
    params.applyOptions(opt);
    SimResult r =
        simulate(resolveWorkload("file:" + path), makeSpec(pf), params);
    std::cout << r.roi.summary() << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace berti;
    try {
        const sim::SimOptions opt =
            sim::SimOptions::fromEnvAndArgs(argc, argv);
        const std::string cmd = argc > 1 ? argv[1] : "";
        if (cmd == "record" && argc == 5)
            return cmdRecord(argv[2], sim::parseInteger("count", argv[3], 1),
                             argv[4]);
        if (cmd == "info" && argc == 3)
            return cmdInfo(argv[2]);
        if (cmd == "run" && (argc == 3 || argc == 4 || argc == 5)) {
            return cmdRun(opt, argv[2], argc > 3 ? argv[3] : "berti",
                          argc > 4 ? sim::parseInteger("instructions",
                                                       argv[4], 1)
                                   : 200000);
        }
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    std::cerr << "usage:\n"
                 "  trace_tool record <workload> <count> <file.champsim>\n"
                 "  trace_tool info <file.champsim[.xz|.gz]>\n"
                 "  trace_tool run <file.champsim[.xz|.gz]> [prefetcher] "
                 "[instructions] [SimOptions flags]\n";
    return 2;
}
