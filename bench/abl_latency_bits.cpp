/**
 * @file
 * Section IV-J ablation: effect of the latency-counter width. The
 * paper reports no gain from 32-bit counters and a clear loss with
 * 4-bit counters (every DRAM-latency fill overflows and is skipped).
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

    const unsigned widths[] = {4u, 12u, 32u};
    std::vector<PrefetcherSpec> specs = {makeSpec("ip-stride")};
    for (unsigned bits : widths) {
        BertiConfig cfg;
        cfg.latencyBits = bits;
        specs.push_back(
            makeBertiSpec(cfg, "berti-lat" + std::to_string(bits)));
    }
    auto grid =
        runSpecMatrix(opt, workloads, specs, params, "abl_latency_bits");
    const auto &base = grid[0];

    std::cout << "Ablation (section IV-J): latency-counter width\n\n";
    TextTable t({"latency-bits", "SPEC17", "GAP", "all"});
    for (std::size_t v = 0; v < std::size(widths); ++v) {
        const auto &r = grid[v + 1];
        t.addRow({std::to_string(widths[v]),
                  TextTable::num(
                      suiteSpeedup(workloads, r, base, "spec")),
                  TextTable::num(suiteSpeedup(workloads, r, base, "gap")),
                  TextTable::num(suiteSpeedup(workloads, r, base, ""))});
    }
    t.print(std::cout);
    return 0;
}
