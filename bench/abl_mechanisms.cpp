/**
 * @file
 * Mechanism ablation: the paper credits Berti's accuracy to (i) local
 * per-IP deltas that are *timely* and (ii) the high-confidence coverage
 * watermarks. This bench disables each pillar in turn:
 *   - "no-timeliness": every older same-IP access contributes deltas,
 *     regardless of the measured fetch latency;
 *   - "no-selectivity": every gathered delta is issued (MLOP-style),
 *     ignoring the coverage watermarks.
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

    std::cout << "Mechanism ablation: Berti without each of its "
                 "pillars (speedup vs IP-stride / L1D accuracy)\n\n";

    struct Variant
    {
        const char *label;
        BertiConfig cfg;
    };
    BertiConfig no_timely;
    no_timely.requireTimely = false;
    BertiConfig no_select;
    no_select.issueAllDeltas = true;
    const Variant variants[] = {
        {"berti (full)", BertiConfig{}},
        {"no-timeliness", no_timely},
        {"no-selectivity", no_select},
    };

    std::vector<PrefetcherSpec> specs = {makeSpec("ip-stride")};
    for (const Variant &v : variants)
        specs.push_back(makeBertiSpec(v.cfg, v.label));
    auto grid = runSpecMatrix(opt, workloads, specs, params, "abl_mechanisms");
    const auto &base = grid[0];

    TextTable t({"variant", "speedup-spec", "speedup-gap", "speedup-all",
                 "accuracy-spec", "accuracy-gap"});
    for (std::size_t v = 0; v < std::size(variants); ++v) {
        const auto &r = grid[v + 1];
        t.addRow({variants[v].label,
                  TextTable::num(suiteSpeedup(workloads, r, base,
                                              "spec")),
                  TextTable::num(suiteSpeedup(workloads, r, base, "gap")),
                  TextTable::num(suiteSpeedup(workloads, r, base, "")),
                  TextTable::pct(suiteAccuracy(workloads, r, "spec")),
                  TextTable::pct(suiteAccuracy(workloads, r, "gap"))});
    }
    t.print(std::cout);
    return 0;
}
