/**
 * @file
 * Front-end study: the paper's CloudSuite section observes that the
 * L1I MPKI of server workloads is high while their data MPKI is low,
 * limiting what any L1D prefetcher can do. This bench adds a simple
 * next-line instruction prefetcher at the L1I and measures how much of
 * the CloudSuite gap it recovers relative to data-side prefetching.
 */

#include "common.hh"
#include "prefetch/next_line.hh"

int
main(int argc, char **argv)
{
    using namespace berti;
    using namespace berti::bench;
    const sim::SimOptions opt = parseOptions(argc, argv);

    auto workloads = suiteWorkloads("cloud");
    SimParams params = defaultParams(opt);

    auto with_l1i = [&](const std::string &l1d_spec) {
        return withL1iPrefetcher(makeSpec(l1d_spec), "next-line-2", [] {
            return std::make_unique<NextLinePrefetcher>(2);
        });
    };
    // specs[0] is the baseline: IP-stride with no L1I prefetching.
    const std::vector<PrefetcherSpec> specs = {
        makeSpec("ip-stride"), makeSpec("berti"),
        with_l1i("ip-stride"), with_l1i("berti")};
    const char *labels[] = {"berti (data only)", "L1I next-line only",
                            "berti + L1I next-line"};
    auto grid =
        runSpecMatrix(opt, workloads, specs, params, "abl_l1i_prefetch");

    std::cout << "Front-end study: next-line L1I prefetching on "
                 "CloudSuite (speedup vs IP-stride, no L1I prefetch)\n\n";
    TextTable t({"configuration", "speedup", "L1I-MPKI"});
    for (std::size_t s = 1; s < specs.size(); ++s) {
        t.addRow({labels[s - 1],
                  TextTable::num(suiteSpeedup(workloads, grid[s], grid[0],
                                              "cloud")),
                  TextTable::num(
                      suiteMean(workloads, grid[s], "cloud",
                                [](const SimResult &r) {
                                    return r.roi.l1i.mpki(
                                        r.roi.core.instructions);
                                }),
                      1)});
    }
    t.print(std::cout);
    return 0;
}
