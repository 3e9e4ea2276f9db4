/**
 * @file
 * Every table and figure of the evaluation as data, and the one driver
 * that runs them:
 *
 *     figures <name> [SimOptions flags]   print one figure
 *     figures --list                      print every figure name
 *
 * A definition names its workload sets, its prefetcher specs (spec 0 is
 * the baseline), an optional memory-backend sweep and its tables, whose
 * columns are built from the suite reducers of common.hh. The driver
 * runs one runSpecMatrix per (backend, workload set), prints the tables,
 * then the figure's body if it has one: fig03, fig04, fig20, table1 and
 * table2 are not spec x workload matrices. Every invocation, --list
 * included, resolves the specs, workloads and backends of every
 * definition before it simulates anything. fig24_mem_backends also
 * takes --backends=a,b,... in place of every registered model.
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>

#include "common.hh"
#include "core/berti.hh"
#include "harness/machine.hh"
#include "prefetch/next_line.hh"
#include "prefetch/bop.hh"
#include "sim/rng.hh"

namespace berti::bench
{
namespace
{

/** One prefetcher configuration and the label its row prints; a bare
 *  registry name is labelled by itself. */
struct Spec
{
    PrefetcherSpec spec;
    std::string label;

    Spec(const char *name, const char *label = nullptr)
        : spec(makeSpec(name)), label(label ? label : name) {}
    Spec(PrefetcherSpec spec, std::string label)
        : spec(std::move(spec)), label(std::move(label)) {}
};

/** How a figure sweeps the memory backend. */
enum class Sweep
{
    None,      //!< the options' backend
    Rates,     //!< the options' backend at each of kSweptRates
    Backends,  //!< every registered model, or --backends=a,b,...
};

/** Figures 16-17's DRAM transfer rates (MT/s). */
constexpr unsigned kSweptRates[] = {6400, 3200, 1600};

struct Ctx;
struct Run;

using Cell = std::function<std::string(const Ctx &)>;
using Reducer = std::function<double(const Ctx &)>;
using Metric = std::function<double(const SimResult &)>;

struct Column
{
    std::string header;
    Cell cell;
    std::size_t offset = 0;  //!< reads the spec this far after the row's
    std::size_t set = 0;     //!< reads this set; an empty set drops it
};

using Columns = std::vector<Column>;

/**
 * One row per spec but the baseline, per suite in `suites`; a grid row
 * spans `specsPerRow` specs. perWorkload tables instead print one row
 * per workload of set 0, then the aggregate.
 */
struct Table
{
    std::string title;  //!< printed verbatim before the table
    Columns columns = {};
    bool perWorkload = false;
    std::vector<std::string> suites = {""};
    bool baselineRow = false;  //!< spec 0 gets a row too
    std::size_t specsPerRow = 1;
};

/** Suites ("spec", "gap", "cloud"), registered workload names and
 *  "traces" (the BERTI_TRACE_WORKLOADS / --trace-workloads files). */
using WorkloadSet = std::vector<std::string>;

const WorkloadSet kSpecGap = {"spec", "gap"};

struct Figure
{
    std::string name;
    std::vector<WorkloadSet> sets = {kSpecGap};
    std::vector<Spec> specs = {};  //!< specs[0] is the baseline
    Sweep sweep = Sweep::None;
    std::vector<Table> tables = {};
    /** Bespoke output, printed after the tables. */
    std::function<void(const Run &, const sim::SimOptions &)> body = nullptr;
};

/** A resolved figure: its workload sets, backends and results. */
struct Run
{
    const Figure &fig;
    std::vector<std::vector<Workload>> sets;
    /** Swept backend specs; one "" (the options') without a sweep. */
    std::vector<std::string> backends;
    /** grids[backend][set][spec][workload]. */
    std::vector<std::vector<std::vector<std::vector<SimResult>>>> grids = {};
};

/** The coordinates of one table cell. */
struct Ctx
{
    const Run &run;
    std::size_t backend = 0;
    std::size_t set = 0;
    std::size_t spec = 0;
    std::string suite = "";        //!< "" = every workload of the set
    std::ptrdiff_t workload = -1;  //!< per-workload row; -1 = aggregate

    const Spec &def() const { return run.fig.specs[spec]; }
    const std::vector<Workload> &workloads() const { return run.sets[set]; }
    const std::vector<SimResult> &results() const
    {
        return run.grids[backend][set][spec];
    }
    const std::vector<SimResult> &baseline() const
    {
        return run.grids[backend][set][0];
    }
};

/** The level a spec prefetches into: L1D, L2 ("none+x") or L1D+L2. */
std::string
levelOf(const std::string &name)
{
    if (name.find('+') == std::string::npos)
        return "L1D";
    return name.rfind("none+", 0) == 0 ? "L2" : "L1D+L2";
}

// ------------------------------------------------------------- reducers
// Each reduces over the row's suite; `on` fixes another one.

Reducer
on(const char *suite, Reducer r)
{
    return [=](Ctx c) {
        c.suite = suite;
        return r(c);
    };
}

/** Geomean IPC speedup over spec 0; on a workload row, that one's. */
const Reducer kSpeedup = [](const Ctx &c) {
    if (c.workload >= 0)
        return c.results()[c.workload].ipc / c.baseline()[c.workload].ipc;
    return suiteSpeedup(c.workloads(), c.results(), c.baseline(), c.suite);
};

/** Prefetch accuracy at the level the spec fills. */
const Reducer kAccuracy = [](const Ctx &c) {
    return suiteAccuracy(c.workloads(), c.results(), c.suite,
                         levelOf(c.def().spec.name) == "L2");
};

const Reducer kLateFraction = [](const Ctx &c) {
    return suiteLateFraction(c.workloads(), c.results(), c.suite);
};

/** Prefetcher storage in KB. */
const Reducer kStorage = [](const Ctx &c) {
    return static_cast<double>(c.def().spec.storageBits) / 8192.0;
};

Reducer
mean(Metric m)
{
    return [=](const Ctx &c) {
        return suiteMean(c.workloads(), c.results(), c.suite, m);
    };
}

/** mean over the baseline's mean. */
Reducer
normalisedMean(Metric m)
{
    return [=](const Ctx &c) {
        return suiteMeanRatio(c.workloads(), c.results(), c.baseline(),
                              c.suite, m);
    };
}

Metric
mpki(CacheStats RunStats::*level)
{
    return [=](const SimResult &r) {
        return (r.roi.*level).mpki(r.roi.core.instructions);
    };
}

/** Reads plus writebacks out of a level, per instruction. */
Metric
trafficPerInstr(CacheStats RunStats::*level)
{
    return [=](const SimResult &r) {
        const CacheStats &c = r.roi.*level;
        return static_cast<double>(c.requestsBelow + c.writebacks) /
               static_cast<double>(r.roi.core.instructions);
    };
}

const Metric kEnergyPerInstr = [](const SimResult &r) {
    return r.energy.total() / static_cast<double>(r.roi.core.instructions);
};

// ---------------------------------------------------------------- cells

Cell
num(Reducer r, int precision = 3)
{
    return [=](const Ctx &c) { return TextTable::num(r(c), precision); };
}

Cell
pct(Reducer r)
{
    return [=](const Ctx &c) { return TextTable::pct(r(c)); };
}

/** A metric of the row's workload; blank on the aggregate row. */
Cell
perWorkload(Metric m, int precision)
{
    return [=](const Ctx &c) {
        return c.workload < 0
                   ? std::string()
                   : TextTable::num(m(c.results()[c.workload]), precision);
    };
}

/** The row's workload; `total` on the aggregate row. */
Cell
workloadName(const std::string &total)
{
    return [=](const Ctx &c) {
        return c.workload < 0 ? total : c.workloads()[c.workload].name;
    };
}

const Cell kLabel = [](const Ctx &c) { return c.def().label; };
const Cell kLevel = [](const Ctx &c) { return levelOf(c.def().spec.name); };
const Cell kSuite = [](const Ctx &c) { return c.suite; };
/** The swept rate, or the canonical backend spec. */
const Cell kBackend = [](const Ctx &c) {
    return c.run.fig.sweep == Sweep::Rates
               ? std::to_string(kSweptRates[c.backend])
               : mem::canonicalBackendSpec(c.run.backends[c.backend]);
};
const Cell kWorkloadSuite = [](const Ctx &c) {
    return c.workload < 0 ? std::string() : c.workloads()[c.workload].suite;
};

/** Speedup over the baseline on SPEC, on GAP and on both. */
Columns
suiteSpeedups(const char *spec = "SPEC17", const char *gap = "GAP",
              const char *all = "all")
{
    return {{spec, num(on("spec", kSpeedup))},
            {gap, num(on("gap", kSpeedup))},
            {all, num(kSpeedup)}};
}

Columns
operator+(Columns a, const Columns &b)
{
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

// --------------------------------------------------------- bespoke bodies

/**
 * Figure 3: the best deltas are per-IP (local), not global. Dumps the
 * local deltas Berti selected for each mcf-like IP next to the one
 * global offset BOP converged to, then both prefetchers' coverage.
 */
void
fig03(const Run &run, const sim::SimOptions &opt)
{
    const Workload &w = run.sets[0][0];
    SimParams params = defaultParams(opt);

    // Berti and BOP (specs 0 and 1) as two parallel jobs, keeping each
    // machine alive so its prefetcher tables can be dumped afterwards.
    std::unique_ptr<TraceGenerator> gens[2];
    std::unique_ptr<Machine> machines[2];
    forEachIndexParallel(2, [&](std::size_t i) {
        gens[i] = w.make();
        MachineConfig cfg = MachineConfig::sunnyCove(1);
        cfg.applyOptions(opt);
        cfg.l1dPrefetcher = run.fig.specs[i].spec.l1d;
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

    // Coverage against spec 2, no prefetching (paper: BOP covers ~2% of
    // mcf accesses).
    std::vector<PrefetcherSpec> specs;
    for (const Spec &s : run.fig.specs)
        specs.push_back(s.spec);
    auto grid =
        runSpecMatrix(opt, run.sets[0], specs, params, "fig03 coverage");
    auto coverage = [&](std::size_t s) {
        double none = static_cast<double>(grid[2][0].roi.l1d.demandMisses);
        return (none - static_cast<double>(
                           grid[s][0].roi.l1d.demandMisses)) / none;
    };
    std::cout << "\nL1D miss coverage: Berti " << TextTable::pct(coverage(0))
              << " vs BOP " << TextTable::pct(coverage(1)) << "\n";
}

/** Figure 4's port: accepts every prefetch, at a time the test sets. */
struct Port : PrefetchPort
{
    Cycle t = 0;

    bool issuePrefetch(Addr, FillLevel) override { return true; }
    double mshrOccupancy() const override { return 0.0; }
    Cycle now() const override { return t; }
};

/**
 * Figures 2 and 4 (didactic): strides vs local deltas vs *timely* local
 * deltas. Replays the paper's example, one IP touching lines 2, 5, 7,
 * 10, 12, 15, against Berti with a fixed fetch latency, and prints the
 * deltas learned as timely at each step.
 */
void
fig04(const Run &, const sim::SimOptions &)
{
    BertiPrefetcher b;
    Port port;
    b.bind(&port);

    const Cycle latency = 60;
    const Addr ip = 0x401cb0;
    const std::pair<Addr, Cycle> events[] = {
        {2, 100}, {5, 130}, {7, 150}, {10, 165}, {12, 175}, {15, 200}};

    std::cout << "Figure 2/4: timely local deltas for the access "
                 "sequence 2, 5, 7, 10, 12, 15 (fetch latency "
              << latency << " cycles)\n\n";
    TextTable t({"access", "time", "strides-so-far",
                 "timely deltas found at fill"});
    Addr prev = 0;
    for (const auto &[line, access] : events) {
        std::uint64_t before = b.timelyDeltasFound;
        port.t = access;
        b.onAccess({.vLine = line, .pLine = line, .ip = ip, .hit = false});
        port.t = access + latency;
        b.onFill({.vLine = line, .pLine = line, .ip = ip,
                  .hadDemandWaiter = true, .latency = latency});

        t.addRow({std::to_string(line), std::to_string(access),
                  prev ? "+" + std::to_string(line - prev) : "-",
                  std::to_string(b.timelyDeltasFound - before) +
                      " new timely"});
        prev = line;
    }
    t.print(std::cout);

    std::cout << "\nLearned delta table for the IP (coverage is per "
                 "current phase):\n";
    TextTable d({"delta", "coverage", "status"});
    using Status = BertiPrefetcher::DeltaStatus;
    for (const auto &info : b.deltasFor(ip)) {
        d.addRow({(info.delta > 0 ? "+" : "") + std::to_string(info.delta),
                  std::to_string(info.coverage),
                  info.status == Status::NoPref   ? "no-pref"
                  : info.status == Status::L1Pref ? "L1"
                                                  : "L2"});
    }
    d.print(std::cout);
    std::cout << "\nAs in the paper: +10 is seen twice (from 2->12 and "
                 "5->15), +13 once; short deltas like +3 are local but "
                 "never timely.\n";
}

/**
 * Figure 20: 4-core heterogeneous mixes drawn from the SPEC+GAP pool,
 * speedup over the 4-core system with IP-stride at every L1D. Per-core
 * speedups are combined with the geomean per mix, then across mixes.
 */
void
fig20(const Run &run, const sim::SimOptions &opt)
{
    const unsigned kMixes = 8;
    const unsigned kCores = 4;
    const std::vector<Workload> &pool = run.sets[0];
    Rng rng(0x20221001);
    std::vector<std::vector<Workload>> mixes(kMixes);
    for (auto &mix : mixes) {
        for (unsigned c = 0; c < kCores; ++c)
            mix.push_back(pool[rng.nextBounded(pool.size())]);
    }

    SimParams params = defaultParams(opt);
    params.warmupInstructions /= 2;   // 4 cores: keep runtime sane
    params.measureInstructions /= 2;

    const std::vector<Spec> &specs = run.fig.specs;
    std::cout << "Figure 20: 4-core mix speedups vs IP-stride (" << kMixes
              << " random heterogeneous mixes)\n\n";

    // Every (spec, mix) 4-core simulation is an independent job;
    // grid[spec][mix] holds the per-core results in input order.
    std::vector<std::vector<std::vector<SampledResult>>> grid(
        specs.size(), std::vector<std::vector<SampledResult>>(kMixes));
    forEachIndexParallel(
        specs.size() * kMixes,
        [&](std::size_t cell) {
            std::size_t s = cell / kMixes, mi = cell % kMixes;
            grid[s][mi] = simulateMix(mixes[mi], specs[s].spec, params);
        },
        opt.jobs, stderrProgress("fig20 mixes"));

    TextTable t({"configuration", "mean-mix-speedup", "best-mix",
                 "worst-mix"});
    for (std::size_t s = 1; s < specs.size(); ++s) {
        std::vector<double> v;
        for (unsigned mi = 0; mi < kMixes; ++mi) {
            std::vector<double> ratio;
            for (unsigned c = 0; c < kCores; ++c)
                ratio.push_back(grid[s][mi][c].aggregate.ipc /
                                grid[0][mi][c].aggregate.ipc);
            v.push_back(geomean(ratio.data(), ratio.size()));
        }
        auto [worst, best] = std::minmax_element(v.begin(), v.end());
        t.addRow({specs[s].label, TextTable::num(geomean(v.data(), v.size())),
                  TextTable::num(*best), TextTable::num(*worst)});
    }
    t.print(std::cout);
}

/** Table I: storage overhead of Berti, broken down per structure, then
 *  the storage of every evaluated configuration. */
void
table1(const Run &run, const sim::SimOptions &)
{
    BertiConfig cfg;
    auto kb = [](std::uint64_t bits) {
        return TextTable::num(static_cast<double>(bits) / 8.0 / 1024.0, 2) +
               " KB";
    };
    std::uint64_t history_bits =
        static_cast<std::uint64_t>(cfg.historySets) * cfg.historyWays *
            (7 + 24 + 16) + cfg.historySets * 4;
    std::uint64_t table_bits =
        static_cast<std::uint64_t>(cfg.deltaTableEntries) *
        (10 + 4 + 4 + static_cast<std::uint64_t>(cfg.deltasPerEntry) *
                          (13 + 4 + 2));
    std::uint64_t queue_bits = (16 + 16) * 16;
    std::uint64_t line_bits = 768ull * cfg.latencyBits;

    std::cout << "Table I: storage overhead of Berti\n\n";
    TextTable t({"structure", "organisation", "storage"});
    t.addRow({"History table",
              "8-set, 16-way (128-entry), FIFO; 7b tag + 24b line + "
              "16b timestamp",
              kb(history_bits)});
    t.addRow({"Table of deltas",
              "16-entry fully-assoc, FIFO; 10b tag + 4b counter + 16 x "
              "(13b delta, 4b coverage, 2b status)",
              kb(table_bits)});
    t.addRow({"PQ + MSHR", "16+16 entries, 16b timestamp each",
              kb(queue_bits)});
    t.addRow({"L1D", "768 lines, 12b latency per line", kb(line_bits)});
    t.addRow({"Total", "",
              kb(history_bits + table_bits + queue_bits + line_bits)});
    t.print(std::cout);

    std::cout << "\nStorage of every evaluated prefetcher configuration:\n";
    TextTable s({"configuration", "storage (KB)"});
    for (const Spec &spec : run.fig.specs) {
        s.addRow({spec.label,
                  TextTable::num(spec.spec.storageBits / 8192.0, 2)});
    }
    s.print(std::cout);
}

/** Table II: the simulated baseline system, from the live configs;
 *  then Table III, whose level column is the spec labels. */
void
table2(const Run &run, const sim::SimOptions &)
{
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
    TextTable s({"prefetcher", "level", "storage (KB)"});
    for (const Spec &spec : run.fig.specs) {
        s.addRow({spec.spec.name, spec.label,
                  TextTable::num(spec.spec.storageBits / 8192.0, 2)});
    }
    s.print(std::cout);
}

/** Section V's check: the marginal gain of Pythia on top of Berti
 *  (spec 3, berti+pythia, over spec 2, berti). */
void
pythiaGain(const Run &run, const sim::SimOptions &)
{
    const auto &grid = run.grids[0][0];
    double marginal = suiteSpeedup(run.sets[0], grid[3], grid[2], "");
    std::cout << "\nMarginal gain of Pythia on top of Berti: "
              << TextTable::pct(marginal - 1.0) << " (paper: less than 1%)\n";
}

// ----------------------------------------------------------- definitions

/** Figures 21-22's representative subset. */
const WorkloadSet kSubset = {"stream-like.1", "lbm-like.2676",
                             "mcf-like.1554", "bwaves-like.1740",
                             "pr-urand",      "cc-kron"};

/** A Berti configuration: `name` keys its sidecars, `label` its row. */
Spec
berti(const BertiConfig &cfg, const std::string &label,
      const std::string &name = "berti")
{
    return {makeBertiSpec(cfg, name), label};
}

/** Figure 21: the (L1, L2) coverage-watermark grid, one row per L1. */
std::vector<Spec>
watermarkGrid()
{
    std::vector<Spec> specs = {"ip-stride"};
    for (double l1 : {0.35, 0.50, 0.65, 0.80, 0.95}) {
        for (double l2 : {0.20, 0.35, 0.50}) {
            specs.push_back(berti(
                {.l1Watermark = l1, .l2Watermark = std::min(l2, l1)},
                TextTable::pct(l1, 0)));
        }
    }
    return specs;
}

/** Figure 22: each table dimension at 0.25x-4x, one row per scale. */
std::vector<Spec>
tableSizeGrid()
{
    std::vector<Spec> specs = {"ip-stride"};
    for (double s : {0.25, 0.5, 1.0, 2.0, 4.0}) {
        auto scaled = [s](unsigned v) {
            return std::max(1u, static_cast<unsigned>(v * s));
        };
        const std::string label = TextTable::num(s, 2) + "x";
        specs.push_back(berti({.historySets = scaled(8)}, label));
        specs.push_back(berti({.deltaTableEntries = scaled(16)}, label));
        specs.push_back(berti({.deltasPerEntry = scaled(16)}, label));
    }
    return specs;
}

/** Spec 0 is IP-stride without L1I prefetching. */
std::vector<Spec>
l1iSpecs()
{
    auto with_l1i = [](const char *l1d) {
        return withL1iPrefetcher(makeSpec(l1d), "next-line-2", [] {
            return std::make_unique<NextLinePrefetcher>(2);
        });
    };
    return {{"ip-stride"}, {"berti", "berti (data only)"},
            {with_l1i("ip-stride"), "L1I next-line only"},
            {with_l1i("berti"), "berti + L1I next-line"}};
}

/** Mean DRAM read latency over every workload of the row's spec. */
const Reducer kReadLatency = [](const Ctx &c) {
    double sum = 0, n = 0;
    for (const SimResult &r : c.results()) {
        sum += static_cast<double>(r.roi.dram.readLatencySum);
        n += static_cast<double>(r.roi.dram.readLatencyCount);
    }
    return n > 0 ? sum / n : 0.0;
};

/** Row-buffer hit percentage over every workload of the row's spec. */
const Reducer kRowHitPct = [](const Ctx &c) {
    double hits = 0, acts = 0;
    for (const SimResult &r : c.results()) {
        const DramStats &d = r.roi.dram;
        hits += static_cast<double>(d.rowHits);
        acts += static_cast<double>(d.rowHits + d.rowMisses + d.rowConflicts);
    }
    return acts > 0 ? 100.0 * hits / acts : 0.0;
};

std::vector<Figure>
definitions()
{
    const Column l1d_mpki{"L1D-MPKI", num(mean(mpki(&RunStats::l1d)), 1)};
    const Column l2_mpki{"L2-MPKI", num(mean(mpki(&RunStats::l2)), 1)};
    const Column llc_mpki{"LLC-MPKI", num(mean(mpki(&RunStats::llc)), 1)};
    const auto traffic = [](CacheStats RunStats::*level) {
        return num(normalisedMean(trafficPerInstr(level)));
    };
    const auto energy = [](const char *suite) {
        return num(on(suite, normalisedMean(kEnergyPerInstr)));
    };
    const auto accuracy = [](const char *suite) {
        return pct(on(suite, kAccuracy));
    };
    const auto label_and_speedups = [](const char *first) {
        return Columns{{first, kLabel}} + suiteSpeedups();
    };
    const Columns speedup_dash_suite =
        suiteSpeedups("speedup-spec", "speedup-gap", "speedup-all");

    return {
        // Figure 1: accuracy and dynamic hierarchy energy of the
        // state-of-the-art prefetchers vs Berti.
        {.name = "fig01_motivation",
         .specs = {{"none"}, {"mlop", "MLOP"}, {"ipcp", "IPCP"},
                   {"none+spp-ppf", "SPP-PPF"}, {"none+bingo", "Bingo"},
                   {"berti", "Berti"}},
         .tables = {{"Figure 1(a): prefetch accuracy (useful / prefetch "
                     "fills)\n",
                     {{"prefetcher", kLabel}, {"level", kLevel},
                      {"SPEC17-accuracy", accuracy("spec")},
                      {"GAP-accuracy", accuracy("gap")}}},
                    {"\nFigure 1(b): dynamic energy normalised to no "
                     "prefetching\n",
                     {{"prefetcher", kLabel},
                      {"SPEC17-energy", energy("spec")},
                      {"GAP-energy", energy("gap")}}}}},
        {.name = "fig03_local_vs_global",
         .sets = {{"mcf-like.1554"}},
         .specs = {"berti", "bop", "none"},
         .body = fig03},
        {.name = "fig04_timely_deltas", .sets = {}, .body = fig04},
        {.name = "table1_storage",
         .sets = {},
         .specs = {"ip-stride", "bop", "mlop", "ipcp", "berti", "none+spp-ppf",
                   "none+bingo", "none+vldp", "none+misb", "mlop+bingo",
                   "mlop+spp-ppf", "berti+bingo", "berti+spp-ppf",
                   "ipcp+ipcp"},
         .body = table1},
        {.name = "table2_config",
         .sets = {},
         .specs = {{"ip-stride", "L1D (baseline)"}, {"mlop", "L1D"},
                   {"ipcp", "L1D"}, {"berti", "L1D"}, {"none+spp-ppf", "L2"},
                   {"none+bingo", "L2"}, {"none+vldp", "L2"},
                   {"none+misb", "L2 (temporal)"}},
         .body = table2},
        {.name = "fig07_speedup_vs_storage",
         .specs = {"ip-stride", "mlop", "ipcp", "berti", "none+spp-ppf",
                   "none+bingo", "mlop+bingo", "mlop+spp-ppf", "berti+bingo",
                   "berti+spp-ppf", "ipcp+ipcp"},
         .tables = {{.title = "Figure 7: speedup vs storage (baseline: L1D "
                              "IP-stride)\n\n",
                     .columns = {{"configuration", kLabel}, {"kind", kLevel},
                                 {"storage-KB", num(kStorage, 2)},
                                 {"speedup-spec+gap", num(kSpeedup)}},
                     .baselineRow = true}}},
        {.name = "fig08_l1d_speedup",
         .specs = {"ip-stride", "mlop", "ipcp", "berti"},
         .tables = {{"Figure 8: speedup of L1D prefetchers vs IP-stride\n\n",
                     label_and_speedups("prefetcher")}}},
        // Figure 9: BERTI_TRACE_WORKLOADS traces ride along as rows.
        {.name = "fig09_per_trace",
         .sets = {{"spec", "gap", "traces"}},
         .specs = {"ip-stride", "mlop", "ipcp", "berti"},
         .tables = {{.title = "Figure 9: per-trace speedup vs IP-stride\n\n",
                     .columns = {{"workload", workloadName("geomean-all")},
                                 {"suite", kWorkloadSuite},
                                 {"MLOP", num(kSpeedup), 1},
                                 {"IPCP", num(kSpeedup), 2},
                                 {"Berti", num(kSpeedup), 3}},
                     .perWorkload = true}}},
        {.name = "fig10_accuracy",
         .specs = {"mlop", "ipcp", "berti"},
         .tables = {{.title = "Figure 10: prefetch accuracy at the L1D "
                              "(useful = timely + late)\n\n",
                     .columns = {{"prefetcher", kLabel}, {"suite", kSuite},
                                 {"accuracy", pct(kAccuracy)},
                                 {"timely", pct([](const Ctx &c) {
                                      return kAccuracy(c) - kLateFraction(c);
                                  })},
                                 {"late", pct(kLateFraction)}},
                     .suites = {"spec", "gap"},
                     .baselineRow = true}}},
        {.name = "fig11_mpki",
         .specs = {"none", "ip-stride", "mlop", "ipcp", "berti"},
         .tables = {{.title = "Figure 11: demand MPKI with L1D "
                              "prefetchers\n\n",
                     .columns = {{"prefetcher", kLabel}, {"suite", kSuite},
                                 l1d_mpki, l2_mpki, llc_mpki},
                     .suites = {"spec", "gap"},
                     .baselineRow = true}}},
        {.name = "fig12_multilevel_speedup",
         .specs = {"ip-stride", "berti", "mlop+bingo", "mlop+spp-ppf",
                   "berti+bingo", "berti+spp-ppf", "ipcp+ipcp"},
         .tables = {{"Figure 12: multi-level prefetching speedup vs "
                     "IP-stride\n\n",
                     label_and_speedups("configuration")}}},
        {.name = "fig13_multilevel_mpki",
         .specs = {"mlop", "berti", "ipcp", "mlop+bingo", "mlop+spp-ppf",
                   "berti+bingo", "berti+spp-ppf", "ipcp+ipcp"},
         .tables = {{.title = "Figure 13: demand MPKI with multi-level "
                              "prefetching\n\n",
                     .columns = {{"configuration", kLabel},
                                 {"suite", kSuite}, l2_mpki, llc_mpki},
                     .suites = {"spec", "gap"},
                     .baselineRow = true}}},
        {.name = "fig14_traffic",
         .specs = {"none", "ip-stride", "mlop", "ipcp", "berti", "mlop+bingo",
                   "berti+bingo", "berti+spp-ppf"},
         .tables = {{.title = "Figure 14: memory-hierarchy traffic "
                              "normalised to no prefetching\n\n",
                     .columns = {{"configuration", kLabel}, {"suite", kSuite},
                                 {"L1D->L2", traffic(&RunStats::l1d)},
                                 {"L2->LLC", traffic(&RunStats::l2)},
                                 {"LLC->DRAM", traffic(&RunStats::llc)}},
                     .suites = {"spec", "gap"},
                     .baselineRow = true}}},
        {.name = "fig15_energy",
         .specs = {"none", "ip-stride", "mlop", "ipcp", "berti", "mlop+bingo",
                   "mlop+spp-ppf", "berti+bingo", "berti+spp-ppf"},
         .tables = {{.title = "Figure 15: dynamic energy normalised to no "
                              "prefetching\n\n",
                     .columns = {{"configuration", kLabel},
                                 {"SPEC17", energy("spec")},
                                 {"GAP", energy("gap")}},
                     .baselineRow = true}}},
        // Figures 16-17: speedup vs IP-stride at the same DRAM rate.
        {.name = "fig16_dram_bw_l1d",
         .specs = {"ip-stride", "mlop", "ipcp", "berti"},
         .sweep = Sweep::Rates,
         .tables = {{"Figure 16: L1D prefetchers under constrained DRAM "
                     "bandwidth (speedup vs IP-stride at same MTPS)\n\n",
                     Columns{{"prefetcher", kLabel}, {"MTPS", kBackend}} +
                         suiteSpeedups()}}},
        {.name = "fig17_dram_bw_multilevel",
         .specs = {"ip-stride", "berti", "mlop+bingo", "berti+spp-ppf"},
         .sweep = Sweep::Rates,
         .tables = {{"Figure 17: multi-level prefetching under constrained "
                     "DRAM bandwidth\n\n",
                     Columns{{"configuration", kLabel}, {"MTPS", kBackend}} +
                         suiteSpeedups()}}},
        // Figure 18: the paper singles out Classification, where only
        // Berti helps, and the low data-MPKI regime overall.
        {.name = "fig18_cloudsuite",
         .sets = {{"cloud"}},
         .specs = {"ip-stride", "mlop", "ipcp", "berti", "mlop+bingo",
                   "berti+spp-ppf"},
         .tables = {{.title = "Figure 18: CloudSuite speedup vs "
                              "IP-stride\n\n",
                     .columns = {{"workload", workloadName("geomean")},
                                 {"MLOP", num(kSpeedup), 1},
                                 {"IPCP", num(kSpeedup), 2},
                                 {"Berti", num(kSpeedup), 3},
                                 {"MLOP+Bingo", num(kSpeedup), 4},
                                 {"Berti+SPP-PPF", num(kSpeedup), 5},
                                 {"L1D-MPKI",
                                  perWorkload(mpki(&RunStats::l1d), 1)},
                                 {"L1I-MPKI",
                                  perWorkload(mpki(&RunStats::l1i), 1)}},
                     .perWorkload = true}}},
        // Figure 19: MISB at L2 helps CloudSuite's temporal patterns; on
        // SPEC+GAP SPP-PPF is the better L2 companion.
        {.name = "fig19_misb",
         .sets = {{"cloud"}, kSpecGap},
         .specs = {"ip-stride", "mlop", "ipcp", "berti", "mlop+misb",
                   "ipcp+misb", "berti+misb", "berti+spp-ppf"},
         .tables = {{"Figure 19: speedup with and without MISB at L2 (vs "
                     "IP-stride)\n\n",
                     {{"configuration", kLabel}, {"cloud", num(kSpeedup)},
                      {"spec+gap", num(kSpeedup), 0, 1}}}}},
        {.name = "fig20_multicore",
         .specs = {"ip-stride", "mlop", "ipcp", "berti", "mlop+bingo",
                   "berti+spp-ppf", "ipcp+ipcp"},
         .body = fig20},
        {.name = "fig21_watermarks",
         .sets = {kSubset},
         .specs = watermarkGrid(),
         .tables = {{.title = "Figure 21: speedup vs IP-stride for L1/L2 "
                              "coverage watermarks (paper's choice: L1=65%, "
                              "L2=35%)\n\n",
                     .columns = {{"L1-watermark", kLabel},
                                 {"L2=20%", num(kSpeedup)},
                                 {"L2=35%", num(kSpeedup), 1},
                                 {"L2=50%", num(kSpeedup), 2}},
                     .specsPerRow = 3}}},
        {.name = "fig22_table_sizes",
         .sets = {kSubset},
         .specs = tableSizeGrid(),
         .tables = {{.title = "Figure 22: speedup vs size of the Berti "
                              "tables (1x = paper configuration)\n\n",
                     .columns = {{"scale", kLabel},
                                 {"history-table", num(kSpeedup)},
                                 {"table-of-deltas", num(kSpeedup), 1},
                                 {"num-deltas", num(kSpeedup), 2}},
                     .specsPerRow = 3}}},
        // Figure 23: hybrid(...) selection policies next to their static
        // children; BERTI_TRACE_WORKLOADS traces add a column.
        {.name = "fig23_hybrids",
         .sets = {{"cloud"}, kSpecGap, {"traces"}},
         .specs = {"none", "berti", "cmc", "markov", "hybrid(berti,cmc)",
                   "hybrid(berti,cmc;select=ip)",
                   "hybrid(berti,cmc;select=duel)",
                   "hybrid(berti,markov;select=ip)",
                   "hybrid(berti,markov;select=duel)"},
         .tables = {{"Figure 23: hybrid composition vs static children "
                     "(speedup vs no prefetching)\n\n",
                     {{"configuration", kLabel}, {"cloud", num(kSpeedup)},
                      {"spec+gap", num(kSpeedup), 0, 1},
                      {"file traces", num(kSpeedup), 0, 2},
                      {"KB", num(kStorage)}}}}},
        // Figure 24: local deltas are learned from measured fill
        // latencies, so a slower memory stretches Berti's timeliness
        // window and a high-bandwidth stack shrinks it.
        {.name = "fig24_mem_backends",
         .sets = {{"spec", "gap", "traces"}},
         .specs = {"none", "ip-stride", "berti"},
         .sweep = Sweep::Backends,
         .tables = {{"Figure 24: Berti vs memory backend (timeliness "
                     "sensitivity across timing models)\n\n",
                     {{"backend", kBackend}, {"prefetcher", kLabel},
                      {"speedup", num(kSpeedup)}, {"accuracy", num(kAccuracy)},
                      {"late%", num([](const Ctx &c) {
                           return 100.0 * kLateFraction(c);
                       })},
                      {"read lat", num(kReadLatency)},
                      {"row hit%", num(kRowHitPct)}}}}},
        // Section IV-J: no gain from 32-bit latency counters, a clear
        // loss at 4 bits (DRAM fills overflow and are skipped).
        {.name = "abl_latency_bits",
         .specs = {"ip-stride", berti({.latencyBits = 4}, "4", "berti-lat4"),
                   berti({.latencyBits = 12}, "12", "berti-lat12"),
                   berti({.latencyBits = 32}, "32", "berti-lat32")},
         .tables = {{"Ablation (section IV-J): latency-counter width\n\n",
                     label_and_speedups("latency-bits")}}},
        // Section IV-J: issuing across 4 KB pages (training unchanged).
        {.name = "abl_cross_page",
         .specs = {"ip-stride", berti({}, "cross-page (default)"),
                   berti({.crossPage = false}, "page-bounded",
                         "berti-nocross")},
         .tables = {{"Ablation (section IV-J): cross-page prefetching\n\n",
                     label_and_speedups("configuration")}}},
        // Section V: "with Berti at the L1D, we find negligible
        // performance improvement with Pythia (less than 1%)".
        {.name = "abl_pythia",
         .specs = {"ip-stride", "none+pythia", "berti", "berti+pythia"},
         .tables = {{"Related-work check (section V): Pythia on top of "
                     "Berti\n\n",
                     label_and_speedups("configuration")}},
         .body = pythiaGain},
        // Berti without each pillar of its accuracy: timely local deltas
        // (every older same-IP access contributes) and the coverage
        // watermarks (every gathered delta is issued, MLOP-style).
        {.name = "abl_mechanisms",
         .specs = {"ip-stride", berti({}, "berti (full)", "berti (full)"),
                   berti({.requireTimely = false}, "no-timeliness",
                         "no-timeliness"),
                   berti({.issueAllDeltas = true}, "no-selectivity",
                         "no-selectivity")},
         .tables = {{"Mechanism ablation: Berti without each of its pillars "
                     "(speedup vs IP-stride / L1D accuracy)\n\n",
                     Columns{{"variant", kLabel}} + speedup_dash_suite +
                         Columns{{"accuracy-spec", accuracy("spec")},
                                 {"accuracy-gap", accuracy("gap")}}}}},
        // Per-IP local deltas (this paper) vs the DPC-3 precursor's
        // per-page context, which folds every IP on a page together.
        {.name = "abl_per_page",
         .specs = {"ip-stride", berti({}, "per-IP (paper)", "berti-ip"),
                   berti({.perPage = true}, "per-page (DPC-3)", "berti-page")},
         .tables = {{"Heritage: per-IP (MICRO 2022) vs per-page (DPC-3) "
                     "delta context\n\n",
                     Columns{{"context", kLabel}} + speedup_dash_suite +
                         Columns{{"accuracy-spec+gap", pct(kAccuracy)}}}}},
        // CloudSuite's high L1I MPKI limits any L1D prefetcher: how much
        // does a next-line L1I prefetcher recover?
        {.name = "abl_l1i_prefetch",
         .sets = {{"cloud"}},
         .specs = l1iSpecs(),
         .tables = {{"Front-end study: next-line L1I prefetching on "
                     "CloudSuite (speedup vs IP-stride, no L1I prefetch)\n\n",
                     {{"configuration", kLabel}, {"speedup", num(kSpeedup)},
                      {"L1I-MPKI", num(mean(mpki(&RunStats::l1i)), 1)}}}}},
        // Section V's related-work prefetchers the paper does not plot.
        {.name = "related_work",
         .specs = {"ip-stride", "stream", "none+sms", "none+vldp", "none+misb",
                   "none+pythia", "berti"},
         .tables = {{"Related work (section V): speedup vs IP-stride and "
                     "L1D accuracy\n\n",
                     Columns{{"configuration", kLabel}} + speedup_dash_suite +
                         Columns{{"storage-KB", num(kStorage, 2)}}}}},
    };
}

// ---------------------------------------------------------------- driver

std::vector<Workload>
resolveSet(const WorkloadSet &set, const std::vector<Workload> &traces)
{
    std::vector<Workload> out;
    for (const std::string &name : set) {
        std::vector<Workload> part =
            name == "traces" ? traces : suiteWorkloads(name);
        if (part.empty() && name != "traces")
            part.push_back(findWorkload(name));
        out.insert(out.end(), part.begin(), part.end());
    }
    return out;
}

/** The backends a figure sweeps, parsed; --backends= overrides. The
 *  last mtps= in a spec wins, so any backend the options name takes
 *  Figures 16-17's swept rate. */
std::vector<std::string>
resolveBackends(Sweep sweep, const sim::SimOptions &opt,
                std::vector<std::string> specs)
{
    if (sweep == Sweep::None)
        specs = {opt.memBackend};
    if (sweep == Sweep::Rates) {
        const std::string base = opt.memBackend.empty()
                                     ? mem::kDefaultBackendSpec
                                     : opt.memBackend;
        for (unsigned mtps : kSweptRates)
            specs.push_back(base + ";mtps=" + std::to_string(mtps));
    }
    if (sweep == Sweep::Backends && specs.empty()) {
        for (const std::string &model : mem::knownBackendModels())
            specs.push_back("dram:" + model);
    }
    for (const std::string &spec : specs) {
        if (!spec.empty())
            mem::parseBackendSpec(spec);
    }
    return specs;
}

/** One runSpecMatrix per (backend, non-empty workload set). */
void
simulate(Run &run, const sim::SimOptions &opt)
{
    std::vector<PrefetcherSpec> specs;
    for (const Spec &s : run.fig.specs)
        specs.push_back(s.spec);
    run.grids.resize(run.backends.size());
    for (std::size_t b = 0; b < run.backends.size(); ++b) {
        // Each swept backend's sidecars go to their own subdirectory.
        SimParams params = defaultParams(opt);
        std::string subdir;
        if (run.fig.sweep != Sweep::None) {
            params.memBackend = run.backends[b];
            subdir = mem::canonicalBackendSpec(params.memBackend);
        }
        for (const std::vector<Workload> &set : run.sets) {
            run.grids[b].push_back(
                set.empty() ? std::vector<std::vector<SimResult>>{}
                            : runSpecMatrix(opt, set, specs, params,
                                            run.fig.name, subdir));
        }
    }
}

void
print(const Run &run, const Table &table)
{
    std::vector<const Column *> cols;
    std::vector<std::string> headers;
    for (const Column &c : table.columns) {
        if (!run.sets[c.set].empty()) {
            cols.push_back(&c);
            headers.push_back(c.header);
        }
    }
    TextTable t(headers);
    auto add = [&](const Ctx &row) {
        std::vector<std::string> cells;
        for (const Column *c : cols) {
            Ctx at = row;
            at.spec += c->offset;
            at.set = c->set;
            cells.push_back(c->cell(at));
        }
        t.addRow(cells);
    };
    if (table.perWorkload) {
        for (std::size_t w = 0; w < run.sets[0].size(); ++w)
            add({run, 0, 0, 0, "", static_cast<std::ptrdiff_t>(w)});
        add({run});
    } else {
        for (std::size_t b = 0; b < run.backends.size(); ++b) {
            for (std::size_t s = table.baselineRow ? 0 : 1;
                 s < run.fig.specs.size(); s += table.specsPerRow) {
                for (const std::string &suite : table.suites)
                    add({run, b, 0, s, suite});
            }
        }
    }
    std::cout << table.title;
    t.print(std::cout);
}

int
runFigures(int argc, char **argv)
{
    sim::SimOptions opt = sim::SimOptions::fromEnvAndArgs(argc, argv);
    std::string name, backends_arg;
    bool list = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--list")
            list = true;
        else if (arg.rfind("--backends=", 0) == 0)
            backends_arg = arg;
        else if (name.empty() && arg.rfind("-", 0) != 0)
            name = arg;
        else
            rejectArgument("figures", arg);
    }

    // Resolve every definition before any cell runs. The trace files
    // are hashed only for --list and for a figure that reads them.
    const std::vector<Figure> figs = definitions();
    bool read_traces = false;
    for (const Figure &fig : figs) {
        for (const WorkloadSet &set : fig.sets) {
            read_traces |= (list || fig.name == name) &&
                           std::count(set.begin(), set.end(), "traces");
        }
    }
    const std::vector<Workload> traces =
        read_traces ? extraTraceWorkloads(opt) : std::vector<Workload>{};
    std::vector<Run> runs;
    for (const Figure &fig : figs) {
        std::vector<std::string> backends;
        if (fig.name == name && !backends_arg.empty()) {
            backends = sim::splitTopLevel(backends_arg.substr(11), ',');
            if (fig.sweep != Sweep::Backends || backends.empty())
                rejectArgument(fig.name, backends_arg);
        }
        runs.push_back({fig, {}, resolveBackends(fig.sweep, opt, backends)});
        for (const WorkloadSet &set : fig.sets)
            runs.back().sets.push_back(resolveSet(set, traces));
    }

    for (Run &run : runs) {
        if (list)
            std::cout << run.fig.name << "\n";
        if (list || run.fig.name != name)
            continue;
        if (!run.fig.tables.empty())
            simulate(run, opt);
        for (const Table &t : run.fig.tables)
            print(run, t);
        if (run.fig.body)
            run.fig.body(run, opt);
        return 0;
    }
    if (list)
        return 0;
    throw verify::SimError(verify::ErrorKind::Config, "figures",
                           (name.empty() ? std::string("no figure named")
                                         : "unknown figure \"" + name + "\"") +
                               "; figures --list names them");
}

} // namespace
} // namespace berti::bench

int
main(int argc, char **argv)
{
    try {
        return berti::bench::runFigures(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
