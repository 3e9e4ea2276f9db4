/**
 * @file
 * Memory-backend API battery: the spec grammar and canonical forms,
 * DramConfig validation, FR-FCFS row-hit-first scheduling,
 * multi-channel composition, the nextEventCycle()
 * cycle-skip contract under a scripted backend, per-backend checkpoint
 * round-trips, result-store key separation, and jobs-N bit-identity of
 * whole matrices per backend.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/result_store.hh"
#include "mem/backend_registry.hh"
#include "mem/dram.hh"
#include "mem/multichannel.hh"
#include "obs/export.hh"
#include "sim/spec_parse.hh"
#include "trace/registry.hh"
#include "verify/sim_error.hh"
#include "test_util.hh"

namespace berti
{

namespace
{

using mem::parseBackendSpec;
using verify::ErrorKind;
using verify::SimError;

/** EXPECT a Config SimError whose message mentions `needle`. */
template <typename Fn>
void
expectConfigError(Fn fn, const std::string &needle, const std::string &what)
{
    try {
        fn();
        FAIL() << what << ": expected SimError(Config)";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Config) << what;
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << what << ": '" << e.what() << "' does not mention '"
            << needle << "'";
    }
}

struct Sink : ReadClient
{
    std::vector<std::pair<Cycle, Addr>> done;
    const Cycle *clock = nullptr;

    void
    readDone(const MemRequest &req) override
    {
        done.push_back({*clock, req.pLine});
    }
};

MemRequest
read(Addr p_line, ReadClient *client)
{
    MemRequest r;
    r.pLine = p_line;
    r.type = AccessType::Load;
    r.client = client;
    return r;
}

constexpr Addr kLinesPerRow = 4096 / kLineSize;

} // namespace

// ===================================================== spec grammar

TEST(BackendSpec, EmptyAndDefaultSpellingsCanonicalizeToDdr4)
{
    for (const char *spec :
         {"", "dram:ddr4", "dram:ddr4;mtps=6400",
          "dram:ddr4;mtps=3200;mtps=6400"}) {
        mem::ParsedBackend p = parseBackendSpec(spec);
        EXPECT_EQ(p.canonical, mem::kDefaultBackendSpec) << spec;
        EXPECT_EQ(p.sel.model, "ddr4") << spec;
        EXPECT_EQ(p.sel.channels, 1u) << spec;
    }
}

TEST(BackendSpec, DefaultBackendIsTheHistoricalDramConfig)
{
    // The whole bit-identity claim rests on this: the ddr4 preset IS
    // the compiled DramConfig default, field for field.
    mem::ParsedBackend p = parseBackendSpec("");
    DramConfig d;
    EXPECT_EQ(p.channel.banks, d.banks);
    EXPECT_EQ(p.channel.rqSize, d.rqSize);
    EXPECT_EQ(p.channel.wqSize, d.wqSize);
    EXPECT_EQ(p.channel.rowBytes, d.rowBytes);
    EXPECT_EQ(p.channel.tRp, d.tRp);
    EXPECT_EQ(p.channel.tRcd, d.tRcd);
    EXPECT_EQ(p.channel.tCas, d.tCas);
    EXPECT_EQ(p.channel.mtps, d.mtps);
    EXPECT_EQ(p.channel.busBytes, d.busBytes);
    EXPECT_EQ(p.channel.linkLatency, d.linkLatency);
}

TEST(BackendSpec, PresetsDifferFromDdr4WhereDocumented)
{
    EXPECT_EQ(parseBackendSpec("dram:ddr5").channel.mtps, 9600u);
    EXPECT_EQ(parseBackendSpec("dram:ddr5").channel.banks, 32u);
    EXPECT_EQ(parseBackendSpec("dram:lpddr5").channel.busBytes, 4u);
    EXPECT_EQ(parseBackendSpec("dram:hbm").sel.channels, 8u);
    EXPECT_EQ(parseBackendSpec("dram:hbm").channel.busBytes, 16u);
}

TEST(BackendSpec, OptionsOverrideAndCanonicalizeInFixedOrder)
{
    mem::ParsedBackend p = parseBackendSpec("dram:hbm;mtps=3200");
    EXPECT_EQ(p.sel.channels, 8u);
    EXPECT_EQ(p.channel.mtps, 3200u);
    // Everything but the rate stays the preset's.
    EXPECT_EQ(p.channel.banks, parseBackendSpec("dram:hbm").channel.banks);
    EXPECT_EQ(p.canonical, "dram:hbm;mtps=3200");
    EXPECT_EQ(mem::canonicalBackendSpec(p.canonical), p.canonical);
    // A repeated key takes its last value: Figures 16-17 append their
    // swept ";mtps=N" to whatever backend the options name.
    EXPECT_EQ(parseBackendSpec("dram:hbm;mtps=9600;mtps=6400").channel.mtps,
              6400u);
}

TEST(BackendSpec, MalformedSpecsThrowNamingTheOffendingString)
{
    expectConfigError([] { parseBackendSpec("dram:gddr7"); }, "gddr7",
                      "unknown model");
    expectConfigError([] { parseBackendSpec("hbm:ddr4"); }, "hbm",
                      "unknown family");
    expectConfigError([] { parseBackendSpec("dram:ddr4;turbo=1"); },
                      "turbo", "unknown option");
    // mtps= is the one option: the scheduler (FR-FCFS) and the bank
    // and channel counts come from the preset, so keys naming them are
    // unknown options.
    for (const char *removed :
         {"sched=fcfs", "cap=4", "channels=2", "banks=8"}) {
        const std::string spec = std::string("dram:ddr4;") + removed;
        const std::string key =
            std::string(removed).substr(0, std::string(removed).find('='));
        expectConfigError([&] { parseBackendSpec(spec); },
                          "unknown option \"" + key + "\"", spec);
    }
    expectConfigError([] { parseBackendSpec("dram:ddr4;mtps=fast"); },
                      "fast", "malformed number");
    expectConfigError([] { parseBackendSpec("dram:ddr4;mtps=0"); },
                      "mtps", "zero mtps");
    expectConfigError([] { parseBackendSpec("dram:ddr4;mtps"); },
                      "mtps", "clause without =");
    // Spec integers go through the one integer parser: 32 bits, no
    // sign, no whitespace.
    expectConfigError(
        [] { parseBackendSpec("dram:ddr4;mtps=4294967297"); },
        "4294967297", "mtps over 32 bits");
    expectConfigError([] { parseBackendSpec("dram:ddr4;mtps=-1"); },
                      "-1", "negative mtps");
    expectConfigError([] { parseBackendSpec("dram:ddr4;mtps=+3200"); },
                      "+3200", "signed mtps");
    expectConfigError([] { parseBackendSpec("dram:ddr4;mtps= 3200"); },
                      " 3200", "padded mtps");
}

TEST(BackendSpec, KnownModelsAreRegistered)
{
    auto models = mem::knownBackendModels();
    ASSERT_EQ(models.size(), 4u);
    for (const std::string &m : models)
        EXPECT_NO_THROW(parseBackendSpec("dram:" + m)) << m;
}

// ================================================ DramConfig::validate

TEST(DramConfigValidate, EachDegenerateFieldIsNamed)
{
    auto broken = [](auto mutate) {
        DramConfig cfg;
        mutate(cfg);
        return cfg;
    };
    struct Case
    {
        const char *field;
        DramConfig cfg;
    };
    const std::vector<Case> cases = {
        {"banks", broken([](DramConfig &c) { c.banks = 0; })},
        {"rqSize", broken([](DramConfig &c) { c.rqSize = 0; })},
        {"wqSize", broken([](DramConfig &c) { c.wqSize = 0; })},
        {"mtps", broken([](DramConfig &c) { c.mtps = 0; })},
        {"busBytes", broken([](DramConfig &c) { c.busBytes = 0; })},
        {"tRp", broken([](DramConfig &c) { c.tRp = 0; })},
        {"tRcd", broken([](DramConfig &c) { c.tRcd = 0; })},
        {"tCas", broken([](DramConfig &c) { c.tCas = 0; })},
        {"rowBytes", broken([](DramConfig &c) { c.rowBytes = 0; })},
        {"rowBytes", broken([](DramConfig &c) { c.rowBytes = 100; })},
        {"writeDrainWatermark",
         broken([](DramConfig &c) { c.writeDrainWatermark = 0.0; })},
        {"writeDrainWatermark",
         broken([](DramConfig &c) { c.writeDrainWatermark = 1.5; })},
        // 64 B burst rounding to zero cycles: rate too high for width.
        {"mtps/busBytes", broken([](DramConfig &c) {
             c.busBytes = 64;
             c.mtps = 1000000;
         })},
    };
    for (const Case &t : cases) {
        expectConfigError([&] { t.cfg.validate(); }, t.field,
                          std::string("validate names ") + t.field);
        // The Dram constructor must apply the same gate.
        expectConfigError(
            [&] {
                Cycle clock = 0;
                Dram d(t.cfg, &clock);
            },
            t.field, std::string("ctor rejects ") + t.field);
    }
    EXPECT_NO_THROW(DramConfig{}.validate());
}

// ================================================ FR-FCFS scheduling

TEST(DramFrFcfs, RowHitsBypassAnOlderConflictUnbounded)
{
    // An old conflict request behind a stream of row hits: FR-FCFS
    // serves every hit first, however many there are.
    Cycle clock = 0;
    Sink sink;
    sink.clock = &clock;
    DramConfig cfg;
    Dram dram(cfg, &clock);
    dram.submitRead(read(0, &sink));
    while (sink.done.empty()) {
        ++clock;
        dram.tick();
    }
    Addr conflict = cfg.banks * kLinesPerRow;
    dram.submitRead(read(conflict, &sink));
    for (Addr i = 1; i <= 8; ++i)
        dram.submitRead(read(i, &sink));
    while (sink.done.size() < 10) {
        ++clock;
        dram.tick();
    }
    EXPECT_EQ(sink.done.back().second, conflict);
}

// ================================================ multi-channel backend

TEST(MultiChannel, InterleavesByLineAndAggregatesStats)
{
    Cycle clock = 0;
    Sink sink;
    sink.clock = &clock;
    DramConfig cfg;
    mem::MultiChannelDram dram(cfg, 4, &clock);
    EXPECT_EQ(dram.channelCount(), 4u);
    EXPECT_EQ(dram.name(), "dram x4");

    for (Addr i = 0; i < 16; ++i)
        ASSERT_TRUE(dram.submitRead(read(i, &sink)));
    EXPECT_EQ(dram.rqOccupancy(), 16u);
    EXPECT_EQ(dram.pendingReads(), 16u);

    while (sink.done.size() < 16) {
        ++clock;
        dram.tick();
    }
    DramStats s = dram.statsSnapshot();
    EXPECT_EQ(s.reads, 16u);
    EXPECT_EQ(dram.pendingReads(), 0u);
    EXPECT_EQ(dram.nextEventCycle(), kNever);
    EXPECT_EQ(dram.auditViolation(), "");

    // Channel parallelism: 4 channels drain a line-strided burst
    // faster than one channel does.
    auto drainCycles = [](unsigned channels) {
        Cycle local = 0;
        Sink s2;
        s2.clock = &local;
        DramConfig c2;
        mem::MultiChannelDram d(c2, channels, &local);
        for (Addr i = 0; i < 32; ++i)
            d.submitRead(read(i, &s2));
        while (s2.done.size() < 32) {
            ++local;
            d.tick();
        }
        return local;
    };
    EXPECT_LT(drainCycles(4), drainCycles(1));
}

TEST(MultiChannel, ZeroChannelsRejected)
{
    Cycle clock = 0;
    DramConfig cfg;
    expectConfigError(
        [&] { mem::MultiChannelDram d(cfg, 0, &clock); }, "channel",
        "zero channels");
    expectConfigError(
        [&] {
            mem::makeMemBackend(mem::BackendSel{"ddr4", 0}, cfg, &clock);
        },
        "channel", "factory zero channels");
}

// ====================================== nextEventCycle() skip contract

namespace
{

/**
 * A MemBackend wrapper that checks the cycle-skip contract from the
 * inside: whenever the machine's clock jumps by more than one cycle
 * between our ticks (a quiescence skip), the landing cycle must not
 * lie beyond the bound we reported after the previous tick — a later
 * landing would mean the skip jumped past a pending event.
 */
class ContractCheckedDram : public mem::MemBackend
{
  public:
    ContractCheckedDram(const DramConfig &cfg, const Cycle *clock_ptr)
        : inner(cfg, clock_ptr), clock(clock_ptr)
    {}

    bool
    submitRead(MemRequest req) override
    {
        return inner.submitRead(req);
    }
    void submitWriteback(Addr p_line) override
    {
        inner.submitWriteback(p_line);
    }

    void
    tick() override
    {
        if (sawTick && *clock > lastTickCycle + 1) {
            ++skipsObserved;
            if (*clock > lastBound)
                ++violations;
        }
        inner.tick();
        sawTick = true;
        lastTickCycle = *clock;
        lastBound = inner.nextEventCycle();
    }

    Cycle nextEventCycle() const override
    {
        return inner.nextEventCycle();
    }
    DramStats statsSnapshot() const override
    {
        return inner.statsSnapshot();
    }
    std::size_t pendingReads() const override
    {
        return inner.pendingReads();
    }
    std::size_t rqOccupancy() const override
    {
        return inner.rqOccupancy();
    }
    std::size_t wqOccupancy() const override
    {
        return inner.wqOccupancy();
    }
    void setFaultInjector(verify::FaultInjector *injector) override
    {
        inner.setFaultInjector(injector);
    }
    void
    registerMetrics(obs::MetricsRegistry &registry,
                    const std::string &prefix) override
    {
        inner.registerMetrics(registry, prefix);
    }
    void saveState(sim::ByteWriter &w,
                   const sim::PtrMap &clients) const override
    {
        inner.saveState(w, clients);
    }
    void loadState(sim::ByteReader &r, const sim::PtrMap &clients) override
    {
        inner.loadState(r, clients);
    }
    /** The wrapper's observation state is not serializable. */
    bool checkpointSupported() const override { return false; }
    std::string auditViolation() const override
    {
        return inner.auditViolation();
    }
    std::string name() const override { return "contract-checked"; }

    std::uint64_t skipsObserved = 0;
    std::uint64_t violations = 0;

  private:
    Dram inner;
    const Cycle *clock;
    bool sawTick = false;
    Cycle lastTickCycle = 0;
    Cycle lastBound = kNever;
};

} // namespace

TEST(BackendContract, CycleSkipNeverJumpsPastAPendingEvent)
{
    Workload w = resolveWorkload("mcf-like.472");
    auto gen = w.make();

    MachineConfig cfg = MachineConfig::sunnyCove(1);
    cfg.l1dPrefetcher = makeSpec("berti").l1d;
    cfg.cycleSkip = true;
    ContractCheckedDram *backend = nullptr;
    cfg.memBackendHook = [&backend](const Cycle *clock) {
        auto b = std::make_unique<ContractCheckedDram>(DramConfig{},
                                                       clock);
        backend = b.get();
        return b;
    };
    Machine machine(cfg, {gen.get()});
    machine.run(20000);

    ASSERT_NE(backend, nullptr);
    // Not vacuous: the machine must actually have skipped, and the
    // backend must have observed some of those skips.
    EXPECT_GT(machine.skippedCycles(), 0u);
    EXPECT_GT(backend->skipsObserved, 0u);
    EXPECT_EQ(backend->violations, 0u)
        << "a quiescence skip landed beyond the backend's reported "
           "nextEventCycle() bound";

    // The hook backend declares itself non-checkpointable; the Machine
    // surfaces that as a typed, named reason.
    std::string why;
    EXPECT_FALSE(machine.checkpointSupported(&why));
    EXPECT_NE(why.find("contract-checked"), std::string::npos) << why;
}

TEST(BackendContract, HookResultsMatchRegistryBackend)
{
    // The scripted wrapper is pass-through, so a hooked machine must
    // produce bit-identical metrics to the registry-built default.
    Workload w = resolveWorkload("bwaves-like.2609");

    auto runOnce = [&](bool hook) {
        auto gen = w.make();
        MachineConfig cfg = MachineConfig::sunnyCove(1);
        cfg.l1dPrefetcher = makeSpec("berti").l1d;
        if (hook) {
            cfg.memBackendHook = [](const Cycle *clock) {
                return std::make_unique<ContractCheckedDram>(DramConfig{},
                                                             clock);
            };
        }
        Machine machine(cfg, {gen.get()});
        machine.run(12000);
        return obs::toJson(machine.metricsSnapshot());
    };
    EXPECT_EQ(runOnce(false), runOnce(true));
}

// ================================================ checkpoint round-trip

namespace
{

/** Backend specs the checkpoint matrix crosses (default, a preset at
 *  a swept data rate, and the multi-channel HBM stack). */
const std::vector<std::string> kCheckpointBackends = {
    "dram:ddr4", "dram:ddr5;mtps=3200", "dram:hbm"};

} // namespace

TEST(BackendCheckpoint, ResumeIsBitIdenticalPerBackend)
{
    Workload w = resolveWorkload("mcf-like.472");
    for (const std::string &spec : kCheckpointBackends) {
        mem::ParsedBackend parsed = parseBackendSpec(spec);
        MachineConfig cfg = MachineConfig::sunnyCove(1);
        cfg.l1dPrefetcher = makeSpec("berti").l1d;
        cfg.dram = parsed.channel;
        cfg.memBackend = parsed.sel;

        auto gen_a = w.make();
        Machine uninterrupted(cfg, {gen_a.get()});
        uninterrupted.run(4000);
        std::string mid = uninterrupted.saveCheckpointBlob();
        uninterrupted.run(12000);
        std::string want = uninterrupted.saveCheckpointBlob();

        auto gen_b = w.make();
        Machine resumed(cfg, {gen_b.get()});
        resumed.resumeFromBlob(mid);
        test::expectSameCheckpoint(resumed, mid,
                                   spec + ": restore not idempotent");
        resumed.run(12000);
        test::expectSameCheckpoint(resumed, want,
                                   spec + ": post-resume state diverged");
        EXPECT_EQ(obs::toJson(resumed.metricsSnapshot()),
                  obs::toJson(uninterrupted.metricsSnapshot()))
            << spec << ": metrics diverged";
    }
}

TEST(BackendCheckpoint, BlobsRejectCrossBackendResume)
{
    // The config fingerprint folds the backend model and geometry,
    // so a checkpoint from one backend cannot restore into a
    // machine built with another.
    Workload w = resolveWorkload("mcf-like.472");
    auto configured = [&](const std::string &spec) {
        mem::ParsedBackend parsed = parseBackendSpec(spec);
        MachineConfig cfg = MachineConfig::sunnyCove(1);
        cfg.dram = parsed.channel;
        cfg.memBackend = parsed.sel;
        return cfg;
    };
    auto gen_a = w.make();
    Machine ddr4(configured("dram:ddr4"), {gen_a.get()});
    ddr4.run(2000);
    std::string blob = ddr4.saveCheckpointBlob();

    auto gen_b = w.make();
    Machine ddr5(configured("dram:ddr5"), {gen_b.get()});
    try {
        ddr5.resumeFromBlob(blob);
        FAIL() << "cross-backend resume must throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Checkpoint);
    }
}

// ============================================= store keys & bit-identity

TEST(BackendStoreKeys, DistinctBackendsNeverShareACell)
{
    SimParams base;
    auto key = [&](const std::string &backend) {
        SimParams p = base;
        p.memBackend = backend;
        return harness::makeStoreKey("mcf-like.472", "berti", p, "v1")
            .hash();
    };
    // Default spellings collapse to the same (historical) key.
    EXPECT_EQ(key(""), key("dram:ddr4"));
    EXPECT_EQ(key(""), key("dram:ddr4;mtps=6400"));
    // Every real backend change gets its own key.
    EXPECT_NE(key(""), key("dram:ddr5"));
    EXPECT_NE(key("dram:ddr5"), key("dram:hbm"));
    EXPECT_NE(key("dram:ddr4;mtps=3200"), key(""));
}

TEST(BackendSimulate, EmptyAndDefaultSpecsAreByteIdentical)
{
    Workload w = resolveWorkload("cactu-like.709");
    PrefetcherSpec spec = makeSpec("berti");
    SimParams params;
    params.warmupInstructions = 2000;
    params.measureInstructions = 8000;

    SimParams explicit_params = params;
    explicit_params.memBackend = "dram:ddr4;mtps=6400";

    EXPECT_EQ(obs::toJson(resultSnapshot(simulate(w, spec, params))),
              obs::toJson(
                  resultSnapshot(simulate(w, spec, explicit_params))));
}

TEST(BackendSimulate, MatrixIsJobCountInvariantPerBackend)
{
    std::vector<Workload> workloads = {resolveWorkload("mcf-like.472"),
                                       resolveWorkload("cactu-like.709")};
    std::vector<PrefetcherSpec> specs = {makeSpec("none"),
                                         makeSpec("berti")};
    for (const char *backend : {"dram:ddr5", "dram:hbm"}) {
        SimParams params;
        params.warmupInstructions = 2000;
        params.measureInstructions = 6000;
        params.memBackend = backend;

        test::expectJobCountInvariant(workloads, specs, params, 8);
    }
}

TEST(BackendSimulate, BackendsProduceDivergentTimings)
{
    // The study's premise: different backends must actually time
    // differently. Average read latency separates the latency corners.
    Workload w = resolveWorkload("bwaves-like.2609");
    PrefetcherSpec spec = makeSpec("berti");
    auto avgReadLatency = [&](const std::string &backend) {
        SimParams params;
        params.warmupInstructions = 2000;
        params.measureInstructions = 8000;
        params.memBackend = backend;
        SimResult r = simulate(w, spec, params);
        return r.roi.dram.readLatencyCount > 0
                   ? static_cast<double>(r.roi.dram.readLatencySum) /
                         static_cast<double>(r.roi.dram.readLatencyCount)
                   : 0.0;
    };
    double ddr4 = avgReadLatency("dram:ddr4");
    double lpddr5 = avgReadLatency("dram:lpddr5");
    double hbm = avgReadLatency("dram:hbm");
    EXPECT_GT(ddr4, 0.0);
    EXPECT_GT(lpddr5, ddr4);  // mobile corner: slower
    EXPECT_NE(hbm, ddr4);     // stacked corner: different timing
}

// ===================================================== options plumbing

TEST(BackendOptions, MachineConfigForResolvesSpecAndRejectsUnknown)
{
    sim::SimOptions opt;
    opt.memBackend = "dram:hbm";
    SimParams params;
    params.applyOptions(opt);
    MachineConfig cfg = machineConfigFor(makeSpec("none"), params, 1);
    EXPECT_EQ(cfg.memBackend.model, "hbm");
    EXPECT_EQ(cfg.memBackend.channels, 8u);
    EXPECT_EQ(cfg.dram.busBytes, 16u);

    sim::SimOptions bad;
    bad.memBackend = "dram:nosuch";
    SimParams bad_params;
    bad_params.applyOptions(bad);
    expectConfigError(
        [&] { (void)machineConfigFor(makeSpec("none"), bad_params, 1); },
        "nosuch", "machineConfigFor unknown backend");
}

TEST(BackendOptions, FlagAndEnvSpellFillMemBackend)
{
    sim::SimOptions opt;
    EXPECT_TRUE(opt.applyFlag("--mem-backend=dram:ddr5"));
    EXPECT_EQ(opt.memBackend, "dram:ddr5");
}

// ================================================== shared spec parser

TEST(SpecParse, SplitTopLevelRespectsParens)
{
    auto parts = sim::splitTopLevel("a,hybrid(b,c),d", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[1], "hybrid(b,c)");
    EXPECT_TRUE(sim::splitTopLevel("", ',').empty());
    EXPECT_EQ(sim::findTopLevel("hybrid(a+b)+c", '+'), 11u);
    EXPECT_EQ(sim::findTopLevel("hybrid(a+b)", '+'), std::string::npos);
}

} // namespace berti
