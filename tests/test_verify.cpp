/** @file Hardening-layer tests: SimError/Result semantics, env-driven
 *  audit configuration, always-on config validation, the invariant
 *  auditor (healthy runs pass, a leaked MSHR is caught), the
 *  forward-progress watchdog, fault-injector determinism, and Berti's
 *  counter self-consistency under injected latency variance. */

#include <cstring>

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/machine.hh"
#include "mem/cache.hh"
#include "trace/generators.hh"
#include "verify/auditor.hh"
#include "verify/fault_injector.hh"
#include "verify/sim_error.hh"
#include "verify/watchdog.hh"
#include "test_util.hh"

namespace berti
{

using test::TestMemory;
using verify::AuditConfig;
using verify::ErrorKind;
using verify::FaultConfig;
using verify::FaultInjector;
using verify::ProgressWatchdog;
using verify::Result;
using verify::SimAuditor;
using verify::SimError;
using verify::WatchdogConfig;

// --------------------------------------------------------------- errors

TEST(SimErrorTest, CarriesStructuredFields)
{
    SimError e(ErrorKind::TraceIo, "loadTrace", "truncated record",
               "/tmp/x.trace", 49, "dump");
    EXPECT_EQ(e.kind(), ErrorKind::TraceIo);
    EXPECT_EQ(e.component(), "loadTrace");
    EXPECT_EQ(e.reason(), "truncated record");
    EXPECT_EQ(e.path(), "/tmp/x.trace");
    EXPECT_EQ(e.offset(), 49u);
    EXPECT_EQ(e.diagnostic(), "dump");

    // what() is self-describing: kind, component, reason, location.
    std::string what = e.what();
    EXPECT_NE(what.find("trace-io"), std::string::npos);
    EXPECT_NE(what.find("loadTrace"), std::string::npos);
    EXPECT_NE(what.find("truncated record"), std::string::npos);
    EXPECT_NE(what.find("/tmp/x.trace"), std::string::npos);
    EXPECT_NE(what.find("49"), std::string::npos);
}

TEST(SimErrorTest, KindNamesAreStable)
{
    EXPECT_STREQ(verify::errorKindName(ErrorKind::Config), "config");
    EXPECT_STREQ(verify::errorKindName(ErrorKind::TraceIo), "trace-io");
    EXPECT_STREQ(verify::errorKindName(ErrorKind::Invariant),
                 "invariant");
    EXPECT_STREQ(verify::errorKindName(ErrorKind::Watchdog), "watchdog");
    EXPECT_STREQ(verify::errorKindName(ErrorKind::Fault), "fault");
}

TEST(ResultTest, ValueAndErrorPaths)
{
    Result<int> good(7);
    EXPECT_TRUE(good.ok());
    EXPECT_TRUE(static_cast<bool>(good));
    EXPECT_EQ(good.value(), 7);
    EXPECT_EQ(good.valueOr(0), 7);

    Result<int> bad(SimError(ErrorKind::Config, "test", "nope"));
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().kind(), ErrorKind::Config);
    EXPECT_EQ(bad.valueOr(42), 42);

    // value() on an error re-throws the *typed* stored error.
    try {
        (void)bad.value();
        FAIL() << "value() on an error Result must throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Config);
        EXPECT_EQ(e.reason(), "nope");
    }
}

// ------------------------------------------------- env-driven enabling

TEST(AuditEnvTest, FromEnvHonoursVerifyFlag)
{
    test::ScopedEnv interval("BERTI_VERIFY_INTERVAL", nullptr);
    {
        test::ScopedEnv verify("BERTI_VERIFY", nullptr);
        EXPECT_FALSE(AuditConfig::fromEnv().enabled);
    }
    {
        test::ScopedEnv verify("BERTI_VERIFY", "0");
        EXPECT_FALSE(AuditConfig::fromEnv().enabled);
    }
    test::ScopedEnv verify("BERTI_VERIFY", "1");
    EXPECT_TRUE(AuditConfig::fromEnv().enabled);

    test::ScopedEnv interval123("BERTI_VERIFY_INTERVAL", "123");
    AuditConfig cfg = AuditConfig::fromEnv();
    EXPECT_TRUE(cfg.enabled);
    EXPECT_EQ(cfg.interval, 123u);
}

// ------------------------------------------- always-on config checking

TEST(ConfigValidationTest, CacheRejectsDegenerateGeometry)
{
    Cycle clock = 0;
    CacheConfig cfg;
    cfg.ways = 0;
    try {
        Cache cache(cfg, &clock);
        FAIL() << "zero-way cache must be rejected";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Config);
    }

    cfg = CacheConfig{};
    cfg.mshrs = 0;
    EXPECT_THROW(Cache(cfg, &clock), SimError);
    cfg = CacheConfig{};
    cfg.sets = 0;
    EXPECT_THROW(Cache(cfg, &clock), SimError);
}

TEST(ConfigValidationTest, MachineRejectsGeneratorMismatch)
{
    StreamGen::Params p;
    StreamGen gen(p);
    MachineConfig cfg = MachineConfig::sunnyCove(2);
    try {
        Machine m(cfg, {&gen});  // 2 cores, 1 generator
        FAIL() << "generator/core mismatch must be rejected";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Config);
        EXPECT_NE(e.reason().find("generator"), std::string::npos);
    }

    EXPECT_THROW(Machine(cfg, {&gen, nullptr}), SimError);
}

TEST(ConfigValidationTest, L1dPrefetchWithoutTlbIsTypedNotAssert)
{
    // The old code had `assert(translation && ...)` here — invisible in
    // release builds, UB beyond it. Now it is an always-on typed error.
    Cycle clock = 0;
    CacheConfig cfg;
    cfg.isL1d = true;
    Cache cache(cfg, &clock);
    TestMemory mem(&clock, 40);
    cache.setLower(&mem);
    try {
        cache.issuePrefetch(0x1000, FillLevel::L1);
        FAIL() << "L1D prefetch without a TLB must be a typed error";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Config);
        EXPECT_NE(e.reason().find("TLB"), std::string::npos);
    }
}

// ------------------------------------------------------------- auditor

TEST(AuditorTest, HealthyMachinePassesAllChecks)
{
    StreamGen::Params p;
    StreamGen gen(p);
    MachineConfig cfg = MachineConfig::sunnyCove(1);
    cfg.l1dPrefetcher = makeSpec("berti").l1d;
    cfg.audit.enabled = true;
    cfg.audit.interval = 512;
    Machine m(cfg, {&gen});
    m.run(20000);
    ASSERT_NE(m.auditor(), nullptr);
    EXPECT_GT(m.auditor()->checksRun(), 10u);
    m.auditor()->checkNow();  // quiescent state must also pass
}

TEST(AuditorTest, DisabledByDefaultWithoutEnv)
{
    StreamGen::Params p;
    StreamGen gen(p);
    MachineConfig cfg = MachineConfig::sunnyCove(1);
    cfg.audit.enabled = false;
    Machine m(cfg, {&gen});
    EXPECT_EQ(m.auditor(), nullptr);
}

TEST(AuditorTest, LeakedMshrIsAnInvariantViolation)
{
    // A demand miss whose response never arrives: the MSHR entry ages
    // past the leak threshold and the auditor must flag it — this is
    // exactly the bookkeeping Berti's latency measurement depends on.
    Cycle clock = 0;
    CacheConfig cfg;
    cfg.name = "l1d-under-test";
    Cache cache(cfg, &clock);
    TestMemory mem(&clock, 40);
    cache.setLower(&mem);

    struct : ReadClient
    {
        void readDone(const MemRequest &) override {}
    } client;

    MemRequest req;
    req.pLine = 0x40;
    req.vLine = 0x40;
    req.ip = 0x400000;
    req.type = AccessType::Load;
    req.client = &client;
    ASSERT_TRUE(cache.submitRead(req));
    for (int i = 0; i < 8; ++i) {
        ++clock;
        cache.tick();  // never ticking mem: the response is swallowed
    }
    ASSERT_EQ(cache.mshrsInUse(), 1u);

    AuditConfig acfg;
    acfg.enabled = true;
    acfg.mshrLeakCycles = 1000;
    SimAuditor auditor(acfg, &clock);
    auditor.attach(&cache);

    auditor.checkNow();  // young entry: fine
    clock += 2000;       // now far beyond the leak threshold
    try {
        auditor.checkNow();
        FAIL() << "a leaked MSHR must fail the audit";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Invariant);
        EXPECT_EQ(e.component(), "l1d-under-test");
        EXPECT_NE(e.reason().find("MSHR"), std::string::npos);
    }
}

// ------------------------------------------------------------ watchdog

TEST(WatchdogTest, RetirementAndHeadChangesCountAsProgress)
{
    Cycle clock = 0;
    WatchdogConfig cfg;
    cfg.stallCycles = 100;
    ProgressWatchdog wd(cfg, &clock);
    wd.reset(1);

    // Steady retirement: never stalled.
    for (std::uint64_t i = 0; i < 500; ++i) {
        ++clock;
        wd.observe(0, i, 1000 + i);
    }
    EXPECT_EQ(wd.stalledCore(), -1);

    // Frozen retired count + frozen ROB head: stalls after threshold.
    for (int i = 0; i < 99; ++i) {
        ++clock;
        wd.observe(0, 500, 77);
    }
    EXPECT_EQ(wd.stalledCore(), -1);  // at the threshold, not beyond
    for (int i = 0; i < 5; ++i) {
        ++clock;
        wd.observe(0, 500, 77);
    }
    EXPECT_EQ(wd.stalledCore(), 0);
    EXPECT_GT(wd.stalledFor(0), cfg.stallCycles);

    // A head-id change alone (no retirement — e.g. a flush) is progress.
    wd.observe(0, 500, 78);
    EXPECT_EQ(wd.stalledCore(), -1);
}

TEST(WatchdogTest, DisabledWatchdogNeverFires)
{
    Cycle clock = 0;
    WatchdogConfig cfg;
    cfg.enabled = false;
    cfg.stallCycles = 10;
    ProgressWatchdog wd(cfg, &clock);
    wd.reset(1);
    for (int i = 0; i < 1000; ++i) {
        ++clock;
        wd.observe(0, 0, 0);
    }
    EXPECT_EQ(wd.stalledCore(), -1);
}

// ------------------------------------------------------ fault injector

TEST(FaultInjectorTest, QuietWhenAllRatesAreZero)
{
    FaultInjector inj;  // default config: every rate 0
    unsigned char rec[33] = {};
    unsigned char before[33] = {};
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(inj.mutateTraceRecord(rec, sizeof(rec)),
                  verify::TraceFault::None);
        EXPECT_FALSE(inj.loseDramRead());
        EXPECT_FALSE(inj.dropPrefetchFill());
    }
    MemRequest req;
    req.type = AccessType::Load;
    EXPECT_EQ(inj.extraDramLatency(req), 0u);
    EXPECT_EQ(std::memcmp(rec, before, sizeof(rec)), 0);
    EXPECT_EQ(inj.stats().traceBitFlips, 0u);
    EXPECT_EQ(inj.stats().dramSpikes, 0u);
}

TEST(FaultInjectorTest, DeterministicFromSeed)
{
    FaultConfig fc;
    fc.seed = 31337;
    fc.traceBitFlipRate = 0.5;
    fc.dramSpikeRate = 0.5;
    fc.dramSpikeCycles = 100;
    FaultInjector a(fc), b(fc);

    MemRequest req;
    req.type = AccessType::Load;
    for (int i = 0; i < 500; ++i) {
        unsigned char ra[33] = {}, rb[33] = {};
        a.mutateTraceRecord(ra, sizeof(ra));
        b.mutateTraceRecord(rb, sizeof(rb));
        EXPECT_EQ(std::memcmp(ra, rb, sizeof(ra)), 0);
        EXPECT_EQ(a.extraDramLatency(req), b.extraDramLatency(req));
    }
    EXPECT_EQ(a.stats().traceBitFlips, b.stats().traceBitFlips);
    EXPECT_EQ(a.stats().dramSpikes, b.stats().dramSpikes);
    EXPECT_GT(a.stats().traceBitFlips, 100u);
    EXPECT_GT(a.stats().dramSpikes, 100u);
}

TEST(FaultInjectorTest, SpikesHitTheConfiguredLatency)
{
    FaultConfig fc;
    fc.dramSpikeRate = 1.0;
    fc.dramSpikeCycles = 321;
    FaultInjector inj(fc);
    MemRequest req;
    req.type = AccessType::Load;
    EXPECT_EQ(inj.extraDramLatency(req), 321u);
    EXPECT_EQ(inj.stats().dramSpikes, 1u);
}

// --------------------------------- Berti under injected fault pressure

namespace
{

RunStats
runBertiUnderFaults(FaultInjector &inj)
{
    StreamGen::Params p;
    StreamGen gen(p);
    MachineConfig cfg = MachineConfig::sunnyCove(1);
    cfg.l1dPrefetcher = makeSpec("berti").l1d;
    cfg.audit.enabled = true;
    cfg.audit.interval = 2048;
    cfg.faults = &inj;
    Machine m(cfg, {&gen});
    m.run(40000);
    return m.liveStats(0);
}

FaultConfig
noisyDramConfig()
{
    FaultConfig fc;
    fc.seed = 4242;
    fc.dramSpikeRate = 0.25;
    fc.dramSpikeCycles = 150;
    fc.dropPrefetchFillRate = 0.25;
    fc.delayPrefetchFillRate = 0.25;
    fc.prefetchDelayCycles = 60;
    return fc;
}

} // namespace

TEST(BertiUnderFaultsTest, CountersStaySelfConsistent)
{
    // Latency spikes, delayed fills and dropped fills attack exactly
    // the signal Berti learns from (measured fetch latency). The run
    // must complete with the auditor on, and the accuracy/coverage
    // counter algebra must survive the injected variance.
    FaultInjector inj(noisyDramConfig());
    RunStats s = runBertiUnderFaults(inj);

    EXPECT_GE(s.core.instructions, 40000u);
    EXPECT_EQ(s.l1d.demandAccesses,
              s.l1d.demandHits + s.l1d.demandMisses +
                  s.l1d.demandMshrMerged);
    // Every fill is later classified useful or useless (or is still
    // resident); classifications can never exceed fills.
    EXPECT_LE(s.l1d.prefetchUseful + s.l1d.prefetchUseless,
              s.l1d.prefetchFills);
    // Dropped fills mean installs can only trail issues.
    EXPECT_LE(s.l1d.prefetchFills, s.l1d.prefetchIssued);
    EXPECT_GT(s.l1d.prefetchIssued, 0u);

    // The campaign actually fired.
    EXPECT_GT(inj.stats().dramSpikes, 0u);
    EXPECT_GT(inj.stats().droppedPrefetchFills, 0u);
}

TEST(BertiUnderFaultsTest, FaultCampaignsAreReproducible)
{
    FaultInjector a(noisyDramConfig());
    RunStats s1 = runBertiUnderFaults(a);
    FaultInjector b(noisyDramConfig());
    RunStats s2 = runBertiUnderFaults(b);

    EXPECT_EQ(s1.core.cycles, s2.core.cycles);
    EXPECT_EQ(s1.core.instructions, s2.core.instructions);
    EXPECT_EQ(s1.l1d.prefetchIssued, s2.l1d.prefetchIssued);
    EXPECT_EQ(s1.l1d.prefetchFills, s2.l1d.prefetchFills);
    EXPECT_EQ(s1.l1d.demandMisses, s2.l1d.demandMisses);
    EXPECT_EQ(a.stats().dramSpikes, b.stats().dramSpikes);
    EXPECT_EQ(a.stats().droppedPrefetchFills,
              b.stats().droppedPrefetchFills);
}

TEST(BertiUnderFaultsTest, ExperimentHarnessThreadsFaultsAndAudit)
{
    FaultInjector inj(noisyDramConfig());
    SimParams params;
    params.warmupInstructions = 5000;
    params.measureInstructions = 20000;
    params.forceAudit = true;
    params.faults = &inj;
    SimResult r =
        simulate(findWorkload("stream-like.1"), makeSpec("berti"), params);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GE(r.roi.core.instructions, 20000u);
    EXPECT_GT(inj.stats().dramSpikes, 0u);
}

} // namespace berti
