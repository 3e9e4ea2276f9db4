/**
 * @file
 * Interval-sampling tests: geometry validation, window accounting and
 * dispersion statistics, determinism of the sampled path (across runs,
 * across BERTI_JOBS, and through the simulate() branch), per-window
 * checkpoint resume, multi-core sampled mixes, result-store key
 * separation of sampled vs full cells, the SimOptions knobs, and the
 * sampled-vs-full error bounds checked against the pinned golden
 * matrix (regenerate sampled goldens with tools/update_goldens.sh).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "harness/experiment.hh"
#include "harness/result_store.hh"
#include "obs/export.hh"
#include "sim/options.hh"
#include "trace/registry.hh"
#include "verify/fault_injector.hh"
#include "test_util.hh"
#include "verify/sim_error.hh"

#ifndef BERTI_GOLDEN_DIR
#error "BERTI_GOLDEN_DIR must point at the checked-in goldens"
#endif

namespace berti
{
namespace
{

using test::resultJson;
using test::ScopedEnv;

/**
 * Documented sampled-vs-full error bounds (docs/ARCHITECTURE.md,
 * "Sampled simulation intervals"), checked for every cell of the
 * pinned golden matrix. The generators are stationary, so four short
 * windows already land this close to the 20k-instruction full-run
 * reference; CI fails loudly if a change to the simulator or the
 * sampling harness pushes any cell past them.
 */
constexpr double kIpcRelBound = 0.05;
constexpr double kMpkiAbsBound = 2.0;
constexpr double kAccuracyAbsBound = 0.10;

/** The golden-tier sampling geometry: same global warmup as the full
 *  goldens (5000), then 4 back-to-back windows of 500 warm + 2000
 *  measured instructions — 15000 simulated vs the full run's 25000. */
SimParams
sampledGoldenParams()
{
    SimParams p;
    p.warmupInstructions = 5000;
    p.measureInstructions = 20000;  // full-run length, for fingerprints
    p.sampling.windowCount = 4;
    p.sampling.windowWarmup = 500;
    p.sampling.windowMeasure = 2000;
    return p;
}

/** Smaller geometry for the mechanics tests. */
SimParams
quickSampled()
{
    SimParams p;
    p.warmupInstructions = 2000;
    p.measureInstructions = 20000;
    p.sampling.windowCount = 4;
    p.sampling.windowWarmup = 500;
    p.sampling.windowMeasure = 2000;
    return p;
}

std::string
freshDir(const std::string &name)
{
    return ::testing::TempDir() + "/" + name + "." +
           std::to_string(::getpid());
}

void
expectConfigError(const SimParams &params, const std::string &needle)
{
    try {
        simulateSampled(findWorkload("stream-like.1"), makeSpec("none"),
                        params);
        ADD_FAILURE() << "expected verify::SimError for " << needle;
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::Config);
        EXPECT_NE(e.reason().find(needle), std::string::npos)
            << e.reason();
    }
}

} // namespace

// ------------------------------------------------ geometry validation

TEST(SamplingGeometry, DegenerateGeometriesAreTypedConfigErrors)
{
    SimParams p = quickSampled();
    p.sampling.windowCount = 0;
    expectConfigError(p, "windowCount");

    p = quickSampled();
    p.sampling.windowMeasure = 0;
    expectConfigError(p, "windowMeasure");

    p = quickSampled();
    p.sampling.windowStride = 1000;  // < 500 warm + 2000 measured
    expectConfigError(p, "overlap");
}

TEST(SamplingGeometry, CanonicalStrideIsBackToBackWindows)
{
    SampleGeometry g;
    g.windowCount = 2;
    g.windowWarmup = 300;
    g.windowMeasure = 700;
    EXPECT_EQ(g.stride(), 1000u);
    g.windowStride = 2500;
    EXPECT_EQ(g.stride(), 2500u);
}

// --------------------------------------------- windows and dispersion

TEST(Sampling, WindowAccountingAndDispersion)
{
    SimParams p = quickSampled();
    SampledResult s = simulateSampled(findWorkload("stream-like.1"),
                                      makeSpec("berti"), p);

    ASSERT_EQ(s.windows.size(), 4u);
    ASSERT_EQ(s.windowStartInstruction.size(), 4u);

    std::uint64_t instr_sum = 0;
    for (std::size_t k = 0; k < s.windows.size(); ++k) {
        EXPECT_GE(s.windows[k].roi.core.instructions,
                  p.sampling.windowMeasure);
        EXPECT_GT(s.windows[k].ipc, 0.0);
        instr_sum += s.windows[k].roi.core.instructions;
        if (k > 0) {
            EXPECT_GT(s.windowStartInstruction[k],
                      s.windowStartInstruction[k - 1]);
        }
    }
    // First measured region starts after global + window warmup.
    EXPECT_GE(s.windowStartInstruction[0],
              p.warmupInstructions + p.sampling.windowWarmup);

    // The aggregate is the component-wise sum over the windows.
    EXPECT_EQ(s.aggregate.roi.core.instructions, instr_sum);

    // The cost side: far fewer simulated instructions than a full run,
    // but at least the geometry's nominal footprint.
    EXPECT_GE(s.instructionsSimulated,
              p.warmupInstructions +
                  4 * (p.sampling.windowWarmup + p.sampling.windowMeasure));
    EXPECT_LT(s.instructionsSimulated,
              p.warmupInstructions + p.measureInstructions);

    // Dispersion: mean inside the window range, non-negative spread.
    double lo = s.windows[0].ipc, hi = s.windows[0].ipc;
    for (const SimResult &w : s.windows) {
        lo = std::min(lo, w.ipc);
        hi = std::max(hi, w.ipc);
    }
    EXPECT_GE(s.ipcMean, lo);
    EXPECT_LE(s.ipcMean, hi);
    EXPECT_GE(s.ipcStddev, 0.0);
    EXPECT_GE(s.ipcCiHalfWidth, 0.0);
    EXPECT_LT(s.ipcRelCi(), 1.0);
}

// --------------------------------------------------------- determinism

TEST(Sampling, DeterministicAndEqualThroughSimulateBranch)
{
    SimParams p = quickSampled();
    const Workload &w = findWorkload("mcf-like.472");
    PrefetcherSpec spec = makeSpec("berti");

    SampledResult a = simulateSampled(w, spec, p);
    SampledResult b = simulateSampled(w, spec, p);
    EXPECT_EQ(resultJson(a.aggregate), resultJson(b.aggregate));
    for (std::size_t k = 0; k < a.windows.size(); ++k)
        EXPECT_EQ(resultJson(a.windows[k]), resultJson(b.windows[k]));

    // simulate() with sampling enabled IS the sampled aggregate, so
    // every existing call site gets sampling by flipping the params.
    SimResult via_simulate = simulate(w, spec, p);
    EXPECT_EQ(resultJson(via_simulate), resultJson(a.aggregate));
}

TEST(Sampling, BitIdenticalAcrossJobs)
{
    SimParams p = quickSampled();
    std::vector<Workload> workloads = {findWorkload("mcf-like.472"),
                                       findWorkload("stream-like.1")};
    std::vector<PrefetcherSpec> specs = {makeSpec("none"),
                                         makeSpec("berti")};

    test::expectJobCountInvariant(workloads, specs, p, 4);
}

// --------------------------------------------------- checkpoint resume

TEST(Sampling, CheckpointResumeReproducesEachWindow)
{
    SimParams p = quickSampled();
    p.sampling.checkpointDir = freshDir("berti_sampling_ckpt");
    const Workload &w = findWorkload("stream-like.1");
    PrefetcherSpec spec = makeSpec("berti");

    SampledResult sampled = simulateSampled(w, spec, p);
    ASSERT_EQ(sampled.windows.size(), 4u);

    // Every window re-simulated in isolation from its warm-state
    // checkpoint is bit-identical to the in-stream measurement.
    for (unsigned k = 0; k < 4; ++k) {
        SimResult window = resumeSampledWindow(
            w, spec, p,
            p.sampling.checkpointDir + "/window-" + std::to_string(k) +
                ".ckpt");
        EXPECT_EQ(resultJson(window), resultJson(sampled.windows[k]))
            << "window " << k;
    }
}

TEST(Sampling, CheckpointDirWithFaultInjectionIsTypedCheckpointError)
{
    verify::FaultInjector faults;
    SimParams p = quickSampled();
    p.faults = &faults;
    p.sampling.checkpointDir = freshDir("berti_sampling_faultckpt");
    try {
        simulateSampled(findWorkload("stream-like.1"), makeSpec("berti"),
                        p);
        FAIL() << "expected verify::SimError";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::Checkpoint);
        EXPECT_NE(e.reason().find("cannot checkpoint"), std::string::npos)
            << e.reason();
    }
}

// ----------------------------------------------------- multicore mixes

TEST(SamplingMix, PerCoreWindowsAndAggregates)
{
    SimParams p = quickSampled();
    std::vector<Workload> mix = {findWorkload("stream-like.1"),
                                 findWorkload("gcc-like.2226")};
    PrefetcherSpec spec = makeSpec("berti");

    std::vector<SampledResult> sampled = simulateMix(mix, spec, p);
    ASSERT_EQ(sampled.size(), 2u);
    for (const SampledResult &s : sampled) {
        ASSERT_EQ(s.windows.size(), 4u);
        EXPECT_GE(s.aggregate.roi.core.instructions,
                  4 * p.sampling.windowMeasure);
        EXPECT_GT(s.aggregate.ipc, 0.0);
    }
}

TEST(SamplingMix, PerWindowCheckpointsAreSingleCoreOnly)
{
    SimParams p = quickSampled();
    p.sampling.checkpointDir = freshDir("berti_sampling_mixckpt");
    std::vector<Workload> mix = {findWorkload("stream-like.1"),
                                 findWorkload("gcc-like.2226")};
    try {
        simulateMix(mix, makeSpec("none"), p);
        FAIL() << "expected verify::SimError";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::Config);
        EXPECT_NE(e.reason().find("single-core"), std::string::npos)
            << e.reason();
    }
}

// ------------------------------------------------- result-store keys

TEST(SamplingStoreKeys, SampledAndFullCellsNeverCollide)
{
    SimParams full = sampledGoldenParams();
    full.sampling = SampleGeometry{};  // disabled
    SimParams sampled = sampledGoldenParams();

    EXPECT_NE(harness::paramsFingerprint(full),
              harness::paramsFingerprint(sampled));
    EXPECT_NE(harness::makeStoreKey("mcf-like.472", "berti", full).hash(),
              harness::makeStoreKey("mcf-like.472", "berti", sampled)
                  .hash());

    // Different geometries are different cells too.
    SimParams wider = sampled;
    wider.sampling.windowCount = 8;
    EXPECT_NE(harness::paramsFingerprint(sampled),
              harness::paramsFingerprint(wider));
}

TEST(SamplingStoreKeys, EquivalentGeometriesShareAKey)
{
    SimParams a = sampledGoldenParams();

    // Explicit stride equal to the implied back-to-back stride.
    SimParams b = a;
    b.sampling.windowStride =
        a.sampling.windowWarmup + a.sampling.windowMeasure;
    EXPECT_EQ(harness::paramsFingerprint(a), harness::paramsFingerprint(b));

    // checkpointDir never perturbs results, so it is not part of the key.
    SimParams c = a;
    c.sampling.checkpointDir = "/tmp/anywhere";
    EXPECT_EQ(harness::paramsFingerprint(a), harness::paramsFingerprint(c));

    // Disabled sampling ignores the (meaningless) window fields.
    SimParams off1 = a, off2 = a;
    off1.sampling = SampleGeometry{};
    off2.sampling = SampleGeometry{};
    off2.sampling.windowWarmup = 12345;
    EXPECT_EQ(harness::paramsFingerprint(off1),
              harness::paramsFingerprint(off2));
}

// ------------------------------------------------------ SimOptions

TEST(SamplingOptions, EnvKnobsParseAndReject)
{
    {
        ScopedEnv windows("BERTI_SAMPLE_WINDOWS", "6");
        ScopedEnv warm("BERTI_SAMPLE_WARMUP", "750");
        ScopedEnv measure("BERTI_SAMPLE_MEASURE", "3000");
        ScopedEnv stride("BERTI_SAMPLE_STRIDE", "8000");
        sim::SimOptions opt = sim::SimOptions::fromEnv();
        EXPECT_EQ(opt.sampleWindows, 6u);
        EXPECT_EQ(opt.sampleWarmup, 750u);
        EXPECT_EQ(opt.sampleMeasure, 3000u);
        EXPECT_EQ(opt.sampleStride, 8000u);
    }
    {
        ScopedEnv measure("BERTI_SAMPLE_MEASURE", "0");
        EXPECT_THROW(sim::SimOptions::fromEnv(), verify::SimError);
    }
    {
        ScopedEnv windows("BERTI_SAMPLE_WINDOWS", "banana");
        EXPECT_THROW(sim::SimOptions::fromEnv(), verify::SimError);
    }
}

TEST(SamplingOptions, FlagsLayerOverEnv)
{
    sim::SimOptions opt;
    EXPECT_TRUE(opt.applyFlag("--sample-windows=3"));
    EXPECT_TRUE(opt.applyFlag("--sample-warmup=250"));
    EXPECT_TRUE(opt.applyFlag("--sample-measure=1500"));
    EXPECT_TRUE(opt.applyFlag("--sample-stride=5000"));
    EXPECT_EQ(opt.sampleWindows, 3u);
    EXPECT_EQ(opt.sampleWarmup, 250u);
    EXPECT_EQ(opt.sampleMeasure, 1500u);
    EXPECT_EQ(opt.sampleStride, 5000u);
    EXPECT_THROW(opt.applyFlag("--sample-measure=0"), verify::SimError);
    EXPECT_FALSE(opt.applyFlag("--not-a-sampling-flag=1"));
}

TEST(SimOptionsKnobs, MalformedValuesAreConfigErrorsNamingTheKnob)
{
    // One integer parser and one switch spelling for env and flags
    // alike: every malformed value is a typed Config error that names
    // the variable or flag.
    struct Bad
    {
        const char *knob;
        const char *value;
    };
    const Bad env_cases[] = {
        {"BERTI_JOBS", ""},
        {"BERTI_JOBS", "0"},
        {"BERTI_JOBS", "4x"},
        {"BERTI_SAMPLE_WINDOWS", "-1"},
        {"BERTI_TEST_SEED", ""},
        {"BERTI_SAMPLE_MEASURE", "0"},
        {"BERTI_SAMPLE_WARMUP", "1e3"},
        {"BERTI_VERIFY_INTERVAL", "abc"},
        {"BERTI_VERIFY_INTERVAL", "0"},
        {"BERTI_TEST_SEED", "12abc"},
        {"BERTI_TEST_SEED", "0x"},
        {"BERTI_PROP_ITERS", "three"},
        {"BERTI_PROP_ITERS", "99999999999999999999999"},
        {"BERTI_SAMPLE_WINDOWS", "4294967296"},
        {"BERTI_BENCH_QUICK", "maybe"},
        {"BERTI_CYCLE_SKIP", "00"},
        {"BERTI_VERIFY", " 1"},
    };
    for (const Bad &c : env_cases) {
        ScopedEnv env(c.knob, c.value);
        try {
            sim::SimOptions::fromEnv();
            ADD_FAILURE() << c.knob << "=" << c.value << " accepted";
        } catch (const verify::SimError &e) {
            EXPECT_EQ(e.kind(), verify::ErrorKind::Config) << c.knob;
            EXPECT_NE(e.reason().find(c.knob), std::string::npos)
                << e.reason();
        }
    }
    for (const char *flag : {"--jobs=", "--jobs=0", "--sample-warmup=12abc",
                             "--sample-windows=+2", "--sample-measure=0"}) {
        sim::SimOptions opt;
        std::string arg = flag;
        std::string name = arg.substr(0, arg.find('='));
        try {
            opt.applyFlag(flag);
            ADD_FAILURE() << flag << " accepted";
        } catch (const verify::SimError &e) {
            EXPECT_EQ(e.kind(), verify::ErrorKind::Config) << flag;
            EXPECT_NE(e.reason().find(name), std::string::npos)
                << e.reason();
        }
    }
}

TEST(SimOptionsKnobs, SwitchesAndIntegersShareOneSpelling)
{
    {
        ScopedEnv quick("BERTI_BENCH_QUICK", "true");
        ScopedEnv skip("BERTI_CYCLE_SKIP", "off");
        ScopedEnv seed("BERTI_TEST_SEED", "0xabc123");
        ScopedEnv empty("BERTI_ARTIFACT_DIR", "");
        sim::SimOptions opt = sim::SimOptions::fromEnv();
        EXPECT_TRUE(opt.benchQuick);
        EXPECT_FALSE(opt.cycleSkip);
        EXPECT_TRUE(opt.hasTestSeed);
        EXPECT_EQ(opt.testSeed, 0xabc123u);
        EXPECT_EQ(opt.artifactDir, ".");  // empty text = unset
    }
    sim::SimOptions opt;
    EXPECT_TRUE(opt.applyFlag("--quick"));
    EXPECT_TRUE(opt.applyFlag("--verify"));
    EXPECT_TRUE(opt.applyFlag("--sample-windows=2"));
    // Cycle-skip is environment-only (BERTI_CYCLE_SKIP): no flag.
    EXPECT_FALSE(opt.applyFlag("--no-cycle-skip"));
    EXPECT_FALSE(opt.applyFlag("--cycle-skip"));
    EXPECT_TRUE(opt.benchQuick);
    EXPECT_TRUE(opt.verify);
    EXPECT_TRUE(opt.cycleSkip);
    EXPECT_EQ(opt.sampleWindows, 2u);
    EXPECT_EQ(sim::parseInteger("n", "0x10", 0), 16u);

    // --verify reaches the machine through the shared options mapping.
    SimParams p;
    p.applyOptions(opt);
    EXPECT_TRUE(p.forceAudit);
}

// --------------------------------------- sampled vs full-run goldens

namespace
{

/** The pinned golden matrix (mirrors test_golden.cpp). */
const std::vector<std::string> kWorkloads = {
    "mcf-like.472", "bwaves-like.2609", "cactu-like.709",
    "mcf-like.1536"};
const std::vector<std::string> kSpecs = {"none", "berti"};

std::string
fullGoldenPath(const std::string &workload, const std::string &spec)
{
    return std::string(BERTI_GOLDEN_DIR) + "/" + workload + "__" + spec +
           ".json";
}

std::string
sampledGoldenPath(const std::string &workload, const std::string &spec)
{
    return std::string(BERTI_GOLDEN_DIR) + "/" + workload + "__" + spec +
           ".sampled.json";
}

class SampledGoldenTest : public ::testing::TestWithParam<
                              std::tuple<std::string, std::string>>
{};

std::vector<std::tuple<std::string, std::string>>
goldenMatrix()
{
    std::vector<std::tuple<std::string, std::string>> cells;
    for (const auto &w : kWorkloads)
        for (const auto &s : kSpecs)
            cells.emplace_back(w, s);
    return cells;
}

std::string
cellName(const ::testing::TestParamInfo<
         std::tuple<std::string, std::string>> &info)
{
    std::string n = std::get<0>(info.param) + "_" +
                    std::get<1>(info.param);
    for (char &c : n) {
        if (!((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9')))
            c = '_';
    }
    return n;
}

} // namespace

/**
 * The property the whole subsystem exists for: for every cell of the
 * pinned matrix, the sampled aggregate reproduces the checked-in
 * full-run golden within the documented IPC/MPKI/accuracy bounds — at
 * 15000 simulated instructions against the full run's 25000. The
 * sampled aggregate itself is also golden-pinned (the .sampled.json
 * sidecars), so sampled-path drift fails byte-identically like any
 * other golden.
 */
TEST_P(SampledGoldenTest, ReproducesFullRunWithinDocumentedBounds)
{
    const auto &[workload, spec] = GetParam();
    SimParams params = sampledGoldenParams();
    SampledResult sampled = simulateSampled(findWorkload(workload),
                                            makeSpec(spec), params);
    std::string actual_json = resultJson(sampled.aggregate);

    if (sim::SimOptions::fromEnv().updateGoldens) {
        obs::writeFile(sampledGoldenPath(workload, spec), actual_json);
        GTEST_SKIP() << "updated sampled golden "
                     << sampledGoldenPath(workload, spec);
    }

    // (1) Bit-stability of the sampled path itself.
    std::string golden_path = sampledGoldenPath(workload, spec);
    std::string golden_json;
    try {
        golden_json = obs::readFile(golden_path);
    } catch (const verify::SimError &e) {
        FAIL() << "missing or unreadable sampled golden " << golden_path
               << ": " << e.reason()
               << " — run tools/update_goldens.sh and commit the result";
    }
    EXPECT_EQ(golden_json, actual_json)
        << "sampled-path drift for " << workload << " x " << spec
        << " — after an intentional change run tools/update_goldens.sh";

    // (2) The error bound against the full-run golden.
    std::string full_json;
    try {
        full_json = obs::readFile(fullGoldenPath(workload, spec));
    } catch (const verify::SimError &e) {
        FAIL() << "missing full-run golden for " << workload << " x "
               << spec << ": " << e.reason();
    }
    SimResult full = resultFromSnapshot(
        obs::snapshotFromJson(full_json, fullGoldenPath(workload, spec)));

    SampledError err = sampledVsFull(sampled, full);
    EXPECT_LE(err.ipcRel, kIpcRelBound)
        << workload << " x " << spec << ": sampled ipc "
        << sampled.aggregate.ipc << " vs full " << full.ipc;
    EXPECT_LE(err.l1dMpkiAbs, kMpkiAbsBound) << workload << " x " << spec;
    EXPECT_LE(err.accuracyAbs, kAccuracyAbsBound)
        << workload << " x " << spec;
}

INSTANTIATE_TEST_SUITE_P(Matrix, SampledGoldenTest,
                         ::testing::ValuesIn(goldenMatrix()), cellName);

/**
 * The acceptance property for a figure-8-class cell: a sampled run
 * reproduces the full-run IPC within the documented bound at >= 5x
 * fewer simulated instructions, and lands under a distinct result-store
 * key. This is the cell the CI sampling-smoke job replays.
 */
TEST(Fig08SampledVsFull, FiveFoldCheaperWithinIpcBound)
{
    const Workload &w = findWorkload("mcf-like.472");
    PrefetcherSpec spec = makeSpec("berti");

    SimParams full;  // the fig08 bench geometry
    full.warmupInstructions = 40000;
    full.measureInstructions = 200000;

    SimParams sampled_params = full;  // the bench's sampled geometry
    sampled_params.warmupInstructions = 8000;
    sampled_params.sampling.windowCount = 4;
    sampled_params.sampling.windowWarmup = 1000;
    sampled_params.sampling.windowMeasure = 8000;

    SimResult full_result = simulate(w, spec, full);
    SampledResult sampled = simulateSampled(w, spec, sampled_params);

    // >= 5x fewer simulated instructions (nominal footprint 44000 vs
    // 240000, so the bound holds even with run()'s in-flight overshoot).
    EXPECT_GE(full.warmupInstructions + full.measureInstructions,
              5 * sampled.instructionsSimulated);

    // ...within the documented IPC bound...
    SampledError err = sampledVsFull(sampled, full_result);
    EXPECT_LE(err.ipcRel, kIpcRelBound)
        << "sampled ipc " << sampled.aggregate.ipc << " vs full "
        << full_result.ipc;

    // ...under a store key the full-run cell can never collide with.
    EXPECT_NE(
        harness::makeStoreKey(w.name, spec.name, full).hash(),
        harness::makeStoreKey(w.name, spec.name, sampled_params).hash());
}

} // namespace berti
