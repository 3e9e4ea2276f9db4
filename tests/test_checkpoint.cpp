/**
 * @file
 * Checkpoint/resume validation: a resumed machine must be
 * indistinguishable from one that never stopped. The strongest form of
 * that claim is byte equality of the re-serialized state, so most
 * tests compare whole checkpoint blobs rather than individual
 * counters; the rejection tests then pin down the typed-error contract
 * for truncated, corrupted, version-skewed and mis-wired blobs.
 */

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "mem/backend_registry.hh"
#include "obs/export.hh"
#include "oracle/microtrace.hh"
#include "prefetch/registry.hh"
#include "sim/serialize.hh"
#include "trace/instr.hh"
#include "trace/registry.hh"
#include "verify/sim_error.hh"

#include "test_util.hh"

namespace berti
{

namespace
{

/** The resume matrix: three workloads crossed with every registered
 *  spec, plus a duel hybrid of the two temporal specs. */
const std::vector<std::string> kWorkloads = {
    "mcf-like.472", "bwaves-like.2609", "cactu-like.709"};

std::vector<std::string>
resumeSpecs()
{
    std::vector<std::string> specs = prefetch::allSpecs();
    specs.push_back("hybrid(cmc,markov;select=duel)");
    return specs;
}

constexpr std::uint64_t kWarmup = 4000;
constexpr std::uint64_t kMeasure = 12000;

MachineConfig
configFor(const std::string &spec_name, unsigned cores = 1,
          const std::string &backend = {})
{
    PrefetcherSpec spec = makeSpec(spec_name);
    MachineConfig cfg = MachineConfig::sunnyCove(cores);
    cfg.l1dPrefetcher = spec.l1d;
    cfg.l2Prefetcher = spec.l2;
    if (!backend.empty()) {
        mem::ParsedBackend parsed = mem::parseBackendSpec(backend);
        cfg.dram = parsed.channel;
        cfg.memBackend = parsed.sel;
    }
    return cfg;
}

/**
 * The core property: save at the warmup boundary, resume into a fresh
 * machine with fresh generators, run the measure region on both, and
 * require the final serialized states to be byte-identical.
 */
void
checkResumeBitIdentical(const MachineConfig &cfg,
                        const std::vector<const Workload *> &workloads,
                        const std::string &what)
{
    std::vector<std::unique_ptr<TraceGenerator>> gens_a;
    std::vector<TraceGenerator *> ptrs_a;
    for (const Workload *w : workloads) {
        gens_a.push_back(w->make());
        ptrs_a.push_back(gens_a.back().get());
    }
    Machine uninterrupted(cfg, ptrs_a);
    uninterrupted.run(kWarmup);
    std::string mid = uninterrupted.saveCheckpointBlob();
    uninterrupted.run(kMeasure);
    std::string want = uninterrupted.saveCheckpointBlob();

    std::vector<std::unique_ptr<TraceGenerator>> gens_b;
    std::vector<TraceGenerator *> ptrs_b;
    for (const Workload *w : workloads) {
        gens_b.push_back(w->make());
        ptrs_b.push_back(gens_b.back().get());
    }
    Machine resumed(cfg, ptrs_b);
    resumed.resumeFromBlob(mid);

    // Restore must be lossless before any further execution: the
    // resumed machine re-serializes to the exact bytes it was fed.
    test::expectSameCheckpoint(resumed, mid,
                               what + " (idempotent restore)");

    resumed.run(kMeasure);
    test::expectSameCheckpoint(resumed, want, what + " (post-resume run)");

    // Blob equality implies stats equality, but check the exported
    // metrics too so a future blob-layout bug cannot mask a stats one.
    EXPECT_EQ(obs::toJson(resumed.metricsSnapshot()),
              obs::toJson(uninterrupted.metricsSnapshot()))
        << what;
}

} // namespace

TEST(Checkpoint, SplitRunMatchesSingleRun)
{
    MachineConfig cfg = configFor("berti");
    const Workload &w = findWorkload("mcf-like.472");

    auto gen_single = w.make();
    Machine single(cfg, {gen_single.get()});
    single.run(kWarmup + kMeasure);

    auto gen_split = w.make();
    Machine split(cfg, {gen_split.get()});
    split.run(kWarmup);
    split.run(kMeasure);

    test::expectSameCheckpoint(split, single.saveCheckpointBlob(),
                               "split vs single run");
}

TEST(Checkpoint, EverySpecResumesBitIdenticalOrRefusesWithReason)
{
    // Every registered spec either round-trips bit-identically on the
    // three workloads or, when its machine cannot checkpoint, refuses
    // up front with a typed error naming the prefetcher.
    for (const std::string &spec : resumeSpecs()) {
        MachineConfig cfg = configFor(spec);
        const Workload &w0 = findWorkload(kWorkloads[0]);
        auto gen = w0.make();
        Machine probe(cfg, {gen.get()});
        std::string why;
        if (probe.checkpointSupported(&why)) {
            for (const std::string &name : kWorkloads) {
                const Workload &w = findWorkload(name);
                checkResumeBitIdentical(cfg, {&w}, spec + "/" + name);
            }
            continue;
        }
        EXPECT_NE(why.find(spec), std::string::npos) << why;
        try {
            (void)probe.saveCheckpointBlob();
            ADD_FAILURE() << spec << ": saving an uncheckpointable "
                          << "machine must throw";
        } catch (const verify::SimError &e) {
            EXPECT_EQ(e.kind(), verify::ErrorKind::Checkpoint) << spec;
            EXPECT_NE(e.reason().find(spec), std::string::npos)
                << spec << ": " << e.reason();
        }
    }
}

TEST(Checkpoint, ResumeBitIdenticalMulticore)
{
    const Workload &a = findWorkload("mcf-like.472");
    const Workload &b = findWorkload("bwaves-like.2609");
    checkResumeBitIdentical(configFor("berti", 2), {&a, &b},
                            "berti multicore");
}

TEST(Checkpoint, ResumeBitIdenticalOnAdversarialMicroTraces)
{
    // The differential oracle's adversarial workload classes
    // (page-crossing strides, aliasing sets, writeback races, ...) make
    // good checkpoint stressors too: they keep MSHRs, writeback queues
    // and TLB walks live at the save point.
    std::uint64_t seed = oracle::testSeed(0xC4EC4001);
    MachineConfig cfg = configFor("berti");
    for (const auto &cls : oracle::microTraceClasses()) {
        oracle::MicroTrace trace = cls.generate(seed, 400);
        std::vector<TraceInstr> instrs = oracle::toInstrs(trace);

        ScriptedGen gen_a(instrs);
        Machine uninterrupted(cfg, {&gen_a});
        uninterrupted.run(kWarmup);
        std::string mid = uninterrupted.saveCheckpointBlob();
        uninterrupted.run(kMeasure);

        ScriptedGen gen_b(instrs);
        Machine resumed(cfg, {&gen_b});
        resumed.resumeFromBlob(mid);
        resumed.run(kMeasure);

        test::expectSameCheckpoint(resumed,
                                   uninterrupted.saveCheckpointBlob(),
                                   cls.name + " seed=" +
                                       std::to_string(seed));
    }
}

TEST(Checkpoint, AuditorPassesAfterRestore)
{
    MachineConfig cfg = configFor("berti");
    cfg.audit.enabled = true;
    const Workload &w = findWorkload("mcf-like.472");

    auto gen_a = w.make();
    Machine saver(cfg, {gen_a.get()});
    saver.run(kWarmup);
    std::string blob = saver.saveCheckpointBlob();

    auto gen_b = w.make();
    Machine resumed(cfg, {gen_b.get()});
    resumed.resumeFromBlob(blob);
    ASSERT_NE(resumed.auditor(), nullptr);
    // resumeFromBlob runs a full invariant pass over the restored state.
    EXPECT_GT(resumed.auditor()->checksRun(), 0u);
    resumed.run(kMeasure);
}

TEST(Checkpoint, FileRoundTripIsAtomicAndLossless)
{
    std::string path = ::testing::TempDir() + "/berti_ckpt_test.bin";
    MachineConfig cfg = configFor("ip-stride");
    const Workload &w = findWorkload("cactu-like.709");

    auto gen_a = w.make();
    Machine saver(cfg, {gen_a.get()});
    saver.run(kWarmup);
    saver.saveCheckpoint(path);
    std::string blob = saver.saveCheckpointBlob();

    auto gen_b = w.make();
    Machine resumed(cfg, {gen_b.get()});
    resumed.resumeFrom(path);
    test::expectSameCheckpoint(resumed, blob, "file round-trip");
    std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileIsTypedError)
{
    MachineConfig cfg = configFor("none");
    const Workload &w = findWorkload("mcf-like.472");
    auto gen = w.make();
    Machine m(cfg, {gen.get()});
    std::string path = ::testing::TempDir() + "/berti_no_such_ckpt.bin";
    try {
        m.resumeFrom(path);
        FAIL() << "resume from a missing file must throw";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::Checkpoint);
        EXPECT_EQ(e.path(), path);
    }
}

TEST(Checkpoint, HybridWithUncheckpointableChildRefusesWithReason)
{
    // A hybrid is only as checkpointable as its children: composing in
    // BOP must propagate the typed refusal instead of silently
    // dropping the child's learned state.
    MachineConfig cfg = configFor("hybrid(berti,bop)");
    const Workload &w = findWorkload("mcf-like.472");
    auto gen = w.make();
    Machine m(cfg, {gen.get()});

    std::string why;
    EXPECT_FALSE(m.checkpointSupported(&why));

    try {
        (void)m.saveCheckpointBlob();
        FAIL() << "saving an uncheckpointable hybrid must throw";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::Checkpoint);
    }
}

TEST(Checkpoint, ConfigFingerprintMismatchRejected)
{
    const Workload &w = findWorkload("mcf-like.472");
    auto gen_a = w.make();
    Machine saver(configFor("berti"), {gen_a.get()});
    saver.run(kWarmup);
    std::string blob = saver.saveCheckpointBlob();

    auto gen_b = w.make();
    Machine other(configFor("none"), {gen_b.get()});
    EXPECT_NE(other.configFingerprint(), saver.configFingerprint());
    try {
        other.resumeFromBlob(blob);
        FAIL() << "resume on a different topology must throw";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::Checkpoint);
        EXPECT_NE(e.reason().find("fingerprint"), std::string::npos)
            << e.reason();
    }
}

TEST(Checkpoint, CoreCountMismatchRejected)
{
    const Workload &w = findWorkload("mcf-like.472");
    auto gen_a = w.make();
    Machine saver(configFor("none"), {gen_a.get()});
    saver.run(kWarmup);
    std::string blob = saver.saveCheckpointBlob();

    auto gen_b = w.make();
    auto gen_c = w.make();
    Machine two(configFor("none", 2), {gen_b.get(), gen_c.get()});
    EXPECT_THROW(two.resumeFromBlob(blob), verify::SimError);
}

TEST(Checkpoint, NonPristineMachineRejectsResume)
{
    const Workload &w = findWorkload("mcf-like.472");
    auto gen_a = w.make();
    Machine saver(configFor("none"), {gen_a.get()});
    saver.run(kWarmup);
    std::string blob = saver.saveCheckpointBlob();

    auto gen_b = w.make();
    Machine ran(configFor("none"), {gen_b.get()});
    ran.run(100);
    try {
        ran.resumeFromBlob(blob);
        FAIL() << "resume into an already-run machine must throw";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::Checkpoint);
        EXPECT_NE(e.reason().find("pristine"), std::string::npos)
            << e.reason();
    }
}

TEST(Checkpoint, CorruptBlobsRejectedBeforeAnyStateIsTouched)
{
    const Workload &w = findWorkload("mcf-like.472");
    auto gen_a = w.make();
    Machine saver(configFor("berti"), {gen_a.get()});
    saver.run(kWarmup);
    const std::string blob = saver.saveCheckpointBlob();

    auto rejects = [&](std::string bad, const std::string &what) {
        auto gen = w.make();
        Machine m(configFor("berti"), {gen.get()});
        try {
            m.resumeFromBlob(bad);
            FAIL() << what << ": corrupt blob accepted";
        } catch (const verify::SimError &e) {
            EXPECT_EQ(e.kind(), verify::ErrorKind::Checkpoint) << what;
        }
        // Validation failed fast: the machine is still pristine, so a
        // restore from the good blob still succeeds afterwards.
        m.resumeFromBlob(blob);
    };

    rejects(std::string(), "empty blob");
    rejects(blob.substr(0, harness::kCheckpointHeaderBytes - 2),
            "truncated header");
    rejects(blob.substr(0, blob.size() / 2), "truncated payload");
    rejects(blob.substr(0, blob.size() - 1), "missing checksum byte");

    std::string flipped = blob;
    flipped[flipped.size() / 2] ^= 0x40;
    rejects(flipped, "bit flip in payload");

    std::string bad_magic = blob;
    bad_magic[0] ^= 0xFF;
    rejects(bad_magic, "bad magic");

    // Single-byte flips the word-wide checksum must catch: every header
    // byte, each byte lane of one mid-payload word, every byte of the
    // payload's non-word tail (folded byte by byte) and of the trailer.
    auto flip = [&](std::size_t at, const std::string &what) {
        std::string bad = blob;
        bad[at] ^= 0x01;
        rejects(bad, what + " at byte " + std::to_string(at));
    };
    const std::size_t body = blob.size() - harness::kCheckpointChecksumBytes;
    for (std::size_t at = 0; at < harness::kCheckpointHeaderBytes; ++at)
        flip(at, "header flip");
    const std::size_t mid_word = body / 16 * 8;
    for (std::size_t lane = 0; lane < 8; ++lane)
        flip(mid_word + lane, "payload word lane flip");
    ASSERT_NE(body % 8, 0u) << "this blob has no non-word tail to cover";
    for (std::size_t at = body / 8 * 8; at < body; ++at)
        flip(at, "payload tail flip");
    for (std::size_t at = body; at < blob.size(); ++at)
        flip(at, "checksum flip");

    // Version skew is reported as such, ahead of the checksum, however
    // the blob was stamped: re-stamped with this version's checksum, or
    // a version-2 blob carrying v2's byte-wise FNV-1a trailer.
    auto rejectsAsSkew = [&](std::uint32_t version, auto checksum,
                             const std::string &what) {
        std::string bad = blob.substr(0, body);
        bad[8] = static_cast<char>(version);
        std::uint64_t sum = checksum(bad);
        for (unsigned i = 0; i < 8; ++i)
            bad.push_back(static_cast<char>((sum >> (8 * i)) & 0xFF));
        auto gen = w.make();
        Machine m(configFor("berti"), {gen.get()});
        try {
            m.resumeFromBlob(bad);
            FAIL() << what << ": version skew accepted";
        } catch (const verify::SimError &e) {
            EXPECT_EQ(e.kind(), verify::ErrorKind::Checkpoint) << what;
            EXPECT_NE(e.reason().find("version"), std::string::npos)
                << what << ": " << e.reason();
        }
    };
    rejectsAsSkew(harness::kCheckpointVersion + 1,
                  harness::checkpointChecksum, "next version");
    rejectsAsSkew(2, sim::fnv1a64, "v2 blob");
}

TEST(Checkpoint, PristineLayoutIsPinned)
{
    // The versioning rule made executable: a pristine machine's blob
    // depends only on the layout (and the configuration), so any
    // layout change moves these constants.
    struct Pin
    {
        const char *spec;
        const char *backend;
        std::size_t size;
        std::uint64_t hash;
    };
    const std::array<Pin, 3> pins = {{
        {"berti", "", 1574502, 0xfb39554d8935acb7ull},
        {"hybrid(berti,cmc)", "", 1655522, 0xe8b51f282c351883ull},
        {"berti", "dram:hbm", 1579061, 0x99d76c84c98ba6a7ull},
    }};
    for (const Pin &pin : pins) {
        const Workload &w = findWorkload("mcf-like.472");
        auto gen = w.make();
        Machine m(configFor(pin.spec, 1, pin.backend), {gen.get()});
        std::string blob = m.saveCheckpointBlob();
        std::string what = std::string(pin.spec) + " on '" + pin.backend +
                           "': the checkpoint layout changed — bump "
                           "kCheckpointVersion and update this constant";
        EXPECT_EQ(blob.size(), pin.size) << what;
        EXPECT_EQ(harness::checkpointChecksum(blob), pin.hash) << what;
    }
}

TEST(Checkpoint, MismatchNamesTheDivergentStatePath)
{
    const Workload &w = findWorkload("mcf-like.472");
    auto gen_a = w.make();
    Machine shorter(configFor("berti"), {gen_a.get()});
    shorter.run(kWarmup);
    auto gen_b = w.make();
    Machine longer(configFor("berti"), {gen_b.get()});
    longer.run(kWarmup + kMeasure);
    const std::string want = longer.saveCheckpointBlob();

    // The first field the two runs disagree on is the cycle count.
    EXPECT_NONFATAL_FAILURE(
        test::expectSameCheckpoint(shorter, want, "short vs long run"),
        "bytes), in clock");
    EXPECT_EQ(shorter.checkpointPathAt(0), "header");
}

TEST(Checkpoint, PathProbeNamesSectionsAndElements)
{
    struct Slot
    {
        bool valid = false;
        std::uint8_t coverage = 0;
    };
    struct Entry
    {
        std::uint64_t tag = 0;
        std::array<Slot, 4> slots{};
    };
    std::vector<Entry> table(6);
    auto walk = [&table](sim::StateIO &io) {
        io.section("pf", [&] {
            io.fixed("table", table, [&io](Entry &e) {
                io.u64(e.tag);
                io.fixed("slots", e.slots, [&io](Slot &s) {
                    io.b(s.valid);
                    io.u8(s.coverage);
                });
            });
        });
    };

    // Layout: table count (4), then per entry tag (8) + slot count (4)
    // + 4 slots of 2 bytes; so entry 3 starts at 4 + 3 * 20 = 64 and
    // its slot 1 coverage byte sits at 64 + 12 + 2 + 1 = 79.
    auto path_at = [&walk](std::size_t offset) {
        sim::PathProbe probe(offset);
        sim::ByteWriter w;
        w.attach(&probe);
        sim::StateIO io(w);
        walk(io);
        return probe.path();
    };
    EXPECT_EQ(path_at(79), "pf.table[3].slots[1]");
    EXPECT_EQ(path_at(64), "pf.table[3]");
    EXPECT_EQ(path_at(0), "pf.table");

    // A load into a differently sized table fails typed with the one
    // shared size-mismatch message.
    sim::ByteWriter w;
    sim::StateIO save(w);
    walk(save);
    table.resize(7);
    sim::ByteReader r(w.data(), "test");
    sim::StateIO load(r);
    try {
        walk(load);
        FAIL() << "size mismatch accepted";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::Checkpoint);
        EXPECT_NE(e.reason().find("table size 6 does not match the live 7"),
                  std::string::npos)
            << e.reason();
    }
}

TEST(Checkpoint, WallClockBudgetThrowsTypedTimeout)
{
    // A 1 ms budget cannot cover a 50M-instruction run; the deadline
    // probe must convert that into a typed Timeout instead of a hang.
    MachineConfig cfg = configFor("none");
    cfg.wallClockBudgetMs = 1;
    const Workload &w = findWorkload("mcf-like.472");
    auto gen = w.make();
    Machine m(cfg, {gen.get()});
    try {
        m.run(50'000'000);
        FAIL() << "run past the wall-clock budget must throw";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::Timeout);
        EXPECT_FALSE(e.diagnostic().empty());
    }
}

} // namespace berti
