/**
 * @file
 * ChampSim decoder battery: proves the real-trace ingestion pipeline
 * correct at every layer. An independent hand-written byte encoder
 * (sharing no code with the decoder) generates the corpus; from it the
 * battery checks byte-level round-trips against the checked-in
 * reference trace, the field mapping onto TraceInstr, exhaustive
 * truncation and garbage fuzzing (every malformed input is a typed
 * SimError(TraceIo) with a byte offset — no crash, no silent short
 * stream), fault-injection hooks, allocation-free steady-state decode,
 * and differential bit-identical SimResults across the mmap / stream /
 * preload source layers and across worker counts.
 *
 * Regenerate the checked-in reference after a deliberate recipe change:
 *   BERTI_UPDATE_CHAMPSIM_REF=1 ./test_champsim \
 *       --gtest_filter='*CheckedInReference*'
 * then recreate the .xz sibling with `xz -9 -k tests/data/mini.champsim`.
 */

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/result_store.hh"
#include "obs/export.hh"
#include "sim/options.hh"
#include "sim/rng.hh"
#include "trace/champsim.hh"
#include "trace/registry.hh"
#include "verify/fault_injector.hh"
#include "verify/sim_error.hh"
#include "test_util.hh"

// ------------------------------------------------------- allocation probe
// Same global operator new/delete override as test_simspeed.cpp: the
// zero-allocation steady-state tests assert the counter stays flat
// across sustained decode; everything else ignores it.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
static std::atomic<std::uint64_t> g_heapAllocs{0};

void *
operator new(std::size_t n)
{
    ++g_heapAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    ++g_heapAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace berti
{

namespace
{

using test::ScopedEnv;

// ---------------------------------------------------- independent encoder
// Byte-level input_instr writer sharing no code with the production
// decoder: fields are shifted out by hand against the layout documented
// by ChampSim, so an encode/decode agreement really is two independent
// readings of the format.

void
putLe64(std::vector<unsigned char> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<unsigned char>((v >> (8 * i)) & 0xff));
}

void
encodeRecord(std::vector<unsigned char> &out, const ChampSimRecord &r)
{
    std::size_t start = out.size();
    putLe64(out, r.ip);
    out.push_back(r.isBranch);
    out.push_back(r.branchTaken);
    for (unsigned i = 0; i < kChampSimNumDestinations; ++i)
        out.push_back(r.destRegisters[i]);
    for (unsigned i = 0; i < kChampSimNumSources; ++i)
        out.push_back(r.srcRegisters[i]);
    for (unsigned i = 0; i < kChampSimNumDestinations; ++i)
        putLe64(out, r.destMemory[i]);
    for (unsigned i = 0; i < kChampSimNumSources; ++i)
        putLe64(out, r.srcMemory[i]);
    ASSERT_EQ(out.size() - start, kChampSimRecordBytes);
}

std::vector<unsigned char>
encodeAll(const std::vector<ChampSimRecord> &records)
{
    std::vector<unsigned char> out;
    out.reserve(records.size() * kChampSimRecordBytes);
    for (const auto &r : records)
        encodeRecord(out, r);
    return out;
}

// -------------------------------------------------------- mini-trace recipe
// The deterministic recipe behind tests/data/mini.champsim: 48 records
// exercising plain ALU ops, single- and multi-source loads, stores,
// both branch outcomes, register-carried load dependence (including
// dependence surviving an intervening non-load), operands in late
// slots, and near-top-of-address-space values.

std::vector<ChampSimRecord>
miniTraceRecipe()
{
    std::vector<ChampSimRecord> recs;

    auto alu = [&](std::uint64_t ip) {
        ChampSimRecord r;
        r.ip = ip;
        recs.push_back(r);
    };
    auto load = [&](std::uint64_t ip, std::uint64_t addr,
                    std::uint8_t dest, std::uint8_t src = 0) {
        ChampSimRecord r;
        r.ip = ip;
        r.srcMemory[0] = addr;
        r.destRegisters[0] = dest;
        r.srcRegisters[0] = src;
        recs.push_back(r);
    };
    auto store = [&](std::uint64_t ip, std::uint64_t addr) {
        ChampSimRecord r;
        r.ip = ip;
        r.destMemory[0] = addr;
        recs.push_back(r);
    };
    auto branch = [&](std::uint64_t ip, bool taken) {
        ChampSimRecord r;
        r.ip = ip;
        r.isBranch = 1;
        r.branchTaken = taken ? 1 : 0;
        recs.push_back(r);
    };

    // Prologue: one of everything, hand-placed.
    alu(0x400000);
    load(0x400004, 0x10000040, /*dest=*/3);
    load(0x400008, 0x20000000, /*dest=*/4, /*src=*/3);  // dependent
    store(0x40000c, 0x30000080);
    branch(0x400010, true);
    branch(0x400014, false);

    // Multi-source load: both operands populated.
    {
        ChampSimRecord r;
        r.ip = 0x400018;
        r.srcMemory[0] = 0x11000000;
        r.srcMemory[1] = 0x11000040;
        r.destRegisters[0] = 5;
        recs.push_back(r);
    }
    // Operands only in late slots (0 = no operand must be skipped).
    {
        ChampSimRecord r;
        r.ip = 0x40001c;
        r.srcMemory[2] = 0x12000000;
        r.srcMemory[3] = 0x12000040;
        r.destMemory[1] = 0x13000000;
        r.destRegisters[1] = 6;
        recs.push_back(r);
    }
    // Load+store in one instruction, near the top of the address space.
    {
        ChampSimRecord r;
        r.ip = 0x400020;
        r.srcMemory[0] = 0xfffffffffffff000ull;
        r.destMemory[0] = 0xfffffffffffff040ull;
        r.srcRegisters[0] = 6;  // depends on the slot-1 dest above
        r.destRegisters[0] = 7;
        recs.push_back(r);
    }

    // Body: a deterministic pointer-chase-flavoured loop mixing all
    // kinds, driven by a fixed linear-congruential sequence.
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; recs.size() < 48; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        std::uint64_t ip = 0x401000 + 4 * static_cast<std::uint64_t>(i);
        switch (x % 5) {
          case 0:
            alu(ip);
            break;
          case 1:
            load(ip, 0x40000000 + (x % 4096) * 64,
                 static_cast<std::uint8_t>(1 + (x >> 8) % 31));
            break;
          case 2:
            load(ip, 0x50000000 + (x % 4096) * 64,
                 static_cast<std::uint8_t>(1 + (x >> 8) % 31),
                 static_cast<std::uint8_t>(1 + (x >> 16) % 31));
            break;
          case 3:
            store(ip, 0x60000000 + (x % 4096) * 64);
            break;
          default:
            branch(ip, (x >> 32) & 1);
            break;
        }
    }
    return recs;
}

std::string
dataPath(const char *name)
{
    return std::string(BERTI_CHAMPSIM_DATA) + "/" + name;
}

std::string
tempPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "/berti_" + tag +
           ".champsim";
}

void
writeBytes(const std::string &path, const std::vector<unsigned char> &b)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    if (!b.empty())
        ASSERT_EQ(std::fwrite(b.data(), 1, b.size(), f), b.size());
    ASSERT_EQ(std::fclose(f), 0);
}

std::vector<unsigned char>
readBytes(const std::string &path)
{
    std::vector<unsigned char> out;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return out;
    unsigned char chunk[4096];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0)
        out.insert(out.end(), chunk, chunk + n);
    std::fclose(f);
    return out;
}

/** Decode every instruction a source yields. */
std::vector<TraceInstr>
decodeAll(TraceSource &src, verify::FaultInjector *faults = nullptr)
{
    ChampSimDecoder dec(src, faults);
    std::vector<TraceInstr> out;
    TraceInstr instr;
    while (dec.next(instr))
        out.push_back(instr);
    return out;
}

bool
sameInstr(const TraceInstr &a, const TraceInstr &b)
{
    return a.ip == b.ip && a.load0 == b.load0 && a.load1 == b.load1 &&
           a.store == b.store && a.isBranch == b.isBranch &&
           a.taken == b.taken &&
           a.dependsOnPrevLoad == b.dependsOnPrevLoad;
}

} // namespace

// ========================================================== reference trace

TEST(ChampSimReference, CheckedInReferenceMatchesRecipe)
{
    std::vector<unsigned char> expect = encodeAll(miniTraceRecipe());
    std::string path = dataPath("mini.champsim");
    if (const char *u = std::getenv("BERTI_UPDATE_CHAMPSIM_REF");
        u && u[0] == '1') {
        writeBytes(path, expect);
        GTEST_SKIP() << "rewrote " << path << " ("
                     << expect.size() << " bytes); recreate the .xz "
                     << "sibling with: xz -9 -k -f " << path;
    }
    std::vector<unsigned char> actual = readBytes(path);
    ASSERT_FALSE(actual.empty())
        << path << " missing — regenerate with BERTI_UPDATE_CHAMPSIM_REF=1";
    EXPECT_EQ(actual, expect)
        << "checked-in reference drifted from the recipe";
}

TEST(ChampSimReference, XzSiblingDecodesToTheSameStream)
{
    std::string raw = dataPath("mini.champsim");
    std::string xz = dataPath("mini.champsim.xz");
    MmapTraceSource rawSrc(raw);
    std::vector<TraceInstr> expect = decodeAll(rawSrc);
    ASSERT_EQ(expect.size(), 48u);

    std::unique_ptr<StreamTraceSource> xzSrc;
    try {
        xzSrc = std::make_unique<StreamTraceSource>(xz);
    } catch (const verify::SimError &e) {
        // Hosts without an xz tool get the typed fallback; the raw-file
        // battery still covers the decoder.
        if (std::string(e.reason()).find("unavailable") !=
            std::string::npos)
            GTEST_SKIP() << e.what();
        throw;
    }
    std::vector<TraceInstr> got = decodeAll(*xzSrc);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(sameInstr(got[i], expect[i])) << "record " << i;
}

// ============================================================== round trip

TEST(ChampSimDecode, RoundTripIsBitIdentical)
{
    // decode(encode(recipe)) re-encoded by the independent encoder must
    // reproduce the input bytes exactly — every field survives.
    std::vector<ChampSimRecord> recipe = miniTraceRecipe();
    std::vector<unsigned char> bytes = encodeAll(recipe);
    PreloadedTraceSource src(bytes, "recipe");
    ChampSimDecoder dec(src);
    std::vector<ChampSimRecord> decoded;
    ChampSimRecord r;
    while (dec.nextRecord(r))
        decoded.push_back(r);
    ASSERT_EQ(decoded.size(), recipe.size());
    EXPECT_EQ(dec.recordsDecoded(), recipe.size());
    std::vector<unsigned char> reencoded = encodeAll(decoded);
    EXPECT_EQ(reencoded, bytes);
}

TEST(ChampSimDecode, FieldMappingOntoTraceInstr)
{
    std::vector<ChampSimRecord> recs = miniTraceRecipe();
    std::vector<unsigned char> bytes = encodeAll(recs);
    PreloadedTraceSource src(bytes, "recipe");
    std::vector<TraceInstr> got = decodeAll(src);
    ASSERT_EQ(got.size(), 48u);

    // Record 0: pure ALU — no operands at all.
    EXPECT_EQ(got[0].ip, 0x400000u);
    EXPECT_FALSE(got[0].isMem());
    EXPECT_FALSE(got[0].isBranch);

    // Record 1: simple load.
    EXPECT_EQ(got[1].load0, 0x10000040u);
    EXPECT_EQ(got[1].load1, kNoAddr);
    EXPECT_EQ(got[1].store, kNoAddr);
    EXPECT_FALSE(got[1].dependsOnPrevLoad);

    // Record 2 reads register 3, which record 1 wrote: pointer chase.
    EXPECT_TRUE(got[2].dependsOnPrevLoad);

    // Record 3: store only.
    EXPECT_FALSE(got[3].isLoad());
    EXPECT_EQ(got[3].store, 0x30000080u);

    // Records 4/5: branch outcomes.
    EXPECT_TRUE(got[4].isBranch);
    EXPECT_TRUE(got[4].taken);
    EXPECT_TRUE(got[5].isBranch);
    EXPECT_FALSE(got[5].taken);

    // Record 6: two source-memory slots -> load0/load1 in order.
    EXPECT_EQ(got[6].load0, 0x11000000u);
    EXPECT_EQ(got[6].load1, 0x11000040u);

    // Record 7: operands only in late slots; zeros are skipped.
    EXPECT_EQ(got[7].load0, 0x12000000u);
    EXPECT_EQ(got[7].load1, 0x12000040u);
    EXPECT_EQ(got[7].store, 0x13000000u);

    // Record 8: load+store; its source register 6 was written by the
    // most recent earlier *load* (record 7) — dependence holds.
    EXPECT_EQ(got[8].load0, 0xfffffffffffff000ull);
    EXPECT_EQ(got[8].store, 0xfffffffffffff040ull);
    EXPECT_TRUE(got[8].dependsOnPrevLoad);
}

TEST(ChampSimDecode, DependenceSurvivesInterveningNonLoads)
{
    // load r9 ... store ... branch ... load r9-sourced: ChampSim's
    // register encoding carries the dependence across non-loads, which
    // never overwrite the last-load destination set.
    std::vector<ChampSimRecord> recs(4);
    recs[0].ip = 0x1000;
    recs[0].srcMemory[0] = 0xA000;
    recs[0].destRegisters[0] = 9;
    recs[1].ip = 0x1004;
    recs[1].destMemory[0] = 0xB000;
    recs[1].srcRegisters[0] = 9;  // store reading r9: not a load
    recs[2].ip = 0x1008;
    recs[2].isBranch = 1;
    recs[3].ip = 0x100c;
    recs[3].srcMemory[0] = 0xC000;
    recs[3].srcRegisters[1] = 9;  // late source slot
    std::vector<unsigned char> bytes = encodeAll(recs);
    PreloadedTraceSource src(bytes, "chase");
    std::vector<TraceInstr> got = decodeAll(src);
    ASSERT_EQ(got.size(), 4u);
    EXPECT_FALSE(got[1].dependsOnPrevLoad);  // stores never flag it
    EXPECT_TRUE(got[3].dependsOnPrevLoad);
}

// ============================================================ fuzz battery

TEST(ChampSimFuzz, EveryTruncationPointReportsARecordStartOffset)
{
    // Cut the 8-record corpus at *every* byte 1..size-1. Cuts on a
    // record boundary are a clean (shorter) trace; every other cut is a
    // typed SimError whose offset is the start of the incomplete
    // record. Nothing crashes, nothing silently truncates.
    std::vector<ChampSimRecord> recipe = miniTraceRecipe();
    recipe.resize(8);
    std::vector<unsigned char> bytes = encodeAll(recipe);
    for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
        std::vector<unsigned char> chopped(bytes.begin(),
                                           bytes.begin() + cut);
        PreloadedTraceSource src(std::move(chopped), "chopped");
        ChampSimDecoder dec(src);
        TraceInstr instr;
        if (cut % kChampSimRecordBytes == 0) {
            std::size_t n = 0;
            while (dec.next(instr))
                ++n;
            EXPECT_EQ(n, cut / kChampSimRecordBytes) << "cut=" << cut;
        } else {
            try {
                while (dec.next(instr)) {
                }
                FAIL() << "cut=" << cut << " decoded cleanly";
            } catch (const verify::SimError &e) {
                EXPECT_EQ(e.kind(), verify::ErrorKind::TraceIo);
                EXPECT_EQ(e.offset(), (cut / kChampSimRecordBytes) *
                                          kChampSimRecordBytes)
                    << "cut=" << cut;
                EXPECT_NE(std::string(e.reason()).find("truncated"),
                          std::string::npos);
            }
        }
    }
}

TEST(ChampSimFuzz, ArbitraryBytesNeverCrashTheDecoder)
{
    // The format has no header, so *any* whole number of 64-byte
    // records must parse; any remainder must be a typed error. Sizes
    // and payloads are drawn from the deterministic test Rng — on
    // failure the iteration index pins down the reproducer.
    Rng rng(0xcafef00du);
    for (int iter = 0; iter < 200; ++iter) {
        std::size_t size = static_cast<std::size_t>(rng.nextBounded(
            8 * kChampSimRecordBytes + kChampSimRecordBytes - 1));
        std::vector<unsigned char> bytes(size);
        for (auto &b : bytes)
            b = static_cast<unsigned char>(rng.nextBounded(256));
        PreloadedTraceSource src(std::move(bytes), "garbage");
        ChampSimDecoder dec(src);
        TraceInstr instr;
        if (size % kChampSimRecordBytes == 0) {
            std::size_t n = 0;
            while (dec.next(instr))
                ++n;
            EXPECT_EQ(n, size / kChampSimRecordBytes)
                << "iter=" << iter << " size=" << size;
        } else {
            EXPECT_THROW(
                {
                    while (dec.next(instr)) {
                    }
                },
                verify::SimError)
                << "iter=" << iter << " size=" << size;
        }
    }
}

TEST(ChampSimFuzz, InjectedTruncationIsTheSameTypedError)
{
    std::vector<unsigned char> bytes = encodeAll(miniTraceRecipe());
    verify::FaultConfig cfg;
    cfg.traceTruncateRate = 1.0;
    verify::FaultInjector faults(cfg);
    PreloadedTraceSource src(bytes, "inject");
    ChampSimDecoder dec(src, &faults);
    TraceInstr instr;
    try {
        dec.next(instr);
        FAIL() << "expected injected truncation";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::TraceIo);
        EXPECT_NE(std::string(e.reason()).find("injected truncation"),
                  std::string::npos);
    }
    EXPECT_EQ(faults.stats().traceTruncations, 1u);
}

TEST(ChampSimFuzz, GarbageInjectionRewritesRecordsButAlwaysParses)
{
    std::vector<unsigned char> bytes = encodeAll(miniTraceRecipe());
    verify::FaultConfig cfg;
    cfg.traceGarbageRate = 1.0;
    verify::FaultInjector faults(cfg);
    PreloadedTraceSource src(bytes, "garbage-inject");
    std::vector<TraceInstr> got = decodeAll(src, &faults);
    EXPECT_EQ(got.size(), 48u);  // garbage records still parse
    EXPECT_EQ(faults.stats().traceGarbageRecords, 48u);

    // The injector mutates a scratch copy: the underlying bytes (and a
    // clean re-decode) are untouched.
    PreloadedTraceSource clean(bytes, "clean");
    std::vector<TraceInstr> fresh = decodeAll(clean);
    ASSERT_EQ(fresh.size(), 48u);
    EXPECT_EQ(fresh[1].load0, 0x10000040u);
}

// ===================================================== source-layer parity

TEST(ChampSimSources, AllThreeLayersYieldTheSameStream)
{
    std::vector<unsigned char> bytes = encodeAll(miniTraceRecipe());
    std::string path = tempPath("parity");
    writeBytes(path, bytes);

    MmapTraceSource mmapSrc(path);
    StreamTraceSource streamSrc(path);
    PreloadedTraceSource preSrc(path);
    std::vector<TraceInstr> a = decodeAll(mmapSrc);
    std::vector<TraceInstr> b = decodeAll(streamSrc);
    std::vector<TraceInstr> c = decodeAll(preSrc);
    ASSERT_EQ(a.size(), 48u);
    ASSERT_EQ(b.size(), a.size());
    ASSERT_EQ(c.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(sameInstr(a[i], b[i])) << i;
        EXPECT_TRUE(sameInstr(a[i], c[i])) << i;
    }

    // Rewind restarts every layer identically, including the
    // register-dependence tracking — the stream source above is at EOF
    // and must reopen from byte 0.
    ChampSimDecoder dec(streamSrc);
    dec.rewind();
    TraceInstr first;
    ASSERT_TRUE(dec.next(first));
    dec.rewind();
    TraceInstr again;
    ASSERT_TRUE(dec.next(again));
    EXPECT_TRUE(sameInstr(first, again));
    std::remove(path.c_str());
}

TEST(ChampSimSources, StreamRefillCrossesBufferBoundaries)
{
    // A buffer far smaller than the stream, and not a multiple of the
    // record size, forces mid-record refills + memmove compaction.
    std::vector<ChampSimRecord> recs(257);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        recs[i].ip = 0x1000 + 4 * i;
        recs[i].srcMemory[0] = 0x4000 + 64 * i;
    }
    std::vector<unsigned char> bytes = encodeAll(recs);
    std::string path = tempPath("refill");
    writeBytes(path, bytes);
    StreamTraceSource src(path, TraceCompression::None,
                          /*bufferBytes=*/200);
    std::vector<TraceInstr> got = decodeAll(src);
    ASSERT_EQ(got.size(), recs.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i].load0, 0x4000 + 64 * i) << i;
    std::remove(path.c_str());
}

TEST(ChampSimSources, MissingFileAndEmptyFileAreTypedErrors)
{
    EXPECT_THROW(MmapTraceSource("/nonexistent/x.champsim"),
                 verify::SimError);
    EXPECT_THROW(StreamTraceSource("/nonexistent/x.champsim"),
                 verify::SimError);
    EXPECT_THROW(PreloadedTraceSource("/nonexistent/x.champsim"),
                 verify::SimError);

    std::string path = tempPath("emptyfile");
    writeBytes(path, {});
    try {
        ChampSimReplayGen gen(path);
        FAIL() << "empty trace must not replay";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::TraceIo);
        EXPECT_NE(std::string(e.reason()).find("no instructions"),
                  std::string::npos);
    }

    // A sub-record file fails construction with the truncation error.
    std::vector<unsigned char> stub(30, 0xab);
    writeBytes(path, stub);
    try {
        ChampSimReplayGen gen(path);
        FAIL() << "sub-record trace must not replay";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::TraceIo);
        EXPECT_NE(std::string(e.reason()).find("truncated"),
                  std::string::npos);
    }
    std::remove(path.c_str());
}

TEST(ChampSimSources, PathClassification)
{
    EXPECT_TRUE(isChampSimTracePath("/t/a.champsim"));
    EXPECT_TRUE(isChampSimTracePath("/t/a.champsim.xz"));
    EXPECT_TRUE(isChampSimTracePath("/t/a.champsim.gz"));
    EXPECT_FALSE(isChampSimTracePath("/t/a.trace"));
    EXPECT_FALSE(isChampSimTracePath("/t/a.xz"));
    EXPECT_EQ(compressionForPath("a.champsim"), TraceCompression::None);
    EXPECT_EQ(compressionForPath("a.champsim.xz"), TraceCompression::Xz);
    EXPECT_EQ(compressionForPath("a.champsim.gz"),
              TraceCompression::Gzip);
}

// ================================================== zero-allocation decode

TEST(ChampSimAlloc, SteadyStateDecodeIsAllocationFree)
{
    // Large enough that the stream source must refill several times
    // (buffer is 256 KiB): 16384 records = 1 MiB.
    std::vector<ChampSimRecord> recs(16384);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        recs[i].ip = 0x1000 + 4 * (i % 512);
        recs[i].srcMemory[0] = 0x4000 + 64 * (i % 1024);
    }
    std::vector<unsigned char> bytes = encodeAll(recs);
    std::string path = tempPath("alloc");
    writeBytes(path, bytes);

    for (auto kind : {ChampSimReplayGen::SourceKind::Mmap,
                      ChampSimReplayGen::SourceKind::Stream,
                      ChampSimReplayGen::SourceKind::Preload}) {
        std::unique_ptr<TraceSource> src;
        switch (kind) {
          case ChampSimReplayGen::SourceKind::Mmap:
            src = std::make_unique<MmapTraceSource>(path);
            break;
          case ChampSimReplayGen::SourceKind::Stream:
            src = std::make_unique<StreamTraceSource>(path);
            break;
          default:
            src = std::make_unique<PreloadedTraceSource>(path);
            break;
        }
        ChampSimDecoder dec(*src);
        TraceInstr instr;
        // Warm: first record may fault pages / prime the buffer.
        ASSERT_TRUE(dec.next(instr));
        std::uint64_t before = g_heapAllocs.load();
        while (dec.next(instr)) {
        }
        std::uint64_t after = g_heapAllocs.load();
        EXPECT_EQ(after, before)
            << "source kind " << static_cast<int>(kind)
            << " allocated during steady-state decode";
        EXPECT_EQ(dec.recordsDecoded(), recs.size());
    }

    // Cyclic replay through the mmap layer stays allocation-free even
    // across the wrap (rewind is a cursor reset, not a reopen).
    ChampSimReplayGen gen(path, ChampSimReplayGen::SourceKind::Mmap);
    for (int i = 0; i < 100; ++i)
        (void)gen.next();
    std::uint64_t before = g_heapAllocs.load();
    for (std::size_t i = 0; i < 2 * recs.size(); ++i)
        (void)gen.next();
    EXPECT_EQ(g_heapAllocs.load(), before);
    EXPECT_EQ(gen.traceLength(), recs.size());
    std::remove(path.c_str());
}

// ===================================================== registry + store key

TEST(ChampSimRegistry, FileUriResolvesAnywhereAWorkloadNameDoes)
{
    std::vector<unsigned char> bytes = encodeAll(miniTraceRecipe());
    std::string path = tempPath("registry");
    writeBytes(path, bytes);
    Workload w = resolveWorkload("file:" + path);
    EXPECT_EQ(w.suite, "file");
    EXPECT_EQ(w.name, "file:" + path);
    EXPECT_NE(w.contentHash, 0u);
    auto gen = w.make();
    TraceInstr first = gen->next();
    EXPECT_EQ(first.ip, 0x400000u);

    // Registry names still resolve through the same entry point, with
    // no content hash.
    Workload synth = resolveWorkload("mcf-like.1554");
    EXPECT_EQ(synth.suite, "spec");
    EXPECT_EQ(synth.contentHash, 0u);
    std::remove(path.c_str());
}

TEST(ChampSimRegistry, MalformedUrisAreTypedConfigErrors)
{
    auto expectConfig = [](const std::string &uri,
                           const std::string &needle) {
        try {
            resolveWorkload(uri);
            FAIL() << uri << " resolved";
        } catch (const verify::SimError &e) {
            EXPECT_EQ(e.kind(), verify::ErrorKind::Config) << uri;
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << uri << " -> " << e.what();
        }
    };
    // The offending string is named in the error.
    expectConfig("file:", "file:");
    expectConfig("file:/t/a.bin", "file:/t/a.bin");
    expectConfig("no-such-workload", "no-such-workload");

    // A well-formed URI to an unreadable file is an I/O error, not a
    // config error.
    try {
        resolveWorkload("file:/nonexistent/x.champsim");
        FAIL() << "resolved a nonexistent trace";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::TraceIo);
        EXPECT_EQ(e.path(), "/nonexistent/x.champsim");
    }
}

TEST(ChampSimRegistry, StoreKeyFoldsTraceContentHash)
{
    std::vector<unsigned char> bytes = encodeAll(miniTraceRecipe());
    std::string path = tempPath("storekey");
    writeBytes(path, bytes);
    SimParams params;
    Workload w1 = resolveWorkload("file:" + path);
    harness::StoreKey k1 = harness::makeStoreKey(w1, "berti", params);
    EXPECT_EQ(k1.contentHash, w1.contentHash);
    EXPECT_NE(k1.describe().find("content="), std::string::npos);

    // Same path, different bytes: the key must change even though
    // every string coordinate is identical.
    bytes[100] ^= 0xff;
    writeBytes(path, bytes);
    Workload w2 = resolveWorkload("file:" + path);
    harness::StoreKey k2 = harness::makeStoreKey(w2, "berti", params);
    EXPECT_NE(w1.contentHash, w2.contentHash);
    EXPECT_NE(k1.hash(), k2.hash());

    // Synthetic workloads keep their historical keys: the Workload
    // overload and the legacy string overload agree bit for bit.
    Workload synth = resolveWorkload("mcf-like.1554");
    harness::StoreKey ks =
        harness::makeStoreKey(synth, "berti", params);
    harness::StoreKey legacy =
        harness::makeStoreKey("mcf-like.1554", "berti", params);
    EXPECT_EQ(ks.hash(), legacy.hash());
    EXPECT_EQ(ks.describe().find("content="), std::string::npos);
    std::remove(path.c_str());
}

TEST(ChampSimRegistry, FileContentHashIsStableAndTyped)
{
    std::string path = tempPath("hash");
    writeBytes(path, {1, 2, 3, 4});
    auto h1 = fileContentHash(path);
    ASSERT_TRUE(h1.ok());
    auto h2 = fileContentHash(path);
    ASSERT_TRUE(h2.ok());
    EXPECT_EQ(h1.value(), h2.value());
    writeBytes(path, {1, 2, 3, 5});
    auto h3 = fileContentHash(path);
    ASSERT_TRUE(h3.ok());
    EXPECT_NE(h1.value(), h3.value());
    auto missing = fileContentHash("/nonexistent/x");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().kind(), verify::ErrorKind::TraceIo);
    std::remove(path.c_str());
}

// ====================================================== differential matrix

TEST(ChampSimDifferential, SimResultsBitIdenticalAcrossSourceLayers)
{
    // The same trace simulated through mmap, stream and preload sources
    // must produce byte-identical exported snapshots — the source layer
    // is invisible to the machine.
    std::string path = dataPath("mini.champsim");
    SimParams params;
    params.warmupInstructions = 2000;
    params.measureInstructions = 10000;
    PrefetcherSpec spec = makeSpec("berti");

    std::vector<std::string> docs;
    for (auto kind : {ChampSimReplayGen::SourceKind::Mmap,
                      ChampSimReplayGen::SourceKind::Stream,
                      ChampSimReplayGen::SourceKind::Preload}) {
        Workload w;
        w.name = "file:" + path;
        w.suite = "file";
        w.make = [path, kind]() -> std::unique_ptr<TraceGenerator> {
            return std::make_unique<ChampSimReplayGen>(path, kind);
        };
        SimResult r = simulate(w, spec, params);
        EXPECT_GT(r.ipc, 0.0);
        docs.push_back(obs::toJson(resultSnapshot(r)));
    }
    EXPECT_EQ(docs[0], docs[1]) << "mmap vs stream diverged";
    EXPECT_EQ(docs[0], docs[2]) << "mmap vs preload diverged";
}

TEST(ChampSimDifferential, WorkerCountDoesNotPerturbFileWorkloads)
{
    std::string path = dataPath("mini.champsim");
    Workload w = resolveWorkload("file:" + path);
    Workload synth = findWorkload("mcf-like.1554");
    SimParams params;
    params.warmupInstructions = 2000;
    params.measureInstructions = 8000;
    std::vector<Workload> workloads = {w, synth};
    std::vector<PrefetcherSpec> specs = {makeSpec("none"),
                                         makeSpec("berti")};
    test::expectJobCountInvariant(workloads, specs, params, 2);
}

TEST(ChampSimDifferential, BenchTraceWorkloadListRidesAlong)
{
    // The BERTI_TRACE_WORKLOADS hook the benches use: bare paths are
    // promoted to file: URIs and resolve to replayable workloads.
    std::string path = dataPath("mini.champsim");
    ScopedEnv env("BERTI_TRACE_WORKLOADS", path.c_str());
    sim::SimOptions opt = sim::SimOptions::fromEnv();
    EXPECT_EQ(opt.traceWorkloads, path);
    Workload w = resolveWorkload("file:" + opt.traceWorkloads);
    EXPECT_EQ(w.suite, "file");
    auto gen = w.make();
    EXPECT_EQ(gen->next().ip, 0x400000u);
}

} // namespace berti
