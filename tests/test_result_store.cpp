/**
 * @file
 * Result-store unit tests: key discrimination, lossless round-trips,
 * corruption self-healing (corrupt entry = miss + unlink, never
 * propagated data), stale staging cleanup and the quarantine marker
 * lifecycle.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "harness/experiment.hh"
#include "harness/result_store.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "trace/registry.hh"

namespace berti::harness
{

namespace
{

std::string
freshDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + "/" + name + "." +
                      std::to_string(::getpid());
    return dir;
}

obs::MetricsSnapshot
sampleSnapshot()
{
    obs::MetricsSnapshot snap;
    snap.setCounter("core.instructions", 250000);
    snap.setCounter("l1d.demandMisses", 1234);
    snap.setGauge("ipc", 1.875);
    return snap;
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
}

} // namespace

TEST(StoreKey, HashDiscriminatesEveryCoordinate)
{
    SimParams params;
    StoreKey base = makeStoreKey("mcf-like.472", "berti", params, "aaa");

    StoreKey other_workload =
        makeStoreKey("bwaves-like.2609", "berti", params, "aaa");
    StoreKey other_spec =
        makeStoreKey("mcf-like.472", "none", params, "aaa");
    SimParams longer = params;
    longer.measureInstructions += 1;
    StoreKey other_params =
        makeStoreKey("mcf-like.472", "berti", longer, "aaa");
    StoreKey other_code =
        makeStoreKey("mcf-like.472", "berti", params, "bbb");

    EXPECT_NE(base.hash(), other_workload.hash());
    EXPECT_NE(base.hash(), other_spec.hash());
    EXPECT_NE(base.hash(), other_params.hash());
    EXPECT_NE(base.hash(), other_code.hash());

    StoreKey same = makeStoreKey("mcf-like.472", "berti", params, "aaa");
    EXPECT_EQ(base.hash(), same.hash());
    EXPECT_EQ(base.stem(), same.stem());
}

TEST(StoreKey, ParamsFingerprintCoversResultAffectingFields)
{
    SimParams base;
    std::uint64_t h = paramsFingerprint(base);

    SimParams warmup = base;
    warmup.warmupInstructions += 1;
    EXPECT_NE(paramsFingerprint(warmup), h);

    SimParams measure = base;
    measure.measureInstructions += 1;
    EXPECT_NE(paramsFingerprint(measure), h);

    SimParams dram = base;
    dram.memBackend = "dram:ddr4;mtps=1600";
    EXPECT_NE(paramsFingerprint(dram), h);
}

TEST(StoreKey, StemIsFilesystemSafe)
{
    StoreKey key = makeStoreKey("a/b c", "x:y", SimParams{}, "dev");
    std::string stem = key.stem();
    for (char c : stem) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                  c == '-';
        EXPECT_TRUE(ok) << "character '" << c << "' in stem " << stem;
    }
}

TEST(ResultStore, RoundTripIsBitIdentical)
{
    ResultStore store(freshDir("berti_store_rt"));
    StoreKey key = makeStoreKey("mcf-like.472", "berti", SimParams{});

    EXPECT_FALSE(store.contains(key));
    EXPECT_FALSE(store.load(key).has_value());

    obs::MetricsSnapshot snap = sampleSnapshot();
    store.store(key, snap);
    EXPECT_TRUE(store.contains(key));

    auto loaded = store.load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(obs::toJson(*loaded), obs::toJson(snap));

    store.remove(key);
    EXPECT_FALSE(store.contains(key));
}

TEST(ResultStore, CorruptEntriesAreMissesAndUnlinked)
{
    ResultStore store(freshDir("berti_store_corrupt"));
    StoreKey key = makeStoreKey("mcf-like.472", "berti", SimParams{});
    obs::MetricsSnapshot snap = sampleSnapshot();

    auto corrupt = [&](auto mutate, const std::string &what) {
        store.store(key, snap);
        std::string content = readAll(store.entryPath(key));
        ASSERT_FALSE(content.empty()) << what;
        mutate(content);
        writeAll(store.entryPath(key), content);

        EXPECT_FALSE(store.load(key).has_value()) << what;
        // The damaged entry was unlinked so the slot self-heals.
        EXPECT_FALSE(store.contains(key)) << what;
    };

    corrupt([](std::string &c) { c = c.substr(0, c.size() / 2); },
            "truncated entry");
    corrupt([](std::string &c) { c[c.size() - 2] ^= 0x01; },
            "payload bit flip");
    corrupt([](std::string &c) { c[0] = 'X'; }, "mangled header");
    corrupt([](std::string &c) { c = "not a result file"; },
            "unrelated content");

    // A key-echo mismatch (entry renamed onto another key's path) is
    // also treated as corruption even when the checksum holds.
    StoreKey other = makeStoreKey("bwaves-like.2609", "none", SimParams{});
    store.store(key, snap);
    writeAll(store.entryPath(other), readAll(store.entryPath(key)));
    EXPECT_FALSE(store.load(other).has_value());
    EXPECT_FALSE(store.contains(other));
    EXPECT_TRUE(store.load(key).has_value());
}

TEST(ResultStore, StaleTempFilesSweptAtConstruction)
{
    std::string dir = freshDir("berti_store_tmp");
    {
        ResultStore first(dir);
        EXPECT_EQ(first.staleTempFilesRemoved(), 0u);
    }
    writeAll(dir + "/half-written.result.tmp", "torn write");
    writeAll(dir + "/other.tmp", "torn write");

    ResultStore store(dir);
    EXPECT_EQ(store.staleTempFilesRemoved(), 2u);
    EXPECT_TRUE(readAll(dir + "/half-written.result.tmp").empty());
}

TEST(ResultStore, QuarantineLifecycle)
{
    ResultStore store(freshDir("berti_store_quar"));
    StoreKey key = makeStoreKey("mcf-like.472", "berti", SimParams{});

    EXPECT_FALSE(store.loadQuarantine(key).has_value());
    store.markQuarantined(key, "fault after 3 attempts: injected");
    auto reason = store.loadQuarantine(key);
    ASSERT_TRUE(reason.has_value());
    EXPECT_NE(reason->find("3 attempts"), std::string::npos);

    store.clearQuarantine(key);
    EXPECT_FALSE(store.loadQuarantine(key).has_value());
}

TEST(ResultStore, ResultSnapshotRoundTripsThroughTheStore)
{
    // The full provenance chain for one real cell: simulate ->
    // resultSnapshot -> store -> load -> resultFromSnapshot must hand
    // back a result whose re-export is bit-identical — the property
    // that makes a store hit indistinguishable from recomputation.
    SimParams params;
    params.warmupInstructions = 2000;
    params.measureInstructions = 10000;
    SimResult computed =
        simulate(findWorkload("mcf-like.472"), makeSpec("berti"), params);
    obs::MetricsSnapshot snap = resultSnapshot(computed);

    ResultStore store(freshDir("berti_store_sim"));
    StoreKey key = makeStoreKey("mcf-like.472", "berti", params);
    store.store(key, snap);
    auto loaded = store.load(key);
    ASSERT_TRUE(loaded.has_value());

    SimResult restored = resultFromSnapshot(*loaded);
    EXPECT_EQ(obs::toJson(resultSnapshot(restored)), obs::toJson(snap));
    EXPECT_EQ(restored.ipc, computed.ipc);
}

} // namespace berti::harness
