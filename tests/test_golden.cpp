/**
 * @file
 * Golden-stats regression harness: replays a small fixed workload x
 * spec matrix, exports each cell through the stable JSON schema and
 * byte-compares against the checked-in goldens under tests/goldens/.
 * Any counter drift — an off-by-one in a prefetcher, a reordered stat,
 * an accidental double count — fails with a readable field-level diff.
 *
 * Regenerate the goldens after an *intentional* behaviour change with
 *     tools/update_goldens.sh
 * (or BERTI_UPDATE_GOLDENS=1 ctest -R test_golden) and commit the
 * resulting JSON files together with the change that justified them.
 */

#include <cstdio>
#include <cstdlib>
#include <gtest/gtest.h>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "obs/export.hh"
#include "sim/options.hh"
#include "sim/serialize.hh"
#include "trace/graph.hh"
#include "trace/registry.hh"
#include "verify/sim_error.hh"

#ifndef BERTI_GOLDEN_DIR
#error "BERTI_GOLDEN_DIR must point at the checked-in goldens"
#endif

namespace berti
{
namespace
{

/** The pinned matrix. Small enough to run in seconds, wide enough to
 *  cover the no-prefetch baseline and the paper's prefetcher across
 *  regular streams, interleaved strides (the per-IP-table-thrashing
 *  CactuBSSN regime) and a serial pointer chase (nothing timely). */
const std::vector<std::string> kWorkloads = {
    "mcf-like.472", "bwaves-like.2609", "cactu-like.709",
    "mcf-like.1536"};
const std::vector<std::string> kSpecs = {"none", "berti"};

/** Two hybrid composition cells ride along without quadrupling the
 *  matrix: the arbitration/selector path is pinned by goldens too. */
const std::vector<std::tuple<std::string, std::string>> kExtraCells = {
    {"mcf-like.472", "hybrid(berti,cmc)"},
    {"bwaves-like.2609", "hybrid(berti,markov;select=duel)"},
};

/** Pinned ROI; never derived from env so goldens cannot drift with
 *  BERTI_BENCH_QUICK or similar knobs. */
SimParams
goldenParams()
{
    SimParams p;
    p.warmupInstructions = 5000;
    p.measureInstructions = 20000;
    return p;
}

std::string
goldenPath(const std::string &workload, const std::string &spec)
{
    // Hybrid specs contain (),;= — flatten to filesystem-safe stems the
    // same way the result store does.
    std::string s = spec;
    for (char &c : s) {
        if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
              c == '.' || c == '-'))
            c = '-';
    }
    return std::string(BERTI_GOLDEN_DIR) + "/" + workload + "__" + s +
           ".json";
}

bool
updateMode()
{
    return berti::sim::SimOptions::fromEnv().updateGoldens;
}

/**
 * Load and parse one golden, folding every failure mode — directory or
 * file missing, unreadable, truncated or otherwise corrupt JSON — into
 * one readable diagnostic naming the regeneration command, instead of
 * an unhandled SimError unwinding through gtest. Returns nullopt and
 * fills `error` on failure.
 */
std::optional<obs::MetricsSnapshot>
loadGolden(const std::string &path, std::string *error)
{
    std::string text;
    try {
        text = obs::readFile(path);
    } catch (const verify::SimError &e) {
        *error = std::string("missing or unreadable golden ") + path +
                 " [" + verify::errorKindName(e.kind()) + "] " +
                 e.reason() +
                 " — run tools/update_goldens.sh and commit the result";
        return std::nullopt;
    }
    try {
        obs::MetricsSnapshot snap = obs::snapshotFromJson(text, path);
        return snap;
    } catch (const verify::SimError &e) {
        *error = std::string("corrupt or truncated golden ") + path +
                 " [" + verify::errorKindName(e.kind()) + "] " +
                 e.reason() +
                 " — if the file was damaged (e.g. a truncated "
                 "checkout), restore it from git; after an intentional "
                 "schema change run tools/update_goldens.sh";
        return std::nullopt;
    }
}

class GoldenTest : public ::testing::TestWithParam<
                       std::tuple<std::string, std::string>>
{};

TEST_P(GoldenTest, MatchesCheckedInStats)
{
    const auto &[workload, spec] = GetParam();
    SimResult r =
        simulate(findWorkload(workload), makeSpec(spec), goldenParams());
    std::string actual_json = obs::toJson(resultSnapshot(r));
    std::string path = goldenPath(workload, spec);

    if (updateMode()) {
        obs::writeFile(path, actual_json);
        GTEST_SKIP() << "updated golden " << path;
    }

    std::string error;
    std::optional<obs::MetricsSnapshot> expected =
        loadGolden(path, &error);
    if (!expected)
        FAIL() << error;

    // loadGolden proved the file reads and parses; the byte compare is
    // now safe and stays the bit-identical common case.
    if (obs::readFile(path) == actual_json)
        return;

    // Not identical: produce a field-level diff instead of two JSON
    // blobs, so the failing counter is named directly.
    obs::MetricsSnapshot actual =
        obs::snapshotFromJson(actual_json, "simulated");
    auto diffs = obs::diffSnapshots(*expected, actual);
    ASSERT_FALSE(diffs.empty())
        << "golden " << path
        << " differs only in formatting — regenerate it with "
           "tools/update_goldens.sh";
    FAIL() << workload << " x " << spec << ": " << diffs.size()
           << " field(s) drifted from " << path << "\n"
           << obs::formatDiff(diffs);
}

std::vector<std::tuple<std::string, std::string>>
goldenMatrix()
{
    std::vector<std::tuple<std::string, std::string>> cells;
    for (const auto &w : kWorkloads)
        for (const auto &s : kSpecs)
            cells.emplace_back(w, s);
    for (const auto &c : kExtraCells)
        cells.push_back(c);
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

INSTANTIATE_TEST_SUITE_P(Matrix, GoldenTest,
                         ::testing::ValuesIn(goldenMatrix()), cellName);

/** The golden schema itself is pinned: parsing a golden back must give
 *  the same document, so future schema bumps are deliberate. */
TEST(GoldenSchema, GoldensRoundTripAtCurrentVersion)
{
    if (updateMode())
        GTEST_SKIP() << "goldens being regenerated";
    for (const auto &[w, s] : goldenMatrix()) {
        std::string path = goldenPath(w, s);
        std::string error;
        std::optional<obs::MetricsSnapshot> snap =
            loadGolden(path, &error);
        if (!snap)
            FAIL() << error;
        EXPECT_EQ(obs::toJson(*snap), obs::readFile(path)) << path;
        EXPECT_GT(snap->size(), 50u) << path;
    }
}

// ---------------------------------------------------- workload identity

/** Instructions of each registered workload the identity table hashes. */
constexpr int kIdentityInstructions = 20000;

const char *const kIdentityTable = BERTI_GOLDEN_DIR "/workload_hashes.txt";

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** FNV-1a over every field of a workload's first instructions. */
std::uint64_t
workloadHash(const Workload &w)
{
    auto gen = w.make();
    sim::Fnv64 h;
    for (int i = 0; i < kIdentityInstructions; ++i) {
        TraceInstr in = gen->next();
        h.add(in.ip);
        h.add(in.load0);
        h.add(in.load1);
        h.add(in.store);
        h.add(static_cast<std::uint64_t>(in.isBranch));
        h.add(static_cast<std::uint64_t>(in.taken));
        h.add(static_cast<std::uint64_t>(in.dependsOnPrevLoad));
    }
    return h.value();
}

/** FNV-1a over a graph's node count and its rowPtr and col arrays. */
std::uint64_t
graphHash(const Csr &g)
{
    sim::Fnv64 h;
    h.add(g.numNodes);
    h.add(g.rowPtr.size());
    h.addBytes(g.rowPtr.data(), g.rowPtr.size() * sizeof(g.rowPtr[0]));
    h.add(g.col.size());
    h.addBytes(g.col.data(), g.col.size() * sizeof(g.col[0]));
    return h.value();
}

/** One "<key> <hash>" line per registered workload, then one per
 *  registry graph ("graph:<name>"), in registry order. */
std::string
identityTable()
{
    std::ostringstream out;
    for (const Workload &w : allWorkloads())
        out << w.name << " " << hex64(workloadHash(w)) << "\n";
    for (const char *g : {"kron", "urand", "road", "twitter", "web"})
        out << "graph:" << g << " " << hex64(graphHash(*registryGraph(g)))
            << "\n";
    return out.str();
}

std::map<std::string, std::string>
parseTable(const std::string &text)
{
    std::map<std::string, std::string> rows;
    std::istringstream in(text);
    std::string key, hash;
    while (in >> key >> hash)
        rows[key] = hash;
    return rows;
}

/**
 * Every registered workload's instruction stream and every registry
 * graph is pinned by hash. Workload construction may get faster; it
 * may not change one address, flag or edge. The bc-* rows equal the
 * bfs-* rows today and are recorded as they are.
 */
TEST(WorkloadIdentity, StreamsAndRegistryGraphsMatchTable)
{
    std::string actual = identityTable();
    if (updateMode()) {
        obs::writeFile(kIdentityTable, actual);
        GTEST_SKIP() << "updated " << kIdentityTable;
    }
    std::string text;
    try {
        text = obs::readFile(kIdentityTable);
    } catch (const verify::SimError &e) {
        FAIL() << "missing identity table " << kIdentityTable << ": "
               << e.reason() << " — run tools/update_goldens.sh";
    }
    auto want = parseTable(text);
    auto got = parseTable(actual);
    EXPECT_EQ(want.size(), got.size());
    for (const auto &[key, hash] : got) {
        auto it = want.find(key);
        if (it == want.end())
            ADD_FAILURE() << key << " has no row in " << kIdentityTable;
        else
            EXPECT_EQ(it->second, hash) << key << " changed";
    }
}

/** The failure modes themselves: a missing goldens directory and a
 *  truncated golden must come back as readable guidance naming the
 *  regeneration command, never as an unhandled exception. */
TEST(GoldenHarness, MissingAndTruncatedGoldensProduceReadableErrors)
{
    std::string dir = ::testing::TempDir() + "/berti_goldens_harness";

    // Missing directory / file.
    std::string error;
    EXPECT_FALSE(loadGolden(dir + "/no_such__golden.json", &error));
    EXPECT_NE(error.find("missing or unreadable golden"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("tools/update_goldens.sh"), std::string::npos)
        << error;

    // Truncated golden: take a real export, cut it mid-document.
    obs::MetricsSnapshot snap;
    snap.setCounter("core.instructions", 20000);
    snap.setGauge("ipc", 1.5);
    std::string json = obs::toJson(snap);
    std::string path = dir + "/truncated__golden.json";
    obs::writeFile(path, json.substr(0, json.size() / 2));

    error.clear();
    EXPECT_FALSE(loadGolden(path, &error));
    EXPECT_NE(error.find("corrupt or truncated golden"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find(path), std::string::npos) << error;

    // And the intact document still loads, so the guard adds no false
    // positives.
    obs::writeFile(path, json);
    error.clear();
    std::optional<obs::MetricsSnapshot> back = loadGolden(path, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_TRUE(*back == snap);
}

} // namespace
} // namespace berti
