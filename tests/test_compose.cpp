/**
 * @file
 * The hybrid composition layer's own battery: spec parsing and
 * canonicalization (including a fuzz pass — malformed input must throw
 * the typed Config error, never crash), selection-policy unit tests
 * with scripted children (per-IP credits, set-dueling, the budget
 * governor), BERTI_HYBRID_* options plumbing, parallel-runner
 * determinism across job counts, and result-store key separation.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/parallel.hh"
#include "harness/result_store.hh"
#include "prefetch/compose.hh"
#include "prefetch/registry.hh"
#include "obs/metrics.hh"
#include "sim/options.hh"
#include "trace/registry.hh"
#include "verify/sim_error.hh"
#include "test_util.hh"

namespace berti
{

using prefetch::HybridConfig;
using prefetch::HybridPrefetcher;
using prefetch::HybridSelect;
using test::RecordingPort;
using test::ScopedEnv;

namespace
{

std::string
canon(const std::string &spec, const HybridConfig &base = HybridConfig{})
{
    return prefetch::canonicalHybridSpec(spec, base);
}

void
expectMalformed(const std::string &spec, const std::string &needle = {})
{
    try {
        (void)canon(spec);
        FAIL() << "spec \"" << spec << "\" should be malformed";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::Config) << spec;
        const std::string what = e.what();
        EXPECT_NE(what.find(spec), std::string::npos)
            << "error must name the malformed spec: " << what;
        if (!needle.empty()) {
            EXPECT_NE(what.find(needle), std::string::npos)
                << "spec " << spec << ": " << what;
        }
    }
}

/** A scripted child: on every miss access it proposes the trigger line
 *  plus each configured delta. Deterministic and instantaneous, so
 *  arbitration behaviour is exactly predictable. */
class ScriptedChild : public Prefetcher
{
  public:
    explicit ScriptedChild(std::vector<std::int64_t> ds)
        : deltas(std::move(ds))
    {}

    void
    onAccess(const AccessInfo &info) override
    {
        if (info.hit || info.vLine == kNoAddr)
            return;
        for (std::int64_t d : deltas) {
            port->issuePrefetch(static_cast<Addr>(
                                    static_cast<std::int64_t>(info.vLine) +
                                    d),
                                FillLevel::L1);
        }
    }

    std::uint64_t storageBits() const override { return 64; }
    std::string name() const override { return "scripted"; }
    bool checkpointSupported() const override { return true; }
    void saveState(sim::ByteWriter &) const override {}
    void loadState(sim::ByteReader &) override {}

  private:
    std::vector<std::int64_t> deltas;
};

std::unique_ptr<HybridPrefetcher>
makeScriptedHybrid(const HybridConfig &cfg,
                   std::vector<std::vector<std::int64_t>> child_deltas)
{
    std::vector<std::unique_ptr<Prefetcher>> kids;
    for (auto &d : child_deltas)
        kids.push_back(std::make_unique<ScriptedChild>(std::move(d)));
    return std::make_unique<HybridPrefetcher>("hybrid(test)", cfg,
                                              std::move(kids));
}

Prefetcher::AccessInfo
miss(Addr line, Addr ip = 0x400000)
{
    Prefetcher::AccessInfo a;
    a.vLine = line;
    a.pLine = line;
    a.ip = ip;
    return a;
}

/** Report a prefetched line useful: the fill, then the first hit. */
void
feedbackUseful(HybridPrefetcher &h, Addr line, Addr ip = 0x400000)
{
    Prefetcher::AccessInfo a;
    a.vLine = line;
    a.pLine = line;
    a.ip = ip;
    a.hit = true;
    a.firstHitOnPrefetch = true;
    h.onAccess(a);
}

/** Report a prefetched line useless: fill by prefetch, then eviction
 *  unused (the useless signal is keyed by physical line). */
void
feedbackUseless(HybridPrefetcher &h, Addr line)
{
    Prefetcher::FillInfo fill;
    fill.vLine = line;
    fill.pLine = line;
    fill.byPrefetch = true;
    h.onFill(fill);
    Prefetcher::FillInfo evict;
    evict.evictedPLine = line;
    evict.evictedUnusedPrefetch = true;
    h.onFill(evict);
}

/** The same bucket split the duel policy uses (compose.cc). */
unsigned
duelBucket(Addr line)
{
    return static_cast<unsigned>((line ^ (line >> 10)) %
                                 prefetch::kDuelBuckets);
}

} // namespace

// ===================================================================
// Parsing + canonicalization
// ===================================================================

TEST(HybridSpec, CanonicalFormsRoundTrip)
{
    EXPECT_EQ(canon("hybrid(berti,cmc)"), "hybrid(berti,cmc)");
    EXPECT_EQ(canon("hybrid(berti,cmc;select=ip)"),
              "hybrid(berti,cmc;select=ip)");
    EXPECT_EQ(canon("hybrid(berti,cmc;select=duel)"),
              "hybrid(berti,cmc;select=duel)");
    EXPECT_EQ(canon("hybrid(berti,cmc,markov,stream)"),
              "hybrid(berti,cmc,markov,stream)");
    EXPECT_EQ(canon("hybrid(berti,hybrid(cmc,markov))"),
              "hybrid(berti,hybrid(cmc,markov))");
}

TEST(HybridSpec, DefaultValuedOptionsAreElided)
{
    // select=all and default geometry values are the compiled defaults:
    // the canonical name spells only what differs.
    EXPECT_EQ(canon("hybrid(berti,cmc;select=all)"), "hybrid(berti,cmc)");
    EXPECT_EQ(canon("hybrid(berti,cmc;credits=256;degree=0)"),
              "hybrid(berti,cmc)");
    EXPECT_EQ(canon("hybrid(berti,cmc;degree=4)"),
              "hybrid(berti,cmc;degree=4)");
}

TEST(HybridSpec, OptionOrderIsNormalized)
{
    EXPECT_EQ(canon("hybrid(berti,cmc;degree=2;select=ip)"),
              canon("hybrid(berti,cmc;select=ip;degree=2)"));
    EXPECT_EQ(canon("hybrid(berti,cmc;degree=2;select=ip)"),
              "hybrid(berti,cmc;select=ip;degree=2)");
}

TEST(HybridSpec, ChildOrderIsPreserved)
{
    // hybrid(a,b) and hybrid(b,a) are different machines (round-robin
    // start order, duel leader assignment) and must never canonicalize
    // to one name.
    EXPECT_NE(canon("hybrid(berti,cmc)"), canon("hybrid(cmc,berti)"));
}

TEST(HybridSpec, BaseConfigFoldsIntoCanonicalName)
{
    HybridConfig base;
    base.degree = 2;
    EXPECT_EQ(canon("hybrid(berti,cmc)", base),
              "hybrid(berti,cmc;degree=2)");
    // In-spec options win over the base.
    EXPECT_EQ(canon("hybrid(berti,cmc;degree=3)", base),
              "hybrid(berti,cmc;degree=3)");
    // The canonical name is self-describing: re-canonicalizing it with
    // a default base is the identity.
    EXPECT_EQ(canon(canon("hybrid(berti,cmc)", base)),
              "hybrid(berti,cmc;degree=2)");
}

TEST(HybridSpec, MalformedSpecsThrowTypedConfigErrors)
{
    expectMalformed("hybrid()", "empty child");
    expectMalformed("hybrid(berti)", "at least 2 children");
    expectMalformed("hybrid(berti,nope)", "unknown child");
    expectMalformed("hybrid(berti,cmc", "missing ')'");
    expectMalformed("hybrid(berti,cmc))", "trailing");
    expectMalformed("hybrid(berti,cmc)x", "trailing");
    expectMalformed("hybrid(berti,cmc;select=weird)", "select");
    expectMalformed("hybrid(berti,cmc;degree=)", "degree");
    expectMalformed("hybrid(berti,cmc;degree=abc)", "not a valid number");
    expectMalformed("hybrid(berti,cmc;bogus=1)", "unknown option");
    expectMalformed("hybrid(berti,cmc,markov;select=duel)",
                    "exactly 2 children");
    expectMalformed("hybrid(berti,cmc,markov,stream,spp)", "at most");
    expectMalformed("hybrid(berti,cmc;duel-sets=9999)", "duel-sets");
    expectMalformed("hybrid(berti,cmc;psel-bits=40)", "psel-bits");
    // Depth cap: 5 levels of nesting.
    expectMalformed(
        "hybrid(berti,hybrid(berti,hybrid(berti,hybrid(berti,"
        "hybrid(berti,cmc)))))",
        "nesting");
}

TEST(HybridSpec, RegistryIntegration)
{
    EXPECT_TRUE(prefetch::known("hybrid(berti,cmc)"));
    EXPECT_TRUE(prefetch::known("hybrid(berti,markov;select=duel)"));
    EXPECT_FALSE(prefetch::known("hybrid(berti,nope)"));
    EXPECT_FALSE(prefetch::known("hybrid(berti)"));
    EXPECT_FALSE(prefetch::isHybridSpec("berti"));
    EXPECT_TRUE(prefetch::isHybridSpec("hybrid(berti,cmc)"));

    // The factory builds a live prefetcher whose name is canonical.
    auto pf = prefetch::make("hybrid(berti,cmc;select=all)")();
    ASSERT_NE(pf, nullptr);
    EXPECT_EQ(pf->name(), "hybrid(berti,cmc)");

    // Plain unknown names still get the typed listing error.
    EXPECT_THROW((void)prefetch::make("hybrid-ish"), verify::SimError);
}

TEST(HybridSpec, FuzzNeverCrashes)
{
    // Random mutations of valid specs plus raw random strings over the
    // spec alphabet: every input either parses cleanly or throws the
    // typed Config error. Anything else (crash, other exception type)
    // fails the test. Deterministic LCG so failures reproduce.
    const std::string alphabet = "hybrid(),;=abcmkov-stre0123456789";
    const std::vector<std::string> seeds = {
        "hybrid(berti,cmc)",
        "hybrid(berti,cmc;select=ip)",
        "hybrid(berti,markov;select=duel;duel-sets=32)",
        "hybrid(berti,hybrid(cmc,markov);degree=3)",
    };
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    unsigned parsed = 0, rejected = 0;
    for (unsigned iter = 0; iter < 4000; ++iter) {
        std::string s;
        if (iter % 2 == 0) {
            // Mutate a valid seed: overwrite 1-3 random positions.
            s = seeds[next() % seeds.size()];
            unsigned edits = 1 + next() % 3;
            for (unsigned e = 0; e < edits; ++e)
                s[next() % s.size()] = alphabet[next() % alphabet.size()];
        } else {
            s = "hybrid(";
            unsigned len = next() % 40;
            for (unsigned i = 0; i < len; ++i)
                s.push_back(alphabet[next() % alphabet.size()]);
        }
        try {
            std::string c = canon(s);
            // Canonicalization must be idempotent on its own output.
            EXPECT_EQ(canon(c), c) << "input " << s;
            ++parsed;
        } catch (const verify::SimError &e) {
            EXPECT_EQ(e.kind(), verify::ErrorKind::Config)
                << "input " << s;
            ++rejected;
        }
    }
    // The fuzz must exercise both paths.
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(rejected, 100u);
}

// ===================================================================
// Arbitration with scripted children
// ===================================================================

TEST(HybridArbitration, UnionForwardsDeduplicated)
{
    // Children overlap on +1: the union forwards {+1, +2, +3} once.
    // (degree high enough that the budget governor stays out of the
    // way — it is exercised separately below.)
    HybridConfig cfg;
    cfg.degree = 8;
    auto h = makeScriptedHybrid(cfg, {{1, 2}, {1, 3}});
    RecordingPort port;
    h->bind(&port);
    h->onAccess(miss(1000));
    EXPECT_EQ(port.issues.size(), 3u);
    EXPECT_TRUE(port.hasIssue(1001));
    EXPECT_TRUE(port.hasIssue(1002));
    EXPECT_TRUE(port.hasIssue(1003));
    EXPECT_EQ(h->hybridStats().deduplicated, 1u);
    EXPECT_EQ(h->hybridStats().proposals, 4u);
}

TEST(HybridArbitration, ExplicitDegreeCapsEveryCall)
{
    HybridConfig cfg;
    cfg.degree = 2;
    auto h = makeScriptedHybrid(cfg, {{1, 2, 3}, {10, 11, 12}});
    RecordingPort port;
    h->bind(&port);
    for (unsigned i = 0; i < 50; ++i) {
        port.issues.clear();
        h->onAccess(miss(5000 + 100 * i));
        EXPECT_LE(port.issues.size(), 2u) << "call " << i;
    }
    EXPECT_GT(h->hybridStats().budgetDropped, 0u);
}

TEST(HybridArbitration, GreedyGovernorNeverExceedsGreediestChild)
{
    // degree=0: the cap is the greediest child's own proposal count in
    // that call — here 4 — so a 2-child union never doubles pressure.
    auto h = makeScriptedHybrid(HybridConfig{},
                                {{1, 2, 3, 4}, {10, 11}});
    RecordingPort port;
    h->bind(&port);
    for (unsigned i = 0; i < 20; ++i) {
        port.issues.clear();
        h->onAccess(miss(9000 + 100 * i));
        EXPECT_LE(port.issues.size(), 4u) << "call " << i;
    }
    EXPECT_GT(h->hybridStats().budgetDropped, 0u);
}

TEST(HybridArbitration, RoundRobinInterleavesChildren)
{
    // With a budget of 2 and disjoint proposals, one slot goes to each
    // child (round-robin), not both to child 0.
    HybridConfig cfg;
    cfg.degree = 2;
    auto h = makeScriptedHybrid(cfg, {{1, 2}, {10, 11}});
    RecordingPort port;
    h->bind(&port);
    h->onAccess(miss(3000));
    ASSERT_EQ(port.issues.size(), 2u);
    EXPECT_TRUE(port.hasIssue(3001));   // child 0's first
    EXPECT_TRUE(port.hasIssue(3010));   // child 1's first
}

// ===================================================================
// Per-IP credit selector
// ===================================================================

TEST(HybridIpSelector, LearnsUsefulChildPerIp)
{
    HybridConfig cfg;
    cfg.select = HybridSelect::Ip;
    cfg.degree = 2;  // let both 1-proposal children through in union mode
    auto h = makeScriptedHybrid(cfg, {{1}, {33}});
    RecordingPort port;
    h->bind(&port);

    const Addr ip = 0x400abc;
    // Untrained: union forwarding.
    EXPECT_EQ(h->selectedChildFor(ip), 2u);
    h->onAccess(miss(10000, ip));
    EXPECT_EQ(port.issues.size(), 2u);

    // Child 0's prefetches keep getting demanded; child 1's never do.
    for (unsigned i = 1; i <= 8; ++i) {
        Addr trigger = 10000 + 100 * i;
        h->onAccess(miss(trigger, ip));
        feedbackUseful(*h, trigger + 1, ip);
        feedbackUseless(*h, trigger + 33);
    }
    EXPECT_EQ(h->selectedChildFor(ip), 0u);
    EXPECT_GT(h->hybridStats().usefulFeedback, 0u);
    EXPECT_GT(h->hybridStats().uselessFeedback, 0u);

    // Trained: only child 0's proposal is forwarded for this IP.
    port.issues.clear();
    h->onAccess(miss(50000, ip));
    ASSERT_EQ(port.issues.size(), 1u);
    EXPECT_EQ(port.issues[0].line, 50001u);
    EXPECT_GT(h->hybridStats().suppressed, 0u);
}

TEST(HybridIpSelector, ShadowTableRehabilitatesSuppressedChild)
{
    HybridConfig cfg;
    cfg.select = HybridSelect::Ip;
    cfg.degree = 2;
    auto h = makeScriptedHybrid(cfg, {{1}, {33}});
    RecordingPort port;
    h->bind(&port);

    const Addr ip = 0x400def;
    // Train child 0 as the winner for this IP.
    for (unsigned i = 1; i <= 6; ++i) {
        Addr trigger = 20000 + 100 * i;
        h->onAccess(miss(trigger, ip));
        feedbackUseful(*h, trigger + 1, ip);
    }
    ASSERT_EQ(h->selectedChildFor(ip), 0u);

    // Now the access pattern shifts: the +33 lines child 1 proposes
    // (suppressed, recorded in the shadow table) start being demanded.
    for (unsigned i = 1; i <= 40; ++i) {
        Addr trigger = 30000 + 100 * i;
        h->onAccess(miss(trigger, ip));
        // Suppressed child 1 proposal for this trigger was +33.
        h->onAccess(miss(trigger + 33, ip));
        // And child 0's issued +1 line turns out useless.
        feedbackUseless(*h, trigger + 1);
    }
    EXPECT_GT(h->hybridStats().shadowHits, 0u);
    // The loser earned credit back: selection is no longer pinned to
    // child 0 for this IP.
    EXPECT_NE(h->selectedChildFor(ip), 0u);
}

// ===================================================================
// Set-dueling
// ===================================================================

TEST(HybridDuel, LeaderBucketsAlwaysIssueTheirOwnChild)
{
    HybridConfig cfg;
    cfg.select = HybridSelect::Duel;
    auto h = makeScriptedHybrid(cfg, {{1}, {33}});
    RecordingPort port;
    h->bind(&port);

    // Find a leader-0 and a leader-1 trigger line.
    Addr lead0 = 0, lead1 = 0;
    for (Addr line = 1; line < 1000000 && (!lead0 || !lead1); ++line) {
        unsigned b = duelBucket(line);
        if (!lead0 && b < cfg.duelSets)
            lead0 = line;
        if (!lead1 && b >= prefetch::kDuelBuckets - cfg.duelSets)
            lead1 = line;
    }
    ASSERT_NE(lead0, 0u);
    ASSERT_NE(lead1, 0u);

    port.issues.clear();
    h->onAccess(miss(lead0));
    ASSERT_EQ(port.issues.size(), 1u);
    EXPECT_EQ(port.issues[0].line, lead0 + 1) << "leader-0 issues child 0";

    port.issues.clear();
    h->onAccess(miss(lead1));
    ASSERT_EQ(port.issues.size(), 1u);
    EXPECT_EQ(port.issues[0].line, lead1 + 33)
        << "leader-1 issues child 1";
}

TEST(HybridDuel, PselConvergesToUsefulChildAndFollowersAdoptIt)
{
    HybridConfig cfg;
    cfg.select = HybridSelect::Duel;
    auto h = makeScriptedHybrid(cfg, {{1}, {33}});
    RecordingPort port;
    h->bind(&port);

    const unsigned start_psel = h->pselValue();

    // Sweep triggers across the address space. Child 0's prefetches
    // (leader-0 buckets) are demanded; child 1's (leader-1 buckets)
    // are evicted unused. Both signals push PSEL toward child 0.
    for (Addr line = 1; line < 400000; line += 37) {
        unsigned b = duelBucket(line);
        bool l0 = b < cfg.duelSets;
        bool l1 = b >= prefetch::kDuelBuckets - cfg.duelSets;
        if (!l0 && !l1)
            continue;
        h->onAccess(miss(line));
        if (l0)
            feedbackUseful(*h, line + 1);
        else
            feedbackUseless(*h, line + 33);
    }
    EXPECT_LT(h->pselValue(), start_psel);
    EXPECT_EQ(h->duelWinner(), 0u);

    // A follower bucket now issues from the winner only.
    Addr follower = 0;
    for (Addr line = 1; line < 1000000; ++line) {
        unsigned b = duelBucket(line);
        if (b >= cfg.duelSets &&
            b < prefetch::kDuelBuckets - cfg.duelSets) {
            follower = line;
            break;
        }
    }
    ASSERT_NE(follower, 0u);
    port.issues.clear();
    h->onAccess(miss(follower));
    ASSERT_EQ(port.issues.size(), 1u);
    EXPECT_EQ(port.issues[0].line, follower + 1);
}

// ===================================================================
// Metrics, storage, checkpoint plumbing
// ===================================================================

TEST(HybridPlumbing, MetricsExported)
{
    HybridConfig cfg;
    cfg.degree = 2;
    auto h = makeScriptedHybrid(cfg, {{1}, {2}});
    RecordingPort port;
    h->bind(&port);
    obs::MetricsRegistry reg;
    h->registerMetrics(reg, "l1d.pf.");
    h->onAccess(miss(700));
    auto snap = reg.snapshot();
    EXPECT_EQ(snap.counter("l1d.pf.hybrid.proposals"), 2u);
    EXPECT_EQ(snap.counter("l1d.pf.hybrid.forwarded"), 2u);
    EXPECT_TRUE(snap.contains("l1d.pf.hybrid.suppressed"));
    EXPECT_TRUE(snap.contains("l1d.pf.hybrid.budget_dropped"));
    // Children export under a child<i>. prefix (base storage gauge).
    EXPECT_TRUE(snap.contains("l1d.pf.child0.storage_bits"));
    EXPECT_TRUE(snap.contains("l1d.pf.child1.storage_bits"));
}

TEST(HybridPlumbing, StorageSumsChildrenPlusSelector)
{
    auto pf = prefetch::make("hybrid(berti,cmc)")();
    auto berti = prefetch::make("berti")();
    auto cmc = prefetch::make("cmc")();
    EXPECT_GT(pf->storageBits(),
              berti->storageBits() + cmc->storageBits())
        << "selector state must be accounted";
}

TEST(HybridPlumbing, CheckpointStateRoundTripsBitIdentical)
{
    HybridConfig cfg;
    cfg.select = HybridSelect::Ip;
    auto a = makeScriptedHybrid(cfg, {{1}, {33}});
    RecordingPort port;
    a->bind(&port);
    for (unsigned i = 1; i <= 30; ++i) {
        Addr t = 40000 + 64 * i;
        a->onAccess(miss(t, 0x400000 + (i % 4)));
        if (i % 2)
            feedbackUseful(*a, t + 1, 0x400000 + (i % 4));
        else
            feedbackUseless(*a, t + 33);
    }
    ASSERT_TRUE(a->checkpointSupported());
    sim::ByteWriter w1;
    a->saveState(w1);

    auto b = makeScriptedHybrid(cfg, {{1}, {33}});
    RecordingPort port_b;
    b->bind(&port_b);
    sim::ByteReader r(w1.data(), "test");
    b->loadState(r);
    EXPECT_TRUE(r.atEnd());

    sim::ByteWriter w2;
    b->saveState(w2);
    EXPECT_EQ(w1.data(), w2.data()) << "restored state must re-serialize"
                                       " byte-identically";

    // And the restored selector behaves identically.
    port.issues.clear();
    port_b.issues.clear();
    a->onAccess(miss(90000, 0x400001));
    b->onAccess(miss(90000, 0x400001));
    ASSERT_EQ(port.issues.size(), port_b.issues.size());
    for (std::size_t i = 0; i < port.issues.size(); ++i)
        EXPECT_EQ(port.issues[i].line, port_b.issues[i].line);
}

// ===================================================================
// Options plumbing (no longer passthrough fiction)
// ===================================================================

TEST(HybridOptions, EnvKnobsParseIntoConfig)
{
    ScopedEnv degree("BERTI_HYBRID_DEGREE", "3");
    ScopedEnv credits("BERTI_HYBRID_CREDITS", "128");
    ScopedEnv cmax("BERTI_HYBRID_CREDIT_MAX", "31");
    ScopedEnv duel("BERTI_HYBRID_DUEL_SETS", "32");
    ScopedEnv psel("BERTI_HYBRID_PSEL_BITS", "8");

    sim::SimOptions opt = sim::SimOptions::fromEnv();
    EXPECT_EQ(opt.hybridDegree, 3u);
    EXPECT_EQ(opt.hybridCreditEntries, 128u);
    EXPECT_EQ(opt.hybridCreditMax, 31u);
    EXPECT_EQ(opt.hybridDuelSets, 32u);
    EXPECT_EQ(opt.hybridPselBits, 8u);

    HybridConfig cfg = HybridConfig::fromOptions(opt);
    EXPECT_EQ(cfg.degree, 3u);
    EXPECT_EQ(cfg.creditEntries, 128u);
    EXPECT_EQ(cfg.creditMax, 31u);
    EXPECT_EQ(cfg.duelSets, 32u);
    EXPECT_EQ(cfg.pselBits, 8u);
}

TEST(HybridOptions, FlagsOverrideAndMalformedValuesThrow)
{
    sim::SimOptions opt;
    EXPECT_TRUE(opt.applyFlag("--hybrid-degree=5"));
    EXPECT_EQ(opt.hybridDegree, 5u);
    EXPECT_TRUE(opt.applyFlag("--hybrid-duel-sets=16"));
    EXPECT_EQ(opt.hybridDuelSets, 16u);
    EXPECT_FALSE(opt.applyFlag("--not-a-hybrid-flag"));
    EXPECT_THROW((void)opt.applyFlag("--hybrid-credits=abc"),
                 verify::SimError);
    EXPECT_THROW((void)opt.applyFlag("--hybrid-credits=0"),
                 verify::SimError);
}

TEST(HybridOptions, GeometryReachesTheBuiltPrefetcher)
{
    // The knob must actually reshape the machine, through the same
    // Registry::make(name, opt) path the harness uses — the regression
    // this satellite pins: options-aware make() is no longer a
    // passthrough.
    sim::SimOptions opt;
    opt.hybridDegree = 1;
    auto pf = prefetch::make("hybrid(berti,cmc)", opt)();
    auto *h = dynamic_cast<HybridPrefetcher *>(pf.get());
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->config().degree, 1u);
    EXPECT_EQ(h->name(), "hybrid(berti,cmc;degree=1)");

    EXPECT_EQ(prefetch::canonicalName("hybrid(berti,cmc)", opt),
              "hybrid(berti,cmc;degree=1)");
    EXPECT_EQ(prefetch::canonicalName("berti", opt), "berti");

    // makeSpec records the canonical name too.
    PrefetcherSpec spec = makeSpec("hybrid(berti,cmc)", opt);
    EXPECT_EQ(spec.name, "hybrid(berti,cmc;degree=1)");
}

// ===================================================================
// Determinism + result-store keys
// ===================================================================

TEST(HybridDeterminism, BitIdenticalAcrossJobCounts)
{
    std::vector<Workload> workloads = {findWorkload("stream-like.1"),
                                       findWorkload("gcc-like.2226"),
                                       findWorkload("mcf-like.1554")};
    SimParams p;
    p.warmupInstructions = 3000;
    p.measureInstructions = 10000;
    std::vector<PrefetcherSpec> specs = {
        makeSpec("hybrid(berti,cmc;select=ip)"),
        makeSpec("hybrid(berti,markov;select=duel)")};

    test::expectJobCountInvariant(workloads, specs, p, 8);
}

TEST(HybridStoreKeys, ChildOrderAndGeometrySeparateKeys)
{
    SimParams p;
    const std::string w = "mcf-like.472";

    auto key = [&](const std::string &spec_name,
                   const sim::SimOptions &opt) {
        return harness::makeStoreKey(
                   w, prefetch::canonicalName(spec_name, opt), p)
            .hash();
    };

    sim::SimOptions defaults;
    sim::SimOptions degree2;
    degree2.hybridDegree = 2;

    // hybrid(a,b) vs hybrid(b,a): different cells.
    EXPECT_NE(key("hybrid(berti,cmc)", defaults),
              key("hybrid(cmc,berti)", defaults));
    // Same spec under different BERTI_HYBRID_* geometry: different
    // cells — the canonical name folds the knob in.
    EXPECT_NE(key("hybrid(berti,cmc)", defaults),
              key("hybrid(berti,cmc)", degree2));
    // Spelled-out defaults collapse onto the default cell.
    EXPECT_EQ(key("hybrid(berti,cmc;select=all)", defaults),
              key("hybrid(berti,cmc)", defaults));
}

} // namespace berti
