/** @file Replacement-policy unit tests. */

#include <gtest/gtest.h>

#include "mem/replacement.hh"

namespace berti
{

TEST(Lru, EvictsLeastRecentlyUsed)
{
    LruPolicy lru(1, 4);
    for (unsigned w = 0; w < 4; ++w)
        lru.onFill(0, w, false);
    lru.onHit(0, 0);  // way 1 is now LRU
    EXPECT_EQ(lru.victim(0), 1u);
    lru.onHit(0, 1);
    EXPECT_EQ(lru.victim(0), 2u);
}

TEST(Lru, SetsAreIndependent)
{
    LruPolicy lru(2, 2);
    lru.onFill(0, 0, false);
    lru.onFill(0, 1, false);
    lru.onFill(1, 1, false);
    lru.onFill(1, 0, false);
    EXPECT_EQ(lru.victim(0), 0u);
    EXPECT_EQ(lru.victim(1), 1u);
}

TEST(Srrip, HitPromotesToNearImminent)
{
    SrripPolicy srrip(1, 2);
    srrip.onFill(0, 0, false);
    srrip.onFill(0, 1, false);
    srrip.onHit(0, 0);
    // Way 1 still has RRPV 2, way 0 has 0: way 1 ages out first.
    EXPECT_EQ(srrip.victim(0), 1u);
}

TEST(Srrip, VictimAlwaysFound)
{
    SrripPolicy srrip(1, 4);
    for (unsigned w = 0; w < 4; ++w) {
        srrip.onFill(0, w, false);
        srrip.onHit(0, w);  // everything at RRPV 0
    }
    unsigned v = srrip.victim(0);  // must age and terminate
    EXPECT_LT(v, 4u);
}

TEST(Drrip, BehavesAsValidPolicy)
{
    DrripPolicy drrip(64, 4);
    for (unsigned s = 0; s < 64; ++s) {
        for (unsigned w = 0; w < 4; ++w)
            drrip.onFill(s, w, false);
        EXPECT_LT(drrip.victim(s), 4u);
    }
}

TEST(Factory, CreatesEveryKind)
{
    for (ReplKind k : {ReplKind::Lru, ReplKind::Srrip, ReplKind::Drrip}) {
        auto p = makeReplPolicy(k, 8, 4);
        ASSERT_NE(p, nullptr);
        p->onFill(0, 0, false);
        EXPECT_LT(p->victim(0), 4u);
        EXPECT_FALSE(p->name().empty());
    }
}

struct PolicyParam
{
    ReplKind kind;
    unsigned sets;
    unsigned ways;
};

class PolicySweep : public ::testing::TestWithParam<PolicyParam>
{
};

TEST_P(PolicySweep, VictimAlwaysInRange)
{
    auto [kind, sets, ways] = GetParam();
    auto p = makeReplPolicy(kind, sets, ways);
    // Churn: fills and hits in a pseudo-random pattern.
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 5000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        unsigned set = static_cast<unsigned>(x % sets);
        unsigned way = static_cast<unsigned>((x >> 20) % ways);
        if (x & 1)
            p->onFill(set, way, (x & 2) != 0);
        else
            p->onHit(set, way);
        ASSERT_LT(p->victim(set), ways);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicySweep,
    ::testing::Values(PolicyParam{ReplKind::Lru, 64, 12},
                      PolicyParam{ReplKind::Srrip, 1024, 8},
                      PolicyParam{ReplKind::Drrip, 2048, 16},
                      PolicyParam{ReplKind::Drrip, 16, 4},
                      PolicyParam{ReplKind::Lru, 1, 1}));

} // namespace berti
