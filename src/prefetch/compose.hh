/**
 * @file
 * Prefetcher composition layer: HybridPrefetcher owns N child
 * prefetchers and arbitrates their issue streams through a pluggable
 * selection policy, under a shared issue-budget governor.
 *
 * Spec strings make composed prefetchers addressable everywhere a
 * plain registry name is:
 *
 *     hybrid(berti,cmc)                    union, budget-governed
 *     hybrid(berti,cmc;select=ip)          per-IP credit selector
 *     hybrid(berti,markov;select=duel)     set-dueling, 2 children
 *
 * Grammar (strict, no whitespace):
 *     hybrid   := "hybrid(" name ("," name)+ (";select=" policy)* ")"
 *     name     := <registered leaf prefetcher name>
 *     policy   := all | ip | duel
 * The option tail is the backend specs' `;key=value` list
 * (sim::parseSpecOptions, last value wins); select is its one key.
 * Children are leaf names: a nested hybrid(...) child is rejected.
 * Malformed input throws verify::SimError(ErrorKind::Config) naming the
 * offending spec; parsing never crashes (fuzzed in test_compose).
 *
 * Mechanics (all deterministic, bounded, checkpointable):
 *  - Every child observes every onAccess/onFill/tick, so each keeps
 *    training exactly as it would standalone; only *issue* is gated.
 *    Child issues are staged per hook call, deduplicated, filtered by
 *    the policy, capped by the budget and then forwarded round-robin.
 *  - Budget: the forwards per hook call are capped at the greediest
 *    child's own proposal count in that call, so a hybrid never exerts
 *    more PQ pressure than its greediest child would alone.
 *  - select=ip: a direct-mapped credit table keyed by trigger IP.
 *    Useful prefetches (AccessInfo::firstHitOnPrefetch) raise the
 *    issuing child's credit; evicted-unused prefetches lower it; late
 *    fills lower it mildly. Suppressed children still train in a
 *    shadow table: a demand access to a line a suppressed child had
 *    proposed earns that child credit, so losers can win back an IP.
 *  - select=duel: classic set-dueling between exactly two children.
 *    Trigger-line buckets are split into child-0 leaders, child-1
 *    leaders and followers; leader-bucket feedback moves a saturating
 *    PSEL counter, follower buckets issue from the current winner.
 */

#ifndef BERTI_PREFETCH_COMPOSE_HH
#define BERTI_PREFETCH_COMPOSE_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/stats.hh"

#include "prefetch/prefetcher.hh"
#include "prefetch/registry.hh"

namespace berti::prefetch
{

enum class HybridSelect : std::uint8_t
{
    All,   //!< union of all children, budget-governed
    Ip,    //!< per-trigger-IP credit selector
    Duel   //!< set-dueling between exactly two children
};

/** Hard ceiling on children per hybrid; sizes each credit row. */
constexpr std::size_t kMaxHybridChildren = 4;
/** Trigger-line bucket count for set-dueling. */
constexpr unsigned kDuelBuckets = 1024;

/** True when the name uses the hybrid(...) spec syntax. */
bool isHybridSpec(const std::string &name);

/**
 * Parse + validate a hybrid spec string against the registry (child
 * names must be resolvable) and return its canonical spelling: child
 * order preserved and select= spelled out unless it is the default
 * (all) — so two specs simulate identically iff their canonical names
 * are equal. Throws verify::SimError(ErrorKind::Config) naming the
 * malformed spec.
 */
std::string canonicalHybridSpec(const std::string &spec);

/**
 * Build a factory for a hybrid spec. The factory captures the parsed
 * spec, so each call constructs a fresh, independent hybrid (children
 * built through the registry). Throws the same typed errors as
 * canonicalHybridSpec on a malformed spec.
 */
Factory makeHybridFactory(const std::string &spec);

class HybridPrefetcher : public Prefetcher
{
  public:
    /** Arbitration counters, exported via registerMetrics. */
    struct Stats
    {
        std::uint64_t proposals = 0;      //!< child issue attempts
        std::uint64_t forwarded = 0;      //!< reached the real port
        std::uint64_t suppressed = 0;     //!< policy-filtered
        std::uint64_t deduplicated = 0;   //!< same line, same call
        std::uint64_t budgetDropped = 0;  //!< over the per-call cap
        std::uint64_t usefulFeedback = 0;
        std::uint64_t uselessFeedback = 0;
        std::uint64_t lateFeedback = 0;
        std::uint64_t shadowHits = 0;     //!< suppressed-child credit

        /** Field table, in checkpoint order. */
        static std::span<const StatField<Stats>> fields();
    };

    HybridPrefetcher(std::string canonical_name, HybridSelect policy,
                     std::vector<std::unique_ptr<Prefetcher>> children);
    ~HybridPrefetcher() override;

    void onAccess(const AccessInfo &info) override;
    void onFill(const FillInfo &info) override;
    void tick() override;
    std::uint64_t storageBits() const override;
    std::string name() const override { return canonical; }
    std::string debugState() const override;
    void registerMetrics(obs::MetricsRegistry &registry,
                         const std::string &prefix) override;

    bool checkpointSupported() const override;
    void visitState(sim::StateIO &io) override;

    // ------------------------------------------------- introspection
    Prefetcher &child(std::size_t i) { return *children[i]; }
    const Stats &hybridStats() const { return stats; }
    /** Current PSEL winner (duel policy): 0 or 1. */
    unsigned duelWinner() const;
    /** Raw PSEL counter value (duel policy). */
    unsigned pselValue() const { return psel; }
    /** Credit-table winner for one trigger IP (ip policy); returns
     *  children.size() when the IP is untracked / tied at zero (union
     *  forwarding applies). */
    std::size_t selectedChildFor(Addr ip) const;

  private:
    /** Leader/follower role of a trigger-line bucket (duel policy). */
    enum class DuelRole : std::uint8_t
    {
        Leader0,
        Leader1,
        Follower
    };

    struct Proposal
    {
        Addr line = kNoAddr;
        FillLevel level = FillLevel::L1;
        unsigned child = 0;
    };

    /** Issue attribution, direct-mapped by hash of the issued line. */
    struct IssueEntry
    {
        bool valid = false;
        Addr line = kNoAddr;   //!< as issued (virtual at L1D)
        Addr ip = 0;           //!< trigger IP at issue time
        std::uint8_t child = 0;
        std::uint8_t role = 0; //!< DuelRole at issue time
    };

    /** Per-IP credit row, direct-mapped by hash of the IP. */
    struct CreditRow
    {
        bool valid = false;
        Addr ip = 0;
        std::uint8_t credit[kMaxHybridChildren] = {0, 0, 0, 0};
    };

    class ChildPort;

    DuelRole duelRoleOf(Addr trigger_line) const;
    void propose(unsigned child, Addr line, FillLevel level);
    void arbitrate(const AccessInfo &info);
    void creditAdjust(Addr ip, unsigned child, int delta);
    void pselAdjust(DuelRole role, unsigned child, bool toward);
    IssueEntry *lookupIssued(Addr line);
    IssueEntry *lookupPhysical(Addr p_line);

    std::string canonical;
    HybridSelect policy;
    std::vector<std::unique_ptr<Prefetcher>> children;
    std::vector<std::unique_ptr<ChildPort>> ports;

    std::vector<Proposal> staged;       //!< per-hook-call scratch
    std::vector<CreditRow> credits;     //!< ip policy
    std::vector<IssueEntry> issued;     //!< keyed by issued (v)line
    std::vector<IssueEntry> issuedPhys; //!< keyed by filled pline
    std::vector<IssueEntry> shadow;     //!< suppressed proposals
    unsigned psel = 0;                  //!< duel policy, starts mid
    Stats stats;
};

} // namespace berti::prefetch

#endif // BERTI_PREFETCH_COMPOSE_HH
