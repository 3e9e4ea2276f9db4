#include "prefetch/compose.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "obs/metrics.hh"
#include "sim/serialize.hh"
#include "sim/spec_parse.hh"
#include "verify/sim_error.hh"

namespace berti::prefetch
{

namespace
{

[[noreturn]] void
failSpec(const std::string &spec, const std::string &reason)
{
    throw verify::SimError(verify::ErrorKind::Config, "prefetch",
                           "malformed hybrid spec \"" + spec +
                               "\": " + reason);
}

std::size_t
hashLine(Addr line)
{
    return static_cast<std::size_t>(line ^ (line >> 11) ^ (line >> 23));
}

std::size_t
hashIp(Addr ip)
{
    return static_cast<std::size_t>(ip ^ (ip >> 13) ^ (ip >> 29));
}

/** Issue-attribution map entries (line -> issuing child), per map. */
constexpr unsigned kAttributionEntries = 1024;
/** Per-IP credit table rows (select=ip). */
constexpr unsigned kCreditEntries = 256;
/** Saturating credit ceiling, and the bits a credit counter needs. */
constexpr unsigned kCreditMax = 15;
constexpr unsigned kCreditBits = 4;
static_assert((1u << kCreditBits) > kCreditMax &&
              (1u << (kCreditBits - 1)) <= kCreditMax);
/** Leader buckets per child (select=duel). */
constexpr unsigned kDuelSets = 64;
static_assert(kDuelSets <= kDuelBuckets / 2);
/** PSEL width: the counter lives in [0, 2^kPselBits). */
constexpr unsigned kPselBits = 10;

/** One parsed hybrid(...) spec: child names + selection policy. */
struct ParsedHybrid
{
    std::vector<std::string> children;
    HybridSelect select = HybridSelect::All;
    std::string canonical;
};

/** The `;key=value` tail onto parsed.select; select is the one key. */
void
applyOption(const std::string &spec, const sim::SpecOption &o,
            ParsedHybrid &parsed)
{
    if (o.key != "select") {
        failSpec(spec, "unknown option \"" + o.key +
                           "\" (known: select)");
    }
    if (o.value == "all")
        parsed.select = HybridSelect::All;
    else if (o.value == "ip")
        parsed.select = HybridSelect::Ip;
    else if (o.value == "duel")
        parsed.select = HybridSelect::Duel;
    else
        failSpec(spec, "select must be all, ip or duel (got \"" +
                           o.value + "\")");
}

bool
plainNameChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-';
}

/** Parse the whole spec string; anything malformed throws. */
ParsedHybrid
parseHybrid(const std::string &spec)
{
    constexpr const char *kPrefix = "hybrid(";
    if (spec.compare(0, 7, kPrefix) != 0)
        failSpec(spec, "expected \"hybrid(\" at offset 0");
    std::size_t pos = 7;

    ParsedHybrid parsed;

    // Children: registered leaf names, comma-separated, >= 2 of them.
    while (true) {
        if (pos >= spec.size())
            failSpec(spec, "unterminated child list (missing ')')");
        if (spec.compare(pos, 7, kPrefix) == 0) {
            failSpec(spec, "nested hybrid(...) child at offset " +
                               std::to_string(pos) +
                               " (children must be registered names)");
        }
        std::size_t start = pos;
        while (pos < spec.size() && plainNameChar(spec[pos]))
            ++pos;
        std::string name = spec.substr(start, pos - start);
        if (name.empty()) {
            failSpec(spec, "empty child name at offset " +
                               std::to_string(start));
        }
        if (!known(name))
            failSpec(spec, "unknown child prefetcher \"" + name + "\"");
        parsed.children.push_back(name);
        if (pos < spec.size() && spec[pos] == ',') {
            ++pos;
            continue;
        }
        break;
    }
    if (parsed.children.size() < 2)
        failSpec(spec, "a hybrid needs at least 2 children");
    if (parsed.children.size() > kMaxHybridChildren) {
        failSpec(spec, "at most " + std::to_string(kMaxHybridChildren) +
                           " children supported, got " +
                           std::to_string(parsed.children.size()));
    }

    // Options: ";key=value"* up to the closing ')', in the shared
    // option grammar; no option value contains a paren.
    if (pos < spec.size() && spec[pos] == ';') {
        std::size_t close = spec.find(')', pos);
        if (close == std::string::npos)
            failSpec(spec, "missing ')' at offset " + std::to_string(pos));
        std::vector<sim::SpecOption> opts;
        try {
            opts = sim::parseSpecOptions(spec.substr(pos, close - pos),
                                         "prefetch");
        } catch (const verify::SimError &e) {
            failSpec(spec, e.reason());
        }
        pos = close;
        for (const sim::SpecOption &o : opts)
            applyOption(spec, o, parsed);
    }

    if (pos >= spec.size() || spec[pos] != ')')
        failSpec(spec, "missing ')' at offset " + std::to_string(pos));
    ++pos;
    if (pos != spec.size()) {
        failSpec(spec, "trailing characters after spec at offset " +
                           std::to_string(pos));
    }
    if (parsed.select == HybridSelect::Duel && parsed.children.size() != 2) {
        failSpec(spec, "select=duel needs exactly 2 children, got " +
                           std::to_string(parsed.children.size()));
    }

    parsed.canonical = "hybrid(";
    for (std::size_t i = 0; i < parsed.children.size(); ++i) {
        if (i > 0)
            parsed.canonical += ",";
        parsed.canonical += parsed.children[i];
    }
    if (parsed.select == HybridSelect::Ip)
        parsed.canonical += ";select=ip";
    else if (parsed.select == HybridSelect::Duel)
        parsed.canonical += ";select=duel";
    parsed.canonical += ")";
    return parsed;
}

} // namespace

bool
isHybridSpec(const std::string &name)
{
    return name.compare(0, 7, "hybrid(") == 0;
}

std::string
canonicalHybridSpec(const std::string &spec)
{
    return parseHybrid(spec).canonical;
}

Factory
makeHybridFactory(const std::string &spec)
{
    ParsedHybrid parsed = parseHybrid(spec);

    // Resolve child factories eagerly so an unknown child fails at
    // spec-resolution time, not on first Machine construction.
    std::vector<Factory> kids;
    kids.reserve(parsed.children.size());
    for (const std::string &child : parsed.children)
        kids.push_back(make(child));

    std::string canonical = parsed.canonical;
    HybridSelect select = parsed.select;
    return [canonical, select, kids] {
        std::vector<std::unique_ptr<Prefetcher>> built;
        built.reserve(kids.size());
        for (const Factory &f : kids) {
            built.push_back(f ? f()
                              : std::make_unique<NoPrefetcher>());
        }
        return std::make_unique<HybridPrefetcher>(canonical, select,
                                                  std::move(built));
    };
}

// ===================================================================
// HybridPrefetcher
// ===================================================================

/** The staging port each child issues through: proposals are queued
 *  for arbitration; clock and MSHR pressure pass through unchanged so
 *  a child observes exactly what it would standalone. */
class HybridPrefetcher::ChildPort : public PrefetchPort
{
  public:
    ChildPort(HybridPrefetcher *owner_pf, unsigned child_idx)
        : owner(owner_pf), idx(child_idx)
    {
    }

    bool
    issuePrefetch(Addr line_addr, FillLevel level) override
    {
        owner->propose(idx, line_addr, level);
        return true;
    }

    double mshrOccupancy() const override
    {
        return owner->port->mshrOccupancy();
    }

    Cycle now() const override { return owner->port->now(); }

  private:
    HybridPrefetcher *owner;
    unsigned idx;
};

HybridPrefetcher::HybridPrefetcher(
    std::string canonical_name, HybridSelect select_policy,
    std::vector<std::unique_ptr<Prefetcher>> kids)
    : canonical(std::move(canonical_name)), policy(select_policy),
      children(std::move(kids))
{
    ports.reserve(children.size());
    for (unsigned i = 0; i < children.size(); ++i) {
        ports.push_back(std::make_unique<ChildPort>(this, i));
        children[i]->bind(ports.back().get());
    }
    issued.resize(kAttributionEntries);
    issuedPhys.resize(kAttributionEntries);
    if (policy == HybridSelect::Ip) {
        credits.resize(kCreditEntries);
        shadow.resize(kAttributionEntries);
    }
    psel = 1u << (kPselBits - 1);  // neutral: winner is child 0
}

HybridPrefetcher::~HybridPrefetcher() = default;

HybridPrefetcher::DuelRole
HybridPrefetcher::duelRoleOf(Addr trigger_line) const
{
    unsigned bucket = static_cast<unsigned>(
        (trigger_line ^ (trigger_line >> 10)) % kDuelBuckets);
    if (bucket < kDuelSets)
        return DuelRole::Leader0;
    if (bucket >= kDuelBuckets - kDuelSets)
        return DuelRole::Leader1;
    return DuelRole::Follower;
}

unsigned
HybridPrefetcher::duelWinner() const
{
    return psel <= (1u << (kPselBits - 1)) ? 0 : 1;
}

std::size_t
HybridPrefetcher::selectedChildFor(Addr ip) const
{
    if (credits.empty())
        return children.size();
    const CreditRow &row = credits[hashIp(ip) % credits.size()];
    if (!row.valid || row.ip != ip)
        return children.size();
    std::uint8_t best = 0;
    bool uniform = true;
    for (std::size_t c = 0; c < children.size(); ++c) {
        if (row.credit[c] != row.credit[0])
            uniform = false;
        best = std::max(best, row.credit[c]);
    }
    if (uniform)
        return children.size();  // untrained / tied: union forwarding
    for (std::size_t c = 0; c < children.size(); ++c) {
        if (row.credit[c] == best)
            return c;
    }
    return children.size();
}

void
HybridPrefetcher::creditAdjust(Addr ip, unsigned child, int delta)
{
    if (credits.empty() || child >= children.size())
        return;
    CreditRow &row = credits[hashIp(ip) % credits.size()];
    if (!row.valid || row.ip != ip) {
        if (delta <= 0)
            return;  // never punish an unrelated IP's row
        row.valid = true;
        row.ip = ip;
        for (std::size_t c = 0; c < kMaxHybridChildren; ++c)
            row.credit[c] = 0;
    }
    int v = static_cast<int>(row.credit[child]) + delta;
    v = std::clamp(v, 0, static_cast<int>(kCreditMax));
    row.credit[child] = static_cast<std::uint8_t>(v);
}

void
HybridPrefetcher::pselAdjust(DuelRole role, unsigned child, bool toward)
{
    if (policy != HybridSelect::Duel)
        return;
    // Only leader-bucket feedback trains PSEL, and only feedback about
    // the bucket's own leader (classic set-dueling).
    bool leader0 = role == DuelRole::Leader0 && child == 0;
    bool leader1 = role == DuelRole::Leader1 && child == 1;
    if (!leader0 && !leader1)
        return;
    const unsigned cap = (1u << kPselBits) - 1;
    // "toward" child 0 decrements, "toward" child 1 increments.
    bool down = leader0 == toward;
    if (down) {
        if (psel > 0)
            --psel;
    } else {
        if (psel < cap)
            ++psel;
    }
}

HybridPrefetcher::IssueEntry *
HybridPrefetcher::lookupIssued(Addr line)
{
    IssueEntry &e = issued[hashLine(line) % issued.size()];
    return e.valid && e.line == line ? &e : nullptr;
}

HybridPrefetcher::IssueEntry *
HybridPrefetcher::lookupPhysical(Addr p_line)
{
    IssueEntry &e = issuedPhys[hashLine(p_line) % issuedPhys.size()];
    return e.valid && e.line == p_line ? &e : nullptr;
}

void
HybridPrefetcher::propose(unsigned child, Addr line, FillLevel level)
{
    staged.push_back({line, level, child});
}

void
HybridPrefetcher::onAccess(const AccessInfo &info)
{
    Addr key = info.vLine != kNoAddr ? info.vLine : info.pLine;

    // ---------------------------------------------- feedback, first
    if (info.firstHitOnPrefetch && key != kNoAddr) {
        if (IssueEntry *e = lookupIssued(key)) {
            ++stats.usefulFeedback;
            creditAdjust(e->ip, e->child, +2);
            pselAdjust(static_cast<DuelRole>(e->role), e->child,
                       /*toward=*/true);
            e->valid = false;
        }
    }
    if (!shadow.empty() && key != kNoAddr) {
        // A demand access to a line a *suppressed* child had proposed:
        // the loser would have been useful — earn it credit so it can
        // win the IP back.
        IssueEntry &s = shadow[hashLine(key) % shadow.size()];
        if (s.valid && s.line == key) {
            ++stats.shadowHits;
            creditAdjust(s.ip, s.child, +1);
            s.valid = false;
        }
    }

    // ------------------------------------- children always train
    staged.clear();
    for (auto &child : children)
        child->onAccess(info);

    arbitrate(info);
}

void
HybridPrefetcher::arbitrate(const AccessInfo &info)
{
    if (staged.empty())
        return;
    stats.proposals += staged.size();

    // Children ran sequentially, so `staged` is grouped child-major;
    // index the groups for round-robin interleaving.
    std::size_t group_start[kMaxHybridChildren + 1] = {};
    std::size_t counts[kMaxHybridChildren] = {};
    for (const Proposal &p : staged)
        ++counts[p.child];
    std::size_t max_count = 0;
    for (std::size_t c = 0; c < children.size(); ++c) {
        group_start[c + 1] = group_start[c] + counts[c];
        max_count = std::max(max_count, counts[c]);
    }

    // Budget: the greediest child's own pressure.
    const std::size_t budget = max_count;

    // Policy: which children may issue for this trigger?
    Addr trigger = info.vLine != kNoAddr ? info.vLine : info.pLine;
    bool allowed[kMaxHybridChildren];
    for (std::size_t c = 0; c < children.size(); ++c)
        allowed[c] = true;
    if (policy == HybridSelect::Ip) {
        std::size_t sel = selectedChildFor(info.ip);
        if (sel < children.size()) {
            for (std::size_t c = 0; c < children.size(); ++c)
                allowed[c] = c == sel;
        }
    } else if (policy == HybridSelect::Duel) {
        DuelRole role = duelRoleOf(trigger);
        unsigned sel = role == DuelRole::Leader0   ? 0u
                       : role == DuelRole::Leader1 ? 1u
                                                   : duelWinner();
        for (std::size_t c = 0; c < children.size(); ++c)
            allowed[c] = c == sel;
    }
    DuelRole role = policy == HybridSelect::Duel
                        ? duelRoleOf(trigger)
                        : DuelRole::Follower;

    // Round-robin across children, dedup within the call, cap at the
    // budget. Deterministic: fixed iteration order, no RNG.
    std::size_t forwarded_lines[64];
    std::size_t n_forwarded = 0;
    for (std::size_t k = 0; k < max_count; ++k) {
        for (std::size_t c = 0; c < children.size(); ++c) {
            if (k >= counts[c])
                continue;
            const Proposal &p = staged[group_start[c] + k];
            bool dup = false;
            for (std::size_t i = 0; i < n_forwarded; ++i) {
                if (staged[forwarded_lines[i]].line == p.line) {
                    dup = true;
                    break;
                }
            }
            if (dup) {
                ++stats.deduplicated;
                continue;
            }
            if (!allowed[c]) {
                ++stats.suppressed;
                if (!shadow.empty()) {
                    IssueEntry &s =
                        shadow[hashLine(p.line) % shadow.size()];
                    s.valid = true;
                    s.line = p.line;
                    s.ip = info.ip;
                    s.child = static_cast<std::uint8_t>(c);
                    s.role = static_cast<std::uint8_t>(role);
                }
                continue;
            }
            if (n_forwarded >= budget) {
                ++stats.budgetDropped;
                continue;
            }
            port->issuePrefetch(p.line, p.level);
            ++stats.forwarded;
            if (n_forwarded <
                sizeof(forwarded_lines) / sizeof(forwarded_lines[0])) {
                forwarded_lines[n_forwarded] = group_start[c] + k;
            }
            ++n_forwarded;
            IssueEntry &e = issued[hashLine(p.line) % issued.size()];
            e.valid = true;
            e.line = p.line;
            e.ip = info.ip;
            e.child = static_cast<std::uint8_t>(c);
            e.role = static_cast<std::uint8_t>(role);
        }
    }
    staged.clear();
}

void
HybridPrefetcher::onFill(const FillInfo &info)
{
    Addr key = info.vLine != kNoAddr ? info.vLine : info.pLine;
    if (info.byPrefetch && key != kNoAddr) {
        if (IssueEntry *e = lookupIssued(key)) {
            if (info.pLine != kNoAddr) {
                // Re-key under the physical line so useless-eviction
                // feedback (physical-only) can find the issuer.
                IssueEntry &p =
                    issuedPhys[hashLine(info.pLine) % issuedPhys.size()];
                p = *e;
                p.line = info.pLine;
            }
            if (info.hadDemandWaiter) {
                // Late: the demand was already waiting. Mildly bad —
                // drain credit, but leave PSEL alone (a late prefetch
                // still cut the miss latency).
                ++stats.lateFeedback;
                creditAdjust(e->ip, e->child, -1);
            }
        }
    }
    if (info.evictedUnusedPrefetch && info.evictedPLine != kNoAddr) {
        if (IssueEntry *e = lookupPhysical(info.evictedPLine)) {
            ++stats.uselessFeedback;
            creditAdjust(e->ip, e->child, -1);
            pselAdjust(static_cast<DuelRole>(e->role), e->child,
                       /*toward=*/false);
            e->valid = false;
        }
    }

    for (auto &child : children)
        child->onFill(info);
}

void
HybridPrefetcher::tick()
{
    for (auto &child : children)
        child->tick();
}

std::uint64_t
HybridPrefetcher::storageBits() const
{
    std::uint64_t bits = 0;
    for (const auto &child : children)
        bits += child->storageBits();
    // Attribution maps: truncated 32-bit line tag + child (2) + role
    // (2) + 16-bit IP hash tag, per entry, both v- and p-keyed.
    bits += 2ull * kAttributionEntries * (32 + 2 + 2 + 16);
    if (policy == HybridSelect::Ip) {
        bits += std::uint64_t{kCreditEntries} *
                (16 + kMaxHybridChildren * kCreditBits);
        bits += std::uint64_t{kAttributionEntries} *
                (32 + 2 + 2 + 16);  // shadow table
    }
    if (policy == HybridSelect::Duel)
        bits += kPselBits;
    return bits;
}

std::string
HybridPrefetcher::debugState() const
{
    std::ostringstream os;
    os << canonical << ": forwarded " << stats.forwarded << "/"
       << stats.proposals << " proposals, suppressed "
       << stats.suppressed << ", budget-dropped " << stats.budgetDropped;
    if (policy == HybridSelect::Duel)
        os << ", psel " << psel << " (winner child " << duelWinner()
           << ")";
    for (std::size_t c = 0; c < children.size(); ++c) {
        std::string child_state = children[c]->debugState();
        if (!child_state.empty())
            os << "\n  child" << c << " " << child_state;
    }
    return os.str();
}

void
HybridPrefetcher::registerMetrics(obs::MetricsRegistry &registry,
                                  const std::string &prefix)
{
    Prefetcher::registerMetrics(registry, prefix);
    forEachStatField(stats, [&](const char *name, std::uint64_t &cell) {
        registry.counter(prefix + "hybrid." + name, &cell);
    });
    if (policy == HybridSelect::Duel) {
        registry.gauge(prefix + "hybrid.psel",
                       [this] { return static_cast<double>(psel); });
    }
    for (std::size_t c = 0; c < children.size(); ++c) {
        children[c]->registerMetrics(
            registry, prefix + "child" + std::to_string(c) + ".");
    }
}

bool
HybridPrefetcher::checkpointSupported() const
{
    for (const auto &child : children) {
        if (!child->checkpointSupported())
            return false;
    }
    return true;
}

namespace
{

constexpr std::uint32_t kHybridTag = 0x48594252;  // "HYBR"

using Stats = HybridPrefetcher::Stats;
constexpr StatField<Stats> kHybridFields[] = {
    {"proposals", &Stats::proposals},
    {"forwarded", &Stats::forwarded},
    {"suppressed", &Stats::suppressed},
    {"deduplicated", &Stats::deduplicated},
    {"budget_dropped", &Stats::budgetDropped},
    {"useful_feedback", &Stats::usefulFeedback},
    {"useless_feedback", &Stats::uselessFeedback},
    {"late_feedback", &Stats::lateFeedback},
    {"shadow_hits", &Stats::shadowHits},
};

} // namespace

std::span<const StatField<HybridPrefetcher::Stats>>
HybridPrefetcher::Stats::fields()
{
    return kHybridFields;
}

void
HybridPrefetcher::visitState(sim::StateIO &io)
{
    io.tag(kHybridTag, "hybrid selector state");
    io.u32(psel);
    io.stats("stats", stats);

    auto issue_table = [&io](const char *name,
                             std::vector<IssueEntry> &table) {
        io.fixed(name, table, [&io](IssueEntry &e) {
            io.b(e.valid);
            io.u64(e.line);
            io.u64(e.ip);
            io.u8(e.child);
            io.u8(e.role);
        });
    };
    issue_table("issued", issued);
    issue_table("issued_phys", issuedPhys);
    issue_table("shadow", shadow);

    io.fixed("credits", credits, [&io](CreditRow &row) {
        io.b(row.valid);
        io.u64(row.ip);
        io.each("credit", row.credit,
                [&io](std::uint8_t &credit) { io.u8(credit); });
    });

    for (std::size_t c = 0; c < children.size(); ++c) {
        io.section("child", c, [&] {
            io.tag(kHybridTag + 1 + static_cast<std::uint32_t>(c),
                   "hybrid child state");
            io.bridge(*children[c]);
        });
    }
}

} // namespace berti::prefetch
