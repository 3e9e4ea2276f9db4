/**
 * @file
 * Cache replacement policies: LRU for the L1s, SRRIP and DRRIP (paper
 * Table II uses SRRIP at L2 and DRRIP at the LLC).
 */

#ifndef BERTI_MEM_REPLACEMENT_HH
#define BERTI_MEM_REPLACEMENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/serialize.hh"

namespace berti
{

/** Which policy a cache uses. The values are folded into checkpoint
 *  fingerprints, so they must never be renumbered. */
enum class ReplKind
{
    Lru = 0,
    Srrip = 2,
    Drrip = 3
};

/**
 * Per-cache replacement state. The cache asks for a victim way only when
 * no invalid way exists in the set.
 */
class ReplPolicy
{
  public:
    virtual ~ReplPolicy() = default;

    /** Pick the victim way within set. All ways are valid. */
    virtual unsigned victim(unsigned set) = 0;

    /** A lookup hit way. */
    virtual void onHit(unsigned set, unsigned way) = 0;

    /** A line was installed into way. */
    virtual void onFill(unsigned set, unsigned way, bool prefetch) = 0;

    virtual std::string name() const = 0;

    /** Checkpoint walk over the full replacement state. The restoring
     *  policy must have identical geometry (same cache). */
    virtual void visitState(sim::StateIO &io) = 0;
};

/** Factory. */
std::unique_ptr<ReplPolicy> makeReplPolicy(ReplKind kind, unsigned sets,
                                           unsigned ways);

/** True-LRU with per-way age stamps. */
class LruPolicy : public ReplPolicy
{
  public:
    LruPolicy(unsigned sets, unsigned ways);
    unsigned victim(unsigned set) override;
    void onHit(unsigned set, unsigned way) override;
    void onFill(unsigned set, unsigned way, bool prefetch) override;
    std::string name() const override { return "lru"; }
    void visitState(sim::StateIO &io) override;

  private:
    void touch(unsigned set, unsigned way);

    unsigned ways;
    std::uint64_t tick = 0;
    std::vector<std::uint64_t> stamp;  //!< sets * ways
};

/** Static RRIP with 2-bit re-reference prediction values. */
class SrripPolicy : public ReplPolicy
{
  public:
    SrripPolicy(unsigned sets, unsigned ways);
    unsigned victim(unsigned set) override;
    void onHit(unsigned set, unsigned way) override;
    void onFill(unsigned set, unsigned way, bool prefetch) override;
    std::string name() const override { return "srrip"; }
    void visitState(sim::StateIO &io) override;

  protected:
    static constexpr std::uint8_t kMaxRrpv = 3;

    unsigned ways;
    std::vector<std::uint8_t> rrpv;
};

/**
 * Dynamic RRIP: set-dueling between SRRIP insertion and bimodal (mostly
 * distant) insertion, with follower sets obeying a PSEL counter.
 */
class DrripPolicy : public SrripPolicy
{
  public:
    DrripPolicy(unsigned sets, unsigned ways);
    void onFill(unsigned set, unsigned way, bool prefetch) override;
    std::string name() const override { return "drrip"; }
    void visitState(sim::StateIO &io) override;

  private:
    enum class SetRole : std::uint8_t { SrripLeader, BrripLeader, Follower };

    SetRole role(unsigned set) const;

    unsigned sets;
    int psel = 0;               //!< >0 favours SRRIP
    std::uint32_t bipCounter = 0;
};

} // namespace berti

#endif // BERTI_MEM_REPLACEMENT_HH
