/**
 * @file
 * Hashed-perceptron branch predictor (Table II of the paper uses the
 * hashed-perceptron predictor of Jiménez & Lin). Several weight tables
 * are indexed by hashes of the IP with different global-history slices;
 * the prediction is the sign of the summed weights.
 */

#ifndef BERTI_CPU_BRANCH_PREDICTOR_HH
#define BERTI_CPU_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace berti
{

namespace sim
{
class StateIO;
} // namespace sim

class BranchPredictor
{
  public:
    struct Config
    {
        unsigned tables = 8;
        unsigned entriesPerTable = 1024;  //!< power of two
        int weightMax = 31;               //!< 6-bit signed weights
        int theta = 24;                   //!< training threshold
    };

    BranchPredictor() : BranchPredictor(Config{}) {}
    explicit BranchPredictor(const Config &cfg);

    /** Predict the direction of the branch at ip. */
    bool predict(Addr ip) const;

    /** Train with the actual outcome and shift the global history. */
    void update(Addr ip, bool taken);

    /** Checkpoint walk: global history + all weight tables. */
    void visitState(sim::StateIO &io);

  private:
    int sum(Addr ip) const;
    std::size_t index(Addr ip, unsigned table) const;

    Config cfg;
    std::uint64_t history = 0;
    std::vector<std::int8_t> weights;  //!< tables * entriesPerTable
};

} // namespace berti

#endif // BERTI_CPU_BRANCH_PREDICTOR_HH
