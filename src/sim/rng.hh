/**
 * @file
 * Small deterministic xorshift-based pseudo-random generator. Every source
 * of randomness in the simulator (graph topology, page mapping, workload
 * mixes) flows through this class so runs are bit-reproducible.
 */

#ifndef BERTI_SIM_RNG_HH
#define BERTI_SIM_RNG_HH

#include <cmath>
#include <cstdint>

namespace berti
{

/**
 * xorshift64* generator. Deliberately not std::mt19937: we want a tiny,
 * header-visible, implementation-pinned generator whose sequences never
 * change across standard-library versions.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
        : state(seed ? seed : 0x9e3779b97f4a7c15ull)
    {}

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state * 0x2545f4914f6cdd1dull;
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        // Multiply-shift reduction; bias is negligible for simulator use.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p of true. */
    bool nextBool(double p) { return nextDouble() < p; }

  private:
    std::uint64_t state;
};

/**
 * Zipf-distributed integers in [0, n) with exponent s, used for
 * power-law graph degrees and hot-set accesses. Rejection-free
 * approximate inverse-CDF sampling for the bounded Zipf distribution,
 * accurate enough for synthetic workloads. The constants that depend
 * only on (n, s) are computed once here; each draw takes one
 * nextDouble() from the caller's Rng, or none when n <= 1.
 */
class ZipfDist
{
  public:
    ZipfDist(std::uint64_t n, double s)
        : n(n), harmonic(s == 1.0), oneMinusS(1.0 - s),
          invOneMinusS(1.0 / oneMinusS)
    {
        double dn = static_cast<double>(n);
        h = harmonic ? std::log(dn)
                     : (std::pow(dn, oneMinusS) - 1.0) / oneMinusS;
    }

    std::uint64_t
    operator()(Rng &rng) const
    {
        if (n <= 1)
            return 0;
        double u = rng.nextDouble();
        if (harmonic)
            return static_cast<std::uint64_t>(std::exp(u * h)) - 1;
        double x = std::pow(u * h * oneMinusS + 1.0, invOneMinusS);
        std::uint64_t v = static_cast<std::uint64_t>(x);
        return v >= n ? n - 1 : v;
    }

    /** Advance rng past one draw without computing its value. */
    void
    discard(Rng &rng) const
    {
        if (n > 1)
            rng.next();
    }

  private:
    std::uint64_t n;
    bool harmonic;        //!< s == 1: the log/exp form
    double oneMinusS;
    double invOneMinusS;
    double h;             //!< normalising constant of the inverse CDF
};

} // namespace berti

#endif // BERTI_SIM_RNG_HH
