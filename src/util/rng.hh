/**
 * @file
 * Deterministic pseudo-random number generator used everywhere a random
 * choice is made (trace issue-time sampling, synthetic workload data).
 *
 * The paper stresses that "repetitive simulations performed with the
 * same trace are completely identical"; a self-contained, seeded
 * generator (xoshiro256**) guarantees the same property across
 * platforms and standard-library versions.
 */

#ifndef SAC_UTIL_RNG_HH
#define SAC_UTIL_RNG_HH

#include <cstdint>

namespace sac {
namespace util {

/**
 * xoshiro256** generator with splitmix64 seeding. Satisfies the C++
 * UniformRandomBitGenerator concept so it can also feed <random>
 * distributions, although the helpers below are preferred for
 * reproducibility.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed; equal seeds give equal streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Smallest value next() can return. */
    static constexpr result_type min() { return 0; }
    /** Largest value next() can return. */
    static constexpr result_type
    max()
    {
        return ~static_cast<result_type>(0);
    }

    /** Next raw 64-bit draw. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);

        return result;
    }

    /** UniformRandomBitGenerator interface. */
    result_type operator()() { return next(); }

    /** Uniform integer in [0, bound), bound > 0 (unbiased). */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t nextInRange(std::int64_t lo, std::int64_t hi);

    /** Uniform integer in [0, 2^53): the draw behind nextDouble(). */
    std::uint64_t next53() { return next() >> 11; }

    /** Uniform double in [0, 1): next53() scaled by 2^-53, exactly. */
    double nextDouble() { return toUnit(next53()); }

    /** The nextDouble() value of the next53() draw @p k. */
    static double
    toUnit(std::uint64_t k)
    {
        return static_cast<double>(k) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p of returning true. */
    bool nextBool(double p);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace util
} // namespace sac

#endif // SAC_UTIL_RNG_HH
