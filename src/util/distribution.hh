/**
 * @file
 * Empirical discrete distributions: sampling (used by the Figure-4b
 * issue-time model) and histogram accumulation (used by every trace
 * profiler that reports a distribution of references among buckets).
 */

#ifndef SAC_UTIL_DISTRIBUTION_HH
#define SAC_UTIL_DISTRIBUTION_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/rng.hh"

namespace sac {
namespace util {

/**
 * A discrete distribution over arbitrary integer outcomes with given
 * relative weights; samples with a precomputed cumulative table.
 */
class DiscreteDistribution
{
  public:
    /** One possible outcome and its (relative, unnormalized) weight. */
    struct Outcome
    {
        std::int64_t value;
        double weight;
    };

    /** Build from outcomes; total weight must be positive. */
    explicit DiscreteDistribution(std::vector<Outcome> outcomes);

    /**
     * Draw the index of one outcome using the supplied generator.
     * The index is the number of cumulative bounds at or below the
     * uniform draw u = rng.nextDouble(), which is exactly the position
     * std::upper_bound would find. A table over the top 8 of u's 53
     * bits answers every bucket that no bound falls inside; the rest
     * count the bounds without branches. One generator step per draw.
     */
    std::size_t
    sampleIndex(Rng &rng) const
    {
        const std::uint64_t k = rng.next53();
        const std::uint8_t hit = bucket_[k >> bucketShift];
        return hit != ambiguous ? hit : indexOf(Rng::toUnit(k));
    }

    /** Draw one outcome value using the supplied generator. */
    std::int64_t
    sample(Rng &rng) const
    {
        return outcomes_[sampleIndex(rng)].value;
    }

    /** Probability mass of outcome index @p i (normalized). */
    double probability(std::size_t i) const;

    /** Number of distinct outcomes. */
    std::size_t size() const { return outcomes_.size(); }

    /** Outcome value at index @p i. */
    std::int64_t value(std::size_t i) const { return outcomes_[i].value; }

    /** Expected value of the distribution. */
    double mean() const;

  private:
    /** Table bucket of a next53() draw: its top 8 bits. */
    static constexpr int bucketShift = 45;
    /** bucket_ entry of a bucket that holds a cumulative bound. */
    static constexpr std::uint8_t ambiguous = 0xff;

    /** Outcome index of uniform draw @p u (the branchless count). */
    std::size_t
    indexOf(double u) const
    {
        std::size_t idx = 0;
        for (const double c : cumulative_)
            idx += c <= u ? 1 : 0;
        return idx < outcomes_.size() ? idx : outcomes_.size() - 1;
    }

    std::vector<Outcome> outcomes_;
    std::vector<double> cumulative_; // normalized, ends at 1.0
    /** Per bucket: the index every draw in it maps to, or ambiguous. */
    std::array<std::uint8_t, 256> bucket_{};
};

/**
 * A histogram over half-open value ranges [bound[i-1], bound[i]), used
 * to reproduce the paper's "distribution of references among ..."
 * figures. The first bucket is (-inf, bound[0]) and a final implicit
 * bucket covers [bound[n-1], +inf).
 */
class BucketHistogram
{
  public:
    /**
     * @param upper_bounds strictly increasing exclusive upper bounds;
     *        one extra overflow bucket is appended automatically
     * @param labels human-readable label per bucket (size() + 1 of
     *        upper_bounds), used by formatting helpers
     */
    BucketHistogram(std::vector<std::int64_t> upper_bounds,
                    std::vector<std::string> labels);

    /** Add @p weight to the bucket containing @p value. */
    void add(std::int64_t value, double weight = 1.0);

    /** Number of buckets (bounds + overflow). */
    std::size_t size() const { return counts_.size(); }

    /** Raw accumulated weight of bucket @p i. */
    double count(std::size_t i) const { return counts_[i]; }

    /** Fraction of total weight in bucket @p i (0 if histogram empty). */
    double fraction(std::size_t i) const;

    /** Label of bucket @p i. */
    const std::string &label(std::size_t i) const { return labels_[i]; }

    /** Total accumulated weight. */
    double total() const { return total_; }

  private:
    std::vector<std::int64_t> bounds_;
    std::vector<std::string> labels_;
    std::vector<double> counts_;
    double total_ = 0.0;
};

} // namespace util
} // namespace sac

#endif // SAC_UTIL_DISTRIBUTION_HH
