/**
 * @file
 * Statistics primitives used across the reproduction: scalar counters
 * and integer-bucket distributions with CDF extraction (Figs 2 and 3).
 */

#ifndef KONA_COMMON_STATS_H
#define KONA_COMMON_STATS_H

#include <cstdint>
#include <map>

namespace kona {

/** A monotonically increasing named counter. */
class Counter
{
  public:
    Counter() = default;

    void add(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Distribution over small integer values (e.g. "number of accessed
 * cache-lines in a page", always in [0, 64]). Stores exact bucket counts:
 * Figs 2 and 3 plot a CDF at every integer in [0, 64], which the
 * registry's log2-bucketed LatencyHistogram cannot resolve.
 */
class IntDistribution
{
  public:
    void record(std::uint64_t value, std::uint64_t weight = 1);

    std::uint64_t samples() const { return samples_; }
    std::uint64_t totalWeight() const { return samples_; }

    /** Mean of the recorded values. */
    double mean() const;

    /** Fraction of samples with value <= @p v (the CDF at v). */
    double cdfAt(std::uint64_t v) const;

    /** Smallest value v with cdfAt(v) >= @p q, for q in (0, 1]. */
    std::uint64_t quantile(double q) const;

    const std::map<std::uint64_t, std::uint64_t> &buckets() const
    {
        return buckets_;
    }

  private:
    std::map<std::uint64_t, std::uint64_t> buckets_;
    std::uint64_t samples_ = 0;
    std::uint64_t weightedSum_ = 0;
};

/**
 * Fault-tolerance snapshot of a runtime and its rack (§4.5): how often
 * the recovery machinery fired and whether the system is currently
 * operating with less redundancy than configured.
 */
struct ReliabilityStats
{
    std::uint64_t retries = 0;           ///< backoff retries, all paths
    std::uint64_t retransmits = 0;       ///< CL logs re-sent (drop/NAK)
    std::uint64_t checksumFailures = 0;  ///< corrupt CL logs NAKed
    std::uint64_t replicaPromotions = 0; ///< fail-overs to a replica
    std::uint64_t nodesFailed = 0;       ///< permanent node losses seen
    std::uint64_t slabsRebuilt = 0;      ///< replacement copies created
    std::uint64_t slabsLost = 0;         ///< no surviving copy existed
    bool degraded = false;               ///< running below redundancy
};

} // namespace kona

#endif // KONA_COMMON_STATS_H
