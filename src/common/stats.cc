#include "common/stats.h"

#include <cmath>

#include "common/logging.h"

namespace kona {

void
IntDistribution::record(std::uint64_t value, std::uint64_t weight)
{
    buckets_[value] += weight;
    samples_ += weight;
    weightedSum_ += value * weight;
}

double
IntDistribution::mean() const
{
    if (samples_ == 0)
        return 0.0;
    return static_cast<double>(weightedSum_) /
           static_cast<double>(samples_);
}

double
IntDistribution::cdfAt(std::uint64_t v) const
{
    if (samples_ == 0)
        return 0.0;
    std::uint64_t below = 0;
    for (const auto &[value, count] : buckets_) {
        if (value > v)
            break;
        below += count;
    }
    return static_cast<double>(below) / static_cast<double>(samples_);
}

std::uint64_t
IntDistribution::quantile(double q) const
{
    KONA_ASSERT(q > 0.0 && q <= 1.0, "quantile out of range");
    KONA_ASSERT(samples_ > 0, "quantile of empty distribution");
    auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(samples_)));
    std::uint64_t running = 0;
    for (const auto &[value, count] : buckets_) {
        running += count;
        if (running >= target)
            return value;
    }
    return buckets_.rbegin()->first;
}

} // namespace kona
