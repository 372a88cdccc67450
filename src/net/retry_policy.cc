#include "net/retry_policy.h"

#include <limits>

namespace kona {

namespace {

/**
 * Convert a double-domain tick count back to Tick, saturating instead
 * of invoking the UB of an out-of-range float-to-integer cast. Large
 * attempt counts against a large maxBackoffNs can push the exponential
 * schedule past 2^63 in the double domain; the schedule must pin to
 * the ceiling, not wrap to a tiny wait.
 */
Tick
saturatingTicks(double ns)
{
    // The largest double exactly representable below 2^64.
    constexpr double tickLimit = 18446744073709549568.0;
    if (!(ns < tickLimit))
        return std::numeric_limits<Tick>::max();
    if (ns <= 0.0)
        return 0;
    return static_cast<Tick>(ns);
}

} // namespace

Tick
RetryState::backoff(SimClock &clock)
{
    double jitter = 1.0 + policy_->jitterFraction * rng_.uniform();
    Tick charged = saturatingTicks(
        static_cast<double>(nextBackoffNs_) * jitter);
    clock.advance(charged);
    spentNs_ = charged > std::numeric_limits<Tick>::max() - spentNs_
                   ? std::numeric_limits<Tick>::max()
                   : spentNs_ + charged;
    ++attempts_;
    if (retriesCounter_ != nullptr)
        retriesCounter_->add();
    if (backoffHist_ != nullptr)
        backoffHist_->record(static_cast<double>(charged));

    double grown = static_cast<double>(nextBackoffNs_) *
                   policy_->backoffMultiplier;
    nextBackoffNs_ = saturatingTicks(grown);
    if (nextBackoffNs_ > policy_->maxBackoffNs)
        nextBackoffNs_ = policy_->maxBackoffNs;
    return charged;
}

} // namespace kona
