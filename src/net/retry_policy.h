/**
 * @file
 * RetryPolicy: the one retry discipline shared by every remote-memory
 * path — the FPGA fetch path (KonaRuntime), the VM baselines'
 * fault/writeback paths, and the EvictionHandler's log shipping.
 *
 * Before this existed each path hand-rolled its own loop (fixed
 * backoff, ad-hoc attempt caps, or an immediate fatal). The shared
 * policy is exponential backoff with additive jitter and a total
 * simulated-time deadline: backoff never undershoots the configured
 * base (so tests can lower-bound charged time), jitter decorrelates
 * retry storms, and the deadline bounds how long an outage can hold
 * the application hostage before escalating.
 */

#ifndef KONA_NET_RETRY_POLICY_H
#define KONA_NET_RETRY_POLICY_H

#include <cstdint>

#include "common/rng.h"
#include "common/sim_clock.h"
#include "common/types.h"
#include "telemetry/metric_registry.h"

namespace kona {

/** Tunable retry discipline (per subsystem, usually per config). */
struct RetryPolicy
{
    Tick initialBackoffNs = 20'000;    ///< first backoff (20us)
    double backoffMultiplier = 2.0;    ///< exponential growth factor
    Tick maxBackoffNs = 2'000'000;     ///< backoff ceiling (2ms)
    /** Additive jitter: each backoff is scaled by a uniform factor in
     *  [1, 1 + jitterFraction], never below the deterministic base. */
    double jitterFraction = 0.2;
    std::size_t maxAttempts = 16;      ///< retry budget (0 = none)
    /** Total backoff budget in simulated ns; 0 disables the deadline. */
    Tick deadlineNs = 0;
};

/** Progress of one retried operation under a policy. */
class RetryState
{
  public:
    RetryState(const RetryPolicy &policy, std::uint64_t seed)
        : policy_(&policy), rng_(seed), nextBackoffNs_(
              policy.initialBackoffNs)
    {}

    /** Whether the policy allows another retry. */
    bool
    shouldRetry() const
    {
        if (attempts_ >= policy_->maxAttempts)
            return false;
        if (policy_->deadlineNs != 0 && spentNs_ >= policy_->deadlineNs)
            return false;
        return true;
    }

    /**
     * Attach telemetry sinks; every backoff() bumps @p retries and
     * records the charged wait in @p backoffNs. Either may be null.
     */
    void
    bindTelemetry(Counter *retries, LatencyHistogram *backoffNs)
    {
        retriesCounter_ = retries;
        backoffHist_ = backoffNs;
    }

    /** Charge the next backoff to @p clock and advance the schedule.
     *  @return The backoff charged, in ns. */
    Tick backoff(SimClock &clock);

    std::size_t attempts() const { return attempts_; }
    Tick spentNs() const { return spentNs_; }

  private:
    const RetryPolicy *policy_;   ///< must outlive the state
    Rng rng_;
    Tick nextBackoffNs_;
    std::size_t attempts_ = 0;
    Tick spentNs_ = 0;
    Counter *retriesCounter_ = nullptr;
    LatencyHistogram *backoffHist_ = nullptr;
};

} // namespace kona

#endif // KONA_NET_RETRY_POLICY_H
