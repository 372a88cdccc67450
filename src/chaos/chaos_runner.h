/**
 * @file
 * ChaosRunner: executes one scripted ChaosScenario against a complete
 * Kona stack (fabric + controller + memory nodes + runtime + workload)
 * and reports tail latency, availability, and the final memory image.
 *
 * Determinism contract: a run is a pure function of (scenario, seed).
 * The fault-free oracle of a scenario is the same run with *no* events
 * applied — fault events obviously, but also membership events, which
 * are content-neutral by design (drain/hot-add migrate copies without
 * changing a single application byte). The content oracle therefore
 * asserts the strongest possible property: the final image under
 * chaos is byte-identical to the image of an undisturbed run.
 */

#ifndef KONA_CHAOS_CHAOS_RUNNER_H
#define KONA_CHAOS_CHAOS_RUNNER_H

#include <cstdint>
#include <vector>

#include "chaos/chaos_scenario.h"
#include "core/kona_runtime.h"

namespace kona {

/**
 * The HealthPolicy chaos runs install: quicker to react than the
 * conservative defaults (fewer warm-up samples, shorter probation) so
 * scenario-length windows exercise the full membership state machine.
 */
HealthPolicy chaosHealthPolicy();

/** Knobs of one chaos run. */
struct ChaosRunConfig
{
    std::uint64_t seed = 0x5eedULL; ///< drives the fault injector
    bool faultFree = false;         ///< oracle mode: apply no events
    Tick sloNs = 100'000;           ///< per-op latency SLO (100us):
                                    ///< a degraded or timed-out fetch
                                    ///< breaches it, a healthy remote
                                    ///< miss does not
    HealthPolicy health = chaosHealthPolicy();
    MetricScope scope = {};         ///< telemetry scope for the stack

    /**
     * Optional time-series sampler: attached to the stack's registry
     * after setup (so all lazily-created metrics exist) and ticked on
     * the app clock; the trailing partial window is closed before the
     * report is returned.
     */
    TimeSeriesSampler *sampler = nullptr;
};

/** Everything a scenario run produced. */
struct ChaosReport
{
    std::vector<std::uint8_t> image; ///< final mapped-memory bytes
    std::uint64_t opsDone = 0;
    double meanOpNs = 0.0;
    double p99OpNs = 0.0;            ///< p99 per-op latency (AMAT proxy)
    double availability = 1.0;       ///< fraction of ops within sloNs

    ReliabilityStats reliability;
    std::uint64_t hedgedReads = 0;
    std::uint64_t prefetchReplicaFallbacks = 0;
    std::uint64_t evacuateDrainStalls = 0;
    std::uint64_t staleCopyMarks = 0;
    std::uint64_t membershipEpoch = 0;
    std::size_t finalNodeCount = 0;

    bool drained = false;            ///< a Drain event executed
    RebuildReport drainReport;
    bool hotAdded = false;           ///< a HotAdd event executed
    RebuildReport hotAddReport;

    /** The rack's structured event journal, oldest first. */
    std::vector<JournalEvent> journal;

    /** Attribution invariants (sum of components == total, exactly). */
    std::uint64_t missAttrSamples = 0;
    std::uint64_t missAttrTotalNs = 0;
    std::uint64_t missAttrOtherNs = 0;
    std::uint64_t shipAttrSamples = 0;
    std::uint64_t shipAttrTotalNs = 0;
    std::uint64_t shipAttrOtherNs = 0;
};

/** Run @p scenario under @p config and collect the report. */
ChaosReport runChaosScenario(const ChaosScenario &scenario,
                             const ChaosRunConfig &config = {});

} // namespace kona

#endif // KONA_CHAOS_CHAOS_RUNNER_H
