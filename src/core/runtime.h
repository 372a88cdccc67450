/**
 * @file
 * RemoteMemoryRuntime: the application-facing contract shared by Kona
 * and the virtual-memory baselines.
 *
 * Applications (the workloads in src/workloads) interact with remote
 * memory exactly the way the paper's instrumented applications do:
 * they allocate through AllocLib-style calls and issue loads/stores
 * through the MemoryInterface, never seeing which bytes are local and
 * which are disaggregated.
 */

#ifndef KONA_CORE_RUNTIME_H
#define KONA_CORE_RUNTIME_H

#include <string>

#include "common/sim_clock.h"
#include "common/types.h"
#include "mem/memory_interface.h"

namespace kona {

class TimeSeriesSampler;
class TraceSession;

/** Cross-runtime statistics snapshot. */
struct RuntimeStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;

    std::uint64_t remoteFetches = 0;     ///< pages pulled from the rack
    std::uint64_t majorFaults = 0;       ///< fetch page faults (VM only)
    std::uint64_t minorFaults = 0;       ///< write-protect faults (VM only)
    std::uint64_t tlbShootdowns = 0;     ///< (VM only)

    std::uint64_t pagesEvicted = 0;
    std::uint64_t silentEvictions = 0;   ///< clean pages dropped
    std::uint64_t dirtyLinesWritten = 0; ///< lines shipped at eviction
    std::uint64_t evictionBytesOnWire = 0;

    std::uint64_t retries = 0;           ///< backoff retries, all paths
    std::uint64_t retransmits = 0;       ///< payloads re-sent (drop/NAK)
    std::uint64_t replicaPromotions = 0; ///< fetch fail-overs (§4.5)

    /** Amplification of eviction traffic: wire bytes / dirty bytes. */
    double
    evictionAmplification() const
    {
        std::uint64_t dirtyBytes = dirtyLinesWritten * cacheLineSize;
        if (dirtyBytes == 0)
            return 0.0;
        return static_cast<double>(evictionBytesOnWire) /
               static_cast<double>(dirtyBytes);
    }
};

/** A transparent remote-memory runtime. */
class RemoteMemoryRuntime : public MemoryInterface
{
  public:
    /**
     * AllocLib entry point: allocate @p size bytes of (transparently
     * remote) memory. Fatal when the rack is exhausted.
     */
    virtual Addr allocate(std::size_t size, std::size_t align = 16) = 0;

    /** Release an allocation. */
    virtual void deallocate(Addr addr) = 0;

    /**
     * Flush everything dirty back to the rack (end of run / shutdown).
     * Afterwards the memory nodes hold a byte-exact image.
     */
    virtual void writebackAll() = 0;

    /** Simulated time consumed on the application's critical path. */
    virtual Tick elapsed() const = 0;

    /** Runtime statistics snapshot. */
    virtual RuntimeStats stats() const = 0;

    virtual std::string name() const = 0;

    /**
     * The runtime's span tracer (enable() it to start recording);
     * nullptr when the runtime is not instrumented.
     */
    virtual TraceSession *traceSession() { return nullptr; }

    /**
     * Tick @p sampler from the runtime's access loop so it can close
     * sim-time windows. Pass nullptr to detach. Default: unsupported.
     */
    virtual void setTimeSeriesSampler(TimeSeriesSampler *sampler)
    {
        (void)sampler;
    }
};

} // namespace kona

#endif // KONA_CORE_RUNTIME_H
