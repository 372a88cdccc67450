/**
 * @file
 * CoherenceAgent: the compute-node side of the inter-node coherence
 * protocol. One agent is embedded in each KonaRuntime participating in
 * a multi-node rack; it sits on the access hot path (ensureAccess) and
 * talks to the rack DirectoryService:
 *
 *  - before a load touches a governed line, the agent holds at least
 *    Shared rights on the page;
 *  - before a store, it holds Modified (exclusive) rights, upgrading
 *    or invalidating other holders through the directory;
 *  - a remote invalidation (onInvalidate) snoops the local CPU cache
 *    hierarchy, flushes the page's dirty lines through the runtime's
 *    async eviction pipeline, and drops the FMem copy, so the next
 *    holder refetches fresh bytes;
 *  - any page drop — remote invalidation OR ordinary capacity
 *    eviction — releases the rights back to the directory via the
 *    FPGA's drop hook, carrying the agent's stale-home view so the
 *    federation of gray-failure knowledge survives ownership changes.
 *
 * Pages outside the governed (shared-region) ranges are ignored:
 * private heaps pay a single predicted-taken branch and no directory
 * traffic, which is how single-node throughput stays within noise of
 * the pre-coherence runtime.
 */

#ifndef KONA_COHERENCE_AGENT_H
#define KONA_COHERENCE_AGENT_H

#include <unordered_map>
#include <utility>
#include <vector>

#include "coherence/directory.h"
#include "net/shard_gate.h"

namespace kona {

class CacheHierarchy;
class CoherentFpga;
class EvictionHandler;

/** Per-runtime protocol endpoint. */
class CoherenceAgent : public CoherencePeer
{
  public:
    /**
     * @param node    The owning runtime's compute-node id (the
     *                agent's identity at the directory).
     * @param retry   Backoff discipline for denied acquires; copied
     *                (RetryState keeps a reference into the copy).
     */
    CoherenceAgent(DirectoryService &directory, NodeId node,
                   CoherentFpga &fpga, CacheHierarchy &hierarchy,
                   EvictionHandler &evictor, RetryPolicy retry,
                   MetricScope scope = {});

    NodeId node() const { return node_; }

    /** Put [vfmemBase, +bytes) under coherence governance. */
    void addGovernedRange(Addr vfmemBase, std::size_t bytes);

    /** Whether VFMem page @p vpn is coherence-governed. */
    bool governs(Addr vpn) const;

    /**
     * Hot-path hook, called once per cache-line access before the
     * line is served: acquires/upgrades directory rights when the
     * line is governed and the current rights are insufficient.
     * Denied acquires (faulted fabric) back off and retry on
     * @p clock; exhausting the retry budget is fatal.
     */
    void
    ensureAccess(Addr lineAddr, AccessType type, SimClock &clock)
    {
        Addr vpn = pageNumber(lineAddr);
        if (!governs(vpn))
            return;
        // Gated even on cached-rights hits: a rights check must be
        // ordered in simulated time against the peers' invalidations
        // of this page, so every governed touch of the rights table
        // is a section in the canonical order.
        ShardSection section(gate_, GateEvent::Coherence);
        std::uint64_t bit = std::uint64_t(1) << lineInPage(lineAddr);
        auto it = pages_.find(vpn);
        if (it != pages_.end()) {
            it->second.touched |= bit;
            if (type != AccessType::Write || it->second.exclusive)
                return;
        }
        acquire(vpn, bit, type == AccessType::Write, clock);
    }

    // --- CoherencePeer -----------------------------------------------

    /** Remote invalidation, on the requester's thread: wait for this
     *  node's shard to park, then snoop CPU caches, flush dirty lines
     *  through the eviction pipeline, drop the page and rights. */
    InvalidateResult onInvalidate(Addr vpn, SimClock &clock) override;

    /**
     * The FPGA dropped @p vpn from FMem (invalidation or ordinary
     * capacity eviction): release rights to the directory, reporting
     * the drop-time stale-home view. Wired to CoherentFpga's drop
     * hook by KonaRuntime::attachCoherence.
     */
    void onPageDropped(Addr vpn);

    // --- introspection -----------------------------------------------

    /** Rights currently held: 0 none, 1 Shared, 2 Modified. */
    int rightsOn(Addr vpn) const;
    std::size_t pagesHeld() const { return pages_.size(); }

    std::uint64_t acquires() const { return acquires_.value(); }
    std::uint64_t acquireRetries() const { return retries_.value(); }
    std::uint64_t invalidationsReceived() const
    {
        return invalsReceived_.value();
    }
    /** Invalidations that found dirty/stale lines to write back. */
    std::uint64_t forcedWritebacks() const
    {
        return forcedWritebacks_.value();
    }
    /** Grants that seeded stale-home knowledge from the directory. */
    std::uint64_t staleSeedsApplied() const { return staleSeeds_.value(); }

    /**
     * Parallel engine: directory acquires/releases and the rights
     * table are cross-shard state; ensureAccess opens a Coherence
     * section when bound. Default endpoint = sequential, zero cost.
     */
    void setGateEndpoint(const GateEndpoint &ep) { gate_ = ep; }

  private:
    struct LocalPage
    {
        bool exclusive = false;
        std::uint64_t touched = 0;   ///< lines this node accessed
    };

    void acquire(Addr vpn, std::uint64_t bit, bool exclusive,
                 SimClock &clock);

    DirectoryService &directory_;
    NodeId node_;
    CoherentFpga &fpga_;
    CacheHierarchy &hierarchy_;
    EvictionHandler &evictor_;
    GateEndpoint gate_;
    RetryPolicy retry_;
    MetricScope scope_;

    /** Sorted, disjoint governed vpn ranges [first, second). */
    std::vector<std::pair<Addr, Addr>> ranges_;
    std::unordered_map<Addr, LocalPage> pages_;
    std::uint64_t retrySeed_;

    Counter &acquires_;
    Counter &retries_;
    Counter &invalsReceived_;
    Counter &forcedWritebacks_;
    Counter &staleSeeds_;
    LatencyHistogram &acquireBackoffNs_;
};

} // namespace kona

#endif // KONA_COHERENCE_AGENT_H
