/**
 * @file
 * CoherenceAgent implementation. The invalidation path is the heart:
 * it reuses the CPU-cache snoop and the async eviction pipeline so a
 * coherence writeback is bit-for-bit the same machinery as a capacity
 * eviction — the protocol adds ordering, not a second data path.
 */

#include "coherence/agent.h"

#include <algorithm>
#include <bit>

#include "cache/hierarchy.h"
#include "common/logging.h"
#include "core/eviction_handler.h"
#include "fpga/coherent_fpga.h"

namespace kona {

CoherenceAgent::CoherenceAgent(DirectoryService &directory, NodeId node,
                               CoherentFpga &fpga,
                               CacheHierarchy &hierarchy,
                               EvictionHandler &evictor,
                               RetryPolicy retry, MetricScope scope)
    : directory_(directory), node_(node), fpga_(fpga),
      hierarchy_(hierarchy), evictor_(evictor), retry_(retry),
      scope_(std::move(scope)),
      retrySeed_(0xc011ULL + std::uint64_t(node) * 0x9e3779b97f4a7c15ULL),
      acquires_(scope_.counter("acquires")),
      retries_(scope_.counter("acquire_retries")),
      invalsReceived_(scope_.counter("invalidations_received")),
      forcedWritebacks_(scope_.counter("forced_writebacks")),
      staleSeeds_(scope_.counter("stale_seeds_applied")),
      acquireBackoffNs_(scope_.histogram("acquire_backoff_ns"))
{}

void
CoherenceAgent::addGovernedRange(Addr vfmemBase, std::size_t bytes)
{
    KONA_ASSERT(bytes > 0, "empty governed range");
    Addr first = pageNumber(vfmemBase);
    Addr last = pageNumber(vfmemBase + bytes - 1) + 1;
    ranges_.emplace_back(first, last);
    std::sort(ranges_.begin(), ranges_.end());
}

bool
CoherenceAgent::governs(Addr vpn) const
{
    // First range starting past vpn; the candidate is its predecessor.
    auto it = std::upper_bound(
        ranges_.begin(), ranges_.end(), vpn,
        [](Addr v, const auto &r) { return v < r.first; });
    if (it == ranges_.begin())
        return false;
    --it;
    return vpn < it->second;
}

void
CoherenceAgent::acquire(Addr vpn, std::uint64_t bit, bool exclusive,
                        SimClock &clock)
{
    RetryState retry(retry_, retrySeed_++);
    retry.bindTelemetry(&retries_, &acquireBackoffNs_);
    for (;;) {
        AcquireResult r =
            exclusive
                ? directory_.acquireExclusive(node_, vpn, bit, clock)
                : directory_.acquireShared(node_, vpn, bit, clock);
        if (r.granted) {
            acquires_.add();
            // Inherit the previous holder's gray-failure knowledge:
            // these homes miss lines, so fetches must skip them and
            // the next eviction must freshen them.
            for (const StaleHomeReport &s : r.staleHomes) {
                fpga_.markStaleHome(vpn, s.node, s.mask);
                staleSeeds_.add();
            }
            LocalPage &page = pages_[vpn];
            page.exclusive |= exclusive;
            page.touched |= bit;
            return;
        }
        if (!retry.shouldRetry()) {
            fatal("node ", node_, ": coherence acquire of vpn ", vpn,
                  " failed after ", retry.attempts(), " retries");
        }
        retry.backoff(clock);
    }
}

InvalidateResult
CoherenceAgent::onInvalidate(Addr vpn, SimClock &clock)
{
    // The park rule: this runs on the requester's thread, inside its
    // section. Wait until this node's own shard is parked (in enter(),
    // not yet begun, or finished) before touching its rights, caches
    // or FMem; it stays parked until the requester's section leaves.
    gate_.awaitParked();
    invalsReceived_.add();
    auto it = pages_.find(vpn);
    if (it == pages_.end())
        return {true, 0};        // rights already gone (raced a drop)

    if (!fpga_.pageResident(vpn)) {
        // Rights without a resident page: the FMem copy was already
        // evicted (its drop hook should have released); just let go.
        onPageDropped(vpn);
        return {true, 0};
    }

    // Writeback-on-invalidate: pull the page's lines out of the CPU
    // cache hierarchy first (dirty lines land in the FMem frame via
    // the writeback listener), then ship dirty|stale lines through
    // the async eviction pipeline and drop the frame. The drop hook
    // fires onPageDropped -> directory release reentrantly.
    hierarchy_.snoopPage(vpn);
    std::uint64_t mask = fpga_.dirtyMask(vpn) | fpga_.staleLines(vpn);
    bool released = evictor_.flushPage(vpn, clock);

    if (mask != 0)
        forcedWritebacks_.add();
    return {released, static_cast<std::uint64_t>(std::popcount(mask))};
}

void
CoherenceAgent::onPageDropped(Addr vpn)
{
    auto it = pages_.find(vpn);
    if (it == pages_.end() || !governs(vpn))
        return;

    std::vector<StaleHomeReport> staleView;
    if (const auto *homes = fpga_.staleHomesOf(vpn)) {
        staleView.reserve(homes->size());
        for (const auto &[home, mask] : *homes)
            staleView.push_back({home, mask});
        // Deterministic order regardless of hash-map iteration.
        std::sort(staleView.begin(), staleView.end(),
                  [](const auto &a, const auto &b) {
                      return a.node < b.node;
                  });
    }
    directory_.release(node_, vpn, it->second.touched, staleView);
    pages_.erase(it);
}

int
CoherenceAgent::rightsOn(Addr vpn) const
{
    auto it = pages_.find(vpn);
    if (it == pages_.end())
        return 0;
    return it->second.exclusive ? 2 : 1;
}

} // namespace kona
