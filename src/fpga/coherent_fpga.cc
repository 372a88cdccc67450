#include "fpga/coherent_fpga.h"

#include <algorithm>
#include <array>

#include "common/logging.h"
#include "policy/tiering_engine.h"

namespace kona {

CoherentFpga::CoherentFpga(Fabric &fabric, NodeId computeNode,
                           const FpgaConfig &config, MetricScope scope)
    : fabric_(fabric), computeNode_(computeNode), config_(config),
      scope_(std::move(scope)),
      fmem_(config.fmemSize, config.fmemAssociativity,
            scope_.sub("fmem"), config.victimPolicy),
      fmemStore_(config.fmemSize), poller_(fabric.latency()),
      prefetcher_(makePrefetcher(config.prefetchPolicy)),
      prefetchQueue_(config.prefetchQueueCapacity),
      prefetchCredits_(config.prefetchCreditRefillNs,
                       config.prefetchCreditBurst),
      remoteFetches_(scope_.counter("remote_fetches")),
      demandFetches_(scope_.counter("demand_fetches")),
      writebacksObserved_(scope_.counter("writebacks_observed")),
      fetchFailures_(scope_.counter("fetch_failures")),
      promotions_(scope_.counter("replica_promotions")),
      hedgedReads_(scope_.counter("hedged_reads")),
      prefetchReplicaFallback_(
          scope_.counter("prefetch.replica_fallback")),
      staleSkips_(scope_.counter("stale_home_skips")),
      prefetchPredicted_(scope_.counter("prefetch.predicted")),
      prefetchIssued_(scope_.counter("prefetch.issued")),
      prefetchUseful_(scope_.counter("prefetch.useful")),
      prefetchWasted_(scope_.counter("prefetch.wasted")),
      prefetchDroppedNoCredit_(
          scope_.counter("prefetch.dropped_no_credit")),
      prefetchDroppedNodeDown_(
          scope_.counter("prefetch.dropped_node_down")),
      prefetchDroppedSetFull_(
          scope_.counter("prefetch.dropped_set_full")),
      prefetchDroppedQueueFull_(
          scope_.counter("prefetch.dropped_queue_full")),
      prefetchDroppedGoverned_(
          scope_.counter("prefetch.dropped_governed")),
      fetchNs_(scope_.histogram("fetch_ns")),
      prefetchLeadNs_(scope_.histogram("prefetch.lead_ns"))
{
    KONA_ASSERT(config.vfmemSize % pageSize == 0,
                "VFMem window must be page aligned");
    KONA_ASSERT(config.vfmemBase % pageSize == 0,
                "VFMem base must be page aligned");
    KONA_ASSERT(config.fmemSize <= config.vfmemSize,
                "FMem larger than the VFMem window is pointless");
    // Dirty-aware victim policies ask the tag store which candidates
    // carry unwritten lines; the probe is only consulted when the
    // configured policy declares wantsDirty().
    fmem_.setDirtyProbe(
        [this](Addr vpn) { return dirtyLines_.pageMask(vpn) != 0; });
}

QueuePair &
CoherentFpga::qpTo(NodeId node)
{
    auto it = qps_.find(node);
    if (it == qps_.end()) {
        it = qps_.emplace(node,
                          std::make_unique<QueuePair>(
                              fabric_, computeNode_, node, cq_,
                              scope_.sub("qp" + std::to_string(node))))
                 .first;
    }
    return *it->second;
}

ServeStatus
CoherentFpga::serveLine(Addr lineAddr, AccessType type, SimClock &clock)
{
    (void)type;
    KONA_ASSERT(inVFMem(lineAddr), "serveLine outside VFMem: ",
                lineAddr);
    Span span(trace_, clock, "serve_line", "fpga");
    span.arg("addr", lineAddr);
    const LatencyConfig &lat = fabric_.latency();
    clock.advance(static_cast<Tick>(lat.vfmemDirectoryNs));
    if (missAttr_ != nullptr)
        missAttr_->charge(MissComponent::FmemCheck,
                          static_cast<Tick>(lat.vfmemDirectoryNs));

    Addr vpn = pageNumber(lineAddr);
    if (tiering_ != nullptr)
        tiering_->observe(vpn, clock.now());
    if (fmem_.lookup(vpn).has_value()) {
        clock.advance(static_cast<Tick>(lat.fmemNs));
        if (missAttr_ != nullptr)
            missAttr_->charge(MissComponent::FmemCheck,
                              static_cast<Tick>(lat.fmemNs));
        noteDemandTouch(vpn, clock);
        // Streaming accesses keep the prefetcher running even while
        // hitting in FMem (a fault-based runtime cannot: the
        // prefetcher never crosses a page fault, §4.4).
        maybePrefetch(vpn, /*demandMiss=*/false, clock);
        span.arg("outcome", "fmem_hit");
        return ServeStatus::FMemHit;
    }

    // Need to fetch the page; make room in the set first.
    auto victim = fmem_.victimFor(vpn);
    if (victim.has_value()) {
        KONA_ASSERT(static_cast<bool>(evictionCallback_),
                    "FMem set full and no eviction callback installed");
        const Tick evictStart = clock.now();
        evictionCallback_(*victim, clock);
        if (missAttr_ != nullptr)
            missAttr_->charge(MissComponent::Evict,
                              clock.now() - evictStart);
        if (fmem_.contains(victim->vfmemPage)) {
            // Eviction failed (all replicas unreachable); the fetch
            // cannot proceed without a frame.
            fetchFailures_.add();
            span.arg("outcome", "unavailable");
            return ServeStatus::RemoteUnavailable;
        }
    }

    Tick fetchStart = clock.now();
    if (!fetchPage(vpn, clock)) {
        fetchFailures_.add();
        span.arg("outcome", "unavailable");
        return ServeStatus::RemoteUnavailable;
    }
    fetchNs_.record(static_cast<double>(clock.now() - fetchStart));
    clock.advance(static_cast<Tick>(lat.fmemNs));
    if (missAttr_ != nullptr)
        missAttr_->charge(MissComponent::FmemCheck,
                          static_cast<Tick>(lat.fmemNs));
    maybePrefetch(vpn, /*demandMiss=*/true, clock);
    span.arg("outcome", "remote_fetch");
    return ServeStatus::RemoteFetch;
}

void
CoherentFpga::noteDemandTouch(Addr vpn, SimClock &clock)
{
    auto tag = fmem_.clearSpeculative(vpn);
    if (!tag.has_value())
        return;
    // Lead time from issue to first touch; the issue tick came off the
    // same demand-side clock, so the difference is well defined.
    Tick now = clock.now();
    Tick lead = now >= tag->tick ? now - tag->tick : 0;
    if (tag->origin == FillOrigin::Tier) {
        if (tiering_ != nullptr)
            tiering_->onPromotedUseful(vpn, lead);
        return;
    }
    prefetchUseful_.add();
    prefetchLeadNs_.record(static_cast<double>(lead));
    if (prefetcher_)
        prefetcher_->onPrefetchUseful(vpn);
}

void
CoherentFpga::reportHealth(NodeId node, bool ok, Tick latencyNs)
{
    if (healthReporter_)
        healthReporter_(node, ok, latencyNs);
}

void
CoherentFpga::markStaleHome(Addr vpn, NodeId node, std::uint64_t mask)
{
    staleHomes_[vpn][node] |= mask;
}

void
CoherentFpga::clearStaleHome(Addr vpn, NodeId node)
{
    auto it = staleHomes_.find(vpn);
    if (it == staleHomes_.end())
        return;
    it->second.erase(node);
    if (it->second.empty())
        staleHomes_.erase(it);
}

std::uint64_t
CoherentFpga::staleLines(Addr vpn) const
{
    auto it = staleHomes_.find(vpn);
    if (it == staleHomes_.end())
        return 0;
    std::uint64_t mask = 0;
    for (const auto &[node, lines] : it->second)
        mask |= lines;
    return mask;
}

bool
CoherentFpga::homeStale(Addr vpn, NodeId node) const
{
    auto it = staleHomes_.find(vpn);
    return it != staleHomes_.end() && it->second.count(node) > 0;
}

void
CoherentFpga::fetchOrder(const RemoteCopies &copies,
                         FetchOrder &order) const
{
    // Stable partition: preferred nodes first, original order within
    // each class (so the primary still leads among healthy copies and
    // promotion logic keyed on original indices stays meaningful). The
    // probe is asked once per copy, before any fetch reports health.
    std::uint64_t avoid = 0;
    for (std::size_t i = 0; i < copies.size(); ++i) {
        if (membershipProbe_ && membershipProbe_(copies[i].node))
            avoid |= std::uint64_t{1} << i;
    }
    std::size_t n = 0;
    for (std::uint64_t pass = 0; pass < 2; ++pass) {
        for (std::size_t i = 0; i < copies.size(); ++i) {
            if (((avoid >> i) & 1u) == pass)
                order[n++] = i;
        }
    }
}

bool
CoherentFpga::fetchPage(Addr vpn, SimClock &clock, FetchIntent intent,
                        Tick issueTick)
{
    // Cross-shard section: the fetch posts on the fabric, reads node
    // health/liveness, and feeds the Controller's failure detector.
    ShardSection section(gate_, GateEvent::Fetch);

    Addr vfmemAddr = vpn * pageSize;
    std::array<std::uint8_t, pageSize> staging;
    bool prefetch = intent == FetchIntent::Prefetch;
    bool speculative = intent != FetchIntent::Demand;

    // Prefetches run on the background clock; put their spans on the
    // background lane so the app-critical-path lane stays truthful.
    std::uint32_t lane = &clock == &backgroundClock_
                             ? traceBackgroundThread
                             : traceAppThread;
    Span span(trace_, clock, "fetch_page", "fpga", lane);
    span.arg("vpn", vpn);
    if (prefetch)
        span.arg("intent", "prefetch");
    else if (intent == FetchIntent::Tier)
        span.arg("intent", "tier");

    // Both intents walk all copies, hedged away from nodes the
    // membership probe says to avoid. A speculative fetch still never
    // promotes, warns, or retries — but it does report failures (gray
    // nodes must accumulate evidence even off the critical path) and
    // falls back to a replica instead of giving up.
    const RemoteCopies locations = translation_.translateAll(vfmemAddr);
    FetchOrder order;
    fetchOrder(locations, order);
    bool fetched = false;
    std::size_t servedBy = 0;   ///< original index of the copy served
    for (std::size_t k = 0; k < locations.size(); ++k) {
        std::size_t i = order[k];
        const RemoteLocation &loc = locations[i];
        if (homeStale(vpn, loc.node)) {
            // This copy missed an eviction shipment; its bytes are
            // stale until the next eviction freshens them. The node
            // itself is fine, so no health evidence.
            staleSkips_.add();
            continue;
        }
        if (fabric_.nodeDown(loc.node)) {
            // Skipping a down node is itself evidence for the failure
            // detector; without it a dead primary would never attract
            // op reports at all.
            reportHealth(loc.node, false);
            continue;
        }
        WorkRequest wr;
        wr.wrId = nextWrId_++;
        wr.opcode = RdmaOpcode::Read;
        wr.localBuf = staging.data();
        wr.remoteKey = loc.regionKey;
        wr.remoteAddr = loc.addr;
        wr.length = pageSize;
        Span rdma(trace_, clock, "rdma_read", "net", lane);
        rdma.arg("node", loc.node);
        rdma.arg("bytes", wr.length);
        Tick opStart = clock.now();
        PostResult posted = qpTo(loc.node).post(wr, clock);
        const Tick postDone = clock.now();
        if (!speculative && missAttr_ != nullptr)
            missAttr_->charge(MissComponent::Queueing,
                              postDone - opStart);
        if (!posted.ok()) {
            // Consume exactly the error CQEs this doorbell pushed.
            poller_.drain(cq_, clock, posted.cqesPushed);
            if (!speculative && missAttr_ != nullptr)
                missAttr_->charge(MissComponent::Retry,
                                  clock.now() - postDone);
            reportHealth(loc.node, false);
            continue;
        }
        poller_.waitOne(cq_, clock);
        if (!speculative && missAttr_ != nullptr)
            missAttr_->charge(MissComponent::Wire,
                              clock.now() - postDone);
        reportHealth(loc.node, true, clock.now() - opStart);
        if (!speculative && i > 0) {
            // Promote the replica we read from only when every
            // earlier copy sits on a node that is actually down
            // (§4.5). A transient drop or a hedge away from a merely
            // Suspect primary must not reshuffle the placement — the
            // primary gets another chance once it recovers.
            bool earlierAllDown = true;
            for (std::size_t j = 0; j < i; ++j)
                earlierAllDown &= fabric_.nodeDown(locations[j].node);
            if (earlierAllDown) {
                translation_.promoteReplica(vfmemAddr, i - 1);
                promotions_.add();
                warn("failed over VFMem page ", vpn, " to node ",
                     loc.node);
            }
        }
        fetched = true;
        servedBy = i;
        break;
    }
    if (!fetched) {
        if (prefetch)
            prefetchDroppedNodeDown_.add();
        return false;
    }
    if (servedBy != 0) {
        if (prefetch)
            prefetchReplicaFallback_.add();
        else if (!speculative &&
                 !fabric_.nodeDown(locations[0].node) &&
                 membershipProbe_ &&
                 membershipProbe_(locations[0].node)) {
            // The primary was alive but its membership state said to
            // avoid it: this read was hedged, not failed over.
            hedgedReads_.add();
        }
    }

    FillOrigin origin = FillOrigin::Demand;
    if (intent == FetchIntent::Prefetch)
        origin = FillOrigin::Prefetch;
    else if (intent == FetchIntent::Tier)
        origin = FillOrigin::Tier;
    std::size_t frame = fmem_.insert(vpn, origin, issueTick);
    fmemStore_.write(static_cast<Addr>(frame) * pageSize, staging.data(),
                     pageSize);
    remoteFetches_.add();
    if (!speculative)
        demandFetches_.add();
    return true;
}

bool
CoherentFpga::tierPromote(Addr vpn, Tick issueTick)
{
    Addr addr = vpn * pageSize;
    if (!inVFMem(addr) || !translation_.mapped(addr))
        return false;
    if (fmem_.contains(vpn))
        return false;
    if (pageGovernor_ && pageGovernor_(vpn))
        return false;   // promoting would bypass the rights check
    if (fmem_.victimFor(vpn).has_value())
        return false;   // promotion never evicts: set is full
    return fetchPage(vpn, backgroundClock_, FetchIntent::Tier,
                     issueTick);
}

void
CoherentFpga::maybePrefetch(Addr vpn, bool demandMiss, SimClock &clock)
{
    if (!prefetcher_)
        return;
    // Whatever the budget could not cover before this access missed
    // its window; a late prefetch is worse than none.
    prefetchDroppedNoCredit_.add(prefetchQueue_.clear());

    candidateBuf_.clear();
    prefetcher_->observe(vpn, demandMiss, candidateBuf_);
    prefetchPredicted_.add(candidateBuf_.size());
    for (Addr c : candidateBuf_) {
        Addr addr = c * pageSize;
        if (!inVFMem(addr) || !translation_.mapped(addr))
            continue;
        if (fmem_.contains(c) || prefetchQueue_.contains(c))
            continue;
        if (pageGovernor_ && pageGovernor_(c)) {
            // Coherence-governed page: a speculative fetch would
            // install bytes without the directory's rights check.
            prefetchDroppedGoverned_.add();
            continue;
        }
        if (!prefetchQueue_.push(c))
            prefetchDroppedQueueFull_.add();
    }

    prefetchCredits_.advanceTo(clock.now());
    std::size_t issued = 0;
    while (!prefetchQueue_.empty()) {
        Addr c = prefetchQueue_.front();
        if (fmem_.contains(c)) {
            prefetchQueue_.pop();   // raced with an earlier issue
            continue;
        }
        if (fmem_.victimFor(c).has_value()) {
            // Speculation never evicts: the set is full, give up.
            prefetchQueue_.pop();
            prefetchDroppedSetFull_.add();
            continue;
        }
        if (!prefetchCredits_.tryConsume())
            break;   // out of budget; leftovers are dropped next time
        prefetchQueue_.pop();
        if (fetchPage(c, backgroundClock_, FetchIntent::Prefetch,
                      clock.now())) {
            ++issued;
        }
    }
    if (issued > 0) {
        prefetchIssued_.add(issued);
        prefetcher_->onPrefetchIssued(issued);
    }
}

void
CoherentFpga::onLineRequest(Addr lineAddr, AccessType type)
{
    // Requests are served through serveLine() on the runtime's explicit
    // call; the listener hook exists for trace-driven counting uses.
    (void)lineAddr;
    (void)type;
}

void
CoherentFpga::onWriteback(Addr lineAddr)
{
    if (!inVFMem(lineAddr))
        return;
    writebacksObserved_.add();
    dirtyLines_.markLine(lineAddr);
}

void
CoherentFpga::readBytes(Addr vfmemAddr, void *buf, std::size_t size)
{
    auto *out = static_cast<std::uint8_t *>(buf);
    while (size > 0) {
        Addr vpn = pageNumber(vfmemAddr);
        std::size_t offset = vfmemAddr % pageSize;
        std::size_t chunk = std::min(size, pageSize - offset);
        auto frame = fmem_.frameOf(vpn);
        KONA_ASSERT(frame.has_value(),
                    "functional read of non-resident VFMem page ", vpn);
        fmemStore_.read(static_cast<Addr>(*frame) * pageSize + offset,
                        out, chunk);
        vfmemAddr += chunk;
        out += chunk;
        size -= chunk;
    }
}

void
CoherentFpga::writeBytes(Addr vfmemAddr, const void *buf,
                         std::size_t size)
{
    const auto *in = static_cast<const std::uint8_t *>(buf);
    while (size > 0) {
        Addr vpn = pageNumber(vfmemAddr);
        std::size_t offset = vfmemAddr % pageSize;
        std::size_t chunk = std::min(size, pageSize - offset);
        auto frame = fmem_.frameOf(vpn);
        KONA_ASSERT(frame.has_value(),
                    "functional write of non-resident VFMem page ", vpn);
        fmemStore_.write(static_cast<Addr>(*frame) * pageSize + offset,
                         in, chunk);
        vfmemAddr += chunk;
        in += chunk;
        size -= chunk;
    }
}

void
CoherentFpga::dropPage(Addr vpn)
{
    // A page leaving FMem with its speculative tag intact was never
    // demand-touched: the fill was wasted bandwidth, attributed to
    // whichever engine issued it.
    auto origin = fmem_.speculativeOrigin(vpn);
    if (origin == FillOrigin::Prefetch) {
        prefetchWasted_.add();
        if (prefetcher_)
            prefetcher_->onPrefetchWasted(vpn);
    } else if (origin == FillOrigin::Tier && tiering_ != nullptr) {
        tiering_->onPromotedWasted(vpn);
    }
    fmem_.remove(vpn);
    if (dropHook_)
        dropHook_(vpn);
}

PrefetchStats
CoherentFpga::prefetchStats() const
{
    PrefetchStats s;
    s.predicted = prefetchPredicted_.value();
    s.issued = prefetchIssued_.value();
    s.useful = prefetchUseful_.value();
    s.wasted = prefetchWasted_.value();
    s.droppedNoCredit = prefetchDroppedNoCredit_.value();
    s.droppedNodeDown = prefetchDroppedNodeDown_.value();
    s.droppedSetFull = prefetchDroppedSetFull_.value();
    s.droppedQueueFull = prefetchDroppedQueueFull_.value();
    s.droppedGoverned = prefetchDroppedGoverned_.value();
    return s;
}

std::uint8_t *
CoherentFpga::framePointer(Addr vpn)
{
    auto frame = fmem_.frameOf(vpn);
    KONA_ASSERT(frame.has_value(), "framePointer of non-resident page ",
                vpn);
    return fmemStore_.bytes(static_cast<Addr>(*frame) * pageSize, pageSize)
        .data();
}

} // namespace kona
