/**
 * @file
 * DirectoryService implementation. See directory.h for the protocol
 * overview; the invariants maintained here are:
 *
 *  - Modified implies exactly one sharer record (the owner's);
 *  - a sharer record exists iff that node holds rights on the page;
 *  - staleHomes always reflects the most recent releaser's drop-time
 *    view of each home copy (REPLACE semantics — see release()).
 */

#include "coherence/directory.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.h"

namespace kona {

DirectoryService::DirectoryService(Fabric &fabric, Controller &controller,
                                   DirectoryConfig config,
                                   MetricScope scope)
    : fabric_(fabric), controller_(controller), config_(config),
      scope_(std::move(scope)), poller_(fabric.latency()),
      acqShared_(scope_.counter("acquires_shared")),
      acqExcl_(scope_.counter("acquires_exclusive")),
      upgrades_(scope_.counter("upgrades")),
      releases_(scope_.counter("releases")),
      invalsSent_(scope_.counter("invalidations_sent")),
      invalFailures_(scope_.counter("invalidation_failures")),
      forcedWritebacks_(scope_.counter("forced_writebacks")),
      linesWb_(scope_.counter("lines_written_back")),
      acquireFailures_(scope_.counter("acquire_failures")),
      staleSeeds_(scope_.counter("stale_seed_grants")),
      controlMsgs_(scope_.counter("control_messages")),
      controlRetries_(scope_.counter("control_retries")),
      transfers_(scope_.counter("ownership_transfers")),
      transferNs_(scope_.histogram("ownership_transfer_ns")),
      controlBackoffNs_(scope_.histogram("control_backoff_ns"))
{
    KONA_ASSERT(!fabric_.hasNode(config_.directoryNode),
                "directory node id collides with an attached node");
    homeMailbox_ = std::make_unique<BackingStore>(config_.mailboxBytes);
    fabric_.attachNode(config_.directoryNode, homeMailbox_.get());
    homeRegion_ = fabric_.registerRegion(config_.directoryNode, 0,
                                         config_.mailboxBytes);
    controller_.hostDirectory(this);
}

void
DirectoryService::attachPeer(NodeId node, CoherencePeer &peer)
{
    KONA_ASSERT(peers_.count(node) == 0, "peer ", node,
                " already attached");
    KONA_ASSERT(!fabric_.hasNode(node),
                "compute node id ", node, " collides with a fabric node");

    Peer p;
    p.peer = &peer;
    p.mailbox = std::make_unique<BackingStore>(config_.mailboxBytes);
    fabric_.attachNode(node, p.mailbox.get());
    p.region = fabric_.registerRegion(node, 0, config_.mailboxBytes);
    p.toPeer = std::make_unique<QueuePair>(
        fabric_, config_.directoryNode, node, cq_,
        scope_.sub("qp" + std::to_string(node)));
    p.fromPeer = std::make_unique<QueuePair>(
        fabric_, node, config_.directoryNode, cq_,
        scope_.sub("rpc" + std::to_string(node)));
    peers_.emplace(node, std::move(p));
}

void
DirectoryService::detachPeer(NodeId node)
{
    peers_.erase(node);
    std::vector<Addr> touched;
    for (auto &[vpn, e] : entries_) {
        if (sharerMaskOf(e, node) == 0)
            continue;
        dropSharer(e, node);
        if (e.owner == node) {
            e.owner = 0;
            e.state = e.sharers.empty() ? PageCoherenceState::Uncached
                                        : PageCoherenceState::Shared;
        } else if (e.sharers.empty() &&
                   e.state == PageCoherenceState::Shared) {
            e.state = PageCoherenceState::Uncached;
        }
        touched.push_back(vpn);
    }
    for (Addr vpn : touched)
        compact(vpn);
}

const DirectoryService::SharedRegion &
DirectoryService::sharedRegion(const std::string &name, std::size_t bytes,
                               std::size_t replicationFactor)
{
    auto it = regions_.find(name);
    if (it != regions_.end()) {
        KONA_ASSERT(bytes <= it->second.bytes,
                    "shared region '", name, "' re-requested larger");
        return it->second;
    }

    SharedRegion region;
    region.name = name;

    // Learn the rack's slab size from the first grant, then allocate
    // until the requested bytes are covered. Replica copies of one
    // slab are steered to distinct nodes, mirroring mapNewSlab().
    std::size_t covered = 0;
    while (covered < bytes) {
        MappedSlab slab;
        slab.primary = *controller_.allocateSlab(
            PlacementRequest{.required = true});
        slab.shared = true;
        std::vector<NodeId> occupied{slab.primary.where.node};
        for (std::size_t k = 0; k < replicationFactor; ++k) {
            auto replica = controller_.allocateSlab(PlacementRequest{
                .avoid = occupied, .copyIndex = k + 1});
            if (!replica)
                break;          // degraded redundancy, not fatal
            occupied.push_back(replica->where.node);
            slab.replicas.push_back(*replica);
        }
        covered += slab.primary.size;
        region.slabs.push_back(std::move(slab));
    }
    region.bytes = covered;

    auto [pos, inserted] = regions_.emplace(name, std::move(region));
    KONA_ASSERT(inserted, "shared region race");
    return pos->second;
}

bool
DirectoryService::sendControl(QueuePair &qp, const MemoryRegion &dst,
                              std::uint8_t op, Addr vpn,
                              std::uint64_t mask, SimClock &clock)
{
    ControlMessage msg;
    msg.op = op;
    msg.vpn = vpn;
    msg.mask = mask;

    RetryState retry(config_.retry, retrySeed_++);
    retry.bindTelemetry(&controlRetries_, &controlBackoffNs_);
    for (;;) {
        WorkRequest wr;
        wr.wrId = nextWrId_++;
        wr.opcode = RdmaOpcode::Inval;
        wr.localBuf = &msg;
        wr.remoteKey = dst.key;
        wr.remoteAddr = dst.base;
        wr.length = sizeof(msg);
        wr.inlineData = true;

        controlMsgs_.add();
        PostResult posted = qp.post(wr, clock);
        if (posted.ok()) {
            poller_.waitOne(cq_, clock);
            return true;
        }
        poller_.drain(cq_, clock, posted.cqesPushed);
        if (!retry.shouldRetry())
            return false;
        retry.backoff(clock);
    }
}

bool
DirectoryService::invalidate(NodeId target, Addr vpn, SimClock &clock)
{
    auto it = peers_.find(target);
    if (it == peers_.end()) {
        // Detached holder: its rights evaporate without traffic.
        DirEntry &e = entries_[vpn];
        dropSharer(e, target);
        if (e.owner == target)
            e.owner = 0;
        return true;
    }

    invalsSent_.add();
    if (!sendControl(*it->second.toPeer, it->second.region,
                     /*op=*/1, vpn, ~std::uint64_t(0), clock)) {
        invalFailures_.add();
        return false;
    }

    // The holder snoops its CPU caches and flushes the page's dirty
    // lines through its async eviction pipeline on OUR clock (the
    // requester pays for the transfer). Under the parallel engine it
    // first waits for the holder's shard to park (the park rule,
    // ShardGate::awaitParked), so the holder's thread is never
    // mid-access meanwhile. Its page-drop hook fires release()
    // reentrantly, editing entries_ — callers re-look-up.
    InvalidateResult r = it->second.peer->onInvalidate(vpn, clock);
    if (r.linesWrittenBack != 0) {
        forcedWritebacks_.add();
        linesWb_.add(r.linesWrittenBack);
    }
    if (!r.released) {
        invalFailures_.add();
        return false;
    }

    // Belt and braces: a holder that had rights but never installed
    // the page drops no page, so make sure its record is gone.
    DirEntry &e = entries_[vpn];
    dropSharer(e, target);
    if (e.owner == target) {
        e.owner = 0;
        e.state = e.sharers.empty() ? PageCoherenceState::Uncached
                                    : PageCoherenceState::Shared;
    }
    return true;
}

AcquireResult
DirectoryService::acquireShared(NodeId requester, Addr vpn,
                                std::uint64_t lineMask, SimClock &clock)
{
    auto peerIt = peers_.find(requester);
    KONA_ASSERT(peerIt != peers_.end(), "acquire from unattached node ",
                requester);

    Tick start = clock.now();
    // The acquire RPC itself rides the fabric and can be dropped,
    // delayed or partitioned by the fault injector.
    if (!sendControl(*peerIt->second.fromPeer, homeRegion_, /*op=*/2,
                     vpn, lineMask, clock)) {
        acquireFailures_.add();
        return {};
    }
    clock.advance(static_cast<Tick>(config_.lookupNs));
    acqShared_.add();

    bool moved = false;
    {
        DirEntry &e = entry(vpn);
        if (e.state == PageCoherenceState::Modified &&
            e.owner != requester) {
            moved = true;
            if (!invalidate(e.owner, vpn, clock)) {
                acquireFailures_.add();
                return {};
            }
        }
    }

    DirEntry &e = entry(vpn);     // re-look-up: invalidate() reenters
    if (!(e.state == PageCoherenceState::Modified &&
          e.owner == requester)) {
        e.state = PageCoherenceState::Shared;
        e.owner = 0;
    }
    auto s = std::find_if(e.sharers.begin(), e.sharers.end(),
                          [&](const auto &p) {
                              return p.first == requester;
                          });
    if (s == e.sharers.end())
        e.sharers.emplace_back(requester, lineMask);
    else
        s->second |= lineMask;

    AcquireResult result;
    result.granted = true;
    result.staleHomes = e.staleHomes;
    if (!result.staleHomes.empty())
        staleSeeds_.add();
    if (moved) {
        transfers_.add();
        transferNs_.record(static_cast<double>(clock.now() - start));
    }
    return result;
}

AcquireResult
DirectoryService::acquireExclusive(NodeId requester, Addr vpn,
                                   std::uint64_t lineMask,
                                   SimClock &clock)
{
    auto peerIt = peers_.find(requester);
    KONA_ASSERT(peerIt != peers_.end(), "acquire from unattached node ",
                requester);

    Tick start = clock.now();
    if (!sendControl(*peerIt->second.fromPeer, homeRegion_, /*op=*/3,
                     vpn, lineMask, clock)) {
        acquireFailures_.add();
        return {};
    }
    clock.advance(static_cast<Tick>(config_.lookupNs));
    acqExcl_.add();

    bool wasSharer;
    std::vector<NodeId> targets;
    {
        DirEntry &e = entry(vpn);
        wasSharer = sharerMaskOf(e, requester) != 0 &&
                    !(e.state == PageCoherenceState::Modified &&
                      e.owner == requester);
        for (const auto &[node, mask] : e.sharers) {
            if (node != requester)
                targets.push_back(node);
        }
    }

    // Invalidate every other holder. A failure aborts the acquire;
    // holders already invalidated have legitimately left the entry
    // (their lines are safely written back), so a later retry only
    // deals with the stragglers.
    for (NodeId target : targets) {
        if (!invalidate(target, vpn, clock)) {
            acquireFailures_.add();
            return {};
        }
    }

    DirEntry &e = entry(vpn);     // re-look-up after reentrant releases
    std::uint64_t mask = sharerMaskOf(e, requester) | lineMask;
    e.state = PageCoherenceState::Modified;
    e.owner = requester;
    e.sharers.clear();
    e.sharers.emplace_back(requester, mask);
    if (wasSharer)
        upgrades_.add();

    AcquireResult result;
    result.granted = true;
    result.staleHomes = e.staleHomes;
    if (!result.staleHomes.empty())
        staleSeeds_.add();
    if (!targets.empty()) {
        transfers_.add();
        transferNs_.record(static_cast<double>(clock.now() - start));
    }
    return result;
}

void
DirectoryService::release(NodeId holder, Addr vpn,
                          std::uint64_t touchedMask,
                          const std::vector<StaleHomeReport> &staleView)
{
    (void)touchedMask;  // carried for protocol fidelity / tracing
    releases_.add();

    DirEntry &e = entries_[vpn];
    dropSharer(e, holder);
    if (e.owner == holder) {
        e.owner = 0;
        e.state = e.sharers.empty() ? PageCoherenceState::Uncached
                                    : PageCoherenceState::Shared;
    } else if (e.sharers.empty() &&
               e.state == PageCoherenceState::Shared) {
        e.state = PageCoherenceState::Uncached;
    }

    // REPLACE, don't merge: the releaser's eviction shipped dirty and
    // seeded-stale lines to every copy, so its drop-time view is the
    // authoritative record of which homes are still missing lines.
    e.staleHomes = staleView;
    compact(vpn);
}

PageCoherenceState
DirectoryService::stateOf(Addr vpn) const
{
    auto it = entries_.find(vpn);
    return it == entries_.end() ? PageCoherenceState::Uncached
                                : it->second.state;
}

NodeId
DirectoryService::ownerOf(Addr vpn) const
{
    auto it = entries_.find(vpn);
    if (it == entries_.end() ||
        it->second.state != PageCoherenceState::Modified) {
        return 0;
    }
    return it->second.owner;
}

std::uint64_t
DirectoryService::sharerLineMask(Addr vpn, NodeId node) const
{
    auto it = entries_.find(vpn);
    return it == entries_.end() ? 0 : sharerMaskOf(it->second, node);
}

std::size_t
DirectoryService::sharerCount(Addr vpn) const
{
    auto it = entries_.find(vpn);
    return it == entries_.end() ? 0 : it->second.sharers.size();
}

void
DirectoryService::dropSharer(DirEntry &e, NodeId node)
{
    e.sharers.erase(
        std::remove_if(e.sharers.begin(), e.sharers.end(),
                       [&](const auto &p) { return p.first == node; }),
        e.sharers.end());
}

std::uint64_t
DirectoryService::sharerMaskOf(const DirEntry &e, NodeId node) const
{
    for (const auto &[n, mask] : e.sharers) {
        if (n == node)
            return mask;
    }
    return 0;
}

void
DirectoryService::compact(Addr vpn)
{
    auto it = entries_.find(vpn);
    if (it == entries_.end())
        return;
    const DirEntry &e = it->second;
    if (e.state == PageCoherenceState::Uncached && e.sharers.empty() &&
        e.staleHomes.empty()) {
        entries_.erase(it);
    }
}

} // namespace kona
