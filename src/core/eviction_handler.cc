#include "core/eviction_handler.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/logging.h"
#include "rack/cl_log.h"

namespace kona {

namespace {

/** A run of contiguous dirty lines within a page. */
struct LineRun
{
    unsigned firstLine;
    unsigned count;
};

/** Fixed-size run scratch: 64 bits hold at most 32 distinct runs. */
using LineRuns = std::array<LineRun, linesPerPage / 2>;

/** Decompose a 64-bit dirty mask into contiguous runs (no heap). */
std::size_t
runsOf(std::uint64_t mask, LineRuns &runs)
{
    std::size_t count = 0;
    unsigned line = 0;
    while (line < linesPerPage) {
        if (((mask >> line) & 1ULL) == 0) {
            ++line;
            continue;
        }
        unsigned start = line;
        while (line < linesPerPage && ((mask >> line) & 1ULL))
            ++line;
        runs[count++] = {start, line - start};
    }
    return count;
}

} // namespace

EvictionHandler::EvictionHandler(Fabric &fabric, CoherentFpga &fpga,
                                 CacheHierarchy &hierarchy,
                                 Controller &controller,
                                 EvictionConfig config,
                                 const RetryPolicy &retry,
                                 TraceSession &trace,
                                 const SimClock &appClock, MetricScope scope)
    : fabric_(fabric), fpga_(fpga), hierarchy_(hierarchy),
      controller_(controller), config_(config), scope_(std::move(scope)),
      retryPolicy_(retry), poller_(fabric.latency()), trace_(trace),
      appClock_(appClock),
      pagesEvicted_(scope_.counter("pages_evicted")),
      silent_(scope_.counter("silent_evictions")),
      lines_(scope_.counter("dirty_lines_written")),
      wireBytes_(scope_.counter("bytes_on_wire")),
      retries_(scope_.counter("retry_backoffs")),
      retransmits_(scope_.counter("log_retransmits")),
      naks_(scope_.counter("checksum_naks")),
      ringStalls_(scope_.counter("stall_ring_full")),
      refetches_(scope_.counter("refetch_inflight")),
      conflictStalls_(scope_.counter("stall_page_conflict")),
      evacuateStalls_(scope_.counter("stall_evacuate_drain")),
      staleMarks_(scope_.counter("evictions_stale_marked")),
      inflight_(scope_.gauge("inflight")),
      retryBackoffNs_(scope_.histogram("retry_backoff_ns")),
      batchNs_(scope_.histogram("batch_ns"))
{
    KONA_ASSERT(config_.pipelineDepth > 0,
                "pipelineDepth must be >= 1");
}

EvictionHandler::NodeRing &
EvictionHandler::ringFor(NodeId node)
{
    auto [it, inserted] = rings_.try_emplace(node);
    if (inserted) {
        NodeRing &ring = it->second;
        ring.slots = std::max<std::size_t>(1, config_.pipelineDepth);
        ring.slotBytes =
            controller_.node(node).logSlotBytes(ring.slots);
        ring.owner.assign(ring.slots, 0);
        ring.payload.resize(ring.slots);
    }
    return it->second;
}

QueuePair &
EvictionHandler::qpTo(NodeId node)
{
    auto it = qps_.find(node);
    if (it == qps_.end()) {
        it = qps_.emplace(node,
                          std::make_unique<QueuePair>(
                              fabric_, fpga_.nodeId(), node, cq_,
                              scope_.sub("qp" + std::to_string(node))))
                 .first;
    }
    return *it->second;
}

EvictionHandler::Batch &
EvictionHandler::newBatch(SimClock &clock, std::size_t requested)
{
    if (spareBatches_.empty())
        batches_.emplace_back();
    else
        batches_.splice(batches_.end(), spareBatches_,
                        spareBatches_.begin());
    Batch &batch = batches_.back();
    batch.id = nextBatchId_++;
    batch.pages.clear();
    batch.homes.clear();
    batch.reached.clear();
    batch.outstanding = 0;
    batch.open = true;
    batch.start = clock.now();
    batch.lastDone = 0;
    batch.requested = requested;
    batch.lane = traceLane_;
    return batch;
}

EvictionHandler::Shipment &
EvictionHandler::newShipment()
{
    if (spareShipments_.empty()) {
        shipments_.emplace_back(retryPolicy_, retrySeed_++);
    } else {
        shipments_.splice(shipments_.end(), spareShipments_,
                          spareShipments_.begin());
        shipments_.back() = Shipment(retryPolicy_, retrySeed_++);
    }
    return shipments_.back();
}

std::size_t
EvictionHandler::batchPageLimit() const
{
    // Bound one shipment so a worst-case (fully dirty, maximally
    // fragmented) batch still fits one ring slot of every node's log
    // landing area. FullPage mode bypasses the landing area and keeps
    // the historical cap.
    std::size_t limit = 256;
    if (config_.mode != EvictionMode::ClLog)
        return limit;
    std::size_t depth = std::max<std::size_t>(1, config_.pipelineDepth);
    for (NodeId id : controller_.nodeIds()) {
        std::size_t slotBytes =
            controller_.node(id).logSlotBytes(depth);
        limit = std::min(
            limit, std::max<std::size_t>(
                       1, slotBytes / clLogWorstBytesPerPage));
    }
    return limit;
}

void
EvictionHandler::record(const char *name, Tick ts, Tick dur,
                        std::uint32_t tid, std::vector<TraceArg> args)
{
    TraceEvent ev;
    ev.name = name;
    ev.cat = "evict";
    ev.ts = ts;
    ev.dur = dur;
    ev.tid = tid;
    ev.args = std::move(args);
    trace_.record(std::move(ev));
}

void
EvictionHandler::waitUntil(SimClock &clock, Tick until)
{
    if (until <= clock.now())
        return;
    breakdown_.waitNs += static_cast<double>(until - clock.now());
    clock.advanceTo(until);
}

template <typename Pending>
void
EvictionHandler::waitFor(SimClock &clock, Pending pending,
                         Counter *stalls)
{
    while (true) {
        reapCq();
        finalizeDue(clock.now());
        auto next = earliestDoneAt(pending);
        if (!next.has_value())
            return;
        if (stalls != nullptr)
            stalls->add();
        waitUntil(clock, *next);
    }
}

void
EvictionHandler::awaitPageIdle(Addr vpn, SimClock &clock)
{
    waitFor(
        clock,
        [this, vpn](const Shipment &s) {
            auto it = inflightPage_.find(vpn);
            return it != inflightPage_.end() && it->second == s.batch->id;
        },
        &conflictStalls_);
    KONA_ASSERT(!inflightPage_.contains(vpn),
                "in-flight page ", vpn, " has no live shipment");
}

void
EvictionHandler::submit(std::span<const Addr> vpns, SimClock &clock)
{
    if (vpns.empty())
        return;

    // Cross-shard section: shipments post on the fabric, occupy
    // memory-node landing rings and report into the Controller.
    ShardSection section(gate_, GateEvent::Evict);

    // Chunk so a worst-case batch fits one landing-area ring slot on
    // every node.
    std::size_t limit = batchPageLimit();
    if (vpns.size() > limit) {
        for (std::size_t i = 0; i < vpns.size(); i += limit)
            submit(vpns.subspan(i, std::min(limit, vpns.size() - i)),
                   clock);
        return;
    }

    const LatencyConfig &lat = fpga_.latency();

    // Fence conflicts first: a page already on the wire must land (or
    // fail) before this batch may pack a fresh snapshot of it.
    for (Addr vpn : vpns)
        awaitPageIdle(vpn, clock);

    Batch &batch = newBatch(clock, vpns.size());

    // Phase 1: snoop CPU caches and read the dirty masks. Clean pages
    // drop silently; remote memory already holds their bytes.
    {
        Span scan(&trace_, clock, "bitmap_scan", "evict", traceLane_);
        for (Addr vpn : vpns) {
            if (!fpga_.pageResident(vpn))
                continue;
            hierarchy_.snoopPage(vpn);
            clock.advance(static_cast<Tick>(lat.bitmapScanPerPageNs));
            breakdown_.bitmapNs += lat.bitmapScanPerPageNs;
            // Stale lines ride along: a copy that missed an earlier
            // shipment is freshened by the next eviction of the page.
            std::uint64_t mask = fpga_.dirtyMask(vpn) |
                                 fpga_.staleLines(vpn);
            if (mask == 0) {
                fpga_.dropPage(vpn);
                silent_.add();
                pagesEvicted_.add();
            } else {
                batch.pages.push_back({vpn, mask});
            }
        }
        scan.arg("dirty_pages", batch.pages.size());
    }
    if (batch.pages.empty()) {
        batch.open = false;
        batch.lastDone = clock.now();
        finalizeBatch(batch);
        return;
    }

    // Phase 2: build one payload per destination node, in that node's
    // ring.pack. The registered-buffer copy is paid once per run (or
    // page); replicas reuse the aggregated bytes. Packing captures a
    // snapshot: the dirty mask is cleared here and the page fenced, so
    // a write while the log is in flight re-dirties it and finalize
    // re-queues the page.
    for (auto &[nodeId, ring] : rings_)
        ring.packing = false;
    std::size_t packedNodes = 0;

    Span packSpan(&trace_, clock, "pack", "evict", traceLane_);
    double copyCost = 0.0;
    for (PackedPage &page : batch.pages) {
        const std::uint8_t *frame = fpga_.framePointer(page.vpn);
        const RemoteCopies copies =
            fpga_.translation().translateAll(page.vpn * pageSize);
        LineRuns runs;
        std::size_t runCount = runsOf(page.mask, runs);

        if (config_.mode == EvictionMode::ClLog) {
            // Gathering a page's dirty lines costs one page lookup,
            // a little work per contiguous run, and the byte copy
            // (the hardware prefetcher streams within runs).
            std::uint64_t bytes =
                static_cast<std::uint64_t>(std::popcount(page.mask)) *
                cacheLineSize;
            copyCost += lat.copySetupNs +
                        static_cast<double>(runCount) *
                            lat.copyPerRunNs +
                        static_cast<double>(bytes) * lat.copyPerKbNs /
                            1024.0;
        } else {
            copyCost += lat.copySetupNs +
                        static_cast<double>(pageSize) *
                            lat.copyPerKbNs / 1024.0;
        }

        page.firstHome = static_cast<std::uint32_t>(batch.homes.size());
        page.homeCount = static_cast<std::uint32_t>(copies.size());
        for (const RemoteLocation &loc : copies) {
            batch.homes.push_back(loc.node);
            NodeRing &ring = ringFor(loc.node);
            if (!ring.packing) {
                ring.packing = true;
                ++packedNodes;
                ring.pack.bytes.clear();
                ring.pack.chain.clear();
                // Cap the log at one ring slot so an oversized
                // shipment is rejected at append time.
                if (config_.mode == EvictionMode::ClLog)
                    ring.writer.emplace(ring.pack.bytes, ring.slotBytes);
            }
            if (config_.mode == EvictionMode::ClLog) {
                for (std::size_t r = 0; r < runCount; ++r) {
                    const LineRun &run = runs[r];
                    bool fits = ring.writer->appendRun(
                        loc.addr + static_cast<Addr>(run.firstLine) *
                                       cacheLineSize,
                        frame + static_cast<std::size_t>(
                                    run.firstLine) * cacheLineSize,
                        run.count);
                    if (!fits)
                        fatal("CL log batch for node ", loc.node,
                              " exceeds its landing-area ring slot (",
                              ring.writer->maxBytes(),
                              " bytes at pipelineDepth ",
                              config_.pipelineDepth, ")");
                }
            } else {
                // Stage a copy of the page; the WR's localBuf is bound
                // once the staging buffer stops growing (phase 3).
                ring.pack.bytes.insert(ring.pack.bytes.end(), frame,
                                       frame + pageSize);
                WorkRequest wr;
                wr.wrId = nextWrId_++;
                wr.opcode = RdmaOpcode::Write;
                wr.remoteKey = loc.regionKey;
                wr.remoteAddr = loc.addr;
                wr.length = pageSize;
                wr.signaled = false;
                ring.pack.chain.push_back(wr);
            }
        }

        // Snapshot taken: further writes re-dirty the mask and the
        // fence keeps the frame out of victim selection until finalize.
        fpga_.clearDirty(page.vpn);
        fpga_.setEvictionInFlight(page.vpn, true);
        inflightPage_[page.vpn] = batch.id;
    }
    clock.advance(static_cast<Tick>(copyCost));
    breakdown_.copyNs += copyCost;
    packSpan.arg("nodes", packedNodes);
    packSpan.end();

    // Phase 3: post one shipment per destination node (ascending node
    // id) into its ring slot. Only slot acquisition can block the
    // caller (counted); the wire, unpack and ack proceed on each
    // shipment's own timeline.
    for (auto &[nodeId, ring] : rings_) {
        if (!ring.packing)
            continue;
        if (fabric_.nodeDown(nodeId)) {
            controller_.reportOpFailure(nodeId, appClock_.now());
            continue;
        }

        auto freeSlot = [&ring]() -> int {
            for (std::size_t i = 0; i < ring.slots; ++i) {
                if (ring.owner[i] == 0)
                    return static_cast<int>(i);
            }
            return -1;
        };
        int slot = freeSlot();
        while (slot < 0) {
            // Backpressure: every slot holds an in-flight log. Fall
            // back to blocking on the oldest completion on this node.
            ringStalls_.add();
            controller_.journal().record(appClock_.now(),
                                         JournalKind::RingFullStall,
                                         nodeId, batch.id);
            auto next = earliestDoneAt([nodeId](const Shipment &s) {
                return s.node == nodeId;
            });
            KONA_ASSERT(next.has_value(),
                        "full ring with no live shipment on node ",
                        nodeId);
            waitUntil(clock, *next);
            finalizeDue(clock.now());
            slot = freeSlot();
        }

        Shipment &s = newShipment();
        s.id = nextShipmentId_++;
        s.batch = &batch;
        s.node = nodeId;
        s.slot = static_cast<std::size_t>(slot);
        s.clLog = config_.mode == EvictionMode::ClLog;
        // The slot takes the packed buffers; pack inherits the slot's
        // previous ones (capacity kept) for the next batch.
        SlotPayload &payload = ring.payload[s.slot];
        std::swap(payload, ring.pack);
        if (!s.clLog) {
            for (std::size_t k = 0; k < payload.chain.size(); ++k)
                payload.chain[k].localBuf =
                    payload.bytes.data() + k * pageSize;
            payload.chain.back().signaled = true;
        }
        s.retry.bindTelemetry(&retries_, &retryBackoffNs_);
        ring.owner[s.slot] = s.id;
        s.timeline.advanceTo(clock.now());
        s.attrStart = s.timeline.now();
        postShipment(s);
        ++batch.outstanding;
        inflight_.set(static_cast<double>(shipments_.size()));
        reapCq();
    }

    batch.open = false;
    if (batch.outstanding == 0) {
        batch.lastDone = std::max(batch.lastDone, clock.now());
        finalizeBatch(batch);
    }
}

void
EvictionHandler::postShipment(Shipment &s)
{
    NodeRing &ring = ringFor(s.node);
    MemoryNode &node = controller_.node(s.node);
    SlotPayload &payload = ring.payload[s.slot];
    // One link per node: a shipment's wire time starts only when the
    // previous transfer to that node has left the NIC.
    const Tick parked = s.timeline.now();
    s.timeline.advanceTo(ring.wireFreeAt);
    s.comp[EvictComponent::Queueing] += s.timeline.now() - parked;
    s.wireStart = s.timeline.now();
    ++s.sends;
    if (s.clLog) {
        WorkRequest wr;
        wr.wrId = nextWrId_++;
        wr.opcode = RdmaOpcode::Write;
        wr.localBuf = payload.bytes.data();
        wr.remoteKey = node.logRegion().key;
        wr.remoteAddr = node.logRegion().base +
                        static_cast<Addr>(s.slot) * ring.slotBytes;
        wr.length = payload.bytes.size();
        s.wrId = wr.wrId;
        PostResult posted = qpTo(s.node).post(wr, s.timeline);
        KONA_ASSERT(posted.cqesPushed == 1,
                    "eviction post must push exactly one CQE");
    } else {
        PostResult posted = qpTo(s.node).postLinked(payload.chain,
                                                    s.timeline);
        KONA_ASSERT(posted.cqesPushed == 1,
                    "eviction doorbell must push exactly one CQE");
    }
}

void
EvictionHandler::reapCq()
{
    while (!cq_.empty())
        handleCompletion(cq_.pop());
}

void
EvictionHandler::handleCompletion(const WorkCompletion &wc)
{
    // Every live shipment has exactly one send outstanding; find the
    // one whose WR (ClLog) or doorbell chain (FullPage) this CQE ends.
    auto owner = std::find_if(
        shipments_.begin(), shipments_.end(), [&](const Shipment &s) {
            if (s.acked)
                return false;
            if (s.clLog)
                return s.wrId == wc.wrId;
            return std::ranges::any_of(
                ringFor(s.node).payload[s.slot].chain,
                [&](const WorkRequest &wr) { return wr.wrId == wc.wrId; });
        });
    KONA_ASSERT(owner != shipments_.end(),
                "eviction CQE for unknown work request ", wc.wrId);
    Shipment &s = *owner;

    const LatencyConfig &lat = fpga_.latency();
    NodeRing &ring = ringFor(s.node);
    SlotPayload &payload = ring.payload[s.slot];
    std::uint32_t lane = s.batch->lane;
    poller_.complete(wc, s.timeline);
    ring.wireFreeAt = std::max(ring.wireFreeAt, wc.completeAt);
    breakdown_.rdmaNs +=
        static_cast<double>(s.timeline.now() - s.wireStart);
    s.comp[EvictComponent::Wire] += s.timeline.now() - s.wireStart;

    if (wc.status != WcStatus::Success) {
        // Dropped or timed out: the payload never landed. A node the
        // health scorer already quarantined gets one attempt per batch
        // (so recovery evidence keeps flowing) but no retry storm —
        // its missed copies are stale-marked at finalize instead.
        controller_.reportOpFailure(s.node, appClock_.now());
        if (fabric_.nodeDown(s.node) || !s.retry.shouldRetry() ||
            controller_.health(s.node) == NodeHealth::Quarantined) {
            settleShipment(s, false);
            return;
        }
        const Tick backoffStart = s.timeline.now();
        s.retry.backoff(s.timeline);
        s.comp[EvictComponent::Retry] += s.timeline.now() - backoffStart;
        postShipment(s);
        return;
    }

    // The attempt's wire time is latency evidence for the gray-failure
    // scorer: a straggler node that only ever receives evictions (its
    // slabs hold no read-hot primaries) would otherwise never attract
    // a latency sample and could not reach Suspect.
    controller_.observeFetch(s.node, wc.completeAt - s.wireStart,
                             appClock_.now());

    std::size_t bytes = payload.bytes.size();
    if (tracing()) {
        record("wire", s.wireStart, s.timeline.now() - s.wireStart,
               lane,
               {{"node", s.node}, {"bytes", bytes}, {"send", s.sends}});
    }

    if (!s.clLog) {
        wireBytes_.add(bytes);
        controller_.reportOpSuccess(s.node, appClock_.now());
        settleShipment(s, true);
        return;
    }

    // The Cache-line Log Receiver verifies every record's CRC before
    // distributing; a NAK means the payload was corrupted past the
    // transport's checks — retransmit the slot. One receiver thread
    // per node serializes unpacks (recvFreeAt).
    MemoryNode &node = controller_.node(s.node);
    const Tick recvWaitStart = s.timeline.now();
    Tick unpackStart = std::max(s.timeline.now(), ring.recvFreeAt);
    LogReceiptStats receipt = node.receiveLog(
        static_cast<Addr>(s.slot) * ring.slotBytes, bytes);
    Tick unpackDur = static_cast<Tick>(receipt.unpackNs);
    ring.recvFreeAt = unpackStart + unpackDur;
    s.timeline.advanceTo(ring.recvFreeAt);
    s.comp[EvictComponent::Queueing] += unpackStart - recvWaitStart;
    s.comp[EvictComponent::Unpack] += s.timeline.now() - unpackStart;
    breakdown_.unpackNs += receipt.unpackNs;
    Tick ackStart = s.timeline.now();
    s.timeline.advance(static_cast<Tick>(lat.ackNs));
    s.comp[EvictComponent::Ack] += s.timeline.now() - ackStart;
    if (tracing()) {
        record("unpack", unpackStart, unpackDur,
               traceNodeThread(s.node),
               {{"lines", receipt.lines},
                {"runs", receipt.runs},
                {"ok", receipt.ok ? "true" : "false"}});
        record("ack", ackStart, s.timeline.now() - ackStart, lane,
               {{"node", s.node}});
    }
    wireBytes_.add(bytes);
    if (!receipt.ok) {
        naks_.add();
        controller_.observeNak(s.node, appClock_.now());
        if (!s.retry.shouldRetry()) {
            settleShipment(s, false);
            return;
        }
        const Tick backoffStart = s.timeline.now();
        s.retry.backoff(s.timeline);
        s.comp[EvictComponent::Retry] += s.timeline.now() - backoffStart;
        postShipment(s);
        return;
    }
    controller_.reportOpSuccess(s.node, appClock_.now());
    settleShipment(s, true);
}

void
EvictionHandler::settleShipment(Shipment &s, bool succeeded)
{
    s.acked = true;
    s.succeeded = succeeded;
    s.doneAt = s.timeline.now();
    retransmits_.add(s.sends - 1);
    shipAttr_.record(s.doneAt - s.attrStart, s.comp.data(),
                     EvictComponent::Other);
    if (!succeeded) {
        controller_.journal().record(appClock_.now(),
                                     JournalKind::RetriesExhausted, s.node,
                                     s.batch->id, s.sends);
    }
}

void
EvictionHandler::finalizeDue(Tick now)
{
    for (auto it = shipments_.begin(); it != shipments_.end();) {
        Shipment &s = *it;
        if (!s.acked || s.doneAt > now) {
            ++it;
            continue;
        }
        NodeRing &ring = ringFor(s.node);
        if (ring.owner[s.slot] == s.id)
            ring.owner[s.slot] = 0;
        Batch &batch = *s.batch;
        if (s.succeeded)
            batch.reached.push_back(s.node);
        batch.lastDone = std::max(batch.lastDone, s.doneAt);
        --batch.outstanding;
        bool batchDone = batch.outstanding == 0 && !batch.open;
        auto next = std::next(it);
        spareShipments_.splice(spareShipments_.begin(), shipments_, it);
        it = next;
        inflight_.set(static_cast<double>(shipments_.size()));
        if (batchDone)
            finalizeBatch(batch);
    }
}

void
EvictionHandler::finalizeBatch(Batch &batch)
{
    // Drop every page whose data reached at least one copy; restore
    // the packed mask of pages that reached none (their lines must
    // ship again later); re-queue pages written while in flight.
    for (const PackedPage &page : batch.pages) {
        fpga_.setEvictionInFlight(page.vpn, false);
        inflightPage_.erase(page.vpn);
        bool safe = false;
        for (NodeId home : std::span(batch.homes).subspan(
                 page.firstHome, page.homeCount)) {
            bool reached = false;
            for (NodeId ok : batch.reached)
                reached |= home == ok;
            if (reached) {
                safe = true;
                // The shipped mask included every previously-stale
                // line of the page, so this copy is fresh again.
                fpga_.clearStaleHome(page.vpn, home);
            } else if (!fabric_.nodeDown(home) &&
                       controller_.health(home) != NodeHealth::Failed) {
                // A dead home is fine to miss: the rebuild re-copies
                // it from a survivor. A *live* home that missed
                // (retries exhausted against a gray-failing link) now
                // holds stale bytes — mark the copy so reads skip it
                // and the page's next eviction re-ships these lines.
                fpga_.markStaleHome(page.vpn, home, page.mask);
                staleMarks_.add();
                controller_.journal().record(appClock_.now(),
                                             JournalKind::StaleHomeMark,
                                             home, page.vpn, page.mask);
            }
        }
        if (!safe) {
            warn("eviction of page ", page.vpn,
                 " failed: all replicas down; keeping it resident");
            fpga_.orDirtyMask(page.vpn, page.mask);
            continue;
        }
        if (fpga_.dirtyMask(page.vpn) != 0) {
            // Fenced write landed while the log was on the wire: the
            // shipped snapshot is stale for those lines. Keep the page
            // resident and re-queue it instead of losing the write.
            refetches_.add();
            requeue_.insert(page.vpn);
            continue;
        }
        lines_.add(std::popcount(page.mask));
        fpga_.dropPage(page.vpn);
        pagesEvicted_.add();
    }
    Tick end = std::max(batch.lastDone, batch.start);
    batchNs_.record(static_cast<double>(end - batch.start));
    if (tracing()) {
        record("evict_batch", batch.start, end - batch.start,
               batch.lane,
               {{"pages", batch.requested},
                {"dirty_pages", batch.pages.size()}});
    }
    auto done = std::find_if(batches_.begin(), batches_.end(),
                             [&](const Batch &b) { return &b == &batch; });
    spareBatches_.splice(spareBatches_.begin(), batches_, done);
}

void
EvictionHandler::drain(SimClock &clock)
{
    ShardSection section(gate_, GateEvent::Evict);
    while (true) {
        waitFor(clock, [](const Shipment &) { return true; }, nullptr);
        if (requeue_.empty())
            return;
        // Pages re-dirtied while in flight go around again until the
        // engine is quiescent.
        std::vector<Addr> again(requeue_.begin(), requeue_.end());
        requeue_.clear();
        submit(again, clock);
    }
}

void
EvictionHandler::drainNode(NodeId node, SimClock &clock)
{
    ShardSection section(gate_, GateEvent::Evict);
    waitFor(
        clock, [node](const Shipment &s) { return s.node == node; },
        &evacuateStalls_);
}

bool
EvictionHandler::flushPage(Addr vpn, SimClock &clock)
{
    ShardSection section(gate_, GateEvent::Evict);
    // Targeted barrier for coherence invalidations: ship this page and
    // wait for it alone, leaving unrelated in-flight shipments (and
    // their timelines) untouched. A few rounds bound the case where a
    // fenced write re-dirtied the page while its log was on the wire;
    // in the invalidation path the holder is stalled, so one round is
    // the norm.
    for (int round = 0; round < 4 && fpga_.pageResident(vpn); ++round) {
        submit({&vpn, 1}, clock);
        awaitPageIdle(vpn, clock);
        // Any re-queue entry is ours now: the next round (or the fact
        // that the page dropped) supersedes it.
        requeue_.erase(vpn);
    }
    return !fpga_.pageResident(vpn);
}

void
EvictionHandler::pump(SimClock &backgroundClock)
{
    // Caller-provided-buffer protocol: the common every-set-has-room
    // case costs one counting pass and no writes; when the store owes
    // more victims than the warm buffer holds, grow once and re-ask.
    std::size_t owed = fpga_.backgroundVictims(
        pumpFreeWays, victimBuf_.data(), victimBuf_.size());
    if (owed == 0)
        return;
    if (owed > victimBuf_.size()) {
        victimBuf_.resize(owed);
        owed = fpga_.backgroundVictims(pumpFreeWays, victimBuf_.data(),
                                       victimBuf_.size());
    }
    pumpVpns_.clear();
    for (std::size_t i = 0; i < owed && i < victimBuf_.size(); ++i)
        pumpVpns_.push_back(victimBuf_[i].vfmemPage);
    // Background work renders on its own trace lane.
    std::uint32_t prevLane = traceLane_;
    traceLane_ = traceBackgroundThread;
    submit(pumpVpns_, backgroundClock);
    drain(backgroundClock);
    traceLane_ = prevLane;
}

} // namespace kona
