#include "core/vm_runtime.h"

#include "common/logging.h"
#include "telemetry/time_series.h"

namespace kona {

VmRuntime::VmRuntime(Fabric &fabric, Controller &controller,
                     NodeId computeNode, const VmConfig &config,
                     MetricScope scope)
    : fabric_(fabric), controller_(controller),
      computeNode_(computeNode), config_(config),
      scope_(std::move(scope)),
      hierarchy_(config.hierarchy, scope_.sub("hierarchy")),
      cmem_(config.windowSize),
      windowCursor_(config.windowBase), poller_(fabric.latency()),
      rdmaBuffer_(pageSize),
      reads_(scope_.counter("reads")),
      writes_(scope_.counter("writes")),
      bytesRead_(scope_.counter("bytes_read")),
      bytesWritten_(scope_.counter("bytes_written")),
      majorFaults_(scope_.counter("major_faults")),
      minorFaults_(scope_.counter("minor_faults")),
      tlbShootdowns_(scope_.counter("tlb_shootdowns")),
      pagesEvicted_(scope_.counter("pages_evicted")),
      silentEvictions_(scope_.counter("silent_evictions")),
      wireBytes_(scope_.counter("bytes_on_wire")),
      retries_(scope_.counter("fault_retries")),
      promotions_(scope_.counter("replica_promotions")),
      majorFaultNs_(scope_.histogram("major_fault_ns"))
{
    KONA_ASSERT(config.localCachePages > 0, "empty local cache");

    const LatencyConfig &lat = fabric_.latency();
    double levels[3] = {lat.l1HitNs, lat.l2HitNs, lat.l3HitNs};
    double running = 0.0;
    std::size_t n = std::min<std::size_t>(hierarchy_.numLevels(), 3);
    for (std::size_t i = 0; i < n; ++i) {
        running += levels[i];
        levelLatencyNs_[i] = running;
    }
    levelLatencyNs_[n] = running;

    mapNewSlab();
}

std::string
VmRuntime::name() const
{
    switch (config_.personality) {
      case VmPersonality::KonaVm:
        return config_.writeProtectTracking ? "Kona-VM" : "Kona-VM-NoWP";
      case VmPersonality::LegoOs: return "LegoOS";
      case VmPersonality::Infiniswap: return "Infiniswap";
    }
    return "VM";
}

QueuePair &
VmRuntime::qpTo(NodeId node)
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

void
VmRuntime::mapNewSlab()
{
    std::size_t slabSize = controller_.slabSize();
    if (windowCursor_ + slabSize >
        config_.windowBase + config_.windowSize) {
        fatal("VM window exhausted: cannot map another slab");
    }

    SlabGrant primary =
        *controller_.allocateSlab(PlacementRequest{.required = true});
    std::vector<SlabGrant> replicas;
    for (std::size_t i = 0; i < config_.replicationFactor; ++i)
        replicas.push_back(*controller_.allocateSlab(
            PlacementRequest{.copyIndex = i + 1, .required = true}));
    translation_.addSlab(windowCursor_, primary, std::move(replicas));

    // Pages are mapped but not present: the first touch of each page
    // will raise a major fault — the defining cost of this family.
    Addr firstVpn = pageNumber(windowCursor_);
    Addr pages = slabSize / pageSize;
    for (Addr i = 0; i < pages; ++i) {
        pageTable_.map(firstVpn + i, firstVpn + i, true);
        pageTable_.markNotPresent(firstVpn + i);
    }

    if (heap_ == nullptr) {
        heap_ = std::make_unique<RegionAllocator>(windowCursor_,
                                                  slabSize);
    } else {
        heap_->extend(slabSize);
    }
    windowCursor_ += slabSize;
}

void
VmRuntime::ensureHeap(std::size_t need)
{
    while (heap_->bytesFree() < need)
        mapNewSlab();
}

Addr
VmRuntime::allocate(std::size_t size, std::size_t align)
{
    KONA_ASSERT(size > 0, "zero-byte allocation");
    ensureHeap(size + align);
    auto addr = heap_->allocate(size, align);
    while (!addr.has_value()) {
        mapNewSlab();
        addr = heap_->allocate(size, align);
    }
    return *addr;
}

void
VmRuntime::deallocate(Addr addr)
{
    heap_->deallocate(addr);
}

void
VmRuntime::touchLru(Addr vpn)
{
    auto it = lruMap_.find(vpn);
    KONA_ASSERT(it != lruMap_.end(), "LRU touch of non-resident page");
    lruList_.splice(lruList_.begin(), lruList_, it->second);
}

void
VmRuntime::majorFault(Addr vpn)
{
    majorFaults_.add();
    Span span(&trace_, appClock_, "major_fault", "fault");
    span.arg("vpn", vpn);
    Tick faultStart = appClock_.now();
    const LatencyConfig &lat = fabric_.latency();

    // Make room first (the fault handler needs a free local frame).
    if (lruList_.size() >= config_.localCachePages)
        evictOne();

    // Fetch the page. The personality's measured fault-to-data latency
    // already includes its software stack and the RDMA transfer, so it
    // is charged as one critical-path cost; the functional transfer
    // below uses a scratch clock to avoid double charging.
    appClock_.advance(static_cast<Tick>(
        remoteFetchNs(lat, config_.personality)));

    // Fetch from the primary, fail over to replicas, and back off and
    // retry when every copy is misbehaving. A replica is promoted only
    // when every earlier copy sits on a node that is actually down —
    // a transient drop should not reshuffle the placement.
    SimClock scratch;
    RetryState retry(config_.retry, retrySeed_++);
    retry.bindTelemetry(&retries_, nullptr);
    bool fetched = false;
    while (!fetched) {
        auto copies = translation_.translateAll(vpn * pageSize);
        for (std::size_t i = 0; i < copies.size() && !fetched; ++i) {
            const RemoteLocation &loc = copies[i];
            if (fabric_.nodeDown(loc.node)) {
                controller_.reportOpFailure(loc.node, appClock_.now());
                continue;
            }
            WorkRequest wr;
            wr.wrId = nextWrId_++;
            wr.opcode = RdmaOpcode::Read;
            wr.localBuf = rdmaBuffer_.data();
            wr.remoteKey = loc.regionKey;
            wr.remoteAddr = loc.addr;
            wr.length = pageSize;
            PostResult posted = qpTo(loc.node).post(wr, scratch);
            if (!posted.ok()) {
                poller_.drain(cq_, scratch, posted.cqesPushed);
                controller_.reportOpFailure(loc.node, appClock_.now());
                continue;
            }
            poller_.waitOne(cq_, scratch);
            controller_.reportOpSuccess(loc.node, appClock_.now());
            if (i > 0) {
                bool earlierAllDown = true;
                for (std::size_t j = 0; j < i; ++j)
                    earlierAllDown &= fabric_.nodeDown(copies[j].node);
                if (earlierAllDown) {
                    translation_.promoteReplica(vpn * pageSize, i - 1);
                    promotions_.add();
                    warn(name(), ": failed over page ", vpn,
                         " to node ", loc.node);
                }
            }
            fetched = true;
        }
        if (fetched)
            break;
        if (!retry.shouldRetry()) {
            fatal("remote memory unreachable for page ", vpn,
                  ": every copy is down or failing");
        }
        retry.backoff(appClock_);
    }
    cmem_.write(cmemOffset(vpn * pageSize), rdmaBuffer_.data(), pageSize);

    // Install the translation; with dirty tracking enabled the page
    // comes up write-protected so the first store minor-faults.
    pageTable_.map(vpn, vpn, !config_.writeProtectTracking);
    if (config_.writeProtectTracking)
        pageTable_.writeProtect(vpn);
    appClock_.advance(static_cast<Tick>(lat.pteUpdateNs));

    lruList_.push_front(vpn);
    lruMap_[vpn] = lruList_.begin();
    span.arg("retries", retry.attempts());
    majorFaultNs_.record(static_cast<double>(appClock_.now() -
                                             faultStart));
}

void
VmRuntime::minorFault(Addr vpn)
{
    minorFaults_.add();
    Span span(&trace_, appClock_, "minor_fault", "fault");
    span.arg("vpn", vpn);
    const LatencyConfig &lat = fabric_.latency();
    // Kona-VM resolves write-protect faults through userfaultfd,
    // which costs a user-space round trip; the kernel-path baselines
    // service them in the kernel fault handler.
    double cost = config_.personality == VmPersonality::KonaVm
        ? lat.uffdWpFaultNs : lat.minorFaultNs;
    appClock_.advance(static_cast<Tick>(cost));
    pageTable_.enableWrite(vpn);
}

void
VmRuntime::ensureAccess(Addr vpn, AccessType type)
{
    const LatencyConfig &lat = fabric_.latency();

    if (!tlb_.lookup(vpn)) {
        appClock_.advance(static_cast<Tick>(lat.pteUpdateNs)); // walk
        tlb_.insert(vpn);
    }

    for (int spins = 0; spins < 4; ++spins) {
        switch (pageTable_.translate(vpn, type)) {
          case TranslationResult::Ok:
            touchLru(vpn);
            return;
          case TranslationResult::NotPresent:
            majorFault(vpn);
            break;
          case TranslationResult::WriteProtected:
            minorFault(vpn);
            break;
        }
    }
    panic("page ", vpn, " still faulting after major+minor service");
}

void
VmRuntime::ensureRange(Addr addr, std::size_t size, AccessType type)
{
    Addr firstVpn = pageNumber(addr);
    Addr lastVpn = pageNumber(addr + size - 1);
    std::size_t spanned = static_cast<std::size_t>(lastVpn - firstVpn) +
                          1;
    if (spanned > config_.localCachePages) {
        fatal("access spans ", spanned,
              " pages but the local cache holds only ",
              config_.localCachePages);
    }

    // Faulting in a later page can evict an earlier one; iterate until
    // the whole span is simultaneously present.
    for (;;) {
        bool stable = true;
        for (Addr vpn = firstVpn; vpn <= lastVpn; ++vpn) {
            const PageTableEntry *pte = pageTable_.entry(vpn);
            bool ok = pte != nullptr && pte->present &&
                      (type == AccessType::Read || pte->writable ||
                       !config_.writeProtectTracking);
            if (!ok) {
                ensureAccess(vpn, type);
                stable = false;
            } else {
                // Keep the whole span hot so LRU prefers other victims.
                if (pageTable_.translate(vpn, type) ==
                    TranslationResult::Ok) {
                    touchLru(vpn);
                }
            }
        }
        if (stable)
            return;
    }
}

void
VmRuntime::evictOne()
{
    KONA_ASSERT(!lruList_.empty(), "eviction with empty cache");
    Addr vpn = lruList_.back();
    lruList_.pop_back();
    lruMap_.erase(vpn);

    const LatencyConfig &lat = fabric_.latency();
    const PageTableEntry *pte = pageTable_.entry(vpn);
    KONA_ASSERT(pte != nullptr && pte->present, "LRU page not mapped");

    // Without write-protect tracking, every page must be assumed dirty.
    bool dirty = config_.writeProtectTracking ? pte->dirty : true;

    if (dirty) {
        SimClock &evClock = config_.backgroundEviction
            ? backgroundClock_ : appClock_;
        if (config_.personality == VmPersonality::Infiniswap) {
            // The block-device swap path adds heavy per-page costs
            // beyond the RDMA write itself (§2.1: >32us observed).
            evClock.advance(static_cast<Tick>(
                lat.infiniswapEvictionOverheadNs));
        }
        writebackPage(vpn, evClock);
        pageTable_.clearDirty(vpn);
    } else {
        silentEvictions_.add();
    }

    // Unmapping requires a PTE update and a TLB shootdown; the IPIs
    // stall the application regardless of who runs the eviction.
    pageTable_.markNotPresent(vpn);
    tlb_.invalidatePage(vpn);
    tlbShootdowns_.add();
    appClock_.advance(static_cast<Tick>(lat.tlbShootdownNs +
                                        lat.pteUpdateNs));

    cmem_.dropPage(cmemOffset(vpn * pageSize));
    pagesEvicted_.add();
}

void
VmRuntime::writebackPage(Addr vpn, SimClock &clock)
{
    std::uint32_t lane = &clock == &backgroundClock_
                             ? traceBackgroundThread
                             : traceAppThread;
    Span span(&trace_, clock, "writeback_page", "evict", lane);
    span.arg("vpn", vpn);
    span.arg("bytes", static_cast<std::uint64_t>(pageSize));
    const LatencyConfig &lat = fabric_.latency();

    // Copy the page into the RDMA-registered buffer (the cost Fig 11's
    // idealized no-copy baselines omit).
    clock.advance(static_cast<Tick>(
        lat.copySetupNs +
        static_cast<double>(pageSize) * lat.copyPerKbNs / 1024.0));
    cmem_.read(cmemOffset(vpn * pageSize), rdmaBuffer_.data(), pageSize);

    // Write to every reachable copy; if the whole placement is
    // misbehaving, back off and retry rather than dying on a transient
    // outage. Idempotent page writes make the replay safe.
    RetryState retry(config_.retry, retrySeed_++);
    retry.bindTelemetry(&retries_, nullptr);
    Tick maxEnd = clock.now();
    for (;;) {
        auto copies = translation_.translateAll(vpn * pageSize);
        Tick start = clock.now();
        maxEnd = start;
        bool any = false;
        for (const RemoteLocation &loc : copies) {
            if (fabric_.nodeDown(loc.node)) {
                controller_.reportOpFailure(loc.node, appClock_.now());
                continue;
            }
            SimClock branch;
            branch.advanceTo(start);
            WorkRequest wr;
            wr.wrId = nextWrId_++;
            wr.opcode = RdmaOpcode::Write;
            wr.localBuf = rdmaBuffer_.data();
            wr.remoteKey = loc.regionKey;
            wr.remoteAddr = loc.addr;
            wr.length = pageSize;
            PostResult posted = qpTo(loc.node).post(wr, branch);
            if (!posted.ok()) {
                poller_.drain(cq_, branch, posted.cqesPushed);
                controller_.reportOpFailure(loc.node, appClock_.now());
                continue;
            }
            poller_.waitOne(cq_, branch);
            controller_.reportOpSuccess(loc.node, appClock_.now());
            wireBytes_.add(pageSize);
            maxEnd = std::max(maxEnd, branch.now());
            any = true;
        }
        if (any)
            break;
        if (!retry.shouldRetry())
            fatal("page writeback failed: all replicas unreachable");
        retry.backoff(clock);
    }
    clock.advanceTo(maxEnd);
}

void
VmRuntime::read(Addr addr, void *buf, std::size_t size)
{
    if (size == 0)
        return;
    ensureRange(addr, size, AccessType::Read);

    Addr first = alignDown(addr, cacheLineSize);
    Addr last = alignDown(addr + size - 1, cacheLineSize);
    for (Addr line = first; line <= last; line += cacheLineSize) {
        int level = hierarchy_.accessOne(line, AccessType::Read);
        std::size_t idx = level >= 0 ? static_cast<std::size_t>(level)
                                     : hierarchy_.numLevels();
        appClock_.advance(static_cast<Tick>(levelLatencyNs_[idx]));
        if (level < 0) {
            appClock_.advance(static_cast<Tick>(
                fabric_.latency().cmemNs));
        }
    }

    cmem_.read(cmemOffset(addr), buf, size);
    reads_.add();
    bytesRead_.add(size);
    if (sampler_ != nullptr)
        sampler_->onTick(appClock_.now());
}

void
VmRuntime::write(Addr addr, const void *buf, std::size_t size)
{
    if (size == 0)
        return;
    ensureRange(addr, size, AccessType::Write);

    Addr first = alignDown(addr, cacheLineSize);
    Addr last = alignDown(addr + size - 1, cacheLineSize);
    for (Addr line = first; line <= last; line += cacheLineSize) {
        int level = hierarchy_.accessOne(line, AccessType::Write);
        std::size_t idx = level >= 0 ? static_cast<std::size_t>(level)
                                     : hierarchy_.numLevels();
        appClock_.advance(static_cast<Tick>(levelLatencyNs_[idx]));
        if (level < 0) {
            appClock_.advance(static_cast<Tick>(
                fabric_.latency().cmemNs));
        }
    }

    cmem_.write(cmemOffset(addr), buf, size);
    writes_.add();
    bytesWritten_.add(size);
    if (sampler_ != nullptr)
        sampler_->onTick(appClock_.now());
}

void
VmRuntime::writebackAll()
{
    while (!lruList_.empty())
        evictOne();
}

Tick
VmRuntime::elapsed() const
{
    return std::max(appClock_.now(), backgroundClock_.now());
}

RuntimeStats
VmRuntime::stats() const
{
    RuntimeStats s;
    s.reads = reads_.value();
    s.writes = writes_.value();
    s.bytesRead = bytesRead_.value();
    s.bytesWritten = bytesWritten_.value();
    s.remoteFetches = majorFaults_.value();
    s.majorFaults = majorFaults_.value();
    s.minorFaults = minorFaults_.value();
    s.tlbShootdowns = tlbShootdowns_.value();
    s.pagesEvicted = pagesEvicted_.value();
    s.silentEvictions = silentEvictions_.value();
    s.evictionBytesOnWire = wireBytes_.value();
    s.retries = retries_.value();
    s.replicaPromotions = promotions_.value();
    return s;
}

} // namespace kona
