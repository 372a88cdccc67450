#include "core/kona_runtime.h"

#include "coherence/agent.h"
#include "common/logging.h"
#include "telemetry/time_series.h"

namespace kona {

KonaRuntime::KonaRuntime(Fabric &fabric, Controller &controller,
                         NodeId computeNode, const KonaConfig &config,
                         MetricScope scope)
    : fabric_(fabric), controller_(controller),
      computeNode_(computeNode), config_(config),
      // Per-runtime metric namespace: several runtimes can share one
      // registry (multi-compute-node racks) without colliding.
      scope_(scope.sub("cn" + std::to_string(computeNode))),
      fpga_(fabric, computeNode, config.fpga, scope_.sub("fpga")),
      hierarchy_(config.hierarchy, scope_.sub("hierarchy")),
      evictor_(fabric, fpga_, hierarchy_, controller, config.evict,
               config.retry, trace_, appClock_, scope_.sub("evict")),
      vfmemCursor_(config.fpga.vfmemBase),
      reads_(scope_.counter("reads")),
      writes_(scope_.counter("writes")),
      bytesRead_(scope_.counter("bytes_read")),
      bytesWritten_(scope_.counter("bytes_written")),
      outageRetries_(scope_.counter("outage_retries")),
      rebuildPromotions_(scope_.counter("rebuild_promotions")),
      outageBackoffNs_(scope_.histogram("outage_backoff_ns"))
{
    // The trace ring's dropped-event count is a registry metric so
    // exports expose flight-recorder loss; its JSON carries the rack
    // journal's events as instants.
    trace_.bindDroppedCounter(&scope_.counter("trace.dropped_events"));
    trace_.setJournal(&controller_.journal());
    fpga_.setMissAttribution(&missAttr_);

    hierarchy_.setListener(&fpga_);
    fpga_.setTraceSession(&trace_);
    fpga_.setEvictionCallback(
        [this](const FMemCache::Victim &victim, SimClock &clock) {
            evictor_.submit({&victim.vfmemPage, 1}, clock);
            evictor_.drain(clock);
        });
    // Every fetch-path observation feeds the Controller's failure
    // detector (fail-stop) and its EWMA health scorer (gray failure):
    // enough consecutive failures declare the node dead and
    // checkRackHealth() triggers the rebuild; a drifting latency or
    // badness EWMA moves the node through Suspect/Quarantined instead.
    fpga_.setHealthReporter([this](NodeId node, bool ok,
                                   Tick latencyNs) {
        if (ok) {
            controller_.reportOpSuccess(node, appClock_.now());
            controller_.observeFetch(node, latencyNs, appClock_.now());
        } else {
            controller_.reportOpFailure(node, appClock_.now());
        }
    });
    // Reads hedge away from nodes the membership state machine says
    // to avoid (Suspect/Quarantined/Joining), even though the fabric
    // still reaches them.
    fpga_.setMembershipProbe([this](NodeId node) {
        return controller_.avoidForReads(node);
    });

    // Hot/cold tiering: an EWMA heat map over the VFMem window, fed
    // by the FPGA's access stream and pumped on the eviction cadence.
    // Promotions go through tierPromote (never evicting, never
    // touching governed pages); demotions ride the async eviction
    // pipeline exactly like background capacity evictions.
    TieringConfig tierCfg = parseTieringSpec(config_.tiering);
    if (tierCfg.enabled) {
        tiering_ = std::make_unique<TieringEngine>(
            pageNumber(config_.fpga.vfmemBase),
            config_.fpga.vfmemSize / pageSize, tierCfg,
            scope_.sub("tier"));
        demoteVpns_.reserve(tierCfg.maxDemotesPerPump);
        tiering_->setHooks(
            [this](Addr vpn, Tick issueTick) {
                return fpga_.tierPromote(vpn, issueTick);
            },
            [this](const Addr *vpns, std::size_t n) {
                demoteVpns_.clear();
                for (std::size_t i = 0; i < n; ++i) {
                    // submit() blocks on pages already in flight;
                    // a cold page's earlier shipment covers it.
                    if (fpga_.evictionInFlight(vpns[i]))
                        continue;
                    // Governed pages demote only through the
                    // coherence protocol's own drop path.
                    if (agent_ != nullptr && agent_->governs(vpns[i]))
                        continue;
                    demoteVpns_.push_back(vpns[i]);
                }
                evictor_.submit(demoteVpns_, backgroundClock_);
            },
            [this](Addr vpn) { return fpga_.pageResident(vpn); },
            [this] {
                return static_cast<double>(
                           fpga_.fmem().pagesResident()) /
                       static_cast<double>(fpga_.fmem().frames());
            });
        fpga_.setTieringEngine(tiering_.get());
    }

    // Cumulative hit latencies: a hit at level i pays every level
    // above it (the AMAT structure KCacheSim uses).
    const LatencyConfig &lat = fabric_.latency();
    double levels[3] = {lat.l1HitNs, lat.l2HitNs, lat.l3HitNs};
    double running = 0.0;
    std::size_t n = std::min<std::size_t>(hierarchy_.numLevels(), 3);
    for (std::size_t i = 0; i < n; ++i) {
        running += levels[i];
        levelLatencyNs_[i] = running;
    }
    levelLatencyNs_[n] = running;   // cost before entering memory

    // Pre-map the first slab so the heap exists (the Resource Manager
    // allocates remote memory proactively, off the critical path).
    mapNewSlab();
}

KonaRuntime::~KonaRuntime() = default;

void
KonaRuntime::attachCoherence(DirectoryService &directory)
{
    KONA_ASSERT(agent_ == nullptr, "coherence already attached");
    agent_ = std::make_unique<CoherenceAgent>(
        directory, computeNode_, fpga_, hierarchy_, evictor_,
        config_.retry, scope_.sub("coherence"));
    coherenceDir_ = &directory;
    directory.attachPeer(computeNode_, *agent_);
    // Any drop of a governed page — remote invalidation or ordinary
    // capacity eviction — releases this node's directory rights, and
    // the prefetcher is kept away from governed pages (a speculative
    // fetch without rights could resurrect a stale copy).
    fpga_.setDropHook([this](Addr vpn) { agent_->onPageDropped(vpn); });
    fpga_.setPageGovernor(
        [this](Addr vpn) { return agent_->governs(vpn); });
    // A gate bound before the agent existed propagates to it now.
    agent_->setGateEndpoint(gate_);
}

void
KonaRuntime::setShardGate(ShardGate *gate, std::uint32_t shard)
{
    gate_.bind(gate, shard, &appClock_, &backgroundClock_);
    // One endpoint per shard, copied into every component that can
    // open a section: all of a shard's sections share the same stamp
    // function (max of the two clocks), which keeps the published
    // bound sound for every later section.
    fpga_.setGateEndpoint(gate_);
    evictor_.setGateEndpoint(gate_);
    if (agent_ != nullptr)
        agent_->setGateEndpoint(gate_);
}

Addr
KonaRuntime::mapSharedRegion(const std::string &name, std::size_t bytes)
{
    KONA_ASSERT(agent_ != nullptr,
                "attachCoherence() before mapSharedRegion()");
    const DirectoryService::SharedRegion &region =
        coherenceDir_->sharedRegion(name, bytes,
                                    config_.replicationFactor);

    Addr base = vfmemCursor_;
    for (const MappedSlab &slab : region.slabs) {
        std::size_t slabSize = slab.primary.size;
        if (vfmemCursor_ + slabSize >
            config_.fpga.vfmemBase + config_.fpga.vfmemSize) {
            fatal("VFMem window exhausted mapping shared region '",
                  name, "'");
        }
        fpga_.translation().addSlab(vfmemCursor_, slab.primary,
                                    slab.replicas, /*shared=*/true);
        Addr firstVpn = pageNumber(vfmemCursor_);
        Addr pages = slabSize / pageSize;
        for (Addr i = 0; i < pages; ++i)
            pageTable_.map(firstVpn + i, firstVpn + i, /*writable=*/true);
        vfmemCursor_ += slabSize;
    }
    agent_->addGovernedRange(base, region.bytes);
    return base;
}

void
KonaRuntime::exportAttribution()
{
    missAttr_.exportGauges(scope_.sub("miss.attr"));
    evictor_.shipmentAttribution().exportGauges(
        scope_.sub("evict.attr"));
}

void
KonaRuntime::mapNewSlab()
{
    // Slab allocation mutates the Controller's shared placement state.
    ShardSection section(gate_, GateEvent::Control);

    std::size_t slabSize = controller_.slabSize();
    if (vfmemCursor_ + slabSize >
        config_.fpga.vfmemBase + config_.fpga.vfmemSize) {
        fatal("VFMem window exhausted: cannot map another slab");
    }

    SlabGrant primary =
        *controller_.allocateSlab(PlacementRequest{.required = true});
    std::vector<SlabGrant> replicas;
    for (std::size_t i = 0; i < config_.replicationFactor; ++i)
        replicas.push_back(*controller_.allocateSlab(
            PlacementRequest{.copyIndex = i + 1, .required = true}));
    fpga_.translation().addSlab(vfmemCursor_, primary,
                                std::move(replicas));

    // All pages become present and writable now and never change:
    // Kona "logically pre-populates" the mapping, which is what kills
    // page faults and TLB shootdowns on the data path.
    Addr firstVpn = pageNumber(vfmemCursor_);
    Addr pages = slabSize / pageSize;
    for (Addr i = 0; i < pages; ++i)
        pageTable_.map(firstVpn + i, firstVpn + i, /*writable=*/true);

    if (heap_ == nullptr) {
        heap_ = std::make_unique<RegionAllocator>(vfmemCursor_,
                                                  slabSize);
    } else {
        heap_->extend(slabSize);
    }
    vfmemCursor_ += slabSize;
}

void
KonaRuntime::ensureHeap(std::size_t need)
{
    while (heap_->bytesFree() < need)
        mapNewSlab();
}

Addr
KonaRuntime::allocate(std::size_t size, std::size_t align)
{
    KONA_ASSERT(size > 0, "zero-byte allocation");
    ensureHeap(size + align);
    auto addr = heap_->allocate(size, align);
    while (!addr.has_value()) {
        // Fragmentation can defeat bytesFree(); map more and retry.
        mapNewSlab();
        addr = heap_->allocate(size, align);
    }
    return *addr;
}

void
KonaRuntime::deallocate(Addr addr)
{
    heap_->deallocate(addr);
}

void
KonaRuntime::simulateAccess(Addr addr, std::size_t size,
                            AccessType type)
{
    KONA_ASSERT(fpga_.inVFMem(addr) &&
                    fpga_.inVFMem(addr + size - 1),
                "access outside VFMem at ", addr);

    Addr first = alignDown(addr, cacheLineSize);
    Addr last = alignDown(addr + size - 1, cacheLineSize);
    for (Addr line = first; line <= last; line += cacheLineSize) {
        // Inter-node coherence: hold directory rights before the line
        // is served. Detached runtimes pay one predicted branch.
        if (agent_)
            agent_->ensureAccess(line, type, appClock_);
        int level = hierarchy_.accessOne(line, type);
        if (level >= 0) {
            appClock_.advance(static_cast<Tick>(
                levelLatencyNs_[static_cast<std::size_t>(level)]));
            continue;
        }
        appClock_.advance(static_cast<Tick>(
            levelLatencyNs_[hierarchy_.numLevels()]));
        Span miss(&trace_, appClock_, "miss", "miss");
        miss.arg("addr", line);
        miss.arg("bytes", static_cast<std::uint64_t>(cacheLineSize));
        missAttr_.begin(appClock_.now());
        ServeStatus status = fpga_.serveLine(line, type, appClock_);
        if (status != ServeStatus::RemoteUnavailable) {
            missAttr_.end(appClock_.now(), MissComponent::Other);
            continue;
        }
        RetryState retry(config_.retry, retrySeed_++);
        retry.bindTelemetry(&outageRetries_, &outageBackoffNs_);
        while (status == ServeStatus::RemoteUnavailable) {
            // The fill never happened: roll the line back out of the
            // simulated caches so a retry misses to memory again.
            hierarchy_.invalidateLine(line);
            if (config_.failurePolicy == FailurePolicy::Fatal ||
                !retry.shouldRetry()) {
                fatal("remote memory unreachable for VFMem line ",
                      line, "; resolve the network outage and "
                      "restart");
            }
            // §4.5: report the failure and wait for the outage to
            // resolve, then retry the fetch.
            std::size_t attempt = retry.attempts();
            Tick backoffStart = appClock_.now();
            retry.backoff(appClock_);
            missAttr_.charge(MissComponent::Retry,
                             appClock_.now() - backoffStart);
            if (outageObserver_)
                outageObserver_(attempt);
            // The outage may have pushed a node over the failure
            // threshold; rebuilding re-homes its slabs so the retry
            // can succeed against a healthy placement.
            checkRackHealth();
            hierarchy_.accessOne(line, type);
            status = fpga_.serveLine(line, type, appClock_);
        }
        missAttr_.end(appClock_.now(), MissComponent::Other);
        miss.arg("retries", retry.attempts());
    }
}

bool
KonaRuntime::spanResident(Addr addr, std::size_t size) const
{
    Addr firstVpn = pageNumber(addr);
    Addr lastVpn = pageNumber(addr + size - 1);
    for (Addr vpn = firstVpn; vpn <= lastVpn; ++vpn) {
        if (!fpga_.pageResident(vpn))
            return false;
    }
    return true;
}

void
KonaRuntime::ensureSpan(Addr addr, std::size_t size, AccessType type)
{
    // A multi-page access can have an earlier page force-evicted by a
    // set conflict while a later page is being fetched; re-simulate
    // until the whole span is simultaneously resident. Eviction
    // snoops a page's lines out of the CPU caches, so the re-fetch
    // misses and goes through serveLine again (a real re-fetch the
    // application would also pay for).
    for (int attempt = 0; attempt < 8; ++attempt) {
        simulateAccess(addr, size, type);
        if (spanResident(addr, size))
            return;
    }
    fatal("access at ", addr, " size ", size,
          " cannot keep its pages simultaneously resident; FMem is "
          "too small or too low-associative for this access");
}

void
KonaRuntime::read(Addr addr, void *buf, std::size_t size)
{
    if (size == 0)
        return;
    checkRackHealth();
    ensureSpan(addr, size, AccessType::Read);
    fpga_.readBytes(addr, buf, size);
    reads_.add();
    bytesRead_.add(size);
    finishAccess();
}

void
KonaRuntime::write(Addr addr, const void *buf, std::size_t size)
{
    if (size == 0)
        return;
    checkRackHealth();
    ensureSpan(addr, size, AccessType::Write);
    fpga_.writeBytes(addr, buf, size);
    writes_.add();
    bytesWritten_.add(size);

    // Emulated track-local-data (§5): in lieu of real coherence
    // hardware the instrumentation marks the written lines directly;
    // the simulated hierarchy's writebacks mark the same lines when
    // they drain, so the mask is a superset-correct union.
    fpga_.markDirtyRange(addr, size);
    finishAccess();
}

void
KonaRuntime::finishAccess()
{
    if (++accessesSincePump_ >= config_.evict.pumpPeriod) {
        accessesSincePump_ = 0;
        // Evictor first so a fresh promotion is never the very next
        // pump's victim: promoted pages carry zero touches until the
        // first demand hit, which scan/lfu would otherwise reap
        // before the page had any chance to prove itself.
        evictor_.pump(backgroundClock_);
        if (tiering_ != nullptr)
            tiering_->pump(appClock_.now());
    }
    if (sampler_ != nullptr)
        sampler_->onTick(appClock_.now());
    // Parallel engine: advertise this shard's new stamp lower bound.
    gate_.publish();
}

void
KonaRuntime::writebackAll()
{
    hierarchy_.flushAll();
    evictor_.submit(fpga_.fmem().residentPages(), backgroundClock_);
    evictor_.drain(backgroundClock_);
}

Tick
KonaRuntime::elapsed() const
{
    Tick t = appClock_.now();
    t = std::max(t, backgroundClock_.now());
    t = std::max(t, fpga_.backgroundTime());
    return t;
}

RuntimeStats
KonaRuntime::stats() const
{
    RuntimeStats s;
    s.reads = reads_.value();
    s.writes = writes_.value();
    s.bytesRead = bytesRead_.value();
    s.bytesWritten = bytesWritten_.value();
    s.remoteFetches = fpga_.remoteFetches();
    s.pagesEvicted = evictor_.pagesEvicted();
    s.silentEvictions = evictor_.silentEvictions();
    s.dirtyLinesWritten = evictor_.dirtyLinesWritten();
    s.evictionBytesOnWire = evictor_.bytesOnWire();
    s.retries = totalRetries();
    s.retransmits = totalRetransmits();
    s.replicaPromotions = totalPromotions();
    return s;
}

std::vector<PlacementRef>
KonaRuntime::collectPlacements()
{
    // The refs alias MappedSlab values inside RemoteTranslation's map,
    // which are stable across the Controller's in-place rewrites.
    std::vector<PlacementRef> refs;
    fpga_.translation().forEachSlab([&refs](MappedSlab &slab) {
        // Shared-region placements are owned by the DirectoryService
        // registry (identical across every mapping runtime); a
        // per-runtime rewrite would desynchronize the copies.
        if (slab.shared)
            return;
        refs.push_back({&slab.primary, &slab.replicas});
    });
    return refs;
}

void
KonaRuntime::checkRackHealth()
{
    // Fast path: this runs on every read()/write(), and rack failures
    // are rare — hasNewlyFailed() is an atomic flag precisely so the
    // parallel engine can poll it without entering the gate.
    if (!controller_.hasNewlyFailed())
        return;
    ShardSection section(gate_, GateEvent::Control);
    for (NodeId node : controller_.takeNewlyFailed())
        recoverFromNodeFailure(node);
}

RebuildReport
KonaRuntime::recoverFromNodeFailure(NodeId node)
{
    ShardSection section(gate_, GateEvent::Control);
    // Fence the node before touching placements so no path (fetch,
    // eviction, rebuild source selection) talks to it again.
    fabric_.setNodeDown(node, true);
    auto placements = collectPlacements();
    RebuildReport report =
        controller_.rebuildReplicas(node, placements, appClock_.now());
    rebuildPromotions_.add(report.primariesPromoted);
    degraded_ = report.slabsLost > 0 || report.slabsUnrebuilt > 0;
    if (report.slabsLost > 0) {
        warn("node ", node, " loss destroyed ", report.slabsLost,
             " slab(s) with no surviving copy; replicationFactor was "
             "too low");
    }
    return report;
}

RebuildReport
KonaRuntime::decommissionNode(NodeId node)
{
    ShardSection section(gate_, GateEvent::Control);
    // Stop new placements first, then wait out every in-flight CL-log
    // shipment addressed to the node: evacuation frees and rewrites
    // its slabs, and a log landing after the rewrite would scribble on
    // reused memory (the evacuate x async-eviction race).
    if (controller_.health(node) != NodeHealth::Draining)
        controller_.drainNode(node, appClock_.now());
    evictor_.drainNode(node, backgroundClock_);
    auto placements = collectPlacements();
    RebuildReport report =
        controller_.evacuateNode(node, placements, appClock_.now());
    if (report.slabsUnrebuilt == 0) {
        controller_.removeNode(node, appClock_.now());
        inform("node ", node, " decommissioned");
    } else {
        warn("node ", node, " still holds ", report.slabsUnrebuilt,
             " slab(s); decommission incomplete");
    }
    return report;
}

RebuildReport
KonaRuntime::hotAddNode(MemoryNode &node)
{
    ShardSection section(gate_, GateEvent::Control);
    // Register in the Joining state (no placements, no primary reads),
    // quiesce the eviction engine — the rebalance migrates copies off
    // arbitrary donors, so every in-flight shipment must land before
    // placements move — then warm the newcomer with its fair share of
    // existing copies and promote it to Healthy.
    controller_.joinNode(node, appClock_.now());
    evictor_.drain(backgroundClock_);
    auto placements = collectPlacements();
    RebuildReport report =
        controller_.rebalanceOnto(node.id(), placements);
    controller_.completeJoin(node.id(), appClock_.now());
    inform("node ", node.id(), " hot-added: ", report.slabsRebuilt,
           " slab(s) rebalanced onto it");
    return report;
}

ReliabilityStats
KonaRuntime::reliability() const
{
    ReliabilityStats r;
    r.retries = totalRetries();
    r.retransmits = totalRetransmits();
    r.checksumFailures = evictor_.checksumNaks();
    r.replicaPromotions = totalPromotions();
    r.nodesFailed = controller_.nodesFailed();
    r.slabsRebuilt = controller_.slabsRebuilt();
    r.slabsLost = controller_.slabsLost();
    r.degraded = degraded_;
    return r;
}

} // namespace kona
