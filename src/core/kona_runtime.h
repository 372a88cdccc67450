/**
 * @file
 * KonaRuntime: the coherence-based remote memory runtime (§4).
 *
 * The three remote-memory operations map to hardware primitives:
 *  - fetch: a CPU cache miss to VFMem becomes an FPGA directory
 *    request; no page fault ever fires because every VFMem page is
 *    mapped present and writable at allocation time and stays that way;
 *  - track: dirty cache-lines are recorded by the FPGA from observed
 *    writebacks, decoupled from the page size;
 *  - evict: the EvictionHandler ships only dirty lines in a CL log,
 *    off the critical path via a background pump.
 *
 * The KLib pieces of Fig 4 appear as: ResourceManager = the slab
 * mapping logic in ensureHeap(); AllocLib = allocate()/deallocate();
 * Caching Handler = CoherentFpga::serveLine; Dirty Data Tracker =
 * CoherentFpga::onWriteback; Eviction Handler = EvictionHandler;
 * Poller = net Poller used by the FPGA and eviction paths.
 */

#ifndef KONA_CORE_KONA_RUNTIME_H
#define KONA_CORE_KONA_RUNTIME_H

#include <array>
#include <functional>
#include <memory>

#include "cache/hierarchy.h"
#include "common/stats.h"
#include "core/eviction_handler.h"
#include "core/runtime.h"
#include "fpga/coherent_fpga.h"
#include "mem/page_table.h"
#include "mem/region_allocator.h"
#include "net/retry_policy.h"
#include "policy/tiering_engine.h"
#include "rack/controller.h"
#include "telemetry/attribution.h"
#include "telemetry/metric_registry.h"
#include "telemetry/trace_session.h"

namespace kona {

class CoherenceAgent;
class DirectoryService;

/** What to do when every replica of a page is unreachable (§4.5). */
enum class FailurePolicy : std::uint8_t
{
    Fatal,      ///< raise the outage to the application immediately
    WaitRetry,  ///< back off and retry — "wait until the network
                ///< delay or outage is resolved"
};

/** Configuration of the whole Kona stack on a compute node. */
struct KonaConfig
{
    FpgaConfig fpga;
    HierarchyConfig hierarchy;

    FailurePolicy failurePolicy = FailurePolicy::Fatal;
    /**
     * WaitRetry: the shared backoff discipline (also handed to the
     * EvictionHandler for its retransmit loop). initialBackoffNs is
     * the first wait; maxAttempts bounds retries before escalating.
     */
    RetryPolicy retry{.initialBackoffNs = 100'000, .maxAttempts = 64};

    /** Extra remote copies per slab (§4.5 replication; 0 = none). */
    std::size_t replicationFactor = 0;

    /**
     * Eviction engine configuration (mode, pipeline depth, pump
     * cadence). The engine retries with `retry` above, traces into the
     * runtime's own session and journals into the Controller's.
     */
    EvictionConfig evict;

    /**
     * Hot/cold tiering policy spec "policy[:n]": off or ewma (see
     * src/policy/tiering_engine.h). When enabled, the runtime keeps
     * an EWMA heat map over VFMem and pumps promotions/demotions on
     * the eviction cadence; metrics land under "<scope>.cn<id>.tier".
     */
    std::string tiering = "off";
};

/** The Kona software runtime. */
class KonaRuntime : public RemoteMemoryRuntime
{
  public:
    /**
     * @param scope Telemetry scope. The runtime prefixes it with its
     *         compute-node id ("<scope>.cn<id>") so several runtimes
     *         sharing one MetricRegistry never collide; subsystems
     *         then register under "<scope>.cn<id>.fpga",
     *         ".hierarchy", ".evict", and the runtime's own counters
     *         directly under "<scope>.cn<id>".
     */
    KonaRuntime(Fabric &fabric, Controller &controller,
                NodeId computeNode, const KonaConfig &config = {},
                MetricScope scope = {});
    ~KonaRuntime() override;

    // MemoryInterface
    void read(Addr addr, void *buf, std::size_t size) override;
    void write(Addr addr, const void *buf, std::size_t size) override;

    // RemoteMemoryRuntime
    Addr allocate(std::size_t size, std::size_t align = 16) override;
    void deallocate(Addr addr) override;
    void writebackAll() override;
    Tick elapsed() const override;
    RuntimeStats stats() const override;
    std::string name() const override { return "Kona"; }

    const KonaConfig &config() const { return config_; }
    CoherentFpga &fpga() { return fpga_; }

    /** The hot/cold tiering engine; nullptr when tiering is "off". */
    TieringEngine *tieringEngine() { return tiering_.get(); }
    CacheHierarchy &hierarchy() { return hierarchy_; }
    EvictionHandler &evictionHandler() { return evictor_; }
    SimClock &appClock() { return appClock_; }
    SimClock &backgroundClock() { return backgroundClock_; }
    const PageTable &pageTable() const { return pageTable_; }

    /** Simulated time spent on the critical path so far. */
    Tick appTime() const { return appClock_.now(); }

    /**
     * WaitRetry policy: hook invoked once per backoff period while an
     * outage persists (tests and operator tooling use it to observe
     * or resolve the outage). Return value ignored.
     */
    void setOutageObserver(std::function<void(std::size_t attempt)> cb)
    {
        outageObserver_ = std::move(cb);
    }

    std::uint64_t outageRetries() const { return outageRetries_.value(); }

    /**
     * Poll the Controller's failure detector and run rebuilds for any
     * node newly declared dead. Called automatically on the access
     * path; exposed so tests and operator tooling can force a sweep.
     */
    void checkRackHealth();

    /**
     * Self-healing (§4.5): fence @p node, promote replicas whose
     * primary died with it, and re-replicate every affected slab onto
     * surviving healthy nodes.
     */
    RebuildReport recoverFromNodeFailure(NodeId node);

    /**
     * Graceful decommission: drain @p node (both new placements at the
     * Controller and in-flight eviction shipments addressed to it),
     * migrate all of its slabs to other healthy nodes, and deregister
     * it once empty.
     */
    RebuildReport decommissionNode(NodeId node);

    /**
     * Elastic hot-add: register @p node as Joining, quiesce eviction,
     * rebalance existing copies onto it until it carries its fair
     * share, then promote it to Healthy so it starts taking placements
     * and primary traffic.
     */
    RebuildReport hotAddNode(MemoryNode &node);

    // --- inter-node coherence (multi-compute-node racks) -------------

    /**
     * Join the rack's coherence protocol: embed a CoherenceAgent,
     * register this runtime as a peer at @p directory, and wire the
     * FPGA's page-drop hook so any drop of a governed page (remote
     * invalidation or capacity eviction) releases directory rights.
     * Must be called before mapSharedRegion(); single-node runtimes
     * that never call it pay nothing on the access path.
     */
    void attachCoherence(DirectoryService &directory);

    /**
     * Map the named coherence-shared region into this runtime's VFMem
     * window and put it under the agent's governance. Every runtime
     * mapping the region gets the identical remote placement (the
     * DirectoryService registry owns it); with identically-configured
     * runtimes the returned VFMem base is identical too, so litmus
     * harnesses can use one address across nodes. The region is not
     * part of the private heap: allocate() never hands out its pages.
     */
    Addr mapSharedRegion(const std::string &name, std::size_t bytes);

    /** The embedded protocol endpoint; nullptr until attached. */
    CoherenceAgent *coherenceAgent() const { return agent_.get(); }

    NodeId computeNode() const { return computeNode_; }

    /** True while the rack holds less redundancy than configured. */
    bool degraded() const { return degraded_; }

    /** Fault-tolerance counters across all of this runtime's paths. */
    ReliabilityStats reliability() const;

    /** The registry all of this runtime's metrics live in. */
    const std::shared_ptr<MetricRegistry> &metrics() const
    {
        return scope_.registry();
    }

    TraceSession *traceSession() override { return &trace_; }

    /** Tick @p sampler once per read()/write() on the app clock. */
    void setTimeSeriesSampler(TimeSeriesSampler *sampler) override
    {
        sampler_ = sampler;
    }

    /**
     * Join a parallel simulation as shard @p shard of @p gate
     * (DESIGN.md §16): every cross-shard interaction of this runtime —
     * remote fetches, eviction shipments, directory/coherence ops,
     * slab allocation, failure recovery — becomes a gated section
     * stamped max(appClock, backgroundClock), and each access
     * publishes that stamp as the shard's lower bound. nullptr
     * detaches (sequential mode, zero overhead on the access path).
     */
    void setShardGate(ShardGate *gate, std::uint32_t shard = 0);

    /** This runtime's gate binding (detached unless setShardGate). */
    const GateEndpoint &gateEndpoint() const { return gate_; }

    /**
     * Exact end-to-end attribution of every completed demand miss
     * (sum of MissComponent buckets == miss ns, with any unbracketed
     * residual in "other") plus a slowest-1% breakdown.
     */
    const LatencyAttribution &missAttribution() const
    {
        return missAttr_;
    }

    /**
     * Publish the miss and eviction-shipment attributions as gauges
     * ("<scope>.miss.attr.*", "<scope>.evict.attr.*") so --metrics-json
     * exports carry the breakdown. Call before exporting.
     */
    void exportAttribution();

  private:
    // Single source for the counters RuntimeStats and ReliabilityStats
    // both report; the two snapshots can never diverge.
    std::uint64_t
    totalRetries() const
    {
        return outageRetries_.value() + evictor_.retryBackoffs();
    }
    std::uint64_t totalRetransmits() const
    {
        return evictor_.logRetransmits();
    }
    std::uint64_t
    totalPromotions() const
    {
        return fpga_.replicaPromotions() + rebuildPromotions_.value();
    }
    /** Simulate the hierarchy + FPGA path for one access. */
    void simulateAccess(Addr addr, std::size_t size, AccessType type);

    /** Whether every page of [addr, addr+size) is in FMem. */
    bool spanResident(Addr addr, std::size_t size) const;

    /** Simulate until the whole span is simultaneously resident. */
    void ensureSpan(Addr addr, std::size_t size, AccessType type);

    /** After each read/write: pump cadence (evictor, then tiering),
     *  sampler tick and gate publish. */
    void finishAccess();

    /** Map new slabs until the heap can satisfy @p need bytes. */
    void ensureHeap(std::size_t need);

    /** Map one fresh slab at the VFMem cursor. */
    void mapNewSlab();

    /** Lend every slab's placement to the Controller for rewriting. */
    std::vector<PlacementRef> collectPlacements();

    Fabric &fabric_;
    Controller &controller_;
    NodeId computeNode_;
    KonaConfig config_;
    MetricScope scope_;
    TraceSession trace_;
    CoherentFpga fpga_;
    CacheHierarchy hierarchy_;
    EvictionHandler evictor_;
    PageTable pageTable_;

    std::unique_ptr<RegionAllocator> heap_;
    std::unique_ptr<TieringEngine> tiering_;
    /** Reused demotion batch so tiering pumps never allocate. */
    std::vector<Addr> demoteVpns_;
    std::unique_ptr<CoherenceAgent> agent_;
    DirectoryService *coherenceDir_ = nullptr;
    Addr vfmemCursor_;

    /** Kept beside the other per-access members: placed at the top of
     *  the object they slowed the FMem-hit access path. evictor_ binds
     *  a reference to appClock_ before the clock is constructed; it
     *  reads the clock only from its member functions, never while
     *  either object is being constructed or destroyed. */
    SimClock appClock_;
    SimClock backgroundClock_;
    GateEndpoint gate_;
    LatencyAttribution missAttr_{MissComponent::names,
                                 MissComponent::Count};
    TimeSeriesSampler *sampler_ = nullptr;
    std::size_t accessesSincePump_ = 0;
    std::uint64_t retrySeed_ = 0x4b6fULL;
    bool degraded_ = false;

    /** Cumulative latency of a hit at each level, then memory entry. */
    std::array<double, 8> levelLatencyNs_{};

    std::function<void(std::size_t)> outageObserver_;

    Counter &reads_;
    Counter &writes_;
    Counter &bytesRead_;
    Counter &bytesWritten_;
    Counter &outageRetries_;
    Counter &rebuildPromotions_;
    LatencyHistogram &outageBackoffNs_;
};

} // namespace kona

#endif // KONA_CORE_KONA_RUNTIME_H
