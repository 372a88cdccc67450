#include "chaos/chaos_runner.h"

#include <algorithm>
#include <map>
#include <memory>

#include "common/logging.h"
#include "net/fault_injector.h"
#include "telemetry/time_series.h"
#include "workloads/registry.h"

namespace kona {

HealthPolicy
chaosHealthPolicy()
{
    HealthPolicy p;
    p.minSamples = 8;
    p.readmitProbation = 16;
    return p;
}

namespace {

/** Read the full mapped VFMem range back through the runtime. */
std::vector<std::uint8_t>
dumpImage(KonaRuntime &runtime)
{
    Addr base = runtime.config().fpga.vfmemBase;
    std::size_t bytes = 0;
    runtime.fpga().translation().forEachSlab(
        [&bytes](MappedSlab &slab) { bytes += slab.primary.size; });
    std::vector<std::uint8_t> image(bytes);
    constexpr std::size_t chunk = 64 * KiB;
    for (std::size_t off = 0; off < bytes; off += chunk) {
        runtime.read(base + off, image.data() + off,
                     std::min(chunk, bytes - off));
    }
    return image;
}

/** Apply one scripted event to the live stack. */
void
applyEvent(const ChaosEvent &ev, FaultInjector &injector,
           Fabric &fabric, KonaRuntime &runtime,
           std::map<NodeId, std::unique_ptr<MemoryNode>> &spares,
           ChaosReport &report)
{
    switch (ev.op) {
    case ChaosOp::Degrade:
        injector.profile(ev.node).degradeDelayNs = ev.ns;
        break;
    case ChaosOp::NakInflate:
        injector.profile(ev.node).nakProbability = ev.p;
        break;
    case ChaosOp::Drop:
        injector.profile(ev.node).dropProbability = ev.p;
        break;
    case ChaosOp::Spike: {
        NodeFaultProfile &profile = injector.profile(ev.node);
        profile.spikeProbability = ev.p;
        if (ev.ns > 0)
            profile.spikeNs = ev.ns;
        break;
    }
    case ChaosOp::Flap: {
        NodeFaultProfile &profile = injector.profile(ev.node);
        profile.flapPeriodOps = ev.a;
        profile.flapDownOps = ev.b;
        break;
    }
    case ChaosOp::Burst: {
        NodeFaultProfile &profile = injector.profile(ev.node);
        profile.burstPeriodOps = ev.a;
        profile.burstLength = ev.b;
        break;
    }
    case ChaosOp::Partition:
        injector.profile(ev.node).blockedSources.push_back(ev.peer);
        break;
    case ChaosOp::ClearFaults:
        injector.clearProfile(ev.node);
        break;
    case ChaosOp::NodeDown:
        fabric.setNodeDown(ev.node, true);
        break;
    case ChaosOp::NodeUp:
        fabric.setNodeDown(ev.node, false);
        break;
    case ChaosOp::Drain:
        report.drainReport = runtime.decommissionNode(ev.node);
        report.drained = true;
        break;
    case ChaosOp::HotAdd: {
        auto it = spares.find(ev.node);
        KONA_ASSERT(it != spares.end(),
                    "hotadd event for node ", ev.node,
                    " without a spare (id must not collide with the "
                    "initial nodes)");
        report.hotAddReport = runtime.hotAddNode(*it->second);
        report.hotAdded = true;
        break;
    }
    case ChaosOp::ShiftWorkingSet:
        // Workload-shaping, not fault injection: harnesses that build
        // their own access stream (the placement ablation bench) read
        // the event schedule directly; the generic runner's canned
        // workloads ignore it.
        break;
    }
}

} // namespace

ChaosReport
runChaosScenario(const ChaosScenario &scenario,
                 const ChaosRunConfig &config)
{
    MetricScope scope = config.scope;
    Fabric fabric(LatencyConfig{}, scope.sub("fabric"));
    Controller controller(1 * MiB, scope.sub("rack"));
    controller.setHealthPolicy(config.health);
    // Gray failures must stay gray: the fail-stop detector would
    // otherwise declare a merely-degraded node dead and rebuild it,
    // short-circuiting the Suspect/Quarantine path under test.
    controller.setFailureThreshold(1'000'000);

    std::vector<std::unique_ptr<MemoryNode>> nodes;
    for (NodeId id = 1; id <= scenario.nodes; ++id) {
        nodes.push_back(std::make_unique<MemoryNode>(
            fabric, id, 128 * MiB, 4 * MiB,
            scope.sub("node" + std::to_string(id))));
        controller.registerNode(*nodes.back());
    }
    // Spare nodes for HotAdd events exist on the fabric from the start
    // (hardware racked but unregistered) so the join is pure software.
    std::map<NodeId, std::unique_ptr<MemoryNode>> spares;
    for (const ChaosEvent &ev : scenario.events) {
        if (ev.op == ChaosOp::HotAdd && spares.count(ev.node) == 0) {
            KONA_ASSERT(ev.node > scenario.nodes,
                        "hotadd node id collides with initial nodes");
            spares[ev.node] = std::make_unique<MemoryNode>(
                fabric, ev.node, 128 * MiB, 4 * MiB,
                scope.sub("node" + std::to_string(ev.node)));
        }
    }

    KonaConfig kc;
    kc.fpga.vfmemSize = 128 * MiB;
    kc.fpga.fmemSize = 512 * KiB;
    kc.hierarchy = HierarchyConfig::scaled();
    kc.replicationFactor = scenario.replication;
    kc.evict.mode = EvictionMode::ClLog;
    kc.failurePolicy = FailurePolicy::WaitRetry;
    KonaRuntime runtime(fabric, controller, 0, kc, scope.sub("kona"));

    FaultInjector injector(config.seed, scope.sub("faults"));
    if (!config.faultFree)
        fabric.setFaultInjector(&injector);

    std::vector<ChaosEvent> events = scenario.events;
    std::stable_sort(events.begin(), events.end(),
                     [](const ChaosEvent &a, const ChaosEvent &b) {
                         return a.atOp < b.atOp;
                     });

    WorkloadContext context(
        runtime,
        [&runtime](std::size_t s, std::size_t a) {
            return runtime.allocate(s, a);
        },
        [&runtime](Addr a) { runtime.deallocate(a); });
    WorkloadScale scale;
    scale.factor = scenario.scale;
    auto workload = makeWorkload(scenario.workload, context, scale);
    workload->setup();

    // Attach after setup so every lazily-created metric (QP scopes,
    // workload counters) is part of the sampled set.
    if (config.sampler != nullptr) {
        config.sampler->attach(scope.registry(),
                               runtime.appClock().now());
        runtime.setTimeSeriesSampler(config.sampler);
    }

    std::uint64_t budget = scenario.ops > 0
                               ? scenario.ops
                               : std::min<std::uint64_t>(
                                     defaultWindowOps(scenario.workload),
                                     1200);

    ChaosReport report;
    std::vector<double> opNs;
    opNs.reserve(budget);
    std::size_t nextEvent = 0;
    for (std::uint64_t op = 0; op < budget; ++op) {
        while (nextEvent < events.size() &&
               events[nextEvent].atOp <= op) {
            // The oracle applies nothing: membership events are
            // content-neutral, so skipping them keeps the image
            // comparison strict (see the header's contract).
            if (!config.faultFree) {
                applyEvent(events[nextEvent], injector, fabric,
                           runtime, spares, report);
            }
            ++nextEvent;
        }
        Tick before = runtime.appTime();
        if (workload->run(1) == 0)
            break;
        opNs.push_back(static_cast<double>(runtime.appTime() - before));
        ++report.opsDone;
    }

    // The run ends with the outage resolved (§4.5's WaitRetry story):
    // quiesce the injector so the final writeback lands every dirty
    // line — including pages kept resident because a live home missed
    // an earlier shipment — and all copies converge.
    fabric.setFaultInjector(nullptr);
    runtime.writebackAll();
    if (config.sampler != nullptr)
        config.sampler->finish(runtime.appClock().now());

    report.image = dumpImage(runtime);
    report.journal = controller.journal().snapshot();
    const LatencyAttribution &miss = runtime.missAttribution();
    report.missAttrSamples = miss.samples();
    report.missAttrTotalNs = miss.totalNs();
    report.missAttrOtherNs = miss.componentNs(MissComponent::Other);
    const LatencyAttribution &ship =
        runtime.evictionHandler().shipmentAttribution();
    report.shipAttrSamples = ship.samples();
    report.shipAttrTotalNs = ship.totalNs();
    report.shipAttrOtherNs = ship.componentNs(EvictComponent::Other);
    report.reliability = runtime.reliability();
    report.hedgedReads = runtime.fpga().hedgedReads();
    report.prefetchReplicaFallbacks =
        runtime.fpga().prefetchReplicaFallbacks();
    report.evacuateDrainStalls =
        runtime.evictionHandler().evacuateDrainStalls();
    report.staleCopyMarks =
        runtime.evictionHandler().staleCopyMarks();
    report.membershipEpoch = controller.membershipEpoch();
    report.finalNodeCount = controller.nodeCount();

    if (!opNs.empty()) {
        double sum = 0.0;
        std::uint64_t within = 0;
        for (double ns : opNs) {
            sum += ns;
            within += ns <= static_cast<double>(config.sloNs) ? 1 : 0;
        }
        report.meanOpNs = sum / static_cast<double>(opNs.size());
        report.availability =
            static_cast<double>(within) /
            static_cast<double>(opNs.size());
        std::vector<double> sorted = opNs;
        std::sort(sorted.begin(), sorted.end());
        std::size_t idx = std::min(
            sorted.size() - 1,
            static_cast<std::size_t>(
                0.99 * static_cast<double>(sorted.size())));
        report.p99OpNs = sorted[idx];
    }
    return report;
}

} // namespace kona
