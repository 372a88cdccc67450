/**
 * @file
 * CLI driver: run any of the nine paper workloads on any runtime
 * with a chosen local-memory fraction, and report throughput and
 * runtime statistics. The "swiss-army knife" for exploring the
 * design space beyond the canned benchmarks.
 *
 * Usage:
 *   run_workload [workload] [runtime] [local%] [ops]
 *                [--prefetch=POLICY[:depth]] [--evict-depth=N]
 *                [--victim=POLICY[:arg]] [--placement=POLICY]
 *                [--tiering=POLICY[:n]]
 *                [--metrics-json=PATH] [--trace-out=PATH]
 *                [--timeseries-out=PATH] [--timeseries-interval=NS]
 *                [--events-out=PATH]
 *                [--chaos=NAME|@FILE] [--chaos-seed=N]
 *
 *   workload:  redis-rand | redis-seq | linear-regression |
 *              histogram | pagerank | graph-coloring |
 *              connected-components | label-propagation |
 *              voltdb-tpcc                       (default redis-rand)
 *   runtime:   kona | kona-vm | legoos | infiniswap | local
 *                                                  (default kona)
 *   local%:    local cache as a percent of the footprint (default 50)
 *   ops:       operations to run (default 4x the workload's window)
 *
 *   --prefetch=POLICY    FPGA prefetch policy (kona runtime only):
 *                        off | next[:d] | stride[:d] | corr[:d] |
 *                        adaptive[:d]; accuracy/coverage counters
 *                        appear under kona.fpga.prefetch.*
 *   --evict-depth=N      eviction pipeline depth (kona runtime only):
 *                        ring slots per memory node's log landing
 *                        area = in-flight eviction batches per node;
 *                        1 (default) is fully synchronous
 *   --victim=POLICY      FMem victim-selection policy (kona runtime
 *                        only): lru | lfu | scan[:t] | dirty; picks
 *                        appear under kona.fpga.fmem.policy.*
 *   --placement=POLICY   slab placement policy at the Controller:
 *                        free | first | rr | health
 *   --tiering=POLICY     hot/cold tiering (kona runtime only):
 *                        off | ewma[:n]; promotion/demotion counters
 *                        appear under kona.tier.*
 *   --metrics-json=PATH  write every metric of the whole stack
 *                        (fabric, rack, nodes, runtime) as one JSON
 *                        registry dump
 *   --trace-out=PATH     record sim-time spans of the miss and
 *                        eviction paths and write Chrome trace-event
 *                        JSON (open in Perfetto / chrome://tracing)
 *   --timeseries-out=PATH  sample every stack metric on a sim-time
 *                        interval and write per-window deltas
 *                        (".json" = JSON, else CSV); works in both
 *                        the plain and --chaos= modes
 *   --timeseries-interval=NS  sim-time sampling interval in ns
 *                        (default 1000000 = 1ms)
 *   --events-out=PATH    write the rack's structured event journal
 *                        (health transitions, quarantine/readmit,
 *                        epoch bumps, drain/join, stale-home marks,
 *                        retries-exhausted, ring-full stalls) as JSONL
 *   --chaos=NAME|@FILE   run a scripted gray-failure scenario instead
 *                        of the plain workload loop: a builtin name
 *                        (slow-node, flapping, partial-partition,
 *                        drain-under-load, hot-add-rebalance) or
 *                        @path to a scenario file (format documented
 *                        in src/chaos/chaos_scenario.h). Reports tail
 *                        latency, availability, membership epochs and
 *                        the content-oracle verdict. Honours
 *                        --metrics-json=, --timeseries-out= and
 *                        --events-out=; the scenario fixes the
 *                        stack, so --trace-out=, --prefetch=,
 *                        --victim=, --placement=, --tiering= and
 *                        --evict-depth= exit 2
 *   --chaos-seed=N       fault-injector seed for --chaos (default
 *                        0x5eed); the run is deterministic from
 *                        (scenario, seed)
 *
 * Examples:
 *   ./build/examples/run_workload pagerank kona 25
 *   ./build/examples/run_workload voltdb-tpcc infiniswap 50 20000
 *   ./build/examples/run_workload redis-seq kona 25 --prefetch=stride:4
 *   ./build/examples/run_workload redis-rand kona 50 \
 *       --metrics-json=metrics.json --trace-out=miss.trace.json
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>
#include <utility>

#include "chaos/chaos_runner.h"
#include "chaos/chaos_scenario.h"
#include "core/kona_runtime.h"
#include "core/vm_runtime.h"
#include "mem/backing_store.h"
#include "policy/placement_policy.h"
#include "policy/tiering_engine.h"
#include "policy/victim_policy.h"
#include "prefetch/prefetcher.h"
#include "telemetry/event_journal.h"
#include "telemetry/metric_registry.h"
#include "telemetry/time_series.h"
#include "telemetry/trace_session.h"
#include "workloads/registry.h"

namespace {

using namespace kona;

/** Footprint of @p name from a dry setup on plain memory. */
std::size_t
dryFootprint(const std::string &name)
{
    BackingStore store(1024 * MiB);
    RegionAllocator heap(pageSize, 1024 * MiB - pageSize);
    WorkloadContext context(
        store,
        [&heap](std::size_t s, std::size_t a) {
            return *heap.allocate(s, a);
        },
        [&heap](Addr a) { heap.deallocate(a); });
    auto workload = makeWorkload(name, context);
    workload->setup();
    return workload->footprintBytes();
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: run_workload [workload] [runtime] [local%%] "
                 "[ops] [--prefetch=POLICY[:depth]] [--evict-depth=N] "
                 "[--victim=POLICY[:arg]] [--placement=POLICY] "
                 "[--tiering=POLICY[:n]] "
                 "[--metrics-json=PATH] [--trace-out=PATH] "
                 "[--timeseries-out=PATH] [--timeseries-interval=NS] "
                 "[--events-out=PATH] "
                 "[--chaos=NAME|@FILE] [--chaos-seed=N]\n"
                 "  workloads:");
    for (const std::string &name : table2WorkloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr,
                 "\n  runtimes: kona kona-vm legoos infiniswap local\n"
                 "  prefetch policies (kona):");
    for (const std::string &name : prefetchPolicyNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n  victim policies (kona):");
    for (const std::string &name : victimPolicyNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n  placement policies:");
    for (const std::string &name : placementPolicyNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n  tiering policies (kona):");
    for (const std::string &name : tieringPolicyNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n  chaos scenarios:");
    for (const ChaosScenario &sc : builtinChaosScenarios())
        std::fprintf(stderr, " %s", sc.name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

/** Resolve --chaos= to a scenario: builtin by name, or @path. */
ChaosScenario
resolveChaosScenario(const std::string &spec)
{
    if (!spec.empty() && spec[0] == '@') {
        std::ifstream is(spec.substr(1));
        if (!is) {
            std::fprintf(stderr, "cannot open chaos scenario file %s\n",
                         spec.c_str() + 1);
            std::exit(2);
        }
        std::ostringstream text;
        text << is.rdbuf();
        return parseChaosScenario(text.str());
    }
    for (const ChaosScenario &sc : builtinChaosScenarios()) {
        if (sc.name == spec)
            return sc;
    }
    std::fprintf(stderr, "unknown chaos scenario: %s\n", spec.c_str());
    usage();
}

/** Print the slowest-1% component breakdown(s) of a kona run. */
void
printAttributionTables(KonaRuntime &kona)
{
    kona.missAttribution().printTable(
        std::cout, "demand-miss latency attribution");
    kona.evictionHandler().shipmentAttribution().printTable(
        std::cout, "eviction-shipment latency attribution");
}

/** All the --flag= values of one invocation. */
struct Flags
{
    std::string metricsJson;
    std::string traceOut;
    std::string prefetch;
    std::string victim;
    std::string placement;
    std::string tiering;
    std::size_t evictDepth = 0;   ///< 0: not given (depth 1)
    std::string chaos;
    std::uint64_t chaosSeed = 0x5eedULL;
    std::string timeseriesOut;
    Tick timeseriesIntervalNs = 1'000'000;
    std::string eventsOut;
};

/** The --chaos= mode: one scripted run plus its fault-free oracle. */
int
runChaosMode(const Flags &flags)
{
    // The scenario fixes the rack, the runtime and its policies, and
    // the runner records no trace: refuse what it cannot honour.
    const std::pair<const char *, bool> unsupported[] = {
        {"--trace-out=", !flags.traceOut.empty()},
        {"--prefetch=", !flags.prefetch.empty()},
        {"--victim=", !flags.victim.empty()},
        {"--placement=", !flags.placement.empty()},
        {"--tiering=", !flags.tiering.empty()},
        {"--evict-depth=", flags.evictDepth != 0},
    };
    for (const auto &[flag, given] : unsupported) {
        if (given) {
            std::fprintf(stderr, "%s does not apply to --chaos= runs\n",
                         flag);
            return 2;
        }
    }

    ChaosScenario scenario = resolveChaosScenario(flags.chaos);
    const std::string &timeseriesOut = flags.timeseriesOut;
    const std::string &eventsOut = flags.eventsOut;

    TimeSeriesSampler sampler(flags.timeseriesIntervalNs);
    ChaosRunConfig cfg;     // its scope holds the chaos run's registry
    cfg.seed = flags.chaosSeed;
    if (!timeseriesOut.empty())
        cfg.sampler = &sampler;
    ChaosReport run = runChaosScenario(scenario, cfg);

    ChaosRunConfig oracleCfg;
    oracleCfg.faultFree = true;
    ChaosReport oracle = runChaosScenario(scenario, oracleCfg);
    bool match = run.image == oracle.image;

    std::printf("scenario   : %s (workload %s, %zu nodes, seed "
                "0x%llx)\n",
                scenario.name.c_str(), scenario.workload.c_str(),
                scenario.nodes,
                static_cast<unsigned long long>(cfg.seed));
    std::printf("operations : %llu\n",
                static_cast<unsigned long long>(run.opsDone));
    std::printf("latency    : mean %.1f us, p99 %.1f us\n",
                run.meanOpNs / 1e3, run.p99OpNs / 1e3);
    std::printf("available  : %.2f%% of ops within the %.0f us SLO\n",
                100.0 * run.availability,
                static_cast<double>(cfg.sloNs) / 1e3);
    std::printf("membership : epoch %llu, %zu nodes at exit%s%s\n",
                static_cast<unsigned long long>(run.membershipEpoch),
                run.finalNodeCount, run.drained ? ", drained 1" : "",
                run.hotAdded ? ", hot-added 1" : "");
    std::printf("resilience : %llu hedged reads, %llu stale-copy "
                "marks, %llu drain stalls\n",
                static_cast<unsigned long long>(run.hedgedReads),
                static_cast<unsigned long long>(run.staleCopyMarks),
                static_cast<unsigned long long>(
                    run.evacuateDrainStalls));
    std::printf("oracle     : %s\n",
                match ? "match (final memory byte-identical to the "
                        "fault-free run)"
                      : "MISMATCH — content diverged");
    std::printf("attribution: miss sum %llu ns over %llu samples, "
                "shipment sum %llu ns over %llu samples\n",
                static_cast<unsigned long long>(run.missAttrTotalNs),
                static_cast<unsigned long long>(run.missAttrSamples),
                static_cast<unsigned long long>(run.shipAttrTotalNs),
                static_cast<unsigned long long>(run.shipAttrSamples));
    if (!timeseriesOut.empty()) {
        if (!sampler.writeFile(timeseriesOut))
            return 1;
        std::printf("timeseries : %s (%zu windows, %zu columns, %llu "
                    "dropped)\n",
                    timeseriesOut.c_str(), sampler.windows(),
                    sampler.columns(),
                    static_cast<unsigned long long>(
                        sampler.droppedWindows()));
    }
    if (!eventsOut.empty()) {
        std::ofstream os(eventsOut);
        if (!os) {
            std::fprintf(stderr, "cannot open %s for events export\n",
                         eventsOut.c_str());
            return 1;
        }
        EventJournal::writeEventsJsonl(os, run.journal);
        std::printf("events     : %s (%zu journal events)\n",
                    eventsOut.c_str(), run.journal.size());
    }
    if (!flags.metricsJson.empty()) {
        std::ofstream os(flags.metricsJson);
        if (!os) {
            std::fprintf(stderr, "cannot open %s for metrics export\n",
                         flags.metricsJson.c_str());
            return 1;
        }
        cfg.scope.registry()->writeJson(os);
        std::printf("metrics    : %s\n", flags.metricsJson.c_str());
    }
    return match ? 0 : 1;
}

/** Strip every --flag= from argv (positional args are parsed by
 *  index, so the flags must come out first). */
void
parseExportFlags(int &argc, char **argv, Flags &flags)
{
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        constexpr std::string_view metricsFlag = "--metrics-json=";
        constexpr std::string_view traceFlag = "--trace-out=";
        constexpr std::string_view prefetchFlag = "--prefetch=";
        constexpr std::string_view depthFlag = "--evict-depth=";
        constexpr std::string_view victimFlag = "--victim=";
        constexpr std::string_view placementFlag = "--placement=";
        constexpr std::string_view tieringFlag = "--tiering=";
        constexpr std::string_view chaosFlag = "--chaos=";
        constexpr std::string_view chaosSeedFlag = "--chaos-seed=";
        constexpr std::string_view tsFlag = "--timeseries-out=";
        constexpr std::string_view tsIntervalFlag =
            "--timeseries-interval=";
        constexpr std::string_view eventsFlag = "--events-out=";
        if (arg.substr(0, metricsFlag.size()) == metricsFlag)
            flags.metricsJson = arg.substr(metricsFlag.size());
        else if (arg.substr(0, traceFlag.size()) == traceFlag)
            flags.traceOut = arg.substr(traceFlag.size());
        else if (arg.substr(0, prefetchFlag.size()) == prefetchFlag)
            flags.prefetch = arg.substr(prefetchFlag.size());
        else if (arg.substr(0, victimFlag.size()) == victimFlag)
            flags.victim = arg.substr(victimFlag.size());
        else if (arg.substr(0, placementFlag.size()) == placementFlag)
            flags.placement = arg.substr(placementFlag.size());
        else if (arg.substr(0, tieringFlag.size()) == tieringFlag)
            flags.tiering = arg.substr(tieringFlag.size());
        else if (arg.substr(0, depthFlag.size()) == depthFlag) {
            int depth = std::atoi(
                std::string(arg.substr(depthFlag.size())).c_str());
            if (depth < 1)
                usage();
            flags.evictDepth = static_cast<std::size_t>(depth);
        } else if (arg.substr(0, chaosFlag.size()) == chaosFlag)
            flags.chaos = arg.substr(chaosFlag.size());
        else if (arg.substr(0, chaosSeedFlag.size()) == chaosSeedFlag)
            flags.chaosSeed = std::strtoull(
                std::string(arg.substr(chaosSeedFlag.size())).c_str(),
                nullptr, 0);
        else if (arg.substr(0, tsFlag.size()) == tsFlag)
            flags.timeseriesOut = arg.substr(tsFlag.size());
        else if (arg.substr(0, tsIntervalFlag.size()) ==
                 tsIntervalFlag) {
            flags.timeseriesIntervalNs = std::strtoull(
                std::string(arg.substr(tsIntervalFlag.size())).c_str(),
                nullptr, 10);
            if (flags.timeseriesIntervalNs == 0)
                usage();
        } else if (arg.substr(0, eventsFlag.size()) == eventsFlag)
            flags.eventsOut = arg.substr(eventsFlag.size());
        else
            argv[kept++] = argv[i];
    }
    for (int i = kept; i < argc; ++i)
        argv[i] = nullptr;
    argc = kept;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace kona;
    setQuietLogging(true);

    Flags flags;
    parseExportFlags(argc, argv, flags);
    const std::string &metricsJson = flags.metricsJson;
    const std::string &traceOut = flags.traceOut;
    const std::string &prefetchPolicy = flags.prefetch;
    std::size_t evictDepth = flags.evictDepth != 0 ? flags.evictDepth : 1;
    if (!flags.chaos.empty())
        return runChaosMode(flags);

    std::string workloadName = argc > 1 ? argv[1] : "redis-rand";
    std::string runtimeName = argc > 2 ? argv[2] : "kona";
    int localPct = argc > 3 ? std::atoi(argv[3]) : 50;
    std::uint64_t ops = argc > 4
        ? static_cast<std::uint64_t>(std::atoll(argv[4]))
        : defaultWindowOps(workloadName) * 4;

    bool known = false;
    for (const std::string &name : table2WorkloadNames())
        known |= name == workloadName;
    if (!known || localPct < 1 || localPct > 100)
        usage();
    if (!prefetchPolicy.empty() &&
        !knownPrefetchPolicy(prefetchPolicy)) {
        std::fprintf(stderr, "unknown --prefetch= policy: %s\n",
                     prefetchPolicy.c_str());
        usage();
    }
    if (!prefetchPolicy.empty() && runtimeName != "kona") {
        std::fprintf(stderr, "--prefetch= only applies to the kona "
                             "runtime (the FPGA owns the prefetcher); "
                             "ignoring\n");
    }
    if (!flags.victim.empty() && !knownVictimPolicy(flags.victim)) {
        std::fprintf(stderr, "unknown --victim= policy: %s\n",
                     flags.victim.c_str());
        usage();
    }
    if (!flags.placement.empty() &&
        !knownPlacementPolicy(flags.placement)) {
        std::fprintf(stderr, "unknown --placement= policy: %s\n",
                     flags.placement.c_str());
        usage();
    }
    if (!flags.tiering.empty() && !knownTieringPolicy(flags.tiering)) {
        std::fprintf(stderr, "unknown --tiering= policy: %s\n",
                     flags.tiering.c_str());
        usage();
    }
    if ((!flags.victim.empty() || !flags.tiering.empty()) &&
        runtimeName != "kona") {
        std::fprintf(stderr, "--victim=/--tiering= only apply to the "
                             "kona runtime; ignoring\n");
    }
    if (evictDepth != 1 && runtimeName != "kona") {
        std::fprintf(stderr, "--evict-depth= only applies to the kona "
                             "runtime (the eviction engine owns the "
                             "pipeline); ignoring\n");
    }

    std::size_t footprint = dryFootprint(workloadName);
    std::size_t localBytes = std::max<std::size_t>(
        footprint * static_cast<std::size_t>(localPct) / 100,
        64 * pageSize);

    // One registry for the whole stack: the fabric, the rack and the
    // runtime all register into it, so --metrics-json= dumps a single
    // unified namespace ("fabric.*", "rack.*", "kona.*" / "vm.*").
    auto registry = std::make_shared<MetricRegistry>();

    // Rack: three memory nodes sized generously.
    Fabric fabric(LatencyConfig{}, MetricScope(registry, "fabric"));
    Controller controller(1 * MiB, MetricScope(registry, "rack"),
                          flags.placement.empty() ? "free"
                                                  : flags.placement);
    std::vector<std::unique_ptr<MemoryNode>> nodes;
    for (NodeId id = 1; id <= 3; ++id) {
        nodes.push_back(std::make_unique<MemoryNode>(
            fabric, id, 1024 * MiB, 4 * MiB,
            MetricScope(registry,
                        "rack.node" + std::to_string(id))));
        controller.registerNode(*nodes.back());
    }

    std::unique_ptr<RemoteMemoryRuntime> runtime;
    std::unique_ptr<BackingStore> localStore;
    std::unique_ptr<RegionAllocator> localHeap;
    std::unique_ptr<WorkloadContext> context;

    KonaRuntime *kona = nullptr;
    VmRuntime *vm = nullptr;
    if (runtimeName == "kona") {
        KonaConfig cfg;
        cfg.fpga.vfmemSize = 2048 * MiB;
        cfg.fpga.fmemSize = alignUp(localBytes, 4 * pageSize);
        if (!prefetchPolicy.empty())
            cfg.fpga.prefetchPolicy = prefetchPolicy;
        if (!flags.victim.empty())
            cfg.fpga.victimPolicy = flags.victim;
        if (!flags.tiering.empty())
            cfg.tiering = flags.tiering;
        cfg.evict.pipelineDepth = evictDepth;
        cfg.hierarchy = HierarchyConfig::scaled();
        auto owned = std::make_unique<KonaRuntime>(
            fabric, controller, 0, cfg,
            MetricScope(registry, "kona"));
        kona = owned.get();
        runtime = std::move(owned);
    } else if (runtimeName == "kona-vm" || runtimeName == "legoos" ||
               runtimeName == "infiniswap") {
        VmConfig cfg;
        cfg.personality = runtimeName == "legoos"
            ? VmPersonality::LegoOs
            : runtimeName == "infiniswap" ? VmPersonality::Infiniswap
                                          : VmPersonality::KonaVm;
        cfg.localCachePages = localBytes / pageSize;
        cfg.hierarchy = HierarchyConfig::scaled();
        auto owned = std::make_unique<VmRuntime>(
            fabric, controller, 0, cfg, MetricScope(registry, "vm"));
        vm = owned.get();
        runtime = std::move(owned);
    } else if (runtimeName != "local") {
        usage();
    }

    if (runtime != nullptr && !traceOut.empty()) {
        TraceSession *trace = runtime->traceSession();
        if (trace != nullptr) {
            trace->setCapacity(1 << 20);   // fit a full run
            trace->enable();
        }
    }

    if (runtime != nullptr) {
        context = std::make_unique<WorkloadContext>(
            *runtime,
            [&runtime](std::size_t s, std::size_t a) {
                return runtime->allocate(s, a);
            },
            [&runtime](Addr a) { runtime->deallocate(a); });
    } else {
        localStore = std::make_unique<BackingStore>(1024 * MiB);
        localHeap = std::make_unique<RegionAllocator>(
            pageSize, 1024 * MiB - pageSize);
        context = std::make_unique<WorkloadContext>(
            *localStore,
            [&localHeap](std::size_t s, std::size_t a) {
                return *localHeap->allocate(s, a);
            },
            [&localHeap](Addr a) { localHeap->deallocate(a); });
    }

    auto workload = makeWorkload(workloadName, *context);
    workload->setup();

    // Attach after setup so lazily-created metrics (QP scopes) are in
    // the sampled set; the runtime ticks it once per read()/write().
    TimeSeriesSampler sampler(flags.timeseriesIntervalNs);
    if (runtime != nullptr && !flags.timeseriesOut.empty()) {
        sampler.attach(registry,
                       kona != nullptr ? kona->appClock().now()
                       : vm != nullptr ? vm->appClock().now()
                                       : Tick{0});
        runtime->setTimeSeriesSampler(&sampler);
    }

    Tick before = runtime ? runtime->elapsed() : 0;
    std::uint64_t executed = 0;
    while (executed < ops) {
        std::uint64_t got = workload->run(
            std::min<std::uint64_t>(ops - executed, 10000));
        if (got == 0)
            break;
        executed += got;
    }
    Tick ns = runtime ? runtime->elapsed() - before : 1;

    std::printf("workload   : %s (%.1f MB footprint)\n",
                workloadName.c_str(),
                static_cast<double>(footprint) / 1e6);
    std::printf("runtime    : %s, %d%% local (%.1f MB)\n",
                runtime ? runtime->name().c_str() : "local DRAM",
                localPct, static_cast<double>(localBytes) / 1e6);
    std::printf("operations : %llu\n",
                static_cast<unsigned long long>(executed));
    if (runtime) {
        RuntimeStats stats = runtime->stats();
        std::printf("sim time   : %.2f ms  (%.0f kops/s)\n",
                    static_cast<double>(ns) / 1e6,
                    static_cast<double>(executed) /
                        (static_cast<double>(ns) / 1e9) / 1e3);
        std::printf("fetches    : %llu remote\n",
                    static_cast<unsigned long long>(
                        stats.remoteFetches));
        std::printf("faults     : %llu major + %llu minor\n",
                    static_cast<unsigned long long>(stats.majorFaults),
                    static_cast<unsigned long long>(
                        stats.minorFaults));
        std::printf("eviction   : %llu pages (%llu silent), %llu "
                    "dirty lines, %.2f MB on wire\n",
                    static_cast<unsigned long long>(
                        stats.pagesEvicted),
                    static_cast<unsigned long long>(
                        stats.silentEvictions),
                    static_cast<unsigned long long>(
                        stats.dirtyLinesWritten),
                    static_cast<double>(stats.evictionBytesOnWire) /
                        1e6);
        if (kona != nullptr && kona->fpga().prefetcher() != nullptr) {
            PrefetchStats ps = kona->fpga().prefetchStats();
            std::printf("prefetch   : %s — %llu issued, %llu useful, "
                        "%llu wasted (%.0f%% accuracy)\n",
                        kona->fpga().prefetcher()->name().c_str(),
                        static_cast<unsigned long long>(ps.issued),
                        static_cast<unsigned long long>(ps.useful),
                        static_cast<unsigned long long>(ps.wasted),
                        100.0 * ps.accuracy());
        }
        if (kona != nullptr && kona->tieringEngine() != nullptr) {
            TieringEngine &tier = *kona->tieringEngine();
            std::printf("tiering    : %llu promoted (%llu useful, "
                        "%llu wasted), %llu demoted\n",
                        static_cast<unsigned long long>(
                            tier.promoted()),
                        static_cast<unsigned long long>(
                            tier.promotedUseful()),
                        static_cast<unsigned long long>(
                            tier.promotedWasted()),
                        static_cast<unsigned long long>(
                            tier.demoted()));
        }
    }
    if (kona != nullptr)
        printAttributionTables(*kona);

    if (runtime != nullptr && !flags.timeseriesOut.empty()) {
        sampler.finish(kona != nullptr ? kona->appClock().now()
                       : vm != nullptr ? vm->appClock().now()
                                       : Tick{0});
        if (!sampler.writeFile(flags.timeseriesOut))
            return 1;
        std::printf("timeseries : %s (%zu windows, %zu columns, %llu "
                    "dropped)\n",
                    flags.timeseriesOut.c_str(), sampler.windows(),
                    sampler.columns(),
                    static_cast<unsigned long long>(
                        sampler.droppedWindows()));
    }
    if (runtime != nullptr && !flags.eventsOut.empty()) {
        const EventJournal &journal = controller.journal();
        if (!journal.writeJsonlFile(flags.eventsOut))
            return 1;
        std::printf("events     : %s (%zu journal events, %llu "
                    "dropped)\n",
                    flags.eventsOut.c_str(), journal.size(),
                    static_cast<unsigned long long>(journal.dropped()));
    }

    if (!metricsJson.empty()) {
        // Headline run facts ride along with the component metrics.
        if (kona != nullptr)
            kona->exportAttribution();
        registry->gauge("run.operations")
            .set(static_cast<double>(executed));
        registry->gauge("run.sim_ns").set(static_cast<double>(ns));
        registry->gauge("run.footprint_bytes")
            .set(static_cast<double>(footprint));
        registry->gauge("run.local_bytes")
            .set(static_cast<double>(localBytes));
        std::ofstream os(metricsJson);
        if (!os) {
            std::fprintf(stderr, "cannot open %s for metrics export\n",
                         metricsJson.c_str());
            return 1;
        }
        registry->writeJson(os);
        std::printf("metrics    : %s\n", metricsJson.c_str());
    }
    if (runtime != nullptr && !traceOut.empty() &&
        runtime->traceSession() != nullptr) {
        if (!runtime->traceSession()->writeJsonFile(traceOut))
            return 1;
        std::printf("trace      : %s (%zu events, %llu dropped)\n",
                    traceOut.c_str(), runtime->traceSession()->size(),
                    static_cast<unsigned long long>(
                        runtime->traceSession()->dropped()));
    }
    return 0;
}
