/**
 * @file
 * Shared scaffolding for the experiment harnesses in bench/: a
 * standard simulated rack, workload environments, fixed-width table
 * printing so each binary regenerates its paper table/figure as plain
 * text, and the machine-readable export layer behind the common
 * --metrics-json= / --trace-out= flags.
 */

#ifndef KONA_BENCH_BENCH_UTIL_H
#define KONA_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/kona_runtime.h"
#include "core/vm_runtime.h"
#include "mem/backing_store.h"
#include "policy/placement_policy.h"
#include "policy/tiering_engine.h"
#include "policy/victim_policy.h"
#include "prefetch/prefetcher.h"
#include "telemetry/metric_registry.h"
#include "telemetry/time_series.h"
#include "telemetry/trace_session.h"
#include "workloads/registry.h"

namespace kona::bench {

/** Export destinations from the command line (empty = disabled). */
struct ExportOptions
{
    std::string metricsJson;     ///< --metrics-json=PATH
    std::string traceOut;        ///< --trace-out=PATH
    std::string prefetchPolicy;  ///< --prefetch=policy[:depth]
    std::string victimPolicy;    ///< --victim=policy[:arg]
    std::string placementPolicy; ///< --placement=policy
    std::string tieringPolicy;   ///< --tiering=policy[:n]
    std::string timeseriesOut;   ///< --timeseries-out=PATH (.json/.csv)
    std::string eventsOut;       ///< --events-out=PATH (JSONL)
    Tick timeseriesIntervalNs = 1'000'000; ///< --timeseries-interval=NS
    unsigned threads = 0;        ///< --threads=N (0 = bench default)
};

inline ExportOptions &
exportOptions()
{
    static ExportOptions opts;
    return opts;
}

/**
 * The registry every headline result and (when a bench passes its
 * scope into a runtime) every component metric exports through.
 */
inline const std::shared_ptr<MetricRegistry> &
exportRegistry()
{
    static std::shared_ptr<MetricRegistry> registry =
        std::make_shared<MetricRegistry>();
    return registry;
}

/** A scope on the export registry rooted at @p prefix. */
inline MetricScope
exportScope(const std::string &prefix = "")
{
    return MetricScope(exportRegistry(), prefix);
}

/**
 * Strip --metrics-json=, --trace-out=, --prefetch=, --victim=,
 * --placement=, --tiering=, --timeseries-out=, --timeseries-interval=,
 * --threads= and --events-out= out of argv, leaving every other argument in
 * place. Call first thing in main, before any other argument parsing
 * (including benchmark::Initialize, which rejects flags it does not
 * know). A bad policy spec is fatal() here rather than deep inside a
 * runtime constructor.
 */
inline void
parseExportFlags(int &argc, char **argv)
{
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        constexpr std::string_view metricsFlag = "--metrics-json=";
        constexpr std::string_view traceFlag = "--trace-out=";
        constexpr std::string_view prefetchFlag = "--prefetch=";
        constexpr std::string_view tsFlag = "--timeseries-out=";
        constexpr std::string_view tsIntervalFlag =
            "--timeseries-interval=";
        constexpr std::string_view eventsFlag = "--events-out=";
        constexpr std::string_view victimFlag = "--victim=";
        constexpr std::string_view placementFlag = "--placement=";
        constexpr std::string_view tieringFlag = "--tiering=";
        constexpr std::string_view threadsFlag = "--threads=";
        if (arg.substr(0, metricsFlag.size()) == metricsFlag) {
            exportOptions().metricsJson = arg.substr(metricsFlag.size());
        } else if (arg.substr(0, traceFlag.size()) == traceFlag) {
            exportOptions().traceOut = arg.substr(traceFlag.size());
        } else if (arg.substr(0, tsFlag.size()) == tsFlag) {
            exportOptions().timeseriesOut = arg.substr(tsFlag.size());
        } else if (arg.substr(0, tsIntervalFlag.size()) ==
                   tsIntervalFlag) {
            std::string spec(arg.substr(tsIntervalFlag.size()));
            char *end = nullptr;
            unsigned long long ns = std::strtoull(spec.c_str(), &end, 10);
            if (end == spec.c_str() || *end != '\0' || ns == 0)
                fatal("bad --timeseries-interval= value \"", spec,
                      "\"; want a positive sim-time interval in ns");
            exportOptions().timeseriesIntervalNs = ns;
        } else if (arg.substr(0, threadsFlag.size()) == threadsFlag) {
            std::string spec(arg.substr(threadsFlag.size()));
            char *end = nullptr;
            unsigned long long n = std::strtoull(spec.c_str(), &end, 10);
            if (end == spec.c_str() || *end != '\0' || n == 0 ||
                n > 256)
                fatal("bad --threads= value \"", spec,
                      "\"; want a shard-concurrency cap in [1, 256]");
            exportOptions().threads = static_cast<unsigned>(n);
        } else if (arg.substr(0, eventsFlag.size()) == eventsFlag) {
            exportOptions().eventsOut = arg.substr(eventsFlag.size());
        } else if (arg.substr(0, prefetchFlag.size()) == prefetchFlag) {
            std::string spec(arg.substr(prefetchFlag.size()));
            if (!knownPrefetchPolicy(spec))
                fatal("bad --prefetch= policy \"", spec,
                      "\"; known: off next[:d] stride[:d] corr[:d] "
                      "adaptive[:d]");
            exportOptions().prefetchPolicy = spec;
        } else if (arg.substr(0, victimFlag.size()) == victimFlag) {
            std::string spec(arg.substr(victimFlag.size()));
            if (!knownVictimPolicy(spec))
                fatal("bad --victim= policy \"", spec,
                      "\"; known: lru lfu scan[:t] dirty");
            exportOptions().victimPolicy = spec;
        } else if (arg.substr(0, placementFlag.size()) ==
                   placementFlag) {
            std::string spec(arg.substr(placementFlag.size()));
            if (!knownPlacementPolicy(spec))
                fatal("bad --placement= policy \"", spec,
                      "\"; known: free first rr health");
            exportOptions().placementPolicy = spec;
        } else if (arg.substr(0, tieringFlag.size()) == tieringFlag) {
            std::string spec(arg.substr(tieringFlag.size()));
            if (!knownTieringPolicy(spec))
                fatal("bad --tiering= policy \"", spec,
                      "\"; known: off ewma[:n]");
            exportOptions().tieringPolicy = spec;
        } else {
            argv[kept++] = argv[i];
        }
    }
    for (int i = kept; i < argc; ++i)
        argv[i] = nullptr;
    argc = kept;
}

/**
 * Record one headline experiment number as the gauge
 * "result.<name>" in the export registry (e.g.
 * "result.table2.redis-rand.amp4k").
 */
inline void
recordResult(const std::string &name, double value)
{
    exportRegistry()->gauge("result." + name).set(value);
}

/**
 * Turn on @p runtime's tracer when --trace-out= was given, with a
 * ring large enough for a full bench run. Pair with
 * writeTraceIfRequested() before the runtime dies.
 */
inline void
enableTraceIfRequested(RemoteMemoryRuntime &runtime,
                       std::size_t capacity = 1 << 20)
{
    if (exportOptions().traceOut.empty())
        return;
    TraceSession *trace = runtime.traceSession();
    if (trace == nullptr)
        return;
    trace->setCapacity(capacity);
    trace->enable();
}

/**
 * Write @p runtime's trace to --trace-out= (no-op when the flag is
 * absent or the runtime is uninstrumented). Call while the runtime is
 * still alive; when several runtimes are traced the last write wins.
 */
inline void
writeTraceIfRequested(RemoteMemoryRuntime &runtime)
{
    if (exportOptions().traceOut.empty())
        return;
    TraceSession *trace = runtime.traceSession();
    if (trace == nullptr || !trace->enabled())
        return;
    trace->writeJsonFile(exportOptions().traceOut);
}

/**
 * Write the export registry to --metrics-json= (no-op when the flag
 * is absent). Call at the end of main, after every recordResult.
 */
inline void
flushExports()
{
    const ExportOptions &opts = exportOptions();
    if (opts.metricsJson.empty())
        return;
    std::ofstream os(opts.metricsJson);
    if (!os) {
        warn("cannot open ", opts.metricsJson, " for metrics export");
        return;
    }
    exportRegistry()->writeJson(os);
}

/**
 * Write @p sampler's windows to --timeseries-out= (format from the
 * extension: ".json" = JSON, anything else = CSV). Call finish() on
 * the sampler first so the trailing partial window is included.
 */
inline void
writeTimeseriesIfRequested(const TimeSeriesSampler &sampler)
{
    if (exportOptions().timeseriesOut.empty())
        return;
    sampler.writeFile(exportOptions().timeseriesOut);
}

/** A rack with @p nodeCount memory nodes of @p nodeSize bytes each. */
struct Rack
{
    explicit Rack(std::size_t nodeCount = 3,
                  std::size_t nodeSize = 512 * MiB,
                  std::size_t slabSize = 1 * MiB,
                  MetricScope scope = {})
        : fabric(LatencyConfig{}, scope.sub("fabric")),
          controller(slabSize, scope.sub("rack"))
    {
        for (NodeId id = 1; id <= nodeCount; ++id) {
            nodes.push_back(std::make_unique<MemoryNode>(
                fabric, id, nodeSize, 4 * MiB,
                scope.sub("rack.node" + std::to_string(id))));
            controller.registerNode(*nodes.back());
        }
    }

    Fabric fabric;
    Controller controller;
    std::vector<std::unique_ptr<MemoryNode>> nodes;
};

/** Plain-memory workload environment (for trace-analysis benches). */
struct PlainEnv
{
    explicit PlainEnv(std::size_t size = 1024 * MiB)
        : store(size), heap(pageSize, size - pageSize),
          context(
              store,
              [this](std::size_t s, std::size_t a) {
                  auto addr = heap.allocate(s, a);
                  if (!addr.has_value())
                      fatal("bench heap exhausted");
                  return *addr;
              },
              [this](Addr a) { heap.deallocate(a); })
    {}

    BackingStore store;
    RegionAllocator heap;
    WorkloadContext context;
};

/** Workload context running on a remote-memory runtime. */
inline WorkloadContext
runtimeContext(RemoteMemoryRuntime &runtime)
{
    return WorkloadContext(
        runtime,
        [&runtime](std::size_t s, std::size_t a) {
            return runtime.allocate(s, a);
        },
        [&runtime](Addr a) { runtime.deallocate(a); });
}

/** Print a separator + title for one experiment section. */
inline void
section(const std::string &title)
{
    std::printf("\n%s\n", title.c_str());
    for (std::size_t i = 0; i < title.size(); ++i)
        std::printf("=");
    std::printf("\n");
}

/** Print one row of right-aligned cells after a left label. */
inline void
row(const std::string &label, const std::vector<std::string> &cells,
    int labelWidth = 24, int cellWidth = 12)
{
    std::printf("%-*s", labelWidth, label.c_str());
    for (const std::string &cell : cells)
        std::printf("%*s", cellWidth, cell.c_str());
    std::printf("\n");
}

inline std::string
fmt(double value, int precision = 2)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

inline std::string
fmtInt(std::uint64_t value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
    return buf;
}

} // namespace kona::bench

#endif // KONA_BENCH_BENCH_UTIL_H
