/**
 * @file
 * Micro-ablations over the simulated RDMA stack and the Kona eviction
 * path, using google-benchmark. These quantify the §5.1 optimization
 * decisions: batching/linking, unsignaled completions, inline data,
 * payload-size scaling, CL log vs per-line writes, and the cost of
 * replication at eviction time.
 *
 * Reported counters: simulated nanoseconds per operation (simNs), the
 * real time column only reflects simulator speed.
 */

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "workloads/microbench.h"

namespace kona {
namespace {

/** Fixture state for raw verb benchmarks. */
struct VerbEnv
{
    VerbEnv()
        : local(4 * MiB), remote(64 * MiB), poller(fabric.latency())
    {
        fabric.attachNode(0, &local);
        fabric.attachNode(1, &remote);
        mr = fabric.registerRegion(1, 0, 64 * MiB);
        qp = std::make_unique<QueuePair>(fabric, 0, 1, cq);
        buffer.resize(64 * KiB, 0x7e);
    }

    WorkRequest
    wr(std::size_t size, Addr addr, bool signaled = true)
    {
        WorkRequest w;
        w.wrId = nextId++;
        w.opcode = RdmaOpcode::Write;
        w.localBuf = buffer.data();
        w.remoteKey = mr.key;
        w.remoteAddr = addr;
        w.length = size;
        w.signaled = signaled;
        return w;
    }

    Fabric fabric;
    BackingStore local, remote;
    CompletionQueue cq;
    Poller poller;
    MemoryRegion mr;
    std::unique_ptr<QueuePair> qp;
    std::vector<std::uint8_t> buffer;
    std::uint64_t nextId = 1;
};

/** Single signaled write of Arg(0) bytes. */
void
BM_RdmaSingleWrite(benchmark::State &state)
{
    VerbEnv env;
    SimClock clock;
    auto size = static_cast<std::size_t>(state.range(0));
    std::uint64_t ops = 0;
    for (auto _ : state) {
        env.qp->post(env.wr(size, 0), clock);
        env.poller.waitOne(env.cq, clock);
        ++ops;
    }
    state.counters["simNs/op"] = static_cast<double>(clock.now()) /
                                 static_cast<double>(ops);
}
BENCHMARK(BM_RdmaSingleWrite)->Arg(64)->Arg(256)->Arg(4096)
    ->Arg(65536);

/** Linked chain of Arg(0) 64B writes, tail-signaled. */
void
BM_RdmaLinkedChain(benchmark::State &state)
{
    VerbEnv env;
    SimClock clock;
    auto chainLen = static_cast<std::size_t>(state.range(0));
    std::uint64_t ops = 0;
    std::vector<WorkRequest> chain;
    for (auto _ : state) {
        chain.clear();
        for (std::size_t i = 0; i < chainLen; ++i)
            chain.push_back(env.wr(64, i * 64, i + 1 == chainLen));
        env.qp->postLinked(chain, clock);
        env.poller.waitOne(env.cq, clock);
        ops += chainLen;
    }
    state.counters["simNs/op"] = static_cast<double>(clock.now()) /
                                 static_cast<double>(ops);
}
BENCHMARK(BM_RdmaLinkedChain)->Arg(1)->Arg(4)->Arg(16)->Arg(64)
    ->Arg(256);

/** Inline vs regular small writes. */
void
BM_RdmaInlineWrite(benchmark::State &state)
{
    VerbEnv env;
    SimClock clock;
    bool inlineData = state.range(0) != 0;
    std::uint64_t ops = 0;
    for (auto _ : state) {
        WorkRequest w = env.wr(64, 0);
        w.inlineData = inlineData;
        env.qp->post(w, clock);
        env.poller.waitOne(env.cq, clock);
        ++ops;
    }
    state.counters["simNs/op"] = static_cast<double>(clock.now()) /
                                 static_cast<double>(ops);
}
BENCHMARK(BM_RdmaInlineWrite)->Arg(0)->Arg(1);

/** Kona eviction of pages with Arg(0) dirty lines, CL log vs page. */
void
BM_EvictionModes(benchmark::State &state)
{
    bool clLog = state.range(1) != 0;
    auto dirtyLines = static_cast<unsigned>(state.range(0));

    Fabric fabric;
    Controller controller(1 * MiB);
    MemoryNode node(fabric, 1, 256 * MiB);
    controller.registerNode(node);
    KonaConfig cfg;
    cfg.fpga.vfmemSize = 64 * MiB;
    cfg.fpga.fmemSize = 8 * MiB;
    cfg.hierarchy = HierarchyConfig::scaled();
    cfg.evict.mode = clLog ? EvictionMode::ClLog
                             : EvictionMode::FullPage;
    cfg.evict.pumpPeriod = ~std::size_t(0);
    KonaRuntime runtime(fabric, controller, 0, cfg);
    constexpr std::size_t pages = 512;
    Addr region = runtime.allocate(pages * pageSize, pageSize);

    SimClock evictClock;
    std::uint64_t evicted = 0;
    for (auto _ : state) {
        state.PauseTiming();
        for (std::size_t p = 0; p < pages; ++p) {
            for (unsigned l = 0; l < dirtyLines; ++l) {
                runtime.store<std::uint64_t>(
                    region + p * pageSize + l * cacheLineSize, l + 1);
            }
        }
        runtime.hierarchy().flushAll();
        std::vector<Addr> vpns;
        for (std::size_t p = 0; p < pages; ++p)
            vpns.push_back(pageNumber(region) + p);
        state.ResumeTiming();
        runtime.evictionHandler().submit(vpns, evictClock);
        runtime.evictionHandler().drain(evictClock);
        evicted += pages;
    }
    state.counters["simNs/page"] =
        static_cast<double>(evictClock.now()) /
        static_cast<double>(evicted);
}
BENCHMARK(BM_EvictionModes)
    ->ArgsProduct({{1, 4, 16, 64}, {0, 1}});

/** Replication cost at eviction: 0, 1, 2 replicas. */
void
BM_ReplicationCost(benchmark::State &state)
{
    auto replicas = static_cast<std::size_t>(state.range(0));
    Fabric fabric;
    Controller controller(1 * MiB);
    std::vector<std::unique_ptr<MemoryNode>> nodes;
    for (NodeId id = 1; id <= 3; ++id) {
        nodes.push_back(std::make_unique<MemoryNode>(fabric, id,
                                                     256 * MiB));
        controller.registerNode(*nodes.back());
    }
    KonaConfig cfg;
    cfg.fpga.vfmemSize = 64 * MiB;
    cfg.fpga.fmemSize = 8 * MiB;
    cfg.hierarchy = HierarchyConfig::scaled();
    cfg.replicationFactor = replicas;
    cfg.evict.pumpPeriod = ~std::size_t(0);
    KonaRuntime runtime(fabric, controller, 0, cfg);
    constexpr std::size_t pages = 256;
    Addr region = runtime.allocate(pages * pageSize, pageSize);

    SimClock evictClock;
    std::uint64_t evicted = 0;
    for (auto _ : state) {
        state.PauseTiming();
        for (std::size_t p = 0; p < pages; ++p)
            runtime.store<std::uint64_t>(region + p * pageSize, p + 1);
        runtime.hierarchy().flushAll();
        std::vector<Addr> vpns;
        for (std::size_t p = 0; p < pages; ++p)
            vpns.push_back(pageNumber(region) + p);
        state.ResumeTiming();
        runtime.evictionHandler().submit(vpns, evictClock);
        runtime.evictionHandler().drain(evictClock);
        evicted += pages;
    }
    state.counters["simNs/page"] =
        static_cast<double>(evictClock.now()) /
        static_cast<double>(evicted);
}
BENCHMARK(BM_ReplicationCost)->Arg(0)->Arg(1)->Arg(2);

} // namespace
} // namespace kona

// Expanded BENCHMARK_MAIN(): the export flags must come out of argv
// before benchmark::Initialize, which rejects arguments it does not
// recognize.
int
main(int argc, char **argv)
{
    kona::bench::parseExportFlags(argc, argv);
    ::benchmark::Initialize(&argc, argv);
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();
    kona::bench::flushExports();
    return 0;
}
