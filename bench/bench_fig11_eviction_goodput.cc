/**
 * @file
 * Figure 11: eviction goodput at cache-line granularity.
 *
 * A region of pages is dirtied with N cache-lines per page
 * (contiguous in 11a, alternate in 11b) and then evicted:
 *
 *   Kona's CL log          — aggregated dirty lines, one RDMA write +
 *                            receiver unpack + ack per batch;
 *   Kona-VM 4KB writes     — registered-buffer copy + one 4KB RDMA
 *                            write per page;
 *   4KB writes no-copy     — idealized: no local copy (pre-registered
 *                            buffers), linked 4KB writes;
 *   CL writes no-copy      — idealized: one small RDMA write per
 *                            dirty-line run, linked, no copy.
 *
 * Goodput = dirty bytes / total transfer time, reported relative to
 * Kona-VM. Expected shape: CL log 4-5X for 1-4 contiguous lines,
 * 2-3X for 2-4 alternate lines, worse than 4KB only past ~16
 * discontiguous lines; 4KB no-copy ~1.5X over Kona-VM everywhere.
 * 11c: the CL log's time is dominated by Copy, with 15-20% RDMA,
 * 15-20% Bitmap and a small Ack share.
 */

#include "bench/bench_util.h"
#include "workloads/microbench.h"

namespace kona {
namespace {

constexpr std::size_t regionPages = 1024;   // 4MB scaled from 1GB

/** Dirty @p lines (line indices) in every page of a Kona region. */
void
dirtyPattern(KonaRuntime &runtime, Addr region,
             const std::vector<unsigned> &lines)
{
    for (std::size_t p = 0; p < regionPages; ++p) {
        for (unsigned line : lines) {
            Addr addr = region + p * pageSize + line * cacheLineSize;
            runtime.store<std::uint64_t>(addr,
                                         p * 64 + line + 1);
        }
    }
}

/** Evict everything and return ns spent + stats snapshot. */
struct EvictResult
{
    double ns;
    std::uint64_t dirtyBytes;
    EvictionBreakdown breakdown;
};

EvictResult
konaEvict(EvictionMode mode, const std::vector<unsigned> &lines,
          std::size_t depth = 1)
{
    Fabric fabric;
    Controller controller(1 * MiB);
    MemoryNode node(fabric, 1, 256 * MiB);
    controller.registerNode(node);
    KonaConfig cfg;
    cfg.fpga.vfmemSize = 64 * MiB;
    cfg.fpga.fmemSize = 8 * MiB;   // whole region fits: no churn
    cfg.hierarchy = HierarchyConfig::scaled();
    cfg.evict.mode = mode;
    cfg.evict.pipelineDepth = depth;
    cfg.evict.pumpPeriod = ~std::size_t(0);   // manual eviction only
    KonaRuntime runtime(fabric, controller, 0, cfg);

    Addr region = runtime.allocate(regionPages * pageSize, pageSize);
    dirtyPattern(runtime, region, lines);

    runtime.hierarchy().flushAll();
    runtime.evictionHandler().resetBreakdown();
    SimClock evictClock;
    std::vector<Addr> vpns;
    for (std::size_t p = 0; p < regionPages; ++p)
        vpns.push_back(pageNumber(region) + p);
    runtime.evictionHandler().submit(vpns, evictClock);
    runtime.evictionHandler().drain(evictClock);

    EvictResult result;
    result.ns = static_cast<double>(evictClock.now());
    result.dirtyBytes = regionPages * lines.size() * cacheLineSize;
    result.breakdown = runtime.evictionHandler().breakdown();
    return result;
}

/** Idealized no-copy baselines built straight on the RDMA verbs. */
double
idealizedNs(bool fullPage, const std::vector<unsigned> &lines)
{
    Fabric fabric;
    BackingStore local(64 * MiB), remote(256 * MiB);
    fabric.attachNode(0, &local);
    fabric.attachNode(1, &remote);
    MemoryRegion mr = fabric.registerRegion(1, 0, 256 * MiB);
    CompletionQueue cq;
    QueuePair qp(fabric, 0, 1, cq);
    Poller poller(fabric.latency());
    SimClock clock;

    static std::vector<std::uint8_t> buffer(pageSize, 0x5a);
    std::vector<WorkRequest> chain;
    std::uint64_t wrId = 1;
    // Decompose the line set into contiguous runs (one WR per run).
    std::vector<std::pair<unsigned, unsigned>> runs;
    unsigned i = 0;
    while (i < lines.size()) {
        unsigned start = i;
        while (i + 1 < lines.size() &&
               lines[i + 1] == lines[i] + 1)
            ++i;
        runs.push_back({lines[start], lines[i] - lines[start] + 1});
        ++i;
    }

    constexpr std::size_t batchPages = 64;
    for (std::size_t p = 0; p < regionPages; ++p) {
        if (fullPage) {
            WorkRequest wr;
            wr.wrId = wrId++;
            wr.opcode = RdmaOpcode::Write;
            wr.localBuf = buffer.data();
            wr.remoteKey = mr.key;
            wr.remoteAddr = p * pageSize;
            wr.length = pageSize;
            wr.signaled = false;
            chain.push_back(wr);
        } else {
            for (auto [first, count] : runs) {
                WorkRequest wr;
                wr.wrId = wrId++;
                wr.opcode = RdmaOpcode::Write;
                wr.localBuf = buffer.data();
                wr.remoteKey = mr.key;
                wr.remoteAddr = p * pageSize + first * cacheLineSize;
                wr.length = count * cacheLineSize;
                wr.signaled = false;
                chain.push_back(wr);
            }
        }
        // Post in page batches with only the tail signaled.
        if ((p + 1) % batchPages == 0 || p + 1 == regionPages) {
            chain.back().signaled = true;
            qp.postLinked(chain, clock);
            poller.waitOne(cq, clock);
            chain.clear();
        }
    }
    return static_cast<double>(clock.now());
}

void
sweep(const char *title, bool contiguous,
      const std::vector<unsigned> &counts)
{
    bench::section(title);
    std::vector<std::string> header = {"N lines"};
    for (unsigned n : counts)
        header.push_back(std::to_string(n));
    bench::row(header[0],
               std::vector<std::string>(header.begin() + 1,
                                        header.end()), 24, 8);

    std::vector<std::string> clLog, page4kIdeal, clIdeal;
    for (unsigned n : counts) {
        auto lines = contiguous ? contiguousLines(n)
                                : alternateLines(n);
        EvictResult cl = konaEvict(EvictionMode::ClLog, lines);
        EvictResult vm = konaEvict(EvictionMode::FullPage, lines);
        double ideal4k = idealizedNs(true, lines);
        double idealCl = idealizedNs(false, lines);

        // Goodput = dirty bytes / time; relative to the 4KB writer.
        double gVm = static_cast<double>(cl.dirtyBytes) / vm.ns;
        double gCl = static_cast<double>(cl.dirtyBytes) / cl.ns;
        double g4kIdeal = static_cast<double>(cl.dirtyBytes) /
                          ideal4k;
        double gClIdeal = static_cast<double>(cl.dirtyBytes) /
                          idealCl;
        clLog.push_back(bench::fmt(gCl / gVm));
        page4kIdeal.push_back(bench::fmt(g4kIdeal / gVm));
        clIdeal.push_back(bench::fmt(gClIdeal / gVm));

        std::string prefix = std::string("fig11.") +
                             (contiguous ? "contiguous." : "alternate.") +
                             std::to_string(n) + "_lines";
        bench::recordResult(prefix + ".cl_log_over_vm", gCl / gVm);
        bench::recordResult(prefix + ".ideal_4k_over_vm",
                            g4kIdeal / gVm);
        bench::recordResult(prefix + ".ideal_cl_over_vm",
                            gClIdeal / gVm);
    }
    bench::row("Kona's CL log", clLog, 24, 8);
    bench::row("4KB no-copy [ideal]", page4kIdeal, 24, 8);
    bench::row("CL no-copy [ideal]", clIdeal, 24, 8);
}

void
breakdownTable()
{
    bench::section("Figure 11c: CL log eviction time breakdown "
                    "(contiguous lines)");
    bench::row("N lines",
               {"bitmap%", "copy%", "rdma%", "unpack%", "wait%",
                "total ms"},
               24, 10);
    for (unsigned n : {1u, 8u, 64u}) {
        EvictResult cl = konaEvict(EvictionMode::ClLog,
                                   contiguousLines(n));
        const EvictionBreakdown &bd = cl.breakdown;
        double total = bd.totalNs();
        bench::row(std::to_string(n),
                   {bench::fmt(bd.bitmapNs / total * 100, 0),
                    bench::fmt(bd.copyNs / total * 100, 0),
                    bench::fmt(bd.rdmaNs / total * 100, 0),
                    bench::fmt(bd.unpackNs / total * 100, 0),
                    bench::fmt(bd.waitNs / total * 100, 0),
                    bench::fmt(total / 1e6, 2)},
                   24, 10);
    }
}

void
depthSweep()
{
    bench::section("Pipelined eviction: goodput vs pipeline depth "
                   "(dirty-heavy, 64 lines/page)");
    bench::row("depth", {"goodput GB/s", "vs depth 1", "total ms"},
               24, 14);
    auto lines = contiguousLines(64);
    double base = 0.0;
    for (std::size_t depth : {1u, 2u, 4u, 8u}) {
        EvictResult r = konaEvict(EvictionMode::ClLog, lines, depth);
        double goodput = static_cast<double>(r.dirtyBytes) / r.ns;
        if (depth == 1)
            base = goodput;
        double speedup = goodput / base;
        bench::row(std::to_string(depth),
                   {bench::fmt(goodput, 2), bench::fmt(speedup, 2),
                    bench::fmt(r.ns / 1e6, 2)},
                   24, 14);
        std::string prefix =
            "fig11.depth." + std::to_string(depth);
        bench::recordResult(prefix + ".goodput_gbps", goodput);
        bench::recordResult(prefix + ".speedup_over_depth1", speedup);
    }
}

} // namespace
} // namespace kona

int
main(int argc, char **argv)
{
    using namespace kona;
    bench::parseExportFlags(argc, argv);
    setQuietLogging(true);
    sweep("Figure 11a: goodput relative to Kona-VM — contiguous "
          "dirty lines",
          true, {1, 2, 4, 6, 8, 12, 16, 32, 64});
    sweep("Figure 11b: goodput relative to Kona-VM — alternate "
          "dirty lines",
          false, {1, 2, 4, 8, 12, 16, 32});
    breakdownTable();
    depthSweep();
    std::printf("\nShape: CL log 4-5X at 1-4 contiguous lines, 2-3X "
                "at 2-4 alternate; crossover vs 4KB beyond ~16 "
                "discontiguous lines; 4KB no-copy ~1.5X everywhere; "
                "breakdown dominated by Copy with 15-20%% RDMA and "
                "Bitmap.\n");
    bench::flushExports();
    return 0;
}
