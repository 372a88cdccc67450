/**
 * @file
 * Ablation: prefetching from remote memory (§3 / §4.4).
 *
 * "Eliminating page faults from the critical path has the additional
 * benefit that hardware prefetchers can prefetch more data, even from
 * remote memory" — impossible for fault-based systems because a
 * prefetch cannot cross a page fault (§4.4). The paper evaluates a
 * fixed next-page scheme; this bench sweeps the pluggable engine
 * (src/prefetch/) across four access patterns so each predictor meets
 * the stream it was built for and the one that defeats it:
 *
 *   seq     one load per page, ascending      (any policy should win)
 *   stride  constant +3/-3 page stride        (stride detector)
 *   graph   fixed pointer-chase permutation,  (correlation / Markov)
 *           walked 4 laps
 *   rand    uniform-random page touches       (nothing should win;
 *                                              adaptive must throttle)
 *
 * Pass --prefetch=POLICY[:depth] to sweep only {off, POLICY}.
 * Exports only the result.ablation_prefetch.<wl>.<policy>.* gauges;
 * each run's component metrics stay in its runtime's private registry.
 */

#include "bench/bench_util.h"

namespace kona {
namespace {

constexpr std::size_t span = 16 * MiB;
constexpr std::size_t numPages = span / pageSize;

/** Page-index touch order for one workload. */
std::vector<std::size_t>
makeStream(const std::string &workload)
{
    std::vector<std::size_t> order;
    if (workload == "seq") {
        for (std::size_t i = 0; i < numPages; ++i)
            order.push_back(i);
    } else if (workload == "stride") {
        // Constant +3-page stride (gcd(3, numPages) == 1, so the walk
        // covers every page), then a backward -3 phase to exercise
        // negative-stride detection.
        std::size_t p = 0;
        for (std::size_t i = 0; i < numPages / 2; ++i) {
            order.push_back(p);
            p = (p + 3) % numPages;
        }
        for (std::size_t i = 0; i < numPages / 2; ++i) {
            order.push_back(p);
            p = (p + numPages - 3) % numPages;
        }
    } else if (workload == "graph") {
        // A fixed random permutation cycle — the page-level shape of a
        // pointer chase. Each lap repeats the same successor edges, so
        // the Markov table confirms during lap 2 and predicts from
        // lap 3 on. Stride sees noise.
        std::vector<std::size_t> perm(numPages);
        for (std::size_t i = 0; i < numPages; ++i)
            perm[i] = i;
        Rng rng(11);
        for (std::size_t i = numPages - 1; i > 0; --i) {
            std::size_t j = rng.below(i + 1);
            std::swap(perm[i], perm[j]);
        }
        for (int lap = 0; lap < 4; ++lap)
            for (std::size_t i = 0; i < numPages; ++i)
                order.push_back(perm[i]);
    } else if (workload == "rand") {
        Rng rng(5);
        for (std::size_t i = 0; i < numPages; ++i)
            order.push_back(rng.below(numPages));
    } else {
        fatal("unknown workload ", workload);
    }
    return order;
}

struct Result
{
    Tick appNs = 0;
    std::uint64_t demand = 0;
    PrefetchStats stats;
};

std::string
slugOf(const std::string &policy)
{
    std::string slug = policy;
    for (char &c : slug) {
        if (c == ':')
            c = '_';
    }
    return slug;
}

Result
run(const std::string &policy, const std::vector<std::size_t> &stream)
{
    Fabric fabric;
    Controller controller(1 * MiB);
    MemoryNode node(fabric, 1, 256 * MiB);
    controller.registerNode(node);
    KonaConfig cfg;
    cfg.fpga.vfmemSize = 64 * MiB;
    // FMem holds half the footprint: steady demand misses without
    // prefetching, so there is something for the engine to hide.
    cfg.fpga.fmemSize = 8 * MiB;
    cfg.fpga.prefetchPolicy = policy;
    cfg.hierarchy = HierarchyConfig::scaled();
    KonaRuntime runtime(fabric, controller, 0, cfg);

    Addr region = runtime.allocate(span, pageSize);
    Tick before = runtime.appTime();
    // One line per page: the fetch-dominated pattern where prefetch
    // matters most (streaming over more data than FMem-hot lines).
    for (std::size_t page : stream)
        (void)runtime.load<std::uint64_t>(region + page * pageSize);

    Result result;
    result.appNs = runtime.appTime() - before;
    result.demand = runtime.fpga().demandFetches();
    result.stats = runtime.fpga().prefetchStats();
    return result;
}

} // namespace
} // namespace kona

int
main(int argc, char **argv)
{
    using namespace kona;
    bench::parseExportFlags(argc, argv);
    setQuietLogging(true);

    std::vector<std::string> policies = {"off",      "next:1", "next:4",
                                         "stride:4", "corr:2", "adaptive:4"};
    if (!bench::exportOptions().prefetchPolicy.empty() &&
        bench::exportOptions().prefetchPolicy != "off") {
        policies = {"off", bench::exportOptions().prefetchPolicy};
    }

    const std::vector<std::string> workloads = {"seq", "stride", "graph",
                                                "rand"};
    for (const std::string &workload : workloads) {
        std::vector<std::size_t> stream = makeStream(workload);
        bench::section("Ablation: prefetch policies, " + workload +
                       " workload (" +
                       bench::fmtInt(stream.size()) + " page touches, "
                       "FMem = footprint/2)");
        bench::row("policy", {"app ms", "demand", "issued", "useful",
                              "wasted", "acc %", "speedup"});

        double offNs = 0.0;
        for (const std::string &policy : policies) {
            Result r = run(policy, stream);
            if (policy == "off")
                offNs = static_cast<double>(r.appNs);
            double speedup = static_cast<double>(r.appNs) > 0.0
                                 ? offNs / static_cast<double>(r.appNs)
                                 : 1.0;
            bench::row(
                policy,
                {bench::fmt(static_cast<double>(r.appNs) / 1e6),
                 bench::fmtInt(r.demand), bench::fmtInt(r.stats.issued),
                 bench::fmtInt(r.stats.useful),
                 bench::fmtInt(r.stats.wasted),
                 bench::fmt(100.0 * r.stats.accuracy(), 1),
                 bench::fmt(speedup, 2)});

            std::string base = "ablation_prefetch." + workload + "." +
                               slugOf(policy);
            bench::recordResult(base + ".app_ms",
                                static_cast<double>(r.appNs) / 1e6);
            bench::recordResult(base + ".demand",
                                static_cast<double>(r.demand));
            bench::recordResult(base + ".issued",
                                static_cast<double>(r.stats.issued));
            bench::recordResult(base + ".useful",
                                static_cast<double>(r.stats.useful));
            bench::recordResult(base + ".wasted",
                                static_cast<double>(r.stats.wasted));
            bench::recordResult(base + ".accuracy",
                                r.stats.accuracy());
            bench::recordResult(base + ".speedup", speedup);
        }
    }

    std::printf(
        "\nShape (§3/§4.4): regular streams (seq, stride) gain "
        "substantially — the detector locks on and hides the remote "
        "fetch latency off the critical path; the repeated pointer "
        "chase only yields to the correlation table; uniform-random "
        "gains nothing, and the adaptive policy proves it by "
        "throttling itself to near-zero issues. A fault-based runtime "
        "cannot prefetch remote memory at all — the prefetcher never "
        "crosses a page fault.\n");
    bench::flushExports();
    return 0;
}
