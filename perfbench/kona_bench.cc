/**
 * @file
 * Kona benchmark driver. One run executes one workload through the
 * public Kona API and prints one JSON object as its last stdout line.
 *
 *   kona_bench --workload resident|spill|rack --seed N --seconds S
 *              --trace 0|1
 *
 * --trace 0 reports the end-to-end metrics of an untraced run:
 * setup is repeated several times (median setup_s), then one timed
 * window of S host seconds measures throughput, and the first K
 * accesses of every shard give the simulated latency metrics (K is a
 * per-workload constant, so the simulated figures depend on the seed
 * only, never on host speed).
 *
 * --trace 1 reports the per-layer metrics: after one traced setup, a
 * traced half-window and an untraced half-window run back to back on
 * the same stack. The traced half records every access call as a span
 * tagged with the counters the call moved on its own runtime; counter
 * deltas over that half give the layer ratios, and the untraced half
 * the trace overhead. On `rack` a second rack replays setup and the
 * traced half's per-shard step counts at one thread; its registry
 * fingerprint and span-content hash must equal the 4-thread run's.
 *
 * All load is closed-loop: each shard issues its next access only
 * after the previous one returned. Every workload checks each read it
 * makes against a host-side oracle and ends with a whole-span sweep.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/alloc_hook.h"
#include "coherence/agent.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/kona_runtime.h"
#include "rack/memory_node.h"
#include "rack/multi_rack.h"
#include "rack/parallel_driver.h"

namespace kona::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t
hostNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
    }
    return h;
}

constexpr std::uint64_t fnvBasis = 1469598103934665603ULL;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------
// Simulated per-access latency histogram: exact below 1024 ns, then 64
// log-linear sub-buckets per octave (< 1.6% error). Preallocated, so
// recording never allocates inside a timed window.

class SimHistogram
{
  public:
    void
    record(std::uint64_t ns)
    {
        ++buckets_[index(ns)];
        ++count_;
    }

    void
    merge(const SimHistogram &o)
    {
        for (std::size_t i = 0; i < numBuckets; ++i)
            buckets_[i] += o.buckets_[i];
        count_ += o.count_;
    }

    std::uint64_t count() const { return count_; }

    /** Lower bound of the bucket holding the q-th sample. */
    double
    quantile(double q) const
    {
        if (count_ == 0)
            return 0.0;
        auto rank = static_cast<std::uint64_t>(q * count_);
        if (rank >= count_)
            rank = count_ - 1;
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < numBuckets; ++i) {
            seen += buckets_[i];
            if (seen > rank)
                return static_cast<double>(lowerBound(i));
        }
        return 0.0;
    }

  private:
    static constexpr std::size_t exact = 1024;
    static constexpr std::size_t numBuckets = exact + 54 * 64;

    static std::size_t
    index(std::uint64_t v)
    {
        if (v < exact)
            return v;
        unsigned octave = 63 - std::countl_zero(v);
        std::size_t sub = (v >> (octave - 6)) & 63;
        return exact + (octave - 10) * 64 + sub;
    }

    static std::uint64_t
    lowerBound(std::size_t i)
    {
        if (i < exact)
            return i;
        std::size_t octave = (i - exact) / 64 + 10;
        std::uint64_t sub = (i - exact) % 64;
        return (64 + sub) << (octave - 6);
    }

    std::vector<std::uint64_t> buckets_ =
        std::vector<std::uint64_t>(numBuckets, 0);
    std::uint64_t count_ = 0;
};

// ---------------------------------------------------------------------
// Tracing: one span per access call, tagged with the public counters
// the call moved on its own runtime.

/** The public counters one access call can move on its runtime. */
struct CallCounters
{
    std::uint64_t llcMisses = 0;
    std::uint64_t fmemHits = 0;
    std::uint64_t fetches = 0;
    std::uint64_t evicted = 0;
    std::uint64_t acquires = 0;
    std::uint64_t calls = 0;   ///< reads + writes (pump cadence)
};

/** Reads CallCounters off one runtime's public accessors. */
class CounterProbe
{
  public:
    explicit CounterProbe(KonaRuntime &rt)
        : rt_(rt), agent_(rt.coherenceAgent()),
          reads_(counterOf(rt, "reads")), writes_(counterOf(rt, "writes")),
          pumpPeriod_(rt.config().evict.pumpPeriod)
    {}

    CallCounters
    read() const
    {
        CallCounters c;
        c.llcMisses = rt_.hierarchy().memoryRequests();
        c.fmemHits = rt_.fpga().fmemHits();
        c.fetches = rt_.fpga().remoteFetches();
        c.evicted = rt_.evictionHandler().pagesEvicted();
        c.acquires = agent_ != nullptr ? agent_->acquires() : 0;
        c.calls = reads_.value() + writes_.value();
        return c;
    }

    /** Whether the call that brought the count to @p calls pumped. */
    bool pumped(std::uint64_t calls) const
    {
        return calls % pumpPeriod_ == 0;
    }

  private:
    static const Counter &
    counterOf(KonaRuntime &rt, const char *name)
    {
        std::string full = "kona.cn" + std::to_string(rt.computeNode()) +
                           "." + name;
        const Counter *c = rt.metrics()->findCounter(full);
        if (c == nullptr)
            fatal("perfbench: runtime counter ", full, " not registered");
        return *c;
    }

    KonaRuntime &rt_;
    const CoherenceAgent *agent_;
    const Counter &reads_;
    const Counter &writes_;
    std::size_t pumpPeriod_;
};

enum class CallName : std::uint8_t { Read, Write };
enum class Parent : std::uint8_t { Setup, Timed };

/** Host-time classes of an access call, by the counters it moved. */
enum CallClass : std::uint8_t
{
    ClassHit,        ///< served by L1-L3
    ClassFmem,       ///< LLC miss served from FMem
    ClassFetch,      ///< fetched a page from a memory node
    ClassPump,       ///< ran the eviction pump (every pumpPeriod calls)
    ClassCoherence,  ///< acquired directory rights
    NumClasses,
};

const char *const classNames[NumClasses] = {"hit", "fmem", "fetch", "pump",
                                            "coherence"};

struct CallSpan
{
    std::uint64_t startNs = 0;  ///< host ns since the run began
    std::uint32_t durNs = 0;
    CallName name = CallName::Read;
    std::uint8_t shard = 0;
    Parent parent = Parent::Setup;
    std::uint8_t pumped = 0;
    std::uint8_t llcMisses = 0;  ///< counter deltas, saturated
    std::uint8_t fmemHits = 0;
    std::uint8_t fetches = 0;
    std::uint8_t acquires = 0;
    std::uint16_t evicted = 0;
};

CallClass
classify(const CallSpan &s)
{
    if (s.acquires != 0)
        return ClassCoherence;
    if (s.pumped)
        return ClassPump;
    if (s.fetches != 0)
        return ClassFetch;
    if (s.llcMisses != 0)
        return ClassFmem;
    return ClassHit;
}

/** A window span: the parent of every call span recorded in it. */
struct WindowSpan
{
    Parent name = Parent::Setup;
    std::uint8_t shard = 0;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
};

template <typename T>
T
saturate(std::uint64_t v)
{
    constexpr std::uint64_t max = static_cast<T>(~T{0});
    return static_cast<T>(v > max ? max : v);
}

// ---------------------------------------------------------------------
// Per-shard state: one per compute node, touched only by its thread
// while a phase runs.

/** What an oracle verdict checked. */
enum class Check : std::uint8_t
{
    Write,       ///< a write (cannot fail; counted as attempted)
    PrivateRead, ///< a read of private data against its shadow
    SharedRead,  ///< a shared-word read against its setup value
    Sweep,       ///< one page of the final content sweep
};
constexpr std::size_t numChecks = 4;
const char *const checkNames[numChecks] = {"write", "private_read",
                                           "shared_read", "sweep"};

/** Progress checkpoint for slicing a window into sub-windows. */
struct Checkpoint
{
    std::uint64_t ns = 0;
    std::uint64_t accesses = 0;
    std::uint64_t allocs = 0;  ///< process-wide heap allocations so far
};

struct ShardState
{
    KonaRuntime *rt = nullptr;
    std::uint32_t shard = 0;
    Rng rng;
    std::unique_ptr<CounterProbe> probe;

    // Oracle.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::array<std::uint64_t, numChecks> failedBy{};

    // Current window.
    std::uint64_t accesses = 0;
    std::uint64_t steps = 0;
    std::vector<Checkpoint> checkpoints;

    // Simulated latency over the first simTarget accesses of a window.
    std::uint64_t simTarget = 0;
    std::uint64_t simSamples = 0;
    Tick simStart = 0;
    Tick simEnd = 0;
    SimHistogram hist;

    // Tracing.
    bool tracing = false;
    Parent parent = Parent::Setup;
    std::uint64_t runStartNs = 0;
    std::vector<CallSpan> spans;    ///< reserved up front, never grows
    std::size_t spanLimit = 0;      ///< spans the current phase may fill
    std::uint64_t spansDropped = 0;
    std::vector<WindowSpan> windows;

    bool
    spansFull() const
    {
        return spans.size() + 4096 > spanLimit;
    }

    /** One access call on this shard's runtime. */
    void
    access(bool isWrite, Addr addr, void *buf, std::size_t n)
    {
        Tick simBefore = rt->appTime();
        if (tracing) {
            CallCounters before = probe->read();
            std::uint64_t t0 = hostNs();
            if (isWrite)
                rt->write(addr, buf, n);
            else
                rt->read(addr, buf, n);
            std::uint64_t t1 = hostNs();
            CallCounters after = probe->read();
            if (spans.size() >= spanLimit) {
                ++spansDropped;
            } else {
                CallSpan s;
                s.startNs = t0 - runStartNs;
                s.durNs = saturate<std::uint32_t>(t1 - t0);
                s.name = isWrite ? CallName::Write : CallName::Read;
                s.shard = static_cast<std::uint8_t>(shard);
                s.parent = parent;
                s.pumped = probe->pumped(after.calls) ? 1 : 0;
                s.llcMisses =
                    saturate<std::uint8_t>(after.llcMisses - before.llcMisses);
                s.fmemHits =
                    saturate<std::uint8_t>(after.fmemHits - before.fmemHits);
                s.fetches =
                    saturate<std::uint8_t>(after.fetches - before.fetches);
                s.acquires =
                    saturate<std::uint8_t>(after.acquires - before.acquires);
                s.evicted =
                    saturate<std::uint16_t>(after.evicted - before.evicted);
                spans.push_back(s);
            }
        } else if (isWrite) {
            rt->write(addr, buf, n);
        } else {
            rt->read(addr, buf, n);
        }
        ++accesses;
        if (simSamples < simTarget) {
            hist.record(rt->appTime() - simBefore);
            if (++simSamples == simTarget)
                simEnd = rt->appTime();
        }
    }

    /** Record an oracle verdict. */
    void
    check(bool ok, Check kind)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            ++failedBy[static_cast<std::size_t>(kind)];
        }
    }

    void
    openWindow(Parent name)
    {
        parent = name;
        windows.push_back({name, static_cast<std::uint8_t>(shard),
                           hostNs() - runStartNs, 0});
    }

    void
    closeWindow()
    {
        windows.back().endNs = hostNs() - runStartNs;
    }
};

// ---------------------------------------------------------------------
// The system under test: a single compute node, or a MultiRack.

/** Single compute node over three memory nodes (no coherence). */
struct SingleNode
{
    explicit SingleNode(const MetricScope &scope)
        : fabric(LatencyConfig{}, scope.sub("fabric")),
          controller(1 * MiB, scope.sub("rack"))
    {
        for (NodeId id = 1; id <= 3; ++id) {
            nodes.push_back(std::make_unique<MemoryNode>(
                fabric, id, 512 * MiB, 4 * MiB,
                scope.sub("rack.node" + std::to_string(id))));
            controller.registerNode(*nodes.back());
        }
        runtime = std::make_unique<KonaRuntime>(fabric, controller, 0,
                                                KonaConfig{},
                                                scope.sub("kona"));
    }

    Fabric fabric;
    Controller controller;
    std::vector<std::unique_ptr<MemoryNode>> nodes;
    std::unique_ptr<KonaRuntime> runtime;
};

struct System
{
    std::shared_ptr<MetricRegistry> registry =
        std::make_shared<MetricRegistry>();
    std::unique_ptr<SingleNode> single;
    std::unique_ptr<MultiRack> rack;
    std::vector<KonaRuntime *> runtimes;
    std::vector<MemoryNode *> memoryNodes;
    Fabric *fabric = nullptr;

    static std::unique_ptr<System>
    singleNode()
    {
        auto sys = std::make_unique<System>();
        sys->single =
            std::make_unique<SingleNode>(MetricScope(sys->registry));
        sys->runtimes.push_back(sys->single->runtime.get());
        for (auto &n : sys->single->nodes)
            sys->memoryNodes.push_back(n.get());
        sys->fabric = &sys->single->fabric;
        return sys;
    }

    static std::unique_ptr<System>
    multiRack(std::size_t computeNodes)
    {
        auto sys = std::make_unique<System>();
        MultiRackConfig cfg;
        cfg.computeNodes = computeNodes;
        sys->rack = std::make_unique<MultiRack>(
            cfg, MetricScope(sys->registry));
        for (std::size_t i = 0; i < sys->rack->runtimeCount(); ++i)
            sys->runtimes.push_back(&sys->rack->runtime(i));
        for (std::size_t i = 0; i < sys->rack->memoryNodeCount(); ++i)
            sys->memoryNodes.push_back(&sys->rack->memoryNode(i));
        sys->fabric = &sys->rack->fabric();
        return sys;
    }
};

/**
 * Run @p body once per shard: inline for a single node, else on the
 * rack's ParallelDriver with @p threads run tokens. Returns the gated
 * sections the phase executed (0 without a gate).
 */
std::uint64_t
runShards(System &sys, std::vector<ShardState> &shards, unsigned threads,
          const std::function<void(ShardState &)> &body)
{
    if (sys.rack == nullptr) {
        body(shards[0]);
        return 0;
    }
    ParallelDriver driver(*sys.rack, threads);
    driver.run([&](std::size_t i, KonaRuntime &) { body(shards[i]); });
    return driver.gate().eventsExecuted();
}

// ---------------------------------------------------------------------
// Workloads.

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::size_t shardCount() const { return 1; }
    virtual unsigned threads() const { return 1; }
    /** Setup repetitions for the median setup_s. */
    virtual int setupReps() const = 0;
    /** Accesses per shard that the simulated metrics cover. */
    virtual std::uint64_t simAccesses() const = 0;

    /** Forget all oracle state (untimed, before each setup). */
    virtual void reset() = 0;
    virtual std::unique_ptr<System> makeSystem() = 0;
    /** Single-threaded allocation/mapping after construction. */
    virtual void allocate(System &sys) = 0;
    /** Initial writes and warm-up of one shard. */
    virtual void setupShard(ShardState &s) = 0;
    /** One closed-loop operation (one or two access calls). */
    virtual void step(ShardState &s) = 0;
    /** Whole-span content sweep on the main thread. */
    virtual void sweep(System &sys, ShardState &s) = 0;
};

/** Value of word @p word at version @p ver: unique per (word, ver). */
std::uint64_t
wordValue(std::uint64_t salt, std::uint64_t word, std::uint32_t ver)
{
    return mix64(salt ^ (word << 24) ^ ver);
}

/**
 * Uniform-random 8 B accesses, 30% writes, over a private span. The
 * oracle keeps one version per word; a write bumps it, a read must
 * return the value of the current version.
 */
class PrivateSpan
{
  public:
    PrivateSpan(std::size_t bytes, std::uint64_t salt)
        : words_(bytes / 8), salt_(salt), ver_(words_, 0)
    {}

    std::size_t bytes() const { return words_ * 8; }
    void reset() { std::fill(ver_.begin(), ver_.end(), 0); }

    void
    writeInitial(ShardState &s)
    {
        std::array<std::uint64_t, pageSize / 8> page;
        for (std::size_t w0 = 0; w0 < words_; w0 += page.size()) {
            for (std::size_t i = 0; i < page.size(); ++i)
                page[i] = wordValue(salt_, w0 + i, 0);
            s.access(true, base + w0 * 8, page.data(), pageSize);
        }
    }

    void
    step(ShardState &s)
    {
        std::size_t w = s.rng.below(words_);
        std::uint64_t v = 0;
        if (s.rng.chance(0.3)) {
            v = wordValue(salt_, w, ++ver_[w]);
            s.access(true, base + w * 8, &v, sizeof(v));
            s.check(true, Check::Write);
        } else {
            s.access(false, base + w * 8, &v, sizeof(v));
            s.check(v == wordValue(salt_, w, ver_[w]), Check::PrivateRead);
        }
    }

    void
    sweep(ShardState &s, KonaRuntime &rt)
    {
        std::array<std::uint64_t, pageSize / 8> page;
        for (std::size_t w0 = 0; w0 < words_; w0 += page.size()) {
            rt.read(base + w0 * 8, page.data(), pageSize);
            bool ok = true;
            for (std::size_t i = 0; i < page.size(); ++i)
                ok &= page[i] == wordValue(salt_, w0 + i, ver_[w0 + i]);
            s.check(ok, Check::Sweep);
        }
    }

    Addr base = 0;

  private:
    std::size_t words_;
    std::uint64_t salt_;
    std::vector<std::uint32_t> ver_;
};

/**
 * resident: 32 MiB of uniform-random 8 B accesses, 30% writes. Larger
 * than the 8 MiB L3, smaller than the 64 MiB FMem, so after warm-up
 * every access is an L1-L3 hit or an LLC-miss -> FMem hit.
 */
class Resident : public Workload
{
  public:
    explicit Resident(std::uint64_t seed)
        : span_(32 * MiB, mix64(seed ^ 0x7e5))
    {}

    int setupReps() const override { return 5; }
    std::uint64_t simAccesses() const override { return 2'000'000; }
    void reset() override { span_.reset(); }
    std::unique_ptr<System> makeSystem() override
    {
        return System::singleNode();
    }
    void
    allocate(System &sys) override
    {
        span_.base = sys.runtimes[0]->allocate(span_.bytes(), pageSize);
    }
    void
    setupShard(ShardState &s) override
    {
        span_.writeInitial(s);
        for (int i = 0; i < 500'000; ++i)
            span_.step(s);
    }
    void step(ShardState &s) override { span_.step(s); }
    void
    sweep(System &sys, ShardState &s) override
    {
        span_.sweep(s, *sys.runtimes[0]);
    }

  private:
    PrivateSpan span_;
};

/**
 * spill: pointer chase over 96 MiB of 16 B {next, payload} nodes (one
 * Sattolo cycle), one hop in four also writing the payload. The span
 * exceeds the 64 MiB FMem, so hops keep fetching and evicting pages,
 * both clean (silent) and dirty (shipped as CL logs).
 */
class Spill : public Workload
{
  public:
    static constexpr std::size_t spanBytes = 96 * MiB;
    static constexpr std::size_t nodes = spanBytes / 16;

    explicit Spill(std::uint64_t seed)
        : salt_(mix64(seed ^ 0x5b111)), next_(nodes), ver_(nodes, 0)
    {
        for (std::size_t i = 0; i < nodes; ++i)
            next_[i] = static_cast<std::uint32_t>(i);
        Rng rng(mix64(seed ^ 0xc4a5e));
        for (std::size_t i = nodes - 1; i > 0; --i)
            std::swap(next_[i], next_[rng.below(i)]);
    }

    int setupReps() const override { return 3; }
    std::uint64_t simAccesses() const override { return 250'000; }
    void
    reset() override
    {
        std::fill(ver_.begin(), ver_.end(), 0);
        cur_ = 0;
        hop_ = 0;
    }
    std::unique_ptr<System> makeSystem() override
    {
        return System::singleNode();
    }
    void
    allocate(System &sys) override
    {
        base_ = sys.runtimes[0]->allocate(spanBytes, pageSize);
    }
    void
    setupShard(ShardState &s) override
    {
        std::array<std::uint64_t, pageSize / 8> page;
        constexpr std::size_t perPage = pageSize / 16;
        for (std::size_t n0 = 0; n0 < nodes; n0 += perPage) {
            for (std::size_t i = 0; i < perPage; ++i) {
                page[2 * i] = next_[n0 + i];
                page[2 * i + 1] = wordValue(salt_, n0 + i, 0);
            }
            s.access(true, base_ + n0 * 16, page.data(), pageSize);
        }
        for (int i = 0; i < 100'000; ++i)
            step(s);
    }
    void
    step(ShardState &s) override
    {
        std::uint64_t node[2] = {0, 0};
        Addr addr = base_ + static_cast<Addr>(cur_) * 16;
        s.access(false, addr, node, sizeof(node));
        s.check(node[0] == next_[cur_] &&
                    node[1] == wordValue(salt_, cur_, ver_[cur_]),
                Check::PrivateRead);
        if ((hop_++ & 3) == 3) {
            std::uint64_t payload = wordValue(salt_, cur_, ++ver_[cur_]);
            s.access(true, addr + 8, &payload, sizeof(payload));
            s.check(true, Check::Write);
        }
        // Follow the oracle's edge so a wrong read cannot derail the
        // access stream.
        cur_ = next_[cur_];
    }
    void
    sweep(System &sys, ShardState &s) override
    {
        std::array<std::uint64_t, pageSize / 8> page;
        constexpr std::size_t perPage = pageSize / 16;
        for (std::size_t n0 = 0; n0 < nodes; n0 += perPage) {
            sys.runtimes[0]->read(base_ + n0 * 16, page.data(), pageSize);
            bool ok = true;
            for (std::size_t i = 0; i < perPage; ++i) {
                ok &= page[2 * i] == next_[n0 + i];
                ok &= page[2 * i + 1] ==
                      wordValue(salt_, n0 + i, ver_[n0 + i]);
            }
            s.check(ok, Check::Sweep);
        }
    }

  private:
    std::uint64_t salt_;
    std::vector<std::uint32_t> next_;
    std::vector<std::uint32_t> ver_;
    Addr base_ = 0;
    std::uint32_t cur_ = 0;
    std::uint64_t hop_ = 0;
};

/**
 * rack: four compute nodes of a MultiRack under ParallelDriver. Each
 * shard runs the resident mix over a private 8 MiB span; about 0.1% of
 * accesses read a word of a 16-page coherence-shared region instead.
 * The shared region is written only during allocation, on one thread
 * with no driver attached: node 0 writes every page, then every other
 * node reads it, which demotes node 0 through the directory. Under the
 * driver the region is read-only, so every read must be exact.
 *
 * Shared writes under the driver are left out on purpose: a write
 * invalidates the other sharers from the writer's thread while they
 * may be mid-access (CoherenceAgent::onInvalidate mutates the victim's
 * shard-private state), which loses writes and fails the oracle.
 */
class RackWorkload : public Workload
{
  public:
    static constexpr std::size_t shards = 4;
    static constexpr std::size_t privateBytes = 8 * MiB;
    static constexpr std::size_t sharedBytes = 16 * pageSize;
    static constexpr std::size_t sharedWords = sharedBytes / 8;

    explicit RackWorkload(std::uint64_t seed)
        : sharedSalt_(mix64(seed ^ 0x5ba7ed))
    {
        for (std::size_t i = 0; i < shards; ++i)
            spans_.emplace_back(privateBytes, mix64(mix64(seed ^ 0x4ac0) + i));
    }

    std::size_t shardCount() const override { return shards; }
    unsigned threads() const override { return threads_; }
    void setThreads(unsigned t) { threads_ = t; }
    int setupReps() const override { return 9; }
    std::uint64_t simAccesses() const override { return 500'000; }

    void
    reset() override
    {
        for (PrivateSpan &span : spans_)
            span.reset();
    }
    std::unique_ptr<System> makeSystem() override
    {
        return System::multiRack(shards);
    }
    void
    allocate(System &sys) override
    {
        for (std::size_t i = 0; i < shards; ++i)
            spans_[i].base =
                sys.runtimes[i]->allocate(privateBytes, pageSize);
        sharedBase_ = sys.rack->mapShared("perfbench", sharedBytes);
        std::array<std::uint64_t, pageSize / 8> page;
        for (std::size_t w0 = 0; w0 < sharedWords; w0 += page.size()) {
            for (std::size_t i = 0; i < page.size(); ++i)
                page[i] = wordValue(sharedSalt_, w0 + i, 0);
            sys.runtimes[0]->write(sharedBase_ + w0 * 8, page.data(),
                                   pageSize);
            for (std::size_t i = 1; i < shards; ++i)
                sys.runtimes[i]->read(sharedBase_ + w0 * 8, page.data(),
                                      pageSize);
        }
    }
    void
    setupShard(ShardState &s) override
    {
        PrivateSpan &span = spans_[s.shard];
        span.writeInitial(s);
        for (int i = 0; i < 300'000; ++i)
            span.step(s);
        // Fetch the shared region so the timed window starts with
        // every page resident and shared on every node.
        for (std::size_t w = 0; w < sharedWords; w += pageSize / 8)
            sharedRead(s, w);
    }
    void
    step(ShardState &s) override
    {
        if (!s.rng.chance(0.001))
            spans_[s.shard].step(s);
        else
            sharedRead(s, s.rng.below(sharedWords));
    }
    void
    sweep(System &sys, ShardState &s) override
    {
        for (std::size_t i = 0; i < shards; ++i)
            spans_[i].sweep(s, *sys.runtimes[i]);
        std::array<std::uint64_t, pageSize / 8> page;
        for (std::size_t w0 = 0; w0 < sharedWords; w0 += page.size()) {
            sys.runtimes[0]->read(sharedBase_ + w0 * 8, page.data(),
                                  pageSize);
            bool ok = true;
            for (std::size_t i = 0; i < page.size(); ++i)
                ok &= page[i] == wordValue(sharedSalt_, w0 + i, 0);
            s.check(ok, Check::Sweep);
        }
    }

  private:
    void
    sharedRead(ShardState &s, std::size_t w)
    {
        std::uint64_t v = 0;
        s.access(false, sharedBase_ + w * 8, &v, sizeof(v));
        s.check(v == wordValue(sharedSalt_, w, 0), Check::SharedRead);
    }

    unsigned threads_ = shards;
    std::uint64_t sharedSalt_;
    std::vector<PrivateSpan> spans_;
    Addr sharedBase_ = 0;
};

// ---------------------------------------------------------------------
// Windows and phases.

constexpr std::uint64_t checkpointSteps = 256;

/** When a window stops: at a host deadline, or after a step count. */
struct WindowStop
{
    std::uint64_t deadlineNs = 0;  ///< used when steps == 0
    std::uint64_t steps = 0;
};

void
runWindow(Workload &w, ShardState &s, const WindowStop &stop)
{
    s.accesses = 0;
    s.steps = 0;
    s.checkpoints.clear();
    s.simSamples = 0;
    s.simStart = s.rt->appTime();
    s.simEnd = s.simStart;
    for (;;) {
        if (stop.steps != 0 && s.steps == stop.steps)
            break;
        if (s.steps % checkpointSteps == 0) {
            std::uint64_t now = hostNs();
            s.checkpoints.push_back({now, s.accesses, bench::allocCount()});
            if (stop.steps == 0 && now >= stop.deadlineNs &&
                s.simSamples >= s.simTarget)
                break;
            if (s.tracing && s.spansFull())
                break;
        }
        w.step(s);
        ++s.steps;
    }
    s.checkpoints.push_back({hostNs(), s.accesses, bench::allocCount()});
}

/** Accesses shard @p s had completed at host time @p t. */
double
accessesAt(const ShardState &s, std::uint64_t t)
{
    const std::vector<Checkpoint> &c = s.checkpoints;
    if (t <= c.front().ns)
        return 0.0;
    if (t >= c.back().ns)
        return static_cast<double>(c.back().accesses);
    auto it = std::upper_bound(
        c.begin(), c.end(), t,
        [](std::uint64_t v, const Checkpoint &cp) { return v < cp.ns; });
    const Checkpoint &hi = *it;
    const Checkpoint &lo = *(it - 1);
    double f = static_cast<double>(t - lo.ns) /
               static_cast<double>(hi.ns - lo.ns);
    return lo.accesses + f * (hi.accesses - lo.accesses);
}

/** The host-time span of the last window in which every shard ran. */
std::pair<std::uint64_t, std::uint64_t>
commonInterval(const std::vector<ShardState> &shards)
{
    std::uint64_t start = 0;
    std::uint64_t end = ~std::uint64_t{0};
    for (const ShardState &s : shards) {
        start = std::max(start, s.checkpoints.front().ns);
        end = std::min(end, s.checkpoints.back().ns);
    }
    return {start, end};
}

/**
 * Accesses per host second, summed over shards, in each of 50 equal
 * time slices of the last window's span in which every shard ran.
 */
std::vector<double>
sliceRates(const std::vector<ShardState> &shards)
{
    auto [start, end] = commonInterval(shards);
    constexpr int slices = 50;
    std::vector<double> rates;
    for (int i = 0; end > start && i < slices; ++i) {
        std::uint64_t a = start + (end - start) * i / slices;
        std::uint64_t b = start + (end - start) * (i + 1) / slices;
        double n = 0;
        for (const ShardState &s : shards)
            n += accessesAt(s, b) - accessesAt(s, a);
        rates.push_back(n / ((b - a) / 1e9));
    }
    return rates;
}

/** Throughput of the last window: the median of its slice rates. */
double
windowRate(const std::vector<ShardState> &shards)
{
    return median(sliceRates(shards));
}

/**
 * Heap allocations per access while every shard of the last window ran
 * (shard 0's checkpoints inside that span bracket the count), so
 * thread start-up and the driver's own set-up stay outside.
 */
double
allocsPerAccess(const std::vector<ShardState> &shards)
{
    auto [start, end] = commonInterval(shards);
    const std::vector<Checkpoint> &c = shards[0].checkpoints;
    auto first = std::find_if(c.begin(), c.end(), [&](const Checkpoint &cp) {
        return cp.ns >= start;
    });
    auto last = std::find_if(c.rbegin(), c.rend(), [&](const Checkpoint &cp) {
        return cp.ns <= end;
    });
    if (first == c.end() || last == c.rend() || last->ns <= first->ns)
        return 0.0;
    double accesses = 0;
    for (const ShardState &s : shards)
        accesses += accessesAt(s, last->ns) - accessesAt(s, first->ns);
    return ratio(static_cast<double>(last->allocs - first->allocs),
                 accesses);
}

std::vector<ShardState>
makeShards(Workload &w, System &sys, std::uint64_t seed,
           std::size_t spanCapacity)
{
    std::vector<ShardState> shards(w.shardCount());
    std::uint64_t runStart = hostNs();
    for (std::size_t i = 0; i < shards.size(); ++i) {
        ShardState &s = shards[i];
        s.rt = sys.runtimes[i];
        s.shard = static_cast<std::uint32_t>(i);
        // Hash the seed before adding the shard index: seed ^ (c + i)
        // would give seeds that differ in their low bits the same
        // streams, only assigned to other shards.
        s.rng = Rng(mix64(mix64(seed ^ 0x5eed00) + i));
        s.probe = std::make_unique<CounterProbe>(*s.rt);
        s.checkpoints.reserve(1 << 18);
        s.runStartNs = runStart;
        if (spanCapacity != 0) {
            s.tracing = true;
            s.spans.reserve(spanCapacity / shards.size());
            // Setup may fill at most half; the traced window gets the
            // rest.
            s.spanLimit = s.spans.capacity() / 2;
            s.windows.reserve(4);
        }
    }
    return shards;
}

/** A built, set-up system with its shards. */
struct Stack
{
    std::unique_ptr<System> sys;
    std::vector<ShardState> shards;
    double setupSeconds = 0;
};

Stack
setUp(Workload &w, std::uint64_t seed, std::size_t spanCapacity)
{
    w.reset();
    Stack st;
    std::uint64_t t0 = hostNs();
    st.sys = w.makeSystem();
    w.allocate(*st.sys);
    st.shards = makeShards(w, *st.sys, seed, spanCapacity);
    runShards(*st.sys, st.shards, w.threads(), [&](ShardState &s) {
        if (s.tracing)
            s.openWindow(Parent::Setup);
        w.setupShard(s);
        if (s.tracing)
            s.closeWindow();
    });
    st.setupSeconds = (hostNs() - t0) / 1e9;
    return st;
}

/** Run one timed phase on every shard; returns gated sections. */
std::uint64_t
timedPhase(Workload &w, Stack &st, const std::vector<WindowStop> &stops,
           bool traced, std::uint64_t simTarget)
{
    for (ShardState &s : st.shards) {
        s.simTarget = simTarget;
        s.tracing = traced;
        s.spanLimit = s.spans.capacity();
    }
    return runShards(*st.sys, st.shards, w.threads(), [&](ShardState &s) {
        if (s.tracing)
            s.openWindow(Parent::Timed);
        runWindow(w, s, stops[s.shard]);
        if (s.tracing)
            s.closeWindow();
        s.tracing = false;
    });
}

std::vector<WindowStop>
deadlineStops(std::size_t n, double seconds)
{
    std::uint64_t deadline =
        hostNs() + static_cast<std::uint64_t>(seconds * 1e9);
    return std::vector<WindowStop>(n, WindowStop{deadline, 0});
}

std::vector<WindowStop>
stepStops(const std::vector<ShardState> &shards)
{
    std::vector<WindowStop> stops;
    for (const ShardState &s : shards)
        stops.push_back(WindowStop{0, s.steps});
    return stops;
}

// ---------------------------------------------------------------------
// Layer counters, read on the main thread between phases.

struct LayerSnapshot
{
    std::uint64_t llcMisses = 0, llcWritebacks = 0;
    std::uint64_t fmemHits = 0, fmemMisses = 0, fetches = 0;
    std::uint64_t evicted = 0, silent = 0, dirtyLines = 0, wireBytes = 0;
    std::uint64_t stalls = 0;
    std::uint64_t fabricOps = 0, fabricBytes = 0, memnodeLines = 0;
    std::uint64_t acquires = 0, invalidations = 0, forcedWritebacks = 0;
    std::array<std::uint64_t, MissComponent::Count> missNs{};
    std::uint64_t missTotal = 0;
    std::array<std::uint64_t, EvictComponent::Count> evictNs{};
    std::uint64_t evictTotal = 0;
};

LayerSnapshot
snapshot(System &sys)
{
    LayerSnapshot x;
    for (KonaRuntime *rt : sys.runtimes) {
        x.llcMisses += rt->hierarchy().memoryRequests();
        x.llcWritebacks += rt->hierarchy().memoryWritebacks();
        x.fmemHits += rt->fpga().fmemHits();
        x.fmemMisses += rt->fpga().fmem().misses();
        x.fetches += rt->fpga().remoteFetches();
        const EvictionHandler &ev = rt->evictionHandler();
        x.evicted += ev.pagesEvicted();
        x.silent += ev.silentEvictions();
        x.dirtyLines += ev.dirtyLinesWritten();
        x.wireBytes += ev.bytesOnWire();
        x.stalls += ev.ringFullStalls() + ev.pageConflictStalls();
        if (const CoherenceAgent *a = rt->coherenceAgent()) {
            x.acquires += a->acquires();
            x.invalidations += a->invalidationsReceived();
            x.forcedWritebacks += a->forcedWritebacks();
        }
        const LatencyAttribution &miss = rt->missAttribution();
        for (std::size_t c = 0; c < MissComponent::Count; ++c)
            x.missNs[c] += miss.componentNs(c);
        x.missTotal += miss.totalNs();
        const LatencyAttribution &ship = ev.shipmentAttribution();
        for (std::size_t c = 0; c < EvictComponent::Count; ++c)
            x.evictNs[c] += ship.componentNs(c);
        x.evictTotal += ship.totalNs();
    }
    x.fabricOps = sys.fabric->opsExecuted();
    x.fabricBytes = sys.fabric->bytesTransferred();
    for (MemoryNode *n : sys.memoryNodes)
        x.memnodeLines += n->linesReceived();
    return x;
}

/** Span-content hash: everything but host times, per shard in order. */
std::uint64_t
spanContentHash(const std::vector<ShardState> &shards)
{
    std::uint64_t h = fnvBasis;
    for (const ShardState &s : shards) {
        for (const CallSpan &c : s.spans) {
            h = fnv(h, static_cast<std::uint64_t>(c.name) |
                           static_cast<std::uint64_t>(c.parent) << 8 |
                           static_cast<std::uint64_t>(c.pumped) << 16 |
                           static_cast<std::uint64_t>(c.llcMisses) << 24 |
                           static_cast<std::uint64_t>(c.fmemHits) << 32 |
                           static_cast<std::uint64_t>(c.fetches) << 40 |
                           static_cast<std::uint64_t>(c.acquires) << 48);
            h = fnv(h, c.shard | static_cast<std::uint64_t>(c.evicted)
                                     << 8);
        }
    }
    return h;
}

/**
 * Spans file: a one-line text header naming the record layout, then
 * the window spans and call spans as raw little-endian records.
 */
void
writeSpans(const std::string &path, const std::vector<ShardState> &shards)
{
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream out(path, std::ios::binary);
    std::uint64_t windows = 0, calls = 0;
    for (const ShardState &s : shards) {
        windows += s.windows.size();
        calls += s.spans.size();
    }
    out << "kona-perfbench-spans v1 windows=" << windows
        << " window_bytes=" << sizeof(WindowSpan) << " calls=" << calls
        << " call_bytes=" << sizeof(CallSpan) << "\n";
    for (const ShardState &s : shards)
        out.write(reinterpret_cast<const char *>(s.windows.data()),
                  static_cast<std::streamsize>(s.windows.size() *
                                               sizeof(WindowSpan)));
    for (const ShardState &s : shards)
        out.write(reinterpret_cast<const char *>(s.spans.data()),
                  static_cast<std::streamsize>(s.spans.size() *
                                               sizeof(CallSpan)));
    if (!out)
        fatal("perfbench: cannot write ", path);
}

// ---------------------------------------------------------------------
// Output.

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%-44s %.6g %s\n", m.name.c_str(), m.value, m.unit);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    std::printf("}}\n");
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0;
}

struct Totals
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::array<std::uint64_t, numChecks> failedBy{};

    void
    add(const std::vector<ShardState> &shards)
    {
        for (const ShardState &s : shards) {
            attempted += s.attempted;
            failed += s.failed;
            for (std::size_t k = 0; k < numChecks; ++k)
                failedBy[k] += s.failedBy[k];
        }
    }

    void
    print() const
    {
        std::printf("failed_op_ratio %.6g ratio (%llu of %llu operations;",
                    ratio(failed, attempted),
                    static_cast<unsigned long long>(failed),
                    static_cast<unsigned long long>(attempted));
        for (std::size_t k = 0; k < numChecks; ++k)
            std::printf(" %s %llu", checkNames[k],
                        static_cast<unsigned long long>(failedBy[k]));
        std::printf(")\n");
    }
};

std::uint64_t
totalAccesses(const std::vector<ShardState> &shards)
{
    std::uint64_t n = 0;
    for (const ShardState &s : shards)
        n += s.accesses;
    return n;
}

int
runEndToEnd(Workload &w, const char *name, std::uint64_t seed,
            double seconds)
{
    std::vector<double> setups;
    Stack st;
    for (int r = 0; r < w.setupReps(); ++r) {
        st = Stack{};  // tear the previous stack down first
        st = setUp(w, seed, 0);
        setups.push_back(st.setupSeconds);
    }

    timedPhase(w, st, deadlineStops(st.shards.size(), seconds), false,
               w.simAccesses());
    std::vector<double> slices = sliceRates(st.shards);
    double rate = median(slices);
    if (!slices.empty()) {
        std::printf("accesses_per_s over %zu slices: min %.4g median %.4g "
                    "max %.4g\n",
                    slices.size(),
                    *std::min_element(slices.begin(), slices.end()), rate,
                    *std::max_element(slices.begin(), slices.end()));
    }

    SimHistogram hist;
    double simNs = 0;
    double simCount = 0;
    for (const ShardState &s : st.shards) {
        hist.merge(s.hist);
        simNs += static_cast<double>(s.simEnd - s.simStart);
        simCount += static_cast<double>(s.simSamples);
    }

    w.sweep(*st.sys, st.shards[0]);
    Totals t;
    t.add(st.shards);
    double rss = peakRssMiB();

    std::printf("workload %s seed %llu: %llu timed accesses; setup_s "
                "samples:",
                name, static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(totalAccesses(st.shards)));
    for (double x : setups)
        std::printf(" %.3f", x);
    std::printf("\n");
    // The simulated quantiles are printed, not reported: their values
    // are a few fixed hit/miss latencies that repeat exactly across
    // seeds, which no relative bound can judge.
    std::printf("sim_p50_ns %.0f ns, sim_p999_ns %.0f ns over %llu "
                "samples (first %llu accesses of each of %zu shard(s))\n",
                hist.quantile(0.50), hist.quantile(0.999),
                static_cast<unsigned long long>(hist.count()),
                static_cast<unsigned long long>(w.simAccesses()),
                st.shards.size());
    t.print();
    printResult(t.failed == 0, t.attempted, t.failed,
                {
                    {"accesses_per_s", rate, "1/s"},
                    {"setup_s", median(setups), "s"},
                    {"peak_rss_mib", rss, "MiB"},
                    {"sim_amat_ns", ratio(simNs, simCount), "ns"},
                });
    return 0;
}

/** Span capacity of a traced run, across all shards. */
constexpr std::size_t spanCapacity = 4 << 20;

/** What the traced half leaves for the rest of a --trace 1 run. */
struct TracedHalf
{
    std::vector<Metric> metrics;
    std::vector<WindowStop> steps;  ///< per-shard steps, for replay
    double rate = 0;                ///< traced accesses per host second
    std::uint64_t fingerprint = 0;  ///< registry fingerprint after it
    std::uint64_t spanHash = 0;     ///< span-content hash after it
};

/**
 * Run the traced half on a freshly set-up stack and derive every
 * per-layer metric from its spans and counter deltas. @p stops ends it
 * at a deadline, or replays another run's per-shard step counts.
 */
TracedHalf
tracedHalf(Workload &w, Stack &st, const std::vector<WindowStop> &stops)
{
    LayerSnapshot a = snapshot(*st.sys);
    std::uint64_t sections = timedPhase(w, st, stops, true, 0);
    LayerSnapshot b = snapshot(*st.sys);

    TracedHalf out;
    out.rate = windowRate(st.shards);
    out.steps = stepStops(st.shards);
    out.fingerprint = st.sys->registry->fingerprint();
    out.spanHash = spanContentHash(st.shards);
    std::vector<Metric> &m = out.metrics;

    auto acc = static_cast<double>(totalAccesses(st.shards));
    double kacc = acc / 1000.0;

    // Host time per call class, over the traced window's call spans.
    std::array<double, NumClasses> classNs{};
    std::array<double, NumClasses> classCalls{};
    double windowNs = 0;
    for (const ShardState &s : st.shards) {
        for (const WindowSpan &ws : s.windows) {
            if (ws.name == Parent::Timed)
                windowNs += static_cast<double>(ws.endNs - ws.startNs);
        }
        for (const CallSpan &c : s.spans) {
            if (c.parent != Parent::Timed)
                continue;
            CallClass k = classify(c);
            classNs[k] += c.durNs;
            classCalls[k] += 1;
        }
    }
    auto callNs = [&](CallClass k) {
        return ratio(classNs[k], classCalls[k]);
    };

    auto d = [](std::uint64_t after, std::uint64_t before) {
        return static_cast<double>(after - before);
    };
    m.push_back({"cache.llc_misses_per_access",
                 ratio(d(b.llcMisses, a.llcMisses), acc), "ratio"});
    m.push_back({"cache.llc_writebacks_per_access",
                 ratio(d(b.llcWritebacks, a.llcWritebacks), acc), "ratio"});
    m.push_back({"cache.hit_call_ns", callNs(ClassHit), "ns"});
    double fmemLookups = d(b.fmemHits, a.fmemHits) +
                         d(b.fmemMisses, a.fmemMisses);
    m.push_back({"fpga.fmem_hit_ratio",
                 ratio(d(b.fmemHits, a.fmemHits), fmemLookups), "ratio"});
    m.push_back({"fpga.fetches_per_kaccess",
                 ratio(d(b.fetches, a.fetches), kacc), "count"});
    m.push_back({"fpga.fmem_call_ns", callNs(ClassFmem), "ns"});
    m.push_back({"fpga.fetch_call_ns", callNs(ClassFetch), "ns"});
    double evicted = d(b.evicted, a.evicted);
    double silent = d(b.silent, a.silent);
    double lines = d(b.dirtyLines, a.dirtyLines);
    m.push_back({"core.evict.pages_per_kaccess", ratio(evicted, kacc),
                 "count"});
    m.push_back({"core.evict.silent_ratio", ratio(silent, evicted),
                 "ratio"});
    m.push_back({"core.evict.dirty_lines_per_page",
                 ratio(lines, evicted - silent), "count"});
    m.push_back({"core.evict.wire_amplification",
                 ratio(d(b.wireBytes, a.wireBytes), lines * cacheLineSize),
                 "ratio"});
    m.push_back({"core.evict.stalls_per_kaccess",
                 ratio(d(b.stalls, a.stalls), kacc), "count"});
    m.push_back({"core.pump_call_ns", callNs(ClassPump), "ns"});
    m.push_back({"alloc.per_access", allocsPerAccess(st.shards), "ratio"});
    m.push_back({"net.fabric_ops_per_access",
                 ratio(d(b.fabricOps, a.fabricOps), acc), "ratio"});
    m.push_back({"net.fabric_bytes_per_access",
                 ratio(d(b.fabricBytes, a.fabricBytes), acc), "B"});
    m.push_back({"net.gate.sections_per_kaccess",
                 ratio(static_cast<double>(sections), kacc), "count"});
    m.push_back({"rack.memnode.lines_received_per_kaccess",
                 ratio(d(b.memnodeLines, a.memnodeLines), kacc), "count"});
    m.push_back({"rack.private_call_ns",
                 ratio(classNs[ClassHit] + classNs[ClassFmem],
                       classCalls[ClassHit] + classCalls[ClassFmem]),
                 "ns"});
    m.push_back({"coherence.acquires_per_kaccess",
                 ratio(d(b.acquires, a.acquires), kacc), "count"});
    m.push_back({"coherence.invalidations_per_kaccess",
                 ratio(d(b.invalidations, a.invalidations), kacc),
                 "count"});
    m.push_back({"coherence.forced_writebacks_per_kaccess",
                 ratio(d(b.forcedWritebacks, a.forcedWritebacks), kacc),
                 "count"});
    m.push_back({"coherence.call_ns", callNs(ClassCoherence), "ns"});
    const char *missNames[] = {"fmem_check", "evict", "queueing", "wire",
                               "retry"};
    double missTotal = d(b.missTotal, a.missTotal);
    for (std::size_t c = 0; c < 5; ++c)
        m.push_back({std::string("sim.miss.") + missNames[c] + "_share",
                     ratio(d(b.missNs[c], a.missNs[c]), missTotal),
                     "ratio"});
    const char *evictNames[] = {"queueing", "wire", "unpack", "ack",
                                "retry"};
    double evictTotal = d(b.evictTotal, a.evictTotal);
    for (std::size_t c = 0; c < 5; ++c)
        m.push_back({std::string("sim.evict.") + evictNames[c] + "_share",
                     ratio(d(b.evictNs[c], a.evictNs[c]), evictTotal),
                     "ratio"});
    for (std::size_t k = 0; k < NumClasses; ++k)
        m.push_back({std::string("host.") + classNames[k] + "_share",
                     ratio(classNs[k], windowNs), "ratio"});
    return out;
}

int
runPerLayer(Workload &w, const char *name, std::uint64_t seed,
            double seconds)
{
    Stack st = setUp(w, seed, spanCapacity);
    TracedHalf main = tracedHalf(
        w, st, deadlineStops(st.shards.size(), seconds / 2));
    std::vector<Metric> &m = main.metrics;
    std::size_t spans = 0;
    std::uint64_t dropped = 0;
    for (const ShardState &s : st.shards) {
        spans += s.spans.size();
        dropped += s.spansDropped;
    }
    std::string spansPath =
        std::string("perfbench/out/spans-") + name + ".bin";
    writeSpans(spansPath, st.shards);
    std::printf("workload %s seed %llu: traced %llu accesses; %zu call "
                "spans (%llu setup spans dropped) written to %s\n",
                name, static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(totalAccesses(st.shards)),
                spans, static_cast<unsigned long long>(dropped),
                spansPath.c_str());

    // Untraced half: the reference throughput for the trace overhead.
    timedPhase(w, st, deadlineStops(st.shards.size(), seconds / 2),
               false, 0);
    double untraced = windowRate(st.shards);
    m.push_back({"host.trace_overhead_ratio", ratio(untraced, main.rate),
                 "ratio"});

    w.sweep(*st.sys, st.shards[0]);
    Totals t;
    t.add(st.shards);

    // rack identity probe: the same seed and per-shard step counts at
    // one thread must reproduce the traced run bit for bit.
    double identical = 0;
    double speedup = 0;
    if (auto *rack = dynamic_cast<RackWorkload *>(&w)) {
        st = Stack{};
        rack->setThreads(1);
        Stack ref = setUp(w, seed, spanCapacity);
        TracedHalf t1 = tracedHalf(w, ref, main.steps);
        identical = t1.fingerprint == main.fingerprint &&
                            t1.spanHash == main.spanHash
                        ? 1.0
                        : 0.0;
        timedPhase(w, ref, deadlineStops(ref.shards.size(), seconds / 2),
                   false, 0);
        speedup = ratio(untraced, windowRate(ref.shards));
        std::printf("rack identity probe: fingerprint t4 %016llx t1 "
                    "%016llx, span hash t4 %016llx t1 %016llx\n",
                    static_cast<unsigned long long>(main.fingerprint),
                    static_cast<unsigned long long>(t1.fingerprint),
                    static_cast<unsigned long long>(main.spanHash),
                    static_cast<unsigned long long>(t1.spanHash));
        t.add(ref.shards);
        rack->setThreads(RackWorkload::shards);
    }
    m.push_back({"rack.speedup_vs_t1", speedup, "ratio"});
    m.push_back({"rack.identical_to_t1", identical, "bool"});

    t.print();
    printResult(t.failed == 0, t.attempted, t.failed, m);
    return 0;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "kona_bench: %s\nusage: kona_bench --workload "
                 "resident|spill|rack --seed N --seconds S --trace 0|1\n",
                 msg);
    std::exit(2);
}

} // namespace
} // namespace kona::perfbench

int
main(int argc, char **argv)
{
    using namespace kona::perfbench;
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        std::string value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            workload = value;
        } else if (flag == "--seed") {
            seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0')
                usage("bad --seed");
        } else if (flag == "--seconds") {
            seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(seconds > 0) || seconds > 60)
                usage("bad --seconds");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("bad --trace");
            trace = value[0] - '0';
        } else {
            usage("unknown flag");
        }
    }
    if (argc % 2 != 1 || seconds == 0 || trace < 0)
        usage("missing arguments");
    kona::setQuietLogging(true);

    // Inputs come from the seed before any stack exists.
    std::unique_ptr<Workload> w;
    if (workload == "resident")
        w = std::make_unique<Resident>(seed);
    else if (workload == "spill")
        w = std::make_unique<Spill>(seed);
    else if (workload == "rack")
        w = std::make_unique<RackWorkload>(seed);
    else
        usage("unknown workload");

    return trace ? runPerLayer(*w, workload.c_str(), seed, seconds)
                 : runEndToEnd(*w, workload.c_str(), seed, seconds);
}
