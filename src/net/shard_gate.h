/**
 * @file
 * ShardGate: the conservative-lookahead synchronizer of the parallel
 * simulation engine (DESIGN.md §16 "Parallel simulation").
 *
 * The rack is partitioned into shards — one per compute node (its
 * KonaRuntime, FPGA, caches, prefetcher, tiering engine) — plus the
 * passive shared-state shard (Controller, DirectoryService, memory-node
 * backing stores, FaultInjector) that only ever executes inside gated
 * sections. Shard threads simulate freely over shard-private state and
 * enter the gate for every cross-shard interaction: remote fetches,
 * eviction shipments, directory/coherence operations, slab allocation,
 * failure recovery. The gate grants sections one at a time, in the
 * canonical order of their EventKeys (timestamp, shard id, sequence
 * number), so the sequence of shared-state mutations is bit-identical
 * no matter how many OS threads execute the shards.
 *
 * The grant rule is conservative lookahead: a section with key K runs
 * only when every other shard's published lower bound exceeds K. A
 * shard's lower bound is its own key while it waits or executes, +inf
 * once finished, and otherwise the monotone stamp bound it publishes
 * as its clocks advance. Bound publications are lock-free stores;
 * wakeups are throttled to the lookahead horizon derived from the
 * minimum fabric wire latency — finer-grained bounds could not
 * unblock a waiter any earlier than one wire traversal anyway.
 *
 * The park rule: an executing section that must touch ANOTHER shard's
 * private state (a directory invalidation snooping the victim's caches
 * and flushing its FMem page) first waits in awaitParked() until that
 * shard is parked — waiting in enter(), not yet begun, or finished —
 * so the victim's own thread is never mid-access meanwhile. The victim
 * parks at its first section keyed above the executing one, which is
 * exactly where the t=1 schedule already holds it.
 *
 * Sections are re-entrant per THREAD, not per shard: the grant rule
 * admits at most one executing section at a time, so any section the
 * section-holding thread opens — a governed miss nesting a fetch, or a
 * cross-shard call like a directory invalidation flushing the parked
 * PEER's dirty line through the peer's eviction handler — is a depth
 * bump on the executing section, serialized under its key. A nested
 * enter from the owning thread must never wait (it would deadlock
 * against itself). Worker concurrency is throttled by a run-token
 * semaphore — `--threads=N` admits N shards at a time over any number
 * of shards, and N=1 is the sequential reference schedule the
 * bit-identity tests compare against. Nothing in enter/leave/publish
 * allocates, keeping the zero-steady-state-allocation property
 * intact.
 */

#ifndef KONA_NET_SHARD_GATE_H
#define KONA_NET_SHARD_GATE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/shard_clock.h"

namespace kona {

class SimClock;

/** What a gated section did, for the grant hash. */
enum class GateEvent : std::uint8_t
{
    Fetch,      ///< remote page fetch (demand/prefetch/tier)
    Evict,      ///< eviction submit/drain/drainNode/flushPage
    Coherence,  ///< directory acquire/release/invalidate
    Control,    ///< slab allocation, health sweep, recovery
};

/** Epoch/barrier synchronizer over a fixed set of shards. */
class ShardGate
{
  public:
    /**
     * @param shards      Shard count (compute nodes / programs).
     * @param concurrency Run tokens: shards allowed to execute
     *                    simultaneously (clamped to [1, shards]).
     * @param horizon     Lookahead horizon in sim-ns (wakeup throttle;
     *                    use conservativeHorizon(fabric.latency())).
     */
    ShardGate(std::size_t shards, unsigned concurrency, Tick horizon);

    std::size_t shardCount() const { return shards_.size(); }
    unsigned concurrency() const { return concurrency_; }
    Tick horizon() const { return horizon_; }

    /** Shard thread lifecycle: acquire a run token before simulating
     *  (and, parked until then, wait out any executing section). */
    void beginShard(std::uint32_t shard);

    /** Shard finished: bound becomes +inf, token is released. */
    void endShard(std::uint32_t shard);

    /**
     * Publish @p shard's monotone stamp lower bound. Call
     * once per application access with max(app, background) time; the
     * store is lock-free and wakeups are horizon-throttled.
     */
    void
    publishBound(std::uint32_t shard, Tick stamp)
    {
        std::atomic<Tick> &bound = bounds_[shard];
        if (stamp <= bound.load(std::memory_order_relaxed))
            return;
        bound.store(stamp, std::memory_order_release);
        if (waiters_.load(std::memory_order_acquire) == 0)
            return;
        if (stamp - lastNotify_[shard] < horizon_)
            return;
        lastNotify_[shard] = stamp;
        std::lock_guard<std::mutex> lock(mu_);
        cv_.notify_all();
    }

    /**
     * Open a cross-shard section stamped @p stamp (clamped to the
     * shard's monotone stamp sequence), blocking until the section's
     * key is globally minimal. Re-entrant: an enter from the thread
     * that already holds the executing section — same shard or a
     * cross-shard call made on its behalf — is a depth bump. The run
     * token is released while blocked.
     */
    void enter(std::uint32_t shard, Tick stamp, GateEvent kind);

    /** Close the current section. */
    void leave(std::uint32_t shard);

    /**
     * The park rule: block until @p shard — not the executing
     * section's own — is parked (waiting in enter(), not yet begun,
     * or finished). Called from inside the executing section before it
     * touches @p shard's private state; the shard stays parked until
     * the section leaves, since its next key lies above it.
     */
    void awaitParked(std::uint32_t shard);

    /** Sections executed (outermost enters granted). */
    std::uint64_t eventsExecuted() const
    {
        return events_.load(std::memory_order_relaxed);
    }

    /**
     * FNV-1a hash of every outermost section's (stamp, shard, seq,
     * kind), folded in grant order. Two runs granted the same sections
     * in the same order hash equal; the bit-identity tests compare it
     * across thread counts.
     */
    std::uint64_t grantHash() const;

  private:
    struct Shard
    {
        bool begun = false;
        bool finished = false;
        bool waiting = false;
        bool executing = false;
        EventKey key;
        GateEvent kind = GateEvent::Fetch;
        ShardClock clock;
    };

    /** Lower bound on @p s's next (or current) section key. */
    EventKey lowerBoundLocked(const Shard &s, std::size_t i) const;

    /** Whether @p me's key is the global minimum. */
    bool isMinimalLocked(std::size_t me) const;

    void acquireTokenLocked(std::unique_lock<std::mutex> &lock);
    void releaseTokenLocked();

    mutable std::mutex mu_;
    std::condition_variable cv_;       ///< grant / bound advancement
    std::condition_variable tokenCv_;  ///< run-token availability

    std::vector<Shard> shards_;
    /** Published bounds (single writer: the shard). */
    std::unique_ptr<std::atomic<Tick>[]> bounds_;
    /** Last bound that triggered a wakeup (own-thread only). */
    std::vector<Tick> lastNotify_;

    std::atomic<int> waiters_{0};
    int parkWaiters_ = 0;              ///< in awaitParked(), under mu_
    std::atomic<std::uint64_t> events_{0};
    std::uint64_t grantHash_ = 14695981039346656037ULL; ///< under mu_
    unsigned concurrency_;
    unsigned tokens_;
    Tick horizon_;

    /** The one executing section (sections fully serialize): which
     *  shard opened it, the thread that owns it, and its nest depth. */
    std::uint32_t ownerShard_ = 0;
    std::thread::id ownerThread_;
    int depth_ = 0;
};

/**
 * RAII section over an optional gate: components hold a bound
 * GateEndpoint and open sections only when a parallel driver attached
 * one — the sequential engine keeps its zero-overhead path (one
 * predicted branch per potential section).
 */
class GateEndpoint
{
  public:
    GateEndpoint() = default;

    /** Attach to @p gate as @p shard, stamping sections with the max
     *  of the two clocks (pass the same pair for every endpoint of a
     *  shard so its stamp sequence is monotone). Null gate detaches. */
    void
    bind(ShardGate *gate, std::uint32_t shard, const SimClock *appClock,
         const SimClock *backgroundClock)
    {
        gate_ = gate;
        shard_ = shard;
        app_ = appClock;
        background_ = backgroundClock;
    }

    bool active() const { return gate_ != nullptr; }
    ShardGate *gate() const { return gate_; }
    std::uint32_t shard() const { return shard_; }

    Tick stamp() const;

    /** The park rule for this endpoint's shard; no-op unbound. */
    void
    awaitParked() const
    {
        if (gate_ != nullptr)
            gate_->awaitParked(shard_);
    }

    /** Publish the shard's current bound (call between sections). */
    void
    publish() const
    {
        if (gate_ != nullptr)
            gate_->publishBound(shard_, stamp());
    }

  private:
    ShardGate *gate_ = nullptr;
    std::uint32_t shard_ = 0;
    const SimClock *app_ = nullptr;
    const SimClock *background_ = nullptr;
};

/** Scoped gated section; no-op when the endpoint is detached. */
class ShardSection
{
  public:
    ShardSection(const GateEndpoint &ep, GateEvent kind)
        : gate_(ep.gate()), shard_(ep.shard())
    {
        if (gate_ != nullptr)
            gate_->enter(shard_, ep.stamp(), kind);
    }

    ShardSection(const ShardSection &) = delete;
    ShardSection &operator=(const ShardSection &) = delete;

    ~ShardSection()
    {
        if (gate_ != nullptr)
            gate_->leave(shard_);
    }

  private:
    ShardGate *gate_;
    std::uint32_t shard_;
};

} // namespace kona

#endif // KONA_NET_SHARD_GATE_H
