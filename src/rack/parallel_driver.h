/**
 * @file
 * ParallelDriver: run one program per compute node of a MultiRack on
 * its own OS thread under the ShardGate's conservative-lookahead
 * synchronization (DESIGN.md §16 "Parallel simulation").
 *
 * Each compute node — its KonaRuntime, FPGA, caches, prefetcher and
 * tiering engine — is one shard. Shared rack state (Controller,
 * DirectoryService, memory-node backing stores, FaultInjector) is
 * only ever touched inside gated sections, which the gate grants in
 * the canonical EventKey order, so the run is bit-identical to the
 * sequential engine regardless of `threads`:
 *
 *   ParallelDriver driver(rack, threads);
 *   driver.run([&](std::size_t shard, KonaRuntime &rt) {
 *       ... the shard's whole program: reads/writes on rt ...
 *   });
 *
 * `threads` is a concurrency cap, not a thread count: the driver
 * always spawns one thread per shard and throttles admission with the
 * gate's run tokens, so threads=1 executes the exact sequential
 * reference schedule through the same machinery.
 */

#ifndef KONA_RACK_PARALLEL_DRIVER_H
#define KONA_RACK_PARALLEL_DRIVER_H

#include <functional>
#include <vector>

#include "net/shard_gate.h"
#include "rack/multi_rack.h"

namespace kona {

/** Parallel per-compute-node program runner over a MultiRack. */
class ParallelDriver
{
  public:
    /**
     * Bind every runtime of @p rack to a fresh gate. @p threads is
     * the number of shards allowed to execute concurrently (clamped
     * to [1, runtimeCount]); the lookahead horizon derives from the
     * fabric's minimum wire latency.
     */
    ParallelDriver(MultiRack &rack, unsigned threads);

    /** Detaches the gate from every runtime. */
    ~ParallelDriver();

    ParallelDriver(const ParallelDriver &) = delete;
    ParallelDriver &operator=(const ParallelDriver &) = delete;

    /**
     * Run @p program(shard, runtime) once per compute node, each on
     * its own thread, and join. A program's exception is rethrown
     * (the first by shard index) after every thread has joined.
     * Callable repeatedly only on fresh drivers — shards cannot
     * restart once finished.
     */
    void
    run(const std::function<void(std::size_t, KonaRuntime &)> &program);

    ShardGate &gate() { return gate_; }

  private:
    MultiRack &rack_;
    ShardGate gate_;
};

} // namespace kona

#endif // KONA_RACK_PARALLEL_DRIVER_H
