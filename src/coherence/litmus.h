/**
 * @file
 * Litmus differential suite for inter-node coherence.
 *
 * Each scenario is a small multi-threaded program in the classical
 * memory-model litmus style (message passing, store buffering, load
 * buffering, coherence-of-a-single-line, IRIW, ...), with "threads"
 * mapped to KonaRuntime compute nodes of a MultiRack and locations
 * mapped into one coherence-shared VFMem region. Offsets are chosen
 * per scenario to cover the interesting granularities: two locations
 * in the same cache line, same page but different lines, and
 * different pages.
 *
 * The checker is differential and stronger than the usual
 * forbidden-outcome conditions: the runtimes execute a seeded global
 * interleaving of the per-thread programs op-atomically, and a flat
 * sequentially-consistent oracle executes the SAME interleaving.
 * Every loaded value must equal the oracle's, and after the run every
 * node's read-back of every location must match the oracle memory.
 * Since an op-atomic interleaving of a sequentially-consistent system
 * has exactly one legal outcome, any stale line served anywhere shows
 * up as a divergence — there is no weaker "allowed outcome" escape.
 *
 * Outcomes carry an order-sensitive FNV hash over all observed loads
 * so bit-identical determinism across repeated runs of one seed can
 * be asserted directly.
 */

#ifndef KONA_COHERENCE_LITMUS_H
#define KONA_COHERENCE_LITMUS_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace kona {

class MultiRack;

/** One operation of a litmus thread program. */
struct LitmusOp
{
    bool store = false;
    int loc = 0;                ///< index into LitmusScenario::locOffsets
    std::uint64_t value = 0;    ///< stored value (ignored for loads)
};

/** One litmus scenario. */
struct LitmusScenario
{
    std::string name;
    /** Byte offset of each location inside the shared region. */
    std::vector<Addr> locOffsets;
    /** One program per thread; thread i runs on runtime i. */
    std::vector<std::vector<LitmusOp>> programs;

    std::size_t threads() const { return programs.size(); }
};

/** Result of one litmus run. */
struct LitmusOutcome
{
    bool match = true;          ///< every load and read-back == oracle
    std::string divergence;     ///< first mismatch, human-readable
    std::uint64_t loadsChecked = 0;
    /** Order-sensitive FNV-1a over every observed load value. */
    std::uint64_t valueHash = 1469598103934665603ULL;
};

/** The ~22 scenarios of the suite (stable order and names). */
const std::vector<LitmusScenario> &litmusScenarios();

/**
 * Execute @p scenario on @p rack against the SC oracle.
 *
 * @param base   VFMem base of the shared region (from mapShared()).
 * @param seed   Drives the global interleaving (same seed => same
 *               interleaving => identical outcome, byte for byte).
 * @param rounds Times the whole program set is replayed; oracle
 *               memory persists across rounds, so later rounds start
 *               from dirty state and exercise ownership ping-pong.
 *
 * The scenario must not need more threads than the rack has runtimes.
 */
LitmusOutcome runLitmus(const LitmusScenario &scenario, MultiRack &rack,
                        Addr base, std::uint64_t seed, int rounds = 4);

} // namespace kona

#endif // KONA_COHERENCE_LITMUS_H
