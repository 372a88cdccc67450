/**
 * @file
 * Differential bit-identity tests for the parallel simulation engine
 * (DESIGN.md §16 "Parallel simulation").
 *
 * The contract under test: running the same per-compute-node programs
 * through ParallelDriver at ANY shard-concurrency cap produces a run
 * that is indistinguishable from the t=1 reference schedule — the
 * metric registry's full fingerprint, the final bytes of every span,
 * the gate's hash of every granted cross-shard section, and the rack
 * journal must all match exactly. The matrix covers five seeds, four
 * thread counts, and six workload shapes: sequential, strided,
 * uniform-random, eviction-heavy pointer chase, a random mix under a
 * deterministic partial partition with replication failover, and
 * owner writes to a coherence-shared region next to private traffic,
 * where every invalidation lands on another shard's thread.
 * The rack-journal tests pin who stamps an event: the runtime whose
 * operation caused it, on its own app clock.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "coherence/agent.h"
#include "common/rng.h"
#include "rack/multi_rack.h"
#include "rack/parallel_driver.h"
#include "telemetry/event_journal.h"
#include "telemetry/metric_registry.h"

namespace kona {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 42, 0x5eedULL, 0xdecafULL,
                                    0xab5aULL};
constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};

MultiRackConfig
smallRack(std::size_t computeNodes)
{
    MultiRackConfig cfg;
    cfg.computeNodes = computeNodes;
    cfg.memoryNodes = 3;
    cfg.memoryBytes = 64 * MiB;
    cfg.slabSize = 1 * MiB;
    cfg.runtime.fpga.vfmemSize = 64 * MiB;
    cfg.runtime.fpga.fmemSize = 8 * MiB;
    return cfg;
}

std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
    }
    return h;
}

/** Everything a run can leak about its schedule. */
struct Signature
{
    std::uint64_t fingerprint = 0; ///< MetricRegistry::fingerprint()
    std::uint64_t content = 0;     ///< bytes of every span, in order
    std::uint64_t events = 0;      ///< grant hash + rack journal
    std::uint64_t staleReads = 0;  ///< coherence: versions gone back
    std::uint64_t invalidations = 0;    ///< coherence: received
    std::uint64_t forcedWritebacks = 0; ///< coherence: dirty on inval

    bool operator==(const Signature &) const = default;
};

enum class Mix { Seq, Stride, Random, Graph, Chaos, Coherence };

const char *
mixName(Mix mix)
{
    switch (mix) {
    case Mix::Seq: return "seq";
    case Mix::Stride: return "stride";
    case Mix::Random: return "random";
    case Mix::Graph: return "graph";
    case Mix::Chaos: return "chaos";
    case Mix::Coherence: return "coherence";
    }
    return "?";
}

/** The chaos rack: one replica per slab and WaitRetry, so an op a
 *  partition fails falls over to the other copy. */
MultiRackConfig
chaosRack()
{
    MultiRackConfig cfg = smallRack(3);
    cfg.runtime.replicationFactor = 1;
    cfg.runtime.failurePolicy = FailurePolicy::WaitRetry;
    return cfg;
}

/**
 * Deterministic partial partition: memory node 2 never answers compute
 * node 101 (timeouts, not probabilistic drops), so fetches and
 * writebacks fail over to replicas. The failure detector is parked —
 * fail-stop rebuilds are outside the bit-identity contract.
 */
void
partitionNode2(MultiRack &rack)
{
    rack.controller().setFailureThreshold(1'000'000);
    rack.faults().profile(2).blockedSources.push_back(
        MultiRack::firstComputeNode);
}

/** The coherence mix's shared region and the share of ops it gets. */
constexpr std::size_t kSharedPages = 16;
constexpr std::size_t kWordsPerPage = 8;  ///< one word per first 8 lines
constexpr double kSharedShare = 0.01;

/**
 * One full run of @p mix at @p threads: fresh rack, one private span
 * per compute node, the mix's access program on every shard, then the
 * signature. Seeds only vary written values for the deterministic
 * shapes (seq/stride) and drive the access stream for the random ones,
 * so every seed yields a distinct but reproducible run. The coherence
 * mix is the random mix plus owner writes: 1% of each shard's ops go
 * to a shared region, where shard 0 writes ever-growing versions and
 * the other shards read them and count any word whose version went
 * back (a coherence-of-reads violation).
 */
Signature
runMix(Mix mix, std::uint64_t seed, unsigned threads)
{
    MultiRack rack(mix == Mix::Chaos ? chaosRack() : smallRack(3));
    if (mix == Mix::Chaos)
        partitionNode2(rack);

    const std::size_t span = mix == Mix::Graph ? 12 * MiB : 1 * MiB;
    const std::uint64_t ops = mix == Mix::Graph       ? 1'200
                              : mix == Mix::Coherence ? 20'000
                                                      : 3'000;

    std::vector<Addr> bases;
    for (std::size_t i = 0; i < rack.runtimeCount(); ++i)
        bases.push_back(rack.runtime(i).allocate(span, pageSize));
    const std::size_t sharedBytes = kSharedPages * pageSize;
    const Addr shared = mix == Mix::Coherence
                            ? rack.mapShared("versions", sharedBytes)
                            : 0;
    std::vector<std::uint64_t> staleReads(rack.runtimeCount(), 0);

    // The graph mix chases one permutation cycle (> FMem, so the
    // demand-fetch + eviction machinery runs the whole time). Built
    // once here; each shard writes it into its own span in-program.
    std::vector<std::uint64_t> chase;
    if (mix == Mix::Graph) {
        chase.resize(span / 8);
        for (std::size_t i = 0; i < chase.size(); ++i)
            chase[i] = i;
        Rng rng(seed ^ 0x9a4fULL);
        for (std::size_t i = chase.size() - 1; i > 0; --i) {
            std::size_t j = rng.below(i);
            std::swap(chase[i], chase[j]);
        }
    }

    Signature sig;
    std::uint64_t h = 1469598103934665603ULL;
    {
        ParallelDriver driver(rack, threads);
        driver.run([&](std::size_t shard, KonaRuntime &rt) {
            Addr base = bases[shard];
            std::uint64_t buf = 0;
            if (mix == Mix::Graph) {
                for (std::size_t off = 0; off < span; off += pageSize)
                    rt.write(base + off, chase.data() + off / 8,
                             pageSize);
                std::uint64_t idx = shard;
                for (std::uint64_t i = 0; i < ops; ++i) {
                    rt.read(base + idx * 8, &buf, sizeof(buf));
                    idx = buf;
                }
                return;
            }
            // Resident mixes: touch every page first, then run.
            std::vector<std::uint8_t> page(pageSize);
            for (std::size_t off = 0; off < span; off += pageSize)
                rt.read(base + off, page.data(), pageSize);
            Rng rng(seed + shard);
            std::size_t off = 0;
            std::uint64_t version = 0;
            std::vector<std::uint64_t> seen(kSharedPages * kWordsPerPage,
                                            0);
            for (std::uint64_t i = 0; i < ops; ++i) {
                if (mix == Mix::Coherence && rng.chance(kSharedShare)) {
                    std::size_t word = rng.below(seen.size());
                    Addr addr = shared +
                                (word / kWordsPerPage) * pageSize +
                                (word % kWordsPerPage) * cacheLineSize;
                    if (shard == 0) {
                        buf = ++version;
                        rt.write(addr, &buf, sizeof(buf));
                    } else {
                        rt.read(addr, &buf, sizeof(buf));
                        if (buf < seen[word])
                            ++staleReads[shard];
                        seen[word] = std::max(seen[word], buf);
                    }
                    continue;
                }
                Addr addr;
                bool write;
                switch (mix) {
                case Mix::Seq:
                    addr = base + off;
                    off = (off + cacheLineSize) % span;
                    write = (i & 3) == 3;
                    break;
                case Mix::Stride:
                    addr = base + off;
                    off += 1024;
                    if (off >= span)
                        off = (off + cacheLineSize) % 1024;
                    write = (i & 3) == 1;
                    break;
                default: // Random, Chaos, Coherence
                    addr = base + rng.below(span / 8) * 8;
                    write = rng.chance(0.3);
                    break;
                }
                if (write) {
                    buf = (i << 8) ^ shard ^ seed;
                    rt.write(addr, &buf, sizeof(buf));
                } else {
                    rt.read(addr, &buf, sizeof(buf));
                }
            }
        });

        sig.fingerprint = rack.metrics()->fingerprint();
        h = fnvMix(h, driver.gate().grantHash());
    } // detach the gate before the main-thread readback below

    for (std::size_t i = 0; i < rack.runtimeCount(); ++i) {
        sig.staleReads += staleReads[i];
        if (const CoherenceAgent *agent = rack.runtime(i).coherenceAgent()) {
            sig.invalidations += agent->invalidationsReceived();
            sig.forcedWritebacks += agent->forcedWritebacks();
        }
    }

    for (const JournalEvent &ev : rack.controller().journal().snapshot()) {
        h = fnvMix(h, ev.ts);
        h = fnvMix(h, static_cast<std::uint64_t>(ev.kind));
        h = fnvMix(h, ev.node);
        h = fnvMix(h, ev.a);
        h = fnvMix(h, ev.b);
        h = fnvMix(h, ev.epoch);
    }
    sig.events = h;

    std::uint64_t c = 1469598103934665603ULL;
    std::vector<std::uint8_t> page(pageSize);
    for (std::size_t i = 0; i < rack.runtimeCount(); ++i) {
        for (std::size_t off = 0; off < span; off += pageSize) {
            rack.runtime(i).read(bases[i] + off, page.data(), pageSize);
            for (std::size_t b = 0; b < pageSize; ++b) {
                c ^= page[b];
                c *= 1099511628211ULL;
            }
        }
    }
    if (mix == Mix::Coherence) {
        std::vector<std::uint8_t> region(sharedBytes);
        rack.runtime(0).read(shared, region.data(), sharedBytes);
        for (std::uint8_t b : region) {
            c ^= b;
            c *= 1099511628211ULL;
        }
    }
    sig.content = c;
    return sig;
}

class ParallelIdentity : public ::testing::TestWithParam<Mix>
{};

TEST_P(ParallelIdentity, BitIdenticalAcrossThreadCounts)
{
    Mix mix = GetParam();
    for (std::uint64_t seed : kSeeds) {
        Signature reference = runMix(mix, seed, 1);
        EXPECT_EQ(reference.staleReads, 0u)
            << mixName(mix) << " seed " << seed
            << ": a reader saw a version go back";
        if (mix == Mix::Coherence) {
            // The mix must exercise the cross-shard invalidation path.
            EXPECT_GT(reference.invalidations, 0u) << "seed " << seed;
            EXPECT_GT(reference.forcedWritebacks, 0u) << "seed " << seed;
        }
        for (unsigned threads : kThreadCounts) {
            if (threads == 1)
                continue;
            Signature sig = runMix(mix, seed, threads);
            EXPECT_EQ(sig.fingerprint, reference.fingerprint)
                << mixName(mix) << " seed " << seed << " t=" << threads
                << ": metric fingerprints diverge";
            EXPECT_EQ(sig.content, reference.content)
                << mixName(mix) << " seed " << seed << " t=" << threads
                << ": memory content diverges";
            EXPECT_EQ(sig.events, reference.events)
                << mixName(mix) << " seed " << seed << " t=" << threads
                << ": event sequences diverge";
            EXPECT_EQ(sig.staleReads, 0u)
                << mixName(mix) << " seed " << seed << " t=" << threads
                << ": a reader saw a version go back";
            if (sig != reference)
                return; // one mix's full diagnosis is enough
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Mixes, ParallelIdentity,
                         ::testing::Values(Mix::Seq, Mix::Stride,
                                           Mix::Random, Mix::Graph,
                                           Mix::Chaos, Mix::Coherence),
                         [](const auto &info) {
                             return mixName(info.param);
                         });

/**
 * Gate transparency: a single-compute-node program run under the
 * driver (every choke point taking real gate sections) must leave the
 * rack in exactly the state the same program produces with no gate
 * attached. This pins down that sections only ORDER work and never
 * change what the work does.
 */
TEST(ParallelIdentityGate, SingleShardMatchesUngated)
{
    auto program = [](KonaRuntime &rt, Addr base) {
        Rng rng(0x6a7eULL);
        std::uint64_t buf = 0;
        for (std::uint64_t i = 0; i < 4'000; ++i) {
            Addr addr = base + rng.below((2 * MiB) / 8) * 8;
            if (rng.chance(0.25)) {
                buf = i;
                rt.write(addr, &buf, sizeof(buf));
            } else {
                rt.read(addr, &buf, sizeof(buf));
            }
        }
    };

    std::uint64_t ungated = 0;
    {
        MultiRack rack(smallRack(1));
        Addr base = rack.runtime(0).allocate(2 * MiB, pageSize);
        program(rack.runtime(0), base);
        ungated = rack.metrics()->fingerprint();
    }

    std::uint64_t gated = 0;
    {
        MultiRack rack(smallRack(1));
        Addr base = rack.runtime(0).allocate(2 * MiB, pageSize);
        ParallelDriver driver(rack, 1);
        driver.run([&](std::size_t, KonaRuntime &rt) {
            program(rt, base);
        });
        gated = rack.metrics()->fingerprint();
    }

    EXPECT_EQ(gated, ungated)
        << "gate sections changed the simulation, not just its order";
}

// ---------------------------------------------------------------------
// The rack journal
// ---------------------------------------------------------------------

constexpr std::size_t kProbeSpan = 12 * MiB; ///< > the 8 MiB of FMem
constexpr std::uint64_t kProbeOps = 3'000;

/**
 * The journal probe: the chaos mix over a span larger than FMem (touch
 * every page, then random 8 B ops, 30% writes). On the partitioned
 * chaos rack, node 101's fetches and evictions keep timing out against
 * node 2, and its health score walks it out of Healthy.
 */
void
probeProgram(KonaRuntime &rt, Addr base, std::uint64_t seed)
{
    std::vector<std::uint8_t> page(pageSize);
    for (std::size_t off = 0; off < kProbeSpan; off += pageSize)
        rt.read(base + off, page.data(), pageSize);
    Rng rng(seed);
    std::uint64_t buf = 0;
    for (std::uint64_t i = 0; i < kProbeOps; ++i) {
        Addr addr = base + rng.below(kProbeSpan / 8) * 8;
        if (rng.chance(0.3)) {
            buf = i;
            rt.write(addr, &buf, sizeof(buf));
        } else {
            rt.read(addr, &buf, sizeof(buf));
        }
    }
}

std::size_t
node2Transitions(const std::vector<JournalEvent> &events)
{
    return std::count_if(
        events.begin(), events.end(), [](const JournalEvent &ev) {
            return ev.kind == JournalKind::HealthTransition &&
                   ev.node == 2;
        });
}

/**
 * Only node 101 runs, so only its app clock may stamp node 2's
 * transitions; the rack's one journal, at the Controller, holds them.
 */
TEST(RackJournal, StampedByTheRuntimeThatCausedTheEvent)
{
    MultiRack rack(chaosRack());
    partitionNode2(rack);
    KonaRuntime &driven = rack.runtime(0);
    probeProgram(driven, driven.allocate(kProbeSpan, pageSize), 1);

    std::vector<JournalEvent> events =
        rack.controller().journal().snapshot();
    EXPECT_GE(node2Transitions(events), 2u)
        << "node 2 should go healthy -> suspect -> quarantined";
    for (const JournalEvent &ev : events) {
        if (ev.kind != JournalKind::HealthTransition || ev.node != 2)
            continue;
        EXPECT_GT(ev.ts, rack.runtime(2).appTime());
        EXPECT_LE(ev.ts, driven.appTime());
    }
}

/**
 * Every shard runs the probe: the rack journal, timestamps included,
 * must be the t=1 journal at t=4 (no stamp may come from another
 * shard's clock, and every record happens in canonical order).
 */
TEST(RackJournal, IdenticalAcrossThreadCounts)
{
    auto journalAt = [](unsigned threads) {
        MultiRack rack(chaosRack());
        partitionNode2(rack);
        std::vector<Addr> bases;
        for (std::size_t i = 0; i < rack.runtimeCount(); ++i)
            bases.push_back(rack.runtime(i).allocate(kProbeSpan, pageSize));
        {
            ParallelDriver driver(rack, threads);
            driver.run([&](std::size_t shard, KonaRuntime &rt) {
                probeProgram(rt, bases[shard], shard + 1);
            });
        }
        return rack.controller().journal().snapshot();
    };
    auto jsonl = [](const std::vector<JournalEvent> &events) {
        std::ostringstream os;
        EventJournal::writeEventsJsonl(os, events);
        return os.str();
    };

    std::vector<JournalEvent> reference = journalAt(1);
    ASSERT_GE(node2Transitions(reference), 1u);
    for (int run = 0; run < 3; ++run)
        EXPECT_EQ(jsonl(journalAt(4)), jsonl(reference)) << "run " << run;
}

} // namespace
} // namespace kona
