/**
 * @file
 * Tests for the pipelined asynchronous eviction engine: submit and
 * the drain/drainNode/flushPage barriers, the depth-sweep
 * content-equivalence oracle (final remote bytes at depth N match the
 * synchronous depth-1 engine, including under injected drops and
 * corruption), out-of-order batch completion across nodes, the
 * per-page flush barrier, NAK-retransmit of an in-flight ring slot,
 * the write-to-in-flight-page refetch fence, and ring-full
 * backpressure.
 */

#include <gtest/gtest.h>

#include "core/kona_runtime.h"
#include "net/fault_injector.h"

namespace kona {
namespace {

constexpr std::size_t regionPages = 512;

/** One self-contained rack + Kona stack at a given pipeline depth. */
struct AsyncRig
{
    explicit AsyncRig(std::size_t depth, std::size_t nodeCount = 1,
                      FaultInjector *injector = nullptr,
                      std::size_t pages = regionPages)
        : controller(1 * MiB)
    {
        if (injector != nullptr)
            fabric.setFaultInjector(injector);
        for (NodeId id = 1; id <= nodeCount; ++id) {
            nodes.push_back(
                std::make_unique<MemoryNode>(fabric, id, 128 * MiB));
            controller.registerNode(*nodes.back());
        }
        KonaConfig cfg;
        cfg.fpga.vfmemSize = 64 * MiB;
        cfg.fpga.fmemSize =
            std::max<std::size_t>(8 * MiB, 2 * pages * pageSize);
        cfg.hierarchy = HierarchyConfig::scaled();
        cfg.evict.pipelineDepth = depth;
        cfg.evict.pumpPeriod = ~std::size_t(0);   // manual only
        runtime = std::make_unique<KonaRuntime>(fabric, controller, 0,
                                                cfg);
        region = runtime->allocate(pages * pageSize, pageSize);
    }

    EvictionHandler &handler() { return runtime->evictionHandler(); }

    /** Synchronous eviction: submit then drain. */
    void
    evictSync(const std::vector<Addr> &pages, SimClock &clock)
    {
        handler().submit(pages, clock);
        handler().drain(clock);
    }

    Addr vpn(std::size_t p) const { return pageNumber(region) + p; }

    std::vector<Addr>
    vpns(std::size_t from, std::size_t to) const
    {
        std::vector<Addr> out;
        for (std::size_t p = from; p < to; ++p)
            out.push_back(vpn(p));
        return out;
    }

    /** Value stored at page @p p, line @p l by dirtyAll(). */
    static std::uint64_t
    expected(std::size_t p, unsigned l)
    {
        return p * 1000 + l + 1;
    }

    /** Dirty @p linesPer lines in each of the first @p pages pages. */
    void
    dirtyAll(std::size_t pages, unsigned linesPer)
    {
        for (std::size_t p = 0; p < pages; ++p) {
            for (unsigned l = 0; l < linesPer; ++l) {
                runtime->store<std::uint64_t>(
                    region + p * pageSize + l * cacheLineSize,
                    expected(p, l));
            }
        }
        runtime->hierarchy().flushAll();
    }

    /** Read page @p p line @p l straight from its home node's store. */
    std::uint64_t
    remoteValue(std::size_t p, unsigned l)
    {
        RemoteLocation loc = runtime->fpga().translation().translate(
            region + p * pageSize + l * cacheLineSize);
        std::uint64_t value = 0;
        fabric.nodeStore(loc.node).read(loc.addr, &value,
                                        sizeof(value));
        return value;
    }

    Fabric fabric;
    Controller controller;
    std::vector<std::unique_ptr<MemoryNode>> nodes;
    std::unique_ptr<KonaRuntime> runtime;
    Addr region = 0;
};

// ---------------------------------------------------------------------
// Differential oracle: every depth lands byte-identical remote state.
// ---------------------------------------------------------------------

TEST(AsyncEviction, DepthSweepMatchesSynchronousContent)
{
    for (std::size_t depth : {1u, 2u, 4u, 8u}) {
        AsyncRig rig(depth);
        rig.dirtyAll(regionPages, 4);
        SimClock clock;
        rig.evictSync(rig.vpns(0, regionPages), clock);

        for (std::size_t p = 0; p < regionPages; ++p) {
            for (unsigned l = 0; l < 4; ++l) {
                ASSERT_EQ(rig.remoteValue(p, l),
                          AsyncRig::expected(p, l))
                    << "depth " << depth << " page " << p << " line "
                    << l;
            }
            EXPECT_FALSE(rig.runtime->fpga().pageResident(rig.vpn(p)));
        }
        EXPECT_EQ(rig.handler().pagesEvicted(), regionPages);
        EXPECT_EQ(rig.handler().dirtyLinesWritten(),
                  regionPages * 4u);
        EXPECT_EQ(rig.handler().inflightShipments(), 0u);
    }
}

TEST(AsyncEviction, DepthSweepMatchesUnderDropsAndCorruption)
{
    // Drops and DMA corruption force retransmits; the retry loop must
    // still land every line exactly, at every depth.
    for (std::size_t depth : {1u, 2u, 4u, 8u}) {
        FaultInjector injector(0xfab);
        AsyncRig rig(depth, 1, &injector);
        rig.dirtyAll(64, 2);
        // Arm the faults only for the eviction phase; the setup
        // stores above fetch pages over the same (clean) fabric.
        injector.profile(1).dropProbability = 0.2;
        injector.profile(1).corruptProbability = 0.2;
        SimClock clock;
        rig.evictSync(rig.vpns(0, 64), clock);

        for (std::size_t p = 0; p < 64; ++p) {
            for (unsigned l = 0; l < 2; ++l) {
                ASSERT_EQ(rig.remoteValue(p, l),
                          AsyncRig::expected(p, l))
                    << "depth " << depth << " page " << p << " line "
                    << l;
            }
        }
        EXPECT_EQ(rig.handler().pagesEvicted(), 64u);
    }
}

// ---------------------------------------------------------------------
// Targeted barriers: out-of-order completion across destination nodes.
// ---------------------------------------------------------------------

/**
 * Two memory nodes; the 1 MiB slabs alternate between them, so the
 * region's first 256 pages and last 256 pages live on different nodes.
 */
struct TwoNodeRig : AsyncRig
{
    TwoNodeRig() : AsyncRig(4, 2)
    {
        dirtyAll(regionPages, 64);
        bigNode = runtime->fpga().translation().translate(region).node;
        smallNode = runtime->fpga()
                        .translation()
                        .translate(region + (regionPages - 1) * pageSize)
                        .node;
    }

    NodeId bigNode = 0;
    NodeId smallNode = 0;
};

TEST(AsyncEviction, OutOfOrderBatchCompletion)
{
    // A huge batch to one node followed by a tiny batch to the other
    // completes in reverse submission order.
    TwoNodeRig rig;
    ASSERT_NE(rig.bigNode, rig.smallNode);

    SimClock clock;
    rig.handler().submit(rig.vpns(0, 256), clock);
    rig.handler().submit(rig.vpns(256, 257), clock);
    EXPECT_TRUE(rig.runtime->fpga().evictionInFlight(rig.vpn(0)));
    EXPECT_TRUE(rig.runtime->fpga().evictionInFlight(rig.vpn(256)));

    // Waiting out the tiny batch's node finalizes it (submitted
    // second) while the big one is still in flight.
    rig.handler().drainNode(rig.smallNode, clock);
    EXPECT_FALSE(rig.runtime->fpga().pageResident(rig.vpn(256)));
    EXPECT_TRUE(rig.runtime->fpga().evictionInFlight(rig.vpn(0)));
    EXPECT_GT(rig.handler().inflightShipments(), 0u);

    rig.handler().drain(clock);
    EXPECT_FALSE(rig.runtime->fpga().evictionInFlight(rig.vpn(0)));
    EXPECT_EQ(rig.handler().pagesEvicted(), 257u);
    EXPECT_EQ(rig.remoteValue(256, 0), AsyncRig::expected(256, 0));
    EXPECT_EQ(rig.remoteValue(0, 63), AsyncRig::expected(0, 63));
}

TEST(AsyncEviction, FlushPageWaitsForItsPageOnly)
{
    // A coherence flush of one page must not wait out an unrelated
    // batch in flight to the other node.
    TwoNodeRig rig;
    ASSERT_NE(rig.bigNode, rig.smallNode);

    SimClock clock;
    rig.handler().submit(rig.vpns(0, 256), clock);
    ASSERT_TRUE(rig.runtime->fpga().evictionInFlight(rig.vpn(0)));

    EXPECT_TRUE(rig.handler().flushPage(rig.vpn(300), clock));
    EXPECT_FALSE(rig.runtime->fpga().pageResident(rig.vpn(300)));
    for (unsigned l = 0; l < 64; ++l)
        EXPECT_EQ(rig.remoteValue(300, l), AsyncRig::expected(300, l));
    EXPECT_TRUE(rig.runtime->fpga().evictionInFlight(rig.vpn(0)));

    rig.handler().drain(clock);
    EXPECT_EQ(rig.handler().pagesEvicted(), 257u);
    EXPECT_EQ(rig.remoteValue(0, 63), AsyncRig::expected(0, 63));
}

// ---------------------------------------------------------------------
// NAK-retransmit of an in-flight ring slot.
// ---------------------------------------------------------------------

TEST(AsyncEviction, NakRetransmitsInflightSlot)
{
    // Half the transfers are corrupted end-host-side: the receiver's
    // CRC pass NAKs those logs and the engine retransmits the same ring
    // slot until a clean copy lands.
    FaultInjector injector(0xbad5eed);
    AsyncRig rig(4, 1, &injector);
    rig.dirtyAll(32, 1);
    injector.profile(1).corruptProbability = 0.5;
    SimClock clock;
    // One submit per page: 32 independent shipments through the ring,
    // about half of which are corrupted on their first send.
    for (std::size_t p = 0; p < 32; ++p)
        rig.handler().submit(rig.vpns(p, p + 1), clock);
    rig.handler().drain(clock);

    EXPECT_GE(rig.handler().checksumNaks(), 1u);
    EXPECT_GE(rig.handler().logRetransmits(), 1u);
    for (std::size_t p = 0; p < 32; ++p)
        ASSERT_EQ(rig.remoteValue(p, 0), AsyncRig::expected(p, 0));
    EXPECT_EQ(rig.handler().pagesEvicted(), 32u);
}

// ---------------------------------------------------------------------
// Write to an in-flight page: fence, re-dirty, refetch.
// ---------------------------------------------------------------------

TEST(AsyncEviction, WriteToInflightPageRequeues)
{
    AsyncRig rig(4);
    rig.dirtyAll(1, 1);
    SimClock clock;
    rig.handler().submit(rig.vpns(0, 1), clock);
    // The page stays resident and fenced while its log is on the wire.
    EXPECT_TRUE(rig.runtime->fpga().pageResident(rig.vpn(0)));
    EXPECT_TRUE(rig.runtime->fpga().evictionInFlight(rig.vpn(0)));

    // Write a different line while in flight: the shipped snapshot is
    // now stale and finalize must re-queue the page, not drop it.
    rig.runtime->store<std::uint64_t>(
        rig.region + 7 * cacheLineSize, 0xabcdef);
    rig.runtime->hierarchy().flushAll();

    rig.handler().drain(clock);
    EXPECT_EQ(rig.handler().inflightRefetches(), 1u);
    EXPECT_FALSE(rig.runtime->fpga().evictionInFlight(rig.vpn(0)));
    // Both the original line and the racing write landed remotely.
    EXPECT_EQ(rig.remoteValue(0, 0), AsyncRig::expected(0, 0));
    EXPECT_EQ(rig.remoteValue(0, 7), 0xabcdefu);
}

TEST(AsyncEviction, SubmitOfInflightPageStallsThenShipsFreshData)
{
    // A second submit of a page whose log is still in flight must wait
    // for the first shipment (counted) instead of double-shipping.
    AsyncRig rig(4);
    rig.dirtyAll(1, 1);
    SimClock clock;
    rig.handler().submit(rig.vpns(0, 1), clock);
    rig.runtime->store<std::uint64_t>(
        rig.region + 3 * cacheLineSize, 42);
    rig.runtime->hierarchy().flushAll();

    rig.handler().submit(rig.vpns(0, 1), clock);
    EXPECT_GE(rig.handler().pageConflictStalls(), 1u);
    rig.handler().drain(clock);
    EXPECT_EQ(rig.remoteValue(0, 0), AsyncRig::expected(0, 0));
    EXPECT_EQ(rig.remoteValue(0, 3), 42u);
}

// ---------------------------------------------------------------------
// Ring-full backpressure.
// ---------------------------------------------------------------------

TEST(AsyncEviction, RingFullBackpressureBlocksAndCounts)
{
    // Depth 1: one landing slot per node, so a second submit while the
    // first shipment is in flight must block on the ring.
    AsyncRig shallow(1);
    shallow.dirtyAll(2, 1);
    SimClock clock;
    shallow.handler().submit(shallow.vpns(0, 1), clock);
    shallow.handler().submit(shallow.vpns(1, 2), clock);
    EXPECT_GE(shallow.handler().ringFullStalls(), 1u);
    shallow.handler().drain(clock);
    EXPECT_EQ(shallow.handler().pagesEvicted(), 2u);

    // Depth 4: both shipments fit the ring; no stall.
    AsyncRig deep(4);
    deep.dirtyAll(2, 1);
    SimClock clock2;
    deep.handler().submit(deep.vpns(0, 1), clock2);
    deep.handler().submit(deep.vpns(1, 2), clock2);
    EXPECT_EQ(deep.handler().ringFullStalls(), 0u);
    deep.handler().drain(clock2);
    EXPECT_EQ(deep.handler().pagesEvicted(), 2u);
}

// ---------------------------------------------------------------------
// Pipelining pays: deeper rings beat the synchronous engine.
// ---------------------------------------------------------------------

TEST(AsyncEviction, DeepPipelineBeatsSynchronous)
{
    // Dirty-heavy workload: with every page fully dirty the receiver's
    // unpack dominates, and overlapping it with the next batch's pack
    // and wire time must win by a wide margin. Enough pages for the
    // pipeline to reach steady state past the fill/drain edges.
    constexpr std::size_t pages = 2048;
    auto evictAll = [](std::size_t depth) {
        AsyncRig rig(depth, 1, nullptr, pages);
        rig.dirtyAll(pages, 64);
        SimClock clock;
        rig.evictSync(rig.vpns(0, pages), clock);
        return static_cast<double>(clock.now());
    };
    double sync = evictAll(1);
    double deep = evictAll(4);
    EXPECT_GT(sync / deep, 1.3);
}

} // namespace
} // namespace kona
