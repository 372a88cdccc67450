/**
 * @file
 * Focused tests for the EvictionHandler: batching semantics, CL-log
 * content landing byte-exactly on memory nodes, silent eviction,
 * FullPage mode, the cost breakdown, batch chunking, and behaviour
 * under node failures.
 */

#include <gtest/gtest.h>

#include "core/kona_runtime.h"

namespace kona {
namespace {

class EvictionFixture : public ::testing::Test
{
  protected:
    EvictionFixture() : controller(1 * MiB)
    {
        node = std::make_unique<MemoryNode>(fabric, 5, 128 * MiB);
        controller.registerNode(*node);
        rebuild({});
    }

    /** (Re)create the runtime with @p evict layered on the defaults. */
    void
    rebuild(EvictionConfig evict)
    {
        evict.pumpPeriod = ~std::size_t(0);   // manual only
        KonaConfig cfg;
        cfg.fpga.vfmemSize = 64 * MiB;
        cfg.fpga.fmemSize = 8 * MiB;
        cfg.hierarchy = HierarchyConfig::scaled();
        cfg.evict = evict;
        runtime = std::make_unique<KonaRuntime>(fabric, controller, 0,
                                                cfg);
        region = runtime->allocate(512 * pageSize, pageSize);
    }

    /** Dirty @p count lines at the start of page @p p. */
    void
    dirtyPage(std::size_t p, unsigned count)
    {
        for (unsigned l = 0; l < count; ++l) {
            runtime->store<std::uint64_t>(
                region + p * pageSize + l * cacheLineSize,
                p * 100 + l + 1);
        }
    }

    std::vector<Addr>
    vpns(std::size_t from, std::size_t to)
    {
        std::vector<Addr> out;
        for (std::size_t p = from; p < to; ++p)
            out.push_back(pageNumber(region) + p);
        return out;
    }

    EvictionHandler &handler() { return runtime->evictionHandler(); }

    /** Synchronous eviction: submit then drain. */
    void
    evictSync(const std::vector<Addr> &pages, SimClock &clock)
    {
        handler().submit(pages, clock);
        handler().drain(clock);
    }

    Fabric fabric;
    Controller controller;
    std::unique_ptr<MemoryNode> node;
    std::unique_ptr<KonaRuntime> runtime;
    Addr region = 0;
};

TEST_F(EvictionFixture, ClLogLandsBytesExactly)
{
    dirtyPage(0, 3);
    dirtyPage(1, 1);
    runtime->hierarchy().flushAll();
    SimClock clock;
    evictSync(vpns(0, 2), clock);

    // Verify against the memory node directly.
    for (std::size_t p = 0; p < 2; ++p) {
        RemoteLocation loc = runtime->fpga().translation().translate(
            region + p * pageSize);
        std::uint64_t value = 0;
        fabric.nodeStore(loc.node).read(loc.addr, &value,
                                        sizeof(value));
        EXPECT_EQ(value, p * 100 + 1);
    }
    EXPECT_EQ(handler().dirtyLinesWritten(), 4u);
    EXPECT_EQ(handler().pagesEvicted(), 2u);
}

TEST_F(EvictionFixture, BatchSharesOneAck)
{
    // Evicting N pages in one batch must cost far less than N
    // single-page evictions (one RDMA + ack per batch vs per page).
    dirtyPage(0, 1);
    dirtyPage(1, 1);
    dirtyPage(2, 1);
    dirtyPage(3, 1);
    runtime->hierarchy().flushAll();
    SimClock batched;
    evictSync(vpns(0, 4), batched);

    for (std::size_t p = 4; p < 8; ++p)
        dirtyPage(p, 1);
    runtime->hierarchy().flushAll();
    SimClock individual;
    for (std::size_t p = 4; p < 8; ++p)
        evictSync({pageNumber(region) + p}, individual);

    EXPECT_LT(batched.now(), individual.now() / 2);
}

TEST_F(EvictionFixture, SilentEvictionForCleanPages)
{
    std::uint64_t sink = 0;
    for (std::size_t p = 0; p < 4; ++p)
        sink += runtime->load<std::uint64_t>(region + p * pageSize);
    (void)sink;
    runtime->hierarchy().flushAll();
    auto wireBefore = handler().bytesOnWire();
    SimClock clock;
    evictSync(vpns(0, 4), clock);
    EXPECT_EQ(handler().silentEvictions(), 4u);
    EXPECT_EQ(handler().bytesOnWire(), wireBefore);
    // Silent evictions still free the frames.
    EXPECT_FALSE(runtime->fpga().pageResident(pageNumber(region)));
}

TEST_F(EvictionFixture, SnoopCapturesCpuCachedDirtyLines)
{
    // Do NOT flush the hierarchy: the dirty line sits in the CPU
    // caches and only the snoop inside eviction can find it.
    dirtyPage(7, 1);
    SimClock clock;
    evictSync(vpns(7, 8), clock);
    RemoteLocation loc = runtime->fpga().translation().translate(
        region + 7 * pageSize);
    std::uint64_t value = 0;
    fabric.nodeStore(loc.node).read(loc.addr, &value, sizeof(value));
    EXPECT_EQ(value, 7u * 100 + 1);
}

TEST_F(EvictionFixture, BreakdownSumsToTotal)
{
    for (std::size_t p = 0; p < 16; ++p)
        dirtyPage(p, 4);
    runtime->hierarchy().flushAll();
    handler().resetBreakdown();
    SimClock clock;
    evictSync(vpns(0, 16), clock);
    const EvictionBreakdown &bd = handler().breakdown();
    EXPECT_GT(bd.bitmapNs, 0.0);
    EXPECT_GT(bd.copyNs, 0.0);
    EXPECT_GT(bd.rdmaNs, 0.0);
    EXPECT_GT(bd.unpackNs, 0.0);
    EXPECT_GT(bd.waitNs, 0.0);
    // The clock moved at least as much as the serial components.
    EXPECT_GE(static_cast<double>(clock.now()) + 1.0,
              bd.bitmapNs + bd.copyNs);
}

TEST_F(EvictionFixture, LargeBatchesAreChunked)
{
    // 512 fully dirty pages > the 256-page batch limit; the handler
    // must split them rather than overflow the node's log area.
    for (std::size_t p = 0; p < 512; ++p) {
        std::vector<std::uint8_t> page(pageSize,
                                       static_cast<std::uint8_t>(p));
        runtime->write(region + p * pageSize, page.data(), pageSize);
    }
    runtime->hierarchy().flushAll();
    SimClock clock;
    EXPECT_NO_THROW(evictSync(vpns(0, 512), clock));
    EXPECT_EQ(handler().pagesEvicted(), 512u);
    // Spot-check content.
    RemoteLocation loc = runtime->fpga().translation().translate(
        region + 300 * pageSize + 123);
    std::uint8_t b = 0;
    fabric.nodeStore(loc.node).read(loc.addr, &b, 1);
    EXPECT_EQ(b, static_cast<std::uint8_t>(300));
}

TEST_F(EvictionFixture, FullPageModeShipsWholePages)
{
    EvictionConfig evict;
    evict.mode = EvictionMode::FullPage;
    rebuild(evict);
    dirtyPage(0, 1);
    dirtyPage(1, 1);
    runtime->hierarchy().flushAll();
    SimClock clock;
    evictSync(vpns(0, 2), clock);
    EXPECT_EQ(handler().bytesOnWire(), 2 * pageSize);
    EXPECT_EQ(handler().dirtyLinesWritten(), 2u);

    // Content still exact.
    RemoteLocation loc = runtime->fpga().translation().translate(
        region + pageSize);
    std::uint64_t value = 0;
    fabric.nodeStore(loc.node).read(loc.addr, &value, sizeof(value));
    EXPECT_EQ(value, 101u);
}

TEST_F(EvictionFixture, NodeDownKeepsDirtyPagesResident)
{
    dirtyPage(0, 2);
    runtime->hierarchy().flushAll();
    fabric.setNodeDown(5, true);
    SimClock clock;
    evictSync(vpns(0, 1), clock);
    // Data must not be lost: the page stays resident.
    EXPECT_TRUE(runtime->fpga().pageResident(pageNumber(region)));
    EXPECT_EQ(handler().pagesEvicted(), 0u);

    fabric.setNodeDown(5, false);
    evictSync(vpns(0, 1), clock);
    EXPECT_FALSE(runtime->fpga().pageResident(pageNumber(region)));
    EXPECT_EQ(runtime->load<std::uint64_t>(region), 1u);
}

TEST_F(EvictionFixture, PumpKeepsFreeWays)
{
    // Fill FMem past capacity by touching 3x its frames, then pump.
    std::size_t frames = runtime->fpga().fmem().frames();
    Addr big = runtime->allocate(3 * frames * pageSize, pageSize);
    for (std::size_t p = 0; p < 3 * frames; ++p)
        runtime->store<std::uint64_t>(big + p * pageSize, p);
    SimClock bg;
    handler().pump(bg);
    // Every set now has at least one free way: inserting any new page
    // cannot require a forced eviction.
    EXPECT_EQ(runtime->fpga().backgroundVictims(pumpFreeWays, nullptr, 0),
              0u);
    EXPECT_GT(bg.now(), 0u);
}

TEST_F(EvictionFixture, EvictingNonResidentPagesIsANoop)
{
    SimClock clock;
    EXPECT_NO_THROW(evictSync(vpns(100, 104), clock));
    EXPECT_EQ(handler().pagesEvicted(), 0u);
    EXPECT_EQ(clock.now(), 0u);
}

TEST_F(EvictionFixture, ReEvictionAfterRedirty)
{
    dirtyPage(0, 1);
    runtime->hierarchy().flushAll();
    SimClock clock;
    evictSync(vpns(0, 1), clock);
    EXPECT_EQ(handler().dirtyLinesWritten(), 1u);

    // Touch it again with different data; evict again.
    runtime->store<std::uint64_t>(region + 2 * cacheLineSize, 777);
    runtime->hierarchy().flushAll();
    evictSync(vpns(0, 1), clock);
    EXPECT_EQ(handler().dirtyLinesWritten(), 2u);
    EXPECT_EQ(runtime->load<std::uint64_t>(region + 2 * cacheLineSize),
              777u);
}

} // namespace
} // namespace kona
