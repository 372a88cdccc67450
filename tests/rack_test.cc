/**
 * @file
 * Unit tests for src/rack: the controller's slab placement, memory
 * node slab carving, the CL-log wire format, and the Cache-line Log
 * Receiver's line distribution.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "rack/cl_log.h"
#include "rack/controller.h"

namespace kona {
namespace {

TEST(ClLog, WriterReaderRoundTrip)
{
    std::vector<std::uint8_t> buffer;
    ClLogWriter writer(buffer);

    std::vector<std::uint8_t> run1(2 * cacheLineSize, 0xAA);
    std::vector<std::uint8_t> run2(1 * cacheLineSize, 0xBB);
    writer.appendRun(0x1000, run1.data(), 2);
    writer.appendRun(0x9000, run2.data(), 1);
    EXPECT_EQ(writer.runs(), 2u);
    EXPECT_EQ(writer.lines(), 3u);
    EXPECT_EQ(writer.sizeBytes(),
              2 * sizeof(ClLogEntryHeader) + 3 * cacheLineSize);

    ClLogReader reader(buffer.data(), buffer.size());
    const std::uint8_t *payload = nullptr;
    ClLogEntryHeader h1 = reader.next(payload);
    EXPECT_EQ(h1.remoteAddr, 0x1000u);
    EXPECT_EQ(h1.lineCount, 2u);
    EXPECT_EQ(std::memcmp(payload, run1.data(), run1.size()), 0);
    ASSERT_FALSE(reader.atEnd());
    ClLogEntryHeader h2 = reader.next(payload);
    EXPECT_EQ(h2.remoteAddr, 0x9000u);
    EXPECT_EQ(h2.lineCount, 1u);
    EXPECT_TRUE(reader.atEnd());
}

TEST(ClLog, TruncatedLogIsFatal)
{
    std::vector<std::uint8_t> buffer;
    ClLogWriter writer(buffer);
    std::vector<std::uint8_t> run(cacheLineSize, 1);
    writer.appendRun(0, run.data(), 1);
    buffer.resize(buffer.size() - 10);   // corrupt
    ClLogReader reader(buffer.data(), buffer.size());
    const std::uint8_t *payload = nullptr;
    EXPECT_THROW(reader.next(payload), PanicError);
}

class RackFixture : public ::testing::Test
{
  protected:
    RackFixture() : controller(1 * MiB)
    {
        nodes.push_back(
            std::make_unique<MemoryNode>(fabric, 10, 16 * MiB));
        nodes.push_back(
            std::make_unique<MemoryNode>(fabric, 11, 16 * MiB));
        for (auto &node : nodes)
            controller.registerNode(*node);
    }

    Fabric fabric;
    Controller controller;
    std::vector<std::unique_ptr<MemoryNode>> nodes;
};

TEST_F(RackFixture, SlabAllocationBalancesNodes)
{
    std::vector<SlabGrant> grants;
    for (int i = 0; i < 8; ++i)
        grants.push_back(
            *controller.allocateSlab(PlacementRequest{.required = true}));
    int onFirst = 0;
    for (const auto &g : grants) {
        if (g.where.node == 10)
            ++onFirst;
        EXPECT_EQ(g.size, 1 * MiB);
    }
    // Most-free-first placement alternates between equal nodes.
    EXPECT_EQ(onFirst, 4);
    EXPECT_EQ(controller.slabsAllocated(), 8u);
}

TEST_F(RackFixture, SlabIdsUnique)
{
    auto a = *controller.allocateSlab(PlacementRequest{.required = true});
    auto b = *controller.allocateSlab(PlacementRequest{.required = true});
    EXPECT_NE(a.slab, b.slab);
}

TEST_F(RackFixture, FreeSlabReturnsCapacity)
{
    std::size_t before = controller.totalFree();
    SlabGrant g =
        *controller.allocateSlab(PlacementRequest{.required = true});
    EXPECT_EQ(controller.totalFree(), before - 1 * MiB);
    controller.freeSlab(g);
    EXPECT_EQ(controller.totalFree(), before);
}

TEST_F(RackFixture, ExhaustionIsFatal)
{
    // Each node has ~12MB of slab area (16MB minus the 4MB log area).
    std::vector<SlabGrant> grants;
    for (int i = 0; i < 24; ++i)
        grants.push_back(
            *controller.allocateSlab(PlacementRequest{.required = true}));
    EXPECT_THROW(controller.allocateSlab(
                     PlacementRequest{.required = true}),
                 FatalError);
    controller.freeSlab(grants.back());
    EXPECT_NO_THROW(
        controller.allocateSlab(PlacementRequest{.required = true}));
}

TEST_F(RackFixture, RemovedNodeReceivesNoSlabs)
{
    controller.removeNode(10, 0);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(controller.allocateSlab(PlacementRequest{})->where.node,
                  11u);
}

TEST_F(RackFixture, NodeLookup)
{
    EXPECT_EQ(&controller.node(10), nodes[0].get());
    EXPECT_THROW(controller.node(99), FatalError);
}

TEST_F(RackFixture, LogReceiverDistributesLines)
{
    SlabGrant g =
        *controller.allocateSlab(PlacementRequest{.required = true});
    MemoryNode &node = controller.node(g.where.node);

    // Build a log with two runs targeting the slab.
    std::vector<std::uint8_t> lineA(cacheLineSize, 0x11);
    std::vector<std::uint8_t> lineB(2 * cacheLineSize, 0x22);
    std::vector<std::uint8_t> log;
    ClLogWriter writer(log);
    writer.appendRun(g.where.offset + 0, lineA.data(), 1);
    writer.appendRun(g.where.offset + 10 * cacheLineSize,
                     lineB.data(), 2);

    // Deliver the log bytes into the landing area (as RDMA would).
    node.store().write(node.logRegion().base, log.data(), log.size());
    LogReceiptStats stats = node.receiveLog(0, log.size());
    EXPECT_EQ(stats.runs, 2u);
    EXPECT_EQ(stats.lines, 3u);
    EXPECT_GT(stats.unpackNs, 0.0);
    EXPECT_EQ(node.linesReceived(), 3u);

    // The lines must be at their home addresses now.
    std::vector<std::uint8_t> check(cacheLineSize);
    node.store().read(g.where.offset, check.data(), check.size());
    EXPECT_EQ(check, lineA);
    std::vector<std::uint8_t> check2(2 * cacheLineSize);
    node.store().read(g.where.offset + 10 * cacheLineSize,
                      check2.data(), check2.size());
    EXPECT_EQ(check2, lineB);
}

TEST_F(RackFixture, SlabAreaDoesNotOverlapLogArea)
{
    MemoryNode &node = *nodes[0];
    auto slab = node.allocateSlab(1 * MiB);
    ASSERT_TRUE(slab.has_value());
    EXPECT_GE(*slab, node.logRegion().length);
}

TEST(MemoryNode, TinyNodeIsFatal)
{
    Fabric fabric;
    EXPECT_THROW(MemoryNode node(fabric, 1, 1 * MiB, 4 * MiB),
                 PanicError);
}

TEST(Controller, BadSlabSizeIsFatal)
{
    EXPECT_THROW(Controller c(100), PanicError);
    EXPECT_THROW(Controller c(0), PanicError);
}

} // namespace
} // namespace kona
