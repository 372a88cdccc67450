/**
 * @file
 * Fault-tolerance tests: the deterministic fault injector, the shared
 * retry policy, CL-log CRC verification and the NAK/retransmit
 * protocol, failure detection and self-healing rebuilds, and the
 * scripted end-to-end scenario — every Table 2 workload surviving
 * drops, latency spikes, payload corruption and one permanent node
 * failure with a byte-exact final image.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/kona_runtime.h"
#include "net/fault_injector.h"
#include "net/retry_policy.h"
#include "workloads/registry.h"

namespace kona {
namespace {

// ---------------------------------------------------------------------
// Satellite regressions: region bounds, deregistration, log size cap.
// ---------------------------------------------------------------------

TEST(MemoryRegionCovers, RejectsWrappingRanges)
{
    MemoryRegion mr;
    mr.base = 0;
    mr.length = 0x1000;
    EXPECT_TRUE(mr.covers(0, 0x1000));
    EXPECT_TRUE(mr.covers(0x10, 0xff0));
    // addr + size wraps to a tiny value; the additive check would have
    // falsely accepted this.
    EXPECT_FALSE(mr.covers(0x10, SIZE_MAX - 7));
    EXPECT_FALSE(mr.covers(0x10, 0x1000));
}

TEST(MemoryRegionCovers, RegionAtTopOfAddressSpace)
{
    MemoryRegion mr;
    mr.base = ~Addr(0) - 0xfff;   // last 4KB of the address space
    mr.length = 0x1000;
    EXPECT_TRUE(mr.covers(mr.base, 0x1000));
    EXPECT_TRUE(mr.covers(mr.base + 0xfff, 1));
    EXPECT_FALSE(mr.covers(mr.base + 0x800, 0x1000));
    EXPECT_FALSE(mr.covers(mr.base - 1, 1));
}

TEST(FabricRegions, DeregisterUnknownKeyIsNoOp)
{
    Fabric fabric;
    BackingStore store(1 * MiB);
    fabric.attachNode(1, &store);
    EXPECT_NO_THROW(fabric.deregisterRegion(0xdead));
    MemoryRegion mr = fabric.registerRegion(1, 0, 1 * MiB);
    fabric.deregisterRegion(mr.key);
    EXPECT_NO_THROW(fabric.deregisterRegion(mr.key));   // double-free
}

TEST(ClLogWriterLimits, OversizeAppendRejected)
{
    std::vector<std::uint8_t> buffer;
    // Room for exactly one record (16B header + one 64B line).
    ClLogWriter writer(buffer, 100);
    std::vector<std::uint8_t> line(cacheLineSize, 0xab);
    EXPECT_TRUE(writer.appendRun(0x1000, line.data(), 1));
    std::size_t sizeAfterFirst = writer.sizeBytes();
    EXPECT_FALSE(writer.appendRun(0x2000, line.data(), 1));
    EXPECT_EQ(writer.sizeBytes(), sizeAfterFirst);   // buffer untouched
    EXPECT_EQ(writer.rejectedRuns(), 1u);
    EXPECT_EQ(writer.runs(), 1u);
}

// ---------------------------------------------------------------------
// RetryPolicy: exponential backoff, jitter bounds, budgets.
// ---------------------------------------------------------------------

TEST(RetryPolicyTest, ExponentialGrowthWithCap)
{
    RetryPolicy policy;
    policy.initialBackoffNs = 1000;
    policy.backoffMultiplier = 2.0;
    policy.maxBackoffNs = 5000;
    policy.jitterFraction = 0.0;   // deterministic schedule
    policy.maxAttempts = 16;
    RetryState state(policy, 1);
    SimClock clock;
    EXPECT_EQ(state.backoff(clock), 1000u);
    EXPECT_EQ(state.backoff(clock), 2000u);
    EXPECT_EQ(state.backoff(clock), 4000u);
    EXPECT_EQ(state.backoff(clock), 5000u);   // capped
    EXPECT_EQ(state.backoff(clock), 5000u);
    EXPECT_EQ(clock.now(), 17000u);
    EXPECT_EQ(state.spentNs(), 17000u);
    EXPECT_EQ(state.attempts(), 5u);
}

TEST(RetryPolicyTest, JitterNeverUndershootsBase)
{
    RetryPolicy policy;
    policy.initialBackoffNs = 1000;
    policy.backoffMultiplier = 1.0;   // hold the base constant
    policy.maxBackoffNs = 1000;
    policy.jitterFraction = 0.5;
    policy.maxAttempts = 100;
    RetryState state(policy, 7);
    SimClock clock;
    bool sawJitter = false;
    for (int i = 0; i < 100; ++i) {
        Tick charged = state.backoff(clock);
        EXPECT_GE(charged, 1000u);   // additive-only jitter
        EXPECT_LE(charged, 1500u);
        sawJitter = sawJitter || charged > 1000;
    }
    EXPECT_TRUE(sawJitter);
}

TEST(RetryPolicyTest, AttemptBudgetExhausts)
{
    RetryPolicy policy;
    policy.maxAttempts = 3;
    policy.jitterFraction = 0.0;
    RetryState state(policy, 1);
    SimClock clock;
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(state.shouldRetry());
        state.backoff(clock);
    }
    EXPECT_FALSE(state.shouldRetry());
}

TEST(RetryPolicyTest, DeadlineBoundsTotalBackoff)
{
    RetryPolicy policy;
    policy.initialBackoffNs = 20'000;
    policy.jitterFraction = 0.0;
    policy.maxAttempts = 100;
    policy.deadlineNs = 50'000;
    RetryState state(policy, 1);
    SimClock clock;
    state.backoff(clock);   // 20k spent
    EXPECT_TRUE(state.shouldRetry());
    state.backoff(clock);   // 60k spent, past the deadline
    EXPECT_FALSE(state.shouldRetry());
}

TEST(RetryPolicyTest, ZeroJitterScheduleIsSeedIndependent)
{
    RetryPolicy policy;
    policy.jitterFraction = 0.0;
    policy.maxAttempts = 10;
    RetryState a(policy, 1), b(policy, 0xdeadbeef);
    SimClock ca, cb;
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(a.backoff(ca), b.backoff(cb)) << "attempt " << i;
    EXPECT_EQ(ca.now(), cb.now());
}

TEST(RetryPolicyTest, ZeroAttemptBudgetNeverRetries)
{
    RetryPolicy policy;
    policy.maxAttempts = 0;
    RetryState state(policy, 1);
    EXPECT_FALSE(state.shouldRetry());
}

TEST(RetryPolicyTest, HugeScheduleSaturatesInsteadOfWrapping)
{
    // An adversarial policy pushes the exponential schedule past 2^63
    // in the double domain. Each charged wait must pin to the ceiling
    // — never wrap to a tiny value — and spentNs must saturate.
    constexpr Tick tickMax = std::numeric_limits<Tick>::max();
    RetryPolicy policy;
    policy.initialBackoffNs = tickMax / 2;
    policy.backoffMultiplier = 1e6;
    policy.maxBackoffNs = tickMax;
    policy.jitterFraction = 0.5;
    policy.maxAttempts = 8;
    RetryState state(policy, 3);
    SimClock clock;
    for (int i = 0; i < 8; ++i) {
        Tick charged = state.backoff(clock);
        EXPECT_GE(charged, tickMax / 2) << "attempt " << i;
    }
    EXPECT_EQ(state.spentNs(), tickMax);   // saturated, not wrapped
    EXPECT_FALSE(state.shouldRetry());
}

// ---------------------------------------------------------------------
// FaultInjector: determinism and each fault shape in isolation.
// ---------------------------------------------------------------------

TEST(FaultInjectorTest, DecisionsAreSeedDeterministic)
{
    auto script = [](FaultInjector &fi) {
        fi.profile(1).dropProbability = 0.3;
        fi.profile(1).corruptProbability = 0.2;
        fi.profile(1).spikeProbability = 0.25;
    };
    FaultInjector a(42), b(42), c(43);
    script(a);
    script(b);
    script(c);
    bool diverged = false;
    for (int i = 0; i < 200; ++i) {
        FaultDecision da = a.decide(1, RdmaOpcode::Write, 4096);
        FaultDecision db = b.decide(1, RdmaOpcode::Write, 4096);
        FaultDecision dc = c.decide(1, RdmaOpcode::Write, 4096);
        EXPECT_EQ(da.status, db.status);
        EXPECT_EQ(da.extraLatencyNs, db.extraLatencyNs);
        EXPECT_EQ(da.corruptPayload, db.corruptPayload);
        EXPECT_EQ(da.corruptOffset, db.corruptOffset);
        EXPECT_EQ(da.corruptMask, db.corruptMask);
        diverged = diverged || da.status != dc.status ||
                   da.corruptPayload != dc.corruptPayload;
    }
    EXPECT_TRUE(diverged);   // a different seed tells a different story
}

TEST(FaultInjectorTest, FlapScheduleIsExact)
{
    FaultInjector fi(1);
    fi.profile(2).flapPeriodOps = 10;
    fi.profile(2).flapDownOps = 3;
    for (std::uint64_t op = 0; op < 30; ++op) {
        FaultDecision d = fi.decide(2, RdmaOpcode::Read, 64);
        if (op % 10 < 3)
            EXPECT_EQ(d.status, WcStatus::Timeout) << "op " << op;
        else
            EXPECT_EQ(d.status, WcStatus::Success) << "op " << op;
    }
    EXPECT_EQ(fi.opsSeen(2), 30u);
    EXPECT_EQ(fi.timeoutsInjected(), 9u);
}

TEST(FaultInjectorTest, BurstScheduleIsExact)
{
    FaultInjector fi(1);
    fi.profile(3).burstPeriodOps = 8;
    fi.profile(3).burstLength = 2;
    for (std::uint64_t op = 0; op < 16; ++op) {
        FaultDecision d = fi.decide(3, RdmaOpcode::Write, 64);
        if (op % 8 < 2)
            EXPECT_EQ(d.status, WcStatus::Dropped) << "op " << op;
        else
            EXPECT_EQ(d.status, WcStatus::Success) << "op " << op;
    }
    EXPECT_EQ(fi.dropsInjected(), 4u);
}

/** Net-layer fixture with an injector plugged into the fabric. */
class FaultyNetFixture : public ::testing::Test
{
  protected:
    FaultyNetFixture()
        : local(1 * MiB), remote(8 * MiB), poller(fabric.latency()),
          injector(99)
    {
        fabric.attachNode(0, &local);
        fabric.attachNode(1, &remote);
        mr = fabric.registerRegion(1, 0, 8 * MiB);
        fabric.setFaultInjector(&injector);
    }

    WorkRequest
    makeWr(RdmaOpcode opcode, void *buf, Addr remoteAddr,
           std::size_t len)
    {
        WorkRequest wr;
        wr.wrId = nextId++;
        wr.opcode = opcode;
        wr.localBuf = buf;
        wr.remoteKey = mr.key;
        wr.remoteAddr = remoteAddr;
        wr.length = len;
        return wr;
    }

    Fabric fabric;
    BackingStore local;
    BackingStore remote;
    MemoryRegion mr;
    CompletionQueue cq;
    Poller poller;
    FaultInjector injector;
    std::uint64_t nextId = 1;
};

TEST_F(FaultyNetFixture, DroppedWriteNeverLands)
{
    injector.profile(1).dropProbability = 1.0;
    QueuePair qp(fabric, 0, 1, cq);
    SimClock clock;
    std::uint64_t magic = 0xfeedfacecafebeefULL;
    PostResult posted = qp.post(makeWr(RdmaOpcode::Write, &magic, 4096,
                                       sizeof(magic)), clock);
    EXPECT_EQ(posted.status, WcStatus::Dropped);
    // The failure CQE is always pushed, signaled or not.
    EXPECT_EQ(posted.cqesPushed, 1u);
    WorkCompletion wc = poller.waitOne(cq, clock);
    EXPECT_EQ(wc.status, WcStatus::Dropped);
    std::uint64_t check = 0;
    remote.read(4096, &check, sizeof(check));
    EXPECT_EQ(check, 0u);
    EXPECT_EQ(injector.dropsInjected(), 1u);
}

TEST_F(FaultyNetFixture, CorruptedWriteLandsWithOneFlippedBit)
{
    injector.profile(1).corruptProbability = 1.0;
    QueuePair qp(fabric, 0, 1, cq);
    SimClock clock;
    std::vector<std::uint8_t> out(256, 0x55);
    // End-host DMA corruption: the op still reports Success.
    EXPECT_TRUE(qp.post(makeWr(RdmaOpcode::Write, out.data(), 0,
                               out.size()), clock));
    WorkCompletion wc = poller.waitOne(cq, clock);
    EXPECT_EQ(wc.status, WcStatus::Success);

    std::vector<std::uint8_t> in(256, 0);
    remote.read(0, in.data(), in.size());
    int bitsFlipped = 0;
    for (std::size_t i = 0; i < in.size(); ++i) {
        std::uint8_t diff = in[i] ^ out[i];
        while (diff != 0) {
            bitsFlipped += diff & 1;
            diff >>= 1;
        }
    }
    EXPECT_EQ(bitsFlipped, 1);
    EXPECT_EQ(injector.corruptionsInjected(), 1u);
}

TEST_F(FaultyNetFixture, CorruptedReadIsDroppedByTransport)
{
    injector.profile(1).corruptProbability = 1.0;
    QueuePair qp(fabric, 0, 1, cq);
    SimClock clock;
    std::uint64_t magic = 0x1234567890abcdefULL;
    remote.write(512, &magic, sizeof(magic));
    std::uint64_t in = 0;
    // The ICRC catches the corrupted response: the issuer sees a drop
    // and the bad bytes never reach its buffer.
    EXPECT_FALSE(qp.post(makeWr(RdmaOpcode::Read, &in, 512,
                                sizeof(in)), clock));
    WorkCompletion wc = poller.waitOne(cq, clock);
    EXPECT_EQ(wc.status, WcStatus::Dropped);
    EXPECT_EQ(in, 0u);
}

TEST_F(FaultyNetFixture, LatencySpikeDelaysCompletion)
{
    QueuePair qp(fabric, 0, 1, cq);
    std::vector<std::uint8_t> buf(4096, 1);

    SimClock calm;
    qp.post(makeWr(RdmaOpcode::Write, buf.data(), 0, buf.size()), calm);
    Tick calmDone = poller.waitOne(cq, calm).completeAt;

    injector.profile(1).spikeProbability = 1.0;
    injector.profile(1).spikeNs = 250'000;
    SimClock spiky;
    qp.post(makeWr(RdmaOpcode::Write, buf.data(), 0, buf.size()),
            spiky);
    Tick spikyDone = poller.waitOne(cq, spiky).completeAt;
    EXPECT_GE(spikyDone, calmDone + 250'000);
    EXPECT_EQ(injector.spikesInjected(), 1u);
}

TEST_F(FaultyNetFixture, PermanentFailureMarksNodeDown)
{
    injector.profile(1).failAtOp = 3;
    QueuePair qp(fabric, 0, 1, cq);
    SimClock clock;
    std::uint8_t b = 7;
    EXPECT_TRUE(qp.post(makeWr(RdmaOpcode::Write, &b, 0, 1), clock));
    poller.waitOne(cq, clock);
    EXPECT_TRUE(qp.post(makeWr(RdmaOpcode::Write, &b, 1, 1), clock));
    poller.waitOne(cq, clock);
    EXPECT_FALSE(fabric.nodeDown(1));

    // The third op kills the node for good.
    EXPECT_FALSE(qp.post(makeWr(RdmaOpcode::Write, &b, 2, 1), clock));
    EXPECT_EQ(poller.waitOne(cq, clock).status, WcStatus::Timeout);
    EXPECT_TRUE(fabric.nodeDown(1));

    // Later ops fail at the fabric level, before the injector.
    EXPECT_FALSE(qp.post(makeWr(RdmaOpcode::Write, &b, 3, 1), clock));
    EXPECT_EQ(poller.waitOne(cq, clock).status,
              WcStatus::RemoteUnreachable);
}

TEST_F(FaultyNetFixture, MidChainFailureStopsLaterWrites)
{
    injector.profile(1).failAtOp = 3;
    QueuePair qp(fabric, 0, 1, cq);
    SimClock clock;
    std::vector<std::uint8_t> payload(64);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i + 1);

    std::vector<WorkRequest> wrs;
    for (int i = 0; i < 5; ++i) {
        WorkRequest wr = makeWr(RdmaOpcode::Write, payload.data(),
                                Addr(i) * 64, 64);
        wr.signaled = i == 4;
        wrs.push_back(wr);
    }
    EXPECT_FALSE(qp.postLinked(wrs, clock));
    EXPECT_EQ(poller.waitOne(cq, clock).status, WcStatus::Timeout);

    // WRs before the failure landed; the rest never executed.
    for (int i = 0; i < 5; ++i) {
        std::vector<std::uint8_t> check(64, 0);
        remote.read(Addr(i) * 64, check.data(), check.size());
        if (i < 2)
            EXPECT_EQ(check, payload) << "wr " << i;
        else
            EXPECT_EQ(check, std::vector<std::uint8_t>(64, 0))
                << "wr " << i;
    }
}

// ---------------------------------------------------------------------
// CL-log integrity: CRC detection, corrupt-framing safety, NAKs.
// ---------------------------------------------------------------------

TEST(ClLogIntegrity, CrcDetectsPayloadBitFlip)
{
    std::vector<std::uint8_t> buffer;
    ClLogWriter writer(buffer);
    std::vector<std::uint8_t> lines(2 * cacheLineSize, 0x5a);
    writer.appendRun(0x4000, lines.data(), 2);

    // Pristine log verifies.
    {
        ClLogReader reader(buffer.data(), buffer.size());
        const std::uint8_t *payload = nullptr;
        ClLogEntryHeader header = reader.next(payload);
        EXPECT_EQ(header.crc, clLogRecordCrc(header.remoteAddr,
                                             header.lineCount, payload));
    }

    buffer[sizeof(ClLogEntryHeader) + 17] ^= 0x04;   // one payload bit

    ClLogReader reader(buffer.data(), buffer.size());
    const std::uint8_t *payload = nullptr;
    ClLogEntryHeader header = reader.next(payload);
    EXPECT_NE(header.crc, clLogRecordCrc(header.remoteAddr,
                                         header.lineCount, payload));
}

TEST(ClLogIntegrity, TryNextSurvivesCorruptHeader)
{
    std::vector<std::uint8_t> buffer;
    ClLogWriter writer(buffer);
    std::vector<std::uint8_t> line(cacheLineSize, 1);
    writer.appendRun(0x4000, line.data(), 1);

    // Blast the lineCount field into nonsense: a checked reader must
    // reject the log instead of walking off the buffer.
    ClLogEntryHeader mangled;
    std::memcpy(&mangled, buffer.data(), sizeof(mangled));
    mangled.lineCount = 0x7fffffff;
    std::memcpy(buffer.data(), &mangled, sizeof(mangled));

    ClLogReader reader(buffer.data(), buffer.size());
    ClLogEntryHeader header;
    const std::uint8_t *payload = nullptr;
    EXPECT_FALSE(reader.tryNext(header, payload));
    EXPECT_THROW({
        ClLogReader strict(buffer.data(), buffer.size());
        const std::uint8_t *p = nullptr;
        strict.next(p);
    }, PanicError);
}

TEST(ClLogIntegrity, ReceiverNaksCorruptLogAppliesNothing)
{
    Fabric fabric;
    MemoryNode node(fabric, 1, 16 * MiB);
    auto slab = node.allocateSlab(1 * MiB);
    ASSERT_TRUE(slab.has_value());

    std::vector<std::uint8_t> logBuf;
    ClLogWriter writer(logBuf);
    std::vector<std::uint8_t> lines(3 * cacheLineSize);
    for (std::size_t i = 0; i < lines.size(); ++i)
        lines[i] = static_cast<std::uint8_t>(i * 7 + 1);
    writer.appendRun(*slab, lines.data(), 1);
    writer.appendRun(*slab + 4096, lines.data() + cacheLineSize, 2);

    // Corrupt the SECOND record's payload: verify-before-apply means
    // even the intact first record must not land.
    std::vector<std::uint8_t> corrupt = logBuf;
    corrupt[corrupt.size() - 1] ^= 0x80;
    node.store().write(node.logRegion().base, corrupt.data(),
                       corrupt.size());
    LogReceiptStats stats = node.receiveLog(0, corrupt.size());
    EXPECT_FALSE(stats.ok);
    EXPECT_GE(stats.corruptRecords, 1u);
    EXPECT_EQ(node.linesReceived(), 0u);
    EXPECT_EQ(node.logsRejected(), 1u);
    std::vector<std::uint8_t> check(cacheLineSize, 0);
    node.store().read(*slab, check.data(), check.size());
    EXPECT_EQ(check, std::vector<std::uint8_t>(cacheLineSize, 0));

    // The retransmitted (intact) log applies cleanly.
    node.store().write(node.logRegion().base, logBuf.data(),
                       logBuf.size());
    stats = node.receiveLog(0, logBuf.size());
    EXPECT_TRUE(stats.ok);
    EXPECT_EQ(stats.runs, 2u);
    EXPECT_EQ(stats.lines, 3u);
    node.store().read(*slab, check.data(), check.size());
    EXPECT_EQ(check, std::vector<std::uint8_t>(
                         lines.begin(), lines.begin() + cacheLineSize));
}

// ---------------------------------------------------------------------
// Controller: failure detection and health transitions.
// ---------------------------------------------------------------------

TEST(ControllerHealth, ConsecutiveFailuresDeclareDeath)
{
    Fabric fabric;
    Controller controller(1 * MiB);
    MemoryNode a(fabric, 1, 16 * MiB), b(fabric, 2, 16 * MiB);
    controller.registerNode(a);
    controller.registerNode(b);

    for (int i = 0; i < 4; ++i)
        controller.reportOpFailure(1, 0);
    EXPECT_EQ(controller.health(1), NodeHealth::Healthy);
    controller.reportOpSuccess(1, 0);   // resets the streak
    for (int i = 0; i < 4; ++i)
        controller.reportOpFailure(1, 0);
    EXPECT_EQ(controller.health(1), NodeHealth::Healthy);
    controller.reportOpFailure(1, 0);   // fifth consecutive
    EXPECT_EQ(controller.health(1), NodeHealth::Failed);
    EXPECT_EQ(controller.nodesFailed(), 1u);
    EXPECT_EQ(controller.healthyNodeCount(), 1u);

    auto failed = controller.takeNewlyFailed();
    ASSERT_EQ(failed.size(), 1u);
    EXPECT_EQ(failed[0], 1u);
    EXPECT_TRUE(controller.takeNewlyFailed().empty());

    // A failed node takes no new placements.
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(
            controller.allocateSlab(PlacementRequest{})->where.node,
            2u);
}

TEST(ControllerHealth, DrainingNodeTakesNoNewSlabs)
{
    Fabric fabric;
    Controller controller(1 * MiB);
    MemoryNode a(fabric, 1, 16 * MiB), b(fabric, 2, 16 * MiB);
    controller.registerNode(a);
    controller.registerNode(b);
    controller.drainNode(1, 0);
    EXPECT_EQ(controller.health(1), NodeHealth::Draining);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(
            controller.allocateSlab(PlacementRequest{})->where.node,
            2u);
    EXPECT_TRUE(controller.allocateSlab(
                    PlacementRequest{.avoid = {2}}) == std::nullopt);
}

// ---------------------------------------------------------------------
// Runtime-level recovery: rebuilds, decommission, retransmits.
// ---------------------------------------------------------------------

/** A rack + Kona stack with small FMem and optional replication. */
struct KonaStack
{
    explicit KonaStack(std::size_t replication = 1,
                       std::size_t fmemSize = 1 * MiB)
        : controller(1 * MiB)
    {
        for (NodeId id = 1; id <= 3; ++id) {
            nodes.push_back(std::make_unique<MemoryNode>(
                fabric, id, 64 * MiB));
            controller.registerNode(*nodes.back());
        }
        KonaConfig cfg;
        cfg.fpga.vfmemSize = 64 * MiB;
        cfg.fpga.fmemSize = fmemSize;
        cfg.hierarchy = HierarchyConfig::scaled();
        cfg.replicationFactor = replication;
        cfg.failurePolicy = FailurePolicy::WaitRetry;
        runtime = std::make_unique<KonaRuntime>(fabric, controller, 0,
                                                cfg);
    }

    Fabric fabric;
    Controller controller;
    std::vector<std::unique_ptr<MemoryNode>> nodes;
    std::unique_ptr<KonaRuntime> runtime;
};

class FaultyKonaFixture : public ::testing::Test, public KonaStack
{
  protected:
    using KonaStack::KonaStack;

    /** Write a seeded pattern of @p words u64s starting at @p base. */
    void
    writePattern(Addr base, std::size_t words, std::uint64_t seed)
    {
        Rng rng(seed);
        for (std::size_t i = 0; i < words; ++i)
            runtime->store<std::uint64_t>(base + i * 8, rng.next());
    }

    /** Check the pattern reads back intact. */
    void
    expectPattern(Addr base, std::size_t words, std::uint64_t seed)
    {
        Rng rng(seed);
        for (std::size_t i = 0; i < words; ++i) {
            ASSERT_EQ(runtime->load<std::uint64_t>(base + i * 8),
                      rng.next())
                << "word " << i;
        }
    }
};

TEST_F(FaultyKonaFixture, RebuildRestoresRedundancyAfterNodeLoss)
{
    Addr a = runtime->allocate(3 * MiB, pageSize);
    writePattern(a, 3 * MiB / 8, 11);
    runtime->writebackAll();

    NodeId lost = runtime->fpga().translation().translate(a).node;
    RebuildReport report = runtime->recoverFromNodeFailure(lost);
    EXPECT_GT(report.slabsScanned, 0u);
    EXPECT_GT(report.slabsRebuilt, 0u);
    EXPECT_EQ(report.slabsLost, 0u);
    EXPECT_EQ(report.slabsUnrebuilt, 0u);
    EXPECT_GT(report.primariesPromoted, 0u);
    EXPECT_FALSE(runtime->degraded());

    // No placement references the dead node anymore.
    runtime->fpga().translation().forEachSlab([lost](MappedSlab &slab) {
        EXPECT_NE(slab.primary.where.node, lost);
        EXPECT_EQ(slab.replicas.size(), 1u);
        for (const SlabGrant &r : slab.replicas)
            EXPECT_NE(r.where.node, lost);
    });

    expectPattern(a, 3 * MiB / 8, 11);
    ReliabilityStats r = runtime->reliability();
    EXPECT_EQ(r.nodesFailed, 1u);
    EXPECT_GT(r.slabsRebuilt, 0u);
    EXPECT_GT(r.replicaPromotions, 0u);
    EXPECT_EQ(r.slabsLost, 0u);
}

TEST_F(FaultyKonaFixture, FailureDetectionTriggersRebuildOnAccessPath)
{
    Addr a = runtime->allocate(2 * MiB, pageSize);
    writePattern(a, 2 * MiB / 8, 12);
    runtime->writebackAll();

    // The node silently dies; nobody calls the operator API. Ordinary
    // accesses must observe failures, cross the threshold and rebuild.
    // The fetch path fails over to the replica (and promotes it) on the
    // first failure, so the dead node only sees a handful of ops — use
    // a threshold of 1 to exercise the detection wiring.
    controller.setFailureThreshold(1);
    NodeId lost = runtime->fpga().translation().translate(a).node;
    fabric.setNodeDown(lost, true);
    expectPattern(a, 2 * MiB / 8, 12);

    EXPECT_EQ(controller.health(lost), NodeHealth::Failed);
    ReliabilityStats r = runtime->reliability();
    EXPECT_EQ(r.nodesFailed, 1u);
    EXPECT_GT(r.slabsRebuilt, 0u);
    runtime->fpga().translation().forEachSlab([lost](MappedSlab &slab) {
        EXPECT_NE(slab.primary.where.node, lost);
    });
}

TEST_F(FaultyKonaFixture, DecommissionDrainsAndRemovesNode)
{
    Addr a = runtime->allocate(3 * MiB, pageSize);
    writePattern(a, 3 * MiB / 8, 13);
    runtime->writebackAll();

    NodeId leaving = runtime->fpga().translation().translate(a).node;
    RebuildReport report = runtime->decommissionNode(leaving);
    EXPECT_EQ(report.slabsUnrebuilt, 0u);
    EXPECT_GT(report.slabsRebuilt, 0u);
    EXPECT_EQ(controller.nodeCount(), 2u);
    runtime->fpga().translation().forEachSlab(
        [leaving](MappedSlab &slab) {
            EXPECT_NE(slab.primary.where.node, leaving);
            for (const SlabGrant &r : slab.replicas)
                EXPECT_NE(r.where.node, leaving);
        });
    expectPattern(a, 3 * MiB / 8, 13);
}

/** Same stack without replication, for transient-fault tests. */
class TransientFaultFixture : public FaultyKonaFixture
{
  protected:
    TransientFaultFixture()
        : FaultyKonaFixture(/*replication=*/0, /*fmemSize=*/512 * KiB)
    {
        // Transient faults only: make sure noisy links never trip the
        // permanent-failure detector.
        controller.setFailureThreshold(1'000'000);
    }
};

TEST_F(TransientFaultFixture, EvictionRetransmitsUntilLogsVerify)
{
    FaultInjector injector(0xc0ffee);
    for (NodeId id = 1; id <= 3; ++id)
        injector.profile(id).corruptProbability = 0.4;
    fabric.setFaultInjector(&injector);

    Addr a = runtime->allocate(2 * MiB, pageSize);
    writePattern(a, 2 * MiB / 8, 21);
    runtime->writebackAll();

    EXPECT_GT(runtime->evictionHandler().checksumNaks(), 0u);
    EXPECT_GT(runtime->evictionHandler().logRetransmits(), 0u);
    std::uint64_t rejected = 0;
    for (auto &node : nodes)
        rejected += node->logsRejected();
    EXPECT_GT(rejected, 0u);

    // With the noise gone, the remote image must be exact.
    fabric.setFaultInjector(nullptr);
    expectPattern(a, 2 * MiB / 8, 21);
    ReliabilityStats r = runtime->reliability();
    EXPECT_GT(r.checksumFailures, 0u);
    EXPECT_GT(r.retransmits, 0u);
    EXPECT_EQ(r.nodesFailed, 0u);
}

/** Read the full mapped VFMem range back through the runtime. */
std::vector<std::uint8_t>
dumpMapped(KonaRuntime &runtime)
{
    Addr base = runtime.config().fpga.vfmemBase;
    std::size_t bytes = 0;
    runtime.fpga().translation().forEachSlab(
        [&bytes](MappedSlab &slab) { bytes += slab.primary.size; });
    std::vector<std::uint8_t> image(bytes);
    constexpr std::size_t chunk = 64 * KiB;
    for (std::size_t off = 0; off < bytes; off += chunk) {
        runtime.read(base + off, image.data() + off,
                     std::min(chunk, bytes - off));
    }
    return image;
}

TEST_F(TransientFaultFixture, DifferentialMatchesFaultFreeOracle)
{
    // Oracle: an identical stack on a quiet fabric.
    KonaStack oracle(/*replication=*/0, /*fmemSize=*/512 * KiB);

    FaultInjector injector(0xd1ff);
    for (NodeId id = 1; id <= 3; ++id) {
        injector.profile(id).dropProbability = 0.05;
        injector.profile(id).corruptProbability = 0.05;
        injector.profile(id).spikeProbability = 0.1;
    }
    fabric.setFaultInjector(&injector);

    auto exercise = [](KonaRuntime &rt) {
        Addr a = rt.allocate(2 * MiB, pageSize);
        Rng rng(31);
        for (int i = 0; i < 40000; ++i) {
            Addr addr = a + rng.below(2 * MiB - 8);
            if (rng.chance(0.7))
                rt.store<std::uint64_t>(addr, rng.next());
            else
                rt.load<std::uint64_t>(addr);
        }
        rt.writebackAll();
        return a;
    };
    exercise(*runtime);
    exercise(*oracle.runtime);

    EXPECT_EQ(dumpMapped(*runtime), dumpMapped(*oracle.runtime));
    ReliabilityStats r = runtime->reliability();
    EXPECT_GT(r.retries + r.retransmits, 0u);
    EXPECT_EQ(r.nodesFailed, 0u);
    EXPECT_FALSE(runtime->degraded());
}

// ---------------------------------------------------------------------
// The scripted scenario: drops + spikes + corruption + one permanent
// node failure across every Table 2 workload, vs a fault-free oracle.
// ---------------------------------------------------------------------

struct ScenarioRun
{
    std::vector<std::uint8_t> image;
    ReliabilityStats reliability;
};

ScenarioRun
runScenario(const std::string &name, bool faulty)
{
    Fabric fabric;
    Controller controller(1 * MiB);
    std::vector<std::unique_ptr<MemoryNode>> nodes;
    for (NodeId id = 1; id <= 3; ++id) {
        nodes.push_back(
            std::make_unique<MemoryNode>(fabric, id, 128 * MiB));
        controller.registerNode(*nodes.back());
    }

    KonaConfig cfg;
    cfg.fpga.vfmemSize = 128 * MiB;
    cfg.fpga.fmemSize = 512 * KiB;
    cfg.hierarchy = HierarchyConfig::scaled();
    cfg.replicationFactor = 1;
    cfg.evict.mode = EvictionMode::ClLog;
    cfg.failurePolicy = FailurePolicy::WaitRetry;
    KonaRuntime runtime(fabric, controller, 0, cfg);

    FaultInjector injector(0x5ca1e);
    if (faulty) {
        for (NodeId id = 1; id <= 3; ++id) {
            injector.profile(id).dropProbability = 0.01;
            injector.profile(id).corruptProbability = 0.01;
            injector.profile(id).spikeProbability = 0.05;
        }
        // Permanently kill the node the first allocations land on —
        // it is guaranteed to hold live data when it dies.
        NodeId victim = runtime.fpga().translation()
                            .translate(cfg.fpga.vfmemBase).node;
        injector.profile(victim).failAtOp = 60;
        fabric.setFaultInjector(&injector);
    }

    WorkloadContext context(
        runtime,
        [&runtime](std::size_t s, std::size_t a) {
            return runtime.allocate(s, a);
        },
        [&runtime](Addr a) { runtime.deallocate(a); });
    WorkloadScale scale;
    scale.factor = 0.02;
    auto workload = makeWorkload(name, context, scale);
    workload->setup();
    workload->run(std::min<std::uint64_t>(defaultWindowOps(name), 1500));
    runtime.writebackAll();

    ScenarioRun result;
    result.image = dumpMapped(runtime);
    result.reliability = runtime.reliability();
    return result;
}

TEST(FaultScenario, AllWorkloadsSurviveScriptedFaults)
{
    std::uint64_t retries = 0, retransmits = 0, promotions = 0,
                  rebuilds = 0;
    for (const std::string &name : table2WorkloadNames()) {
        SCOPED_TRACE(name);
        ScenarioRun faulty = runScenario(name, true);
        ScenarioRun oracle = runScenario(name, false);

        // Byte-exact final image despite the faults.
        ASSERT_EQ(faulty.image.size(), oracle.image.size());
        EXPECT_TRUE(faulty.image == oracle.image);

        // The permanent failure was detected and healed.
        EXPECT_EQ(faulty.reliability.nodesFailed, 1u);
        EXPECT_EQ(faulty.reliability.slabsLost, 0u);
        EXPECT_EQ(oracle.reliability.nodesFailed, 0u);

        retries += faulty.reliability.retries;
        retransmits += faulty.reliability.retransmits;
        promotions += faulty.reliability.replicaPromotions;
        rebuilds += faulty.reliability.slabsRebuilt;
    }
    EXPECT_GT(retries, 0u);
    EXPECT_GT(retransmits, 0u);
    EXPECT_GT(promotions, 0u);
    EXPECT_GT(rebuilds, 0u);
}

} // namespace
} // namespace kona
