/**
 * @file
 * Tests for src/policy: spec parsing (malformed specs rejected
 * loudly), per-policy victim sequences checked against a reference
 * model on seeded traces, placement determinism and request
 * semantics (avoid/pinTo/required), TieringEngine promote/demote
 * mechanics, and a KonaRuntime integration run with a shifting
 * working set plus a no-lost-pages content oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"
#include "core/kona_runtime.h"
#include "fpga/fmem_cache.h"
#include "policy/placement_policy.h"
#include "policy/tiering_engine.h"
#include "policy/victim_policy.h"
#include "rack/controller.h"

namespace kona {
namespace {

// --- spec parsing ----------------------------------------------------

TEST(VictimSpec, KnownPoliciesParse)
{
    EXPECT_EQ(makeVictimPolicy("lru")->name(), "lru");
    EXPECT_EQ(makeVictimPolicy("")->name(), "lru");
    EXPECT_EQ(makeVictimPolicy("lfu")->name(), "lfu");
    EXPECT_EQ(makeVictimPolicy("scan")->name(), "scan:2");
    EXPECT_EQ(makeVictimPolicy("scan:5")->name(), "scan:5");
    EXPECT_EQ(makeVictimPolicy("dirty")->name(), "dirty");
    EXPECT_TRUE(makeVictimPolicy("dirty")->wantsDirty());
    EXPECT_FALSE(makeVictimPolicy("lru")->wantsDirty());
    for (const std::string &name : victimPolicyNames()) {
        EXPECT_TRUE(knownVictimPolicy(name));
        EXPECT_NO_THROW(makeVictimPolicy(name));
    }
}

TEST(VictimSpec, MalformedIsFatal)
{
    EXPECT_THROW(makeVictimPolicy("bogus"), FatalError);
    EXPECT_THROW(makeVictimPolicy("scan:0"), FatalError);
    EXPECT_THROW(makeVictimPolicy("scan:abc"), FatalError);
    EXPECT_THROW(makeVictimPolicy("scan:"), FatalError);
    EXPECT_THROW(makeVictimPolicy("lru:3"), FatalError);
    EXPECT_THROW(makeVictimPolicy("dirty:1"), FatalError);
    EXPECT_FALSE(knownVictimPolicy("bogus"));
    EXPECT_FALSE(knownVictimPolicy("scan:0"));
    EXPECT_FALSE(knownVictimPolicy("lfu:2"));
    // The cache constructor routes through the same parser.
    EXPECT_THROW(FMemCache(4 * pageSize, 4, {}, "bogus"), FatalError);
}

TEST(PlacementSpec, KnownPoliciesParse)
{
    EXPECT_EQ(makePlacementPolicy("free")->name(), "free");
    EXPECT_EQ(makePlacementPolicy("")->name(), "free");
    EXPECT_EQ(makePlacementPolicy("first")->name(), "first");
    EXPECT_EQ(makePlacementPolicy("rr")->name(), "rr");
    EXPECT_EQ(makePlacementPolicy("health")->name(), "health");
    for (const std::string &name : placementPolicyNames()) {
        EXPECT_TRUE(knownPlacementPolicy(name));
        EXPECT_NO_THROW(makePlacementPolicy(name));
    }
}

TEST(PlacementSpec, MalformedIsFatal)
{
    EXPECT_THROW(makePlacementPolicy("bogus"), FatalError);
    EXPECT_THROW(makePlacementPolicy("free:2"), FatalError);
    EXPECT_THROW(makePlacementPolicy("rr:1"), FatalError);
    EXPECT_FALSE(knownPlacementPolicy("bogus"));
    EXPECT_FALSE(knownPlacementPolicy("rr:1"));
    EXPECT_THROW(Controller(1 * MiB, {}, "bogus"), FatalError);
    Controller controller(1 * MiB);
    EXPECT_THROW(controller.setPlacementPolicy("bogus"), FatalError);
    EXPECT_EQ(controller.placementPolicyName(), "free");
    controller.setPlacementPolicy("rr");
    EXPECT_EQ(controller.placementPolicyName(), "rr");
}

TEST(TieringSpec, KnownPoliciesParse)
{
    EXPECT_FALSE(parseTieringSpec("off").enabled);
    EXPECT_FALSE(parseTieringSpec("none").enabled);
    EXPECT_FALSE(parseTieringSpec("").enabled);
    TieringConfig ewma = parseTieringSpec("ewma");
    EXPECT_TRUE(ewma.enabled);
    EXPECT_EQ(parseTieringSpec("ewma:4").maxPromotesPerPump, 4u);
    for (const std::string &name : tieringPolicyNames())
        EXPECT_TRUE(knownTieringPolicy(name));
}

TEST(TieringSpec, MalformedIsFatal)
{
    EXPECT_THROW(parseTieringSpec("bogus"), FatalError);
    EXPECT_THROW(parseTieringSpec("off:2"), FatalError);
    EXPECT_THROW(parseTieringSpec("ewma:0"), FatalError);
    EXPECT_THROW(parseTieringSpec("ewma:x"), FatalError);
    EXPECT_FALSE(knownTieringPolicy("bogus"));
    EXPECT_FALSE(knownTieringPolicy("off:2"));
    EXPECT_FALSE(knownTieringPolicy("ewma:0"));
}

// --- victim sequences vs a reference model ---------------------------

/** Mirror of one resident way as the reference model sees it. */
struct ModelWay
{
    Addr vpn;
    std::uint32_t touches;
};

/** Reference victim pick over @p ways (MRU first), per policy spec. */
Addr
referenceVictim(const std::string &spec,
                const std::vector<ModelWay> &ways,
                const std::set<Addr> &dirty)
{
    std::size_t n = ways.size();
    if (spec == "lfu") {
        std::size_t best = 0;
        for (std::size_t i = 1; i < n; ++i)
            if (ways[i].touches <= ways[best].touches)
                best = i;
        return ways[best].vpn;
    }
    if (spec == "scan:2") {
        for (std::size_t i = n; i-- > 0;)
            if (ways[i].touches < 2)
                return ways[i].vpn;
        return ways[n - 1].vpn;
    }
    if (spec == "dirty") {
        for (std::size_t i = n; i-- > 0;)
            if (dirty.count(ways[i].vpn) != 0)
                return ways[i].vpn;
        return ways[n - 1].vpn;
    }
    return ways[n - 1].vpn;   // lru
}

/**
 * Drive a seeded trace through a one-set cache and the reference
 * model in lockstep, checking every victim decision.
 */
void
checkVictimSequence(const std::string &spec, std::uint64_t seed)
{
    // 4 frames, 4 ways -> a single set: every page is a candidate.
    FMemCache fmem(4 * pageSize, 4, {}, spec);
    ASSERT_EQ(fmem.numSets(), 1u);
    std::vector<ModelWay> model;
    std::set<Addr> dirty;
    fmem.setDirtyProbe([&](Addr vpn) { return dirty.count(vpn) != 0; });

    Rng rng(seed);
    for (int i = 0; i < 4000; ++i) {
        Addr vpn = rng.below(12);
        if (fmem.lookup(vpn).has_value()) {
            auto it = std::find_if(
                model.begin(), model.end(),
                [vpn](const ModelWay &w) { return w.vpn == vpn; });
            ASSERT_NE(it, model.end()) << spec << " access " << i;
            ModelWay way = *it;
            ++way.touches;
            model.erase(it);
            model.insert(model.begin(), way);
        } else {
            std::optional<FMemCache::Victim> victim =
                fmem.victimFor(vpn);
            if (model.size() == 4) {
                ASSERT_TRUE(victim.has_value())
                    << spec << " access " << i;
                Addr expected = referenceVictim(spec, model, dirty);
                ASSERT_EQ(victim->vfmemPage, expected)
                    << spec << " seed " << seed << " access " << i;
                fmem.remove(victim->vfmemPage);
                dirty.erase(victim->vfmemPage);
                model.erase(std::find_if(
                    model.begin(), model.end(),
                    [&](const ModelWay &w) {
                        return w.vpn == expected;
                    }));
            } else {
                EXPECT_FALSE(victim.has_value())
                    << spec << " access " << i;
            }
            fmem.insert(vpn);
            model.insert(model.begin(), ModelWay{vpn, 1});
        }
        if (rng.below(4) == 0)
            dirty.insert(vpn);
        ASSERT_TRUE(fmem.checkInvariants());
    }
}

TEST(VictimPolicy, SequencesMatchReferenceModel)
{
    for (const std::string &spec :
         {std::string("lru"), std::string("lfu"), std::string("scan:2"),
          std::string("dirty")})
        for (std::uint64_t seed : {1u, 2u, 3u})
            checkVictimSequence(spec, seed);
}

// --- fenced and governed pages are never victims ---------------------

class VictimFilterFixture : public ::testing::Test
{
  protected:
    /** One-set cache holding pages 0..3 under @p spec. */
    static FMemCache
    fullCache(const std::string &spec)
    {
        FMemCache fmem(4 * pageSize, 4, {}, spec);
        for (Addr vpn = 0; vpn < 4; ++vpn)
            fmem.insert(vpn);
        return fmem;
    }
};

TEST_F(VictimFilterFixture, FencedPagesNeverChosen)
{
    for (const std::string &spec :
         {std::string("lru"), std::string("lfu"), std::string("scan:2"),
          std::string("dirty")}) {
        for (Addr survivor = 0; survivor < 4; ++survivor) {
            FMemCache fmem = fullCache(spec);
            fmem.setDirtyProbe([](Addr) { return true; });
            for (Addr vpn = 0; vpn < 4; ++vpn)
                if (vpn != survivor)
                    fmem.setEvictionInFlight(vpn, true);
            std::optional<FMemCache::Victim> victim = fmem.victimFor(4);
            ASSERT_TRUE(victim.has_value()) << spec;
            EXPECT_EQ(victim->vfmemPage, survivor) << spec;
        }
    }
}

TEST_F(VictimFilterFixture, WhollyFencedSetStillYieldsAVictim)
{
    FMemCache fmem = fullCache("lfu");
    for (Addr vpn = 0; vpn < 4; ++vpn)
        fmem.setEvictionInFlight(vpn, true);
    std::optional<FMemCache::Victim> victim = fmem.victimFor(4);
    ASSERT_TRUE(victim.has_value());
    EXPECT_LT(victim->vfmemPage, 4u);
}

TEST_F(VictimFilterFixture, GovernedPagesDeprioritized)
{
    for (const std::string &spec :
         {std::string("lru"), std::string("lfu"), std::string("scan:2"),
          std::string("dirty")}) {
        for (Addr survivor = 0; survivor < 4; ++survivor) {
            FMemCache fmem = fullCache(spec);
            fmem.setDirtyProbe([](Addr) { return true; });
            fmem.setGovernedProbe([survivor](Addr vpn) {
                return vpn != survivor;
            });
            std::optional<FMemCache::Victim> victim = fmem.victimFor(4);
            ASSERT_TRUE(victim.has_value()) << spec;
            EXPECT_EQ(victim->vfmemPage, survivor) << spec;
        }
    }
}

TEST_F(VictimFilterFixture, AllGovernedStillEvicts)
{
    FMemCache fmem = fullCache("lru");
    fmem.setGovernedProbe([](Addr) { return true; });
    std::optional<FMemCache::Victim> victim = fmem.victimFor(4);
    ASSERT_TRUE(victim.has_value());
    EXPECT_LT(victim->vfmemPage, 4u);
}

// --- placement semantics and determinism -----------------------------

class PlacementFixture : public ::testing::Test
{
  protected:
    /** Rack of three differently-sized nodes under @p policy. */
    struct Rack
    {
        explicit Rack(const std::string &policy)
            : controller(1 * MiB, MetricScope{}, policy)
        {
            nodes.push_back(
                std::make_unique<MemoryNode>(fabric, 10, 8 * MiB));
            nodes.push_back(
                std::make_unique<MemoryNode>(fabric, 11, 16 * MiB));
            nodes.push_back(
                std::make_unique<MemoryNode>(fabric, 12, 24 * MiB));
            for (auto &node : nodes)
                controller.registerNode(*node);
        }

        std::vector<NodeId>
        allocateRun(std::size_t count)
        {
            std::vector<NodeId> where;
            for (std::size_t i = 0; i < count; ++i)
                where.push_back(
                    controller
                        .allocateSlab(PlacementRequest{.required = true})
                        ->where.node);
            return where;
        }

        Fabric fabric;
        Controller controller;
        std::vector<std::unique_ptr<MemoryNode>> nodes;
    };
};

TEST_F(PlacementFixture, DeterministicAcrossReruns)
{
    for (const std::string &policy : placementPolicyNames()) {
        Rack a(policy), b(policy);
        EXPECT_EQ(a.allocateRun(24), b.allocateRun(24)) << policy;
    }
}

TEST_F(PlacementFixture, FreePicksMostFreeBytes)
{
    Rack rack("free");
    // Node 12 starts 8 MiB ahead of node 11: the first 8 grants all
    // land there before the policy starts alternating.
    std::vector<NodeId> where = rack.allocateRun(8);
    for (NodeId node : where)
        EXPECT_EQ(node, 12u);
}

TEST_F(PlacementFixture, FirstPacksLowestNodeUntilFull)
{
    Rack rack("first");
    std::vector<NodeId> where = rack.allocateRun(6);
    // 8 MiB minus the 4 MiB CL-log landing area -> 4 slabs on node 10.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(where[i], 10u) << i;
    EXPECT_EQ(where[4], 11u);
    EXPECT_EQ(where[5], 11u);
}

TEST_F(PlacementFixture, RoundRobinCyclesNodeIds)
{
    Rack rack("rr");
    std::vector<NodeId> where = rack.allocateRun(9);
    const NodeId expected[] = {10, 11, 12, 10, 11, 12, 10, 11, 12};
    for (std::size_t i = 0; i < 9; ++i)
        EXPECT_EQ(where[i], expected[i]) << i;
}

TEST_F(PlacementFixture, HealthDiscountsShakyNodes)
{
    Rack rack("health");
    // Keep both nodes Healthy (no membership transitions) while node
    // 12's badness EWMA climbs: the policy should route new slabs to
    // the pristine-but-smaller node 11 instead.
    HealthPolicy lenient;
    lenient.suspectThreshold = 2.0;     // score is capped at 1.0:
    lenient.quarantineThreshold = 3.0;  // never transitions
    rack.controller.setHealthPolicy(lenient);
    for (int i = 0; i < 32; ++i)
        rack.controller.observeNak(12, 0);
    EXPECT_GT(rack.controller.healthScore(12), 0.5);
    EXPECT_EQ(rack.controller.health(12), NodeHealth::Healthy);
    EXPECT_EQ(rack.controller.allocateSlab(PlacementRequest{})
                  ->where.node,
              11u);
}

TEST_F(PlacementFixture, AvoidExcludesNodes)
{
    Rack rack("free");
    SlabGrant grant = *rack.controller.allocateSlab(
        PlacementRequest{.avoid = {11, 12}});
    EXPECT_EQ(grant.where.node, 10u);
    // Avoiding everything is not satisfiable: nullopt, or fatal when
    // the request is required.
    EXPECT_EQ(rack.controller.allocateSlab(
                  PlacementRequest{.avoid = {10, 11, 12}}),
              std::nullopt);
    EXPECT_THROW(rack.controller.allocateSlab(PlacementRequest{
                     .avoid = {10, 11, 12}, .required = true}),
                 FatalError);
}

TEST_F(PlacementFixture, PinToBypassesPolicyAndHealthFilter)
{
    Rack rack("free");
    // The policy would pick node 12 (most free); the pin wins.
    EXPECT_EQ(rack.controller.allocateSlab(PlacementRequest{.pinTo = 10})
                  ->where.node,
              10u);
    // A draining node takes no policy placements but still accepts
    // pinned ones (rebalance onto joining nodes relies on this).
    rack.controller.drainNode(11, 0);
    std::vector<NodeId> where = rack.allocateRun(12);
    EXPECT_EQ(std::count(where.begin(), where.end(), 11u), 0);
    EXPECT_EQ(rack.controller.allocateSlab(PlacementRequest{.pinTo = 11})
                  ->where.node,
              11u);
}

// --- TieringEngine mechanics -----------------------------------------

class TieringFixture : public ::testing::Test
{
  protected:
    static TieringConfig
    config()
    {
        TieringConfig c;
        c.enabled = true;
        c.maxPromotesPerPump = 8;
        c.maxDemotesPerPump = 2;
        c.hotThreshold = 2.0;
        c.coldThreshold = 0.5;
        c.halfLifeNs = 1000;
        c.minResidencyNs = 100;
        c.pressureWatermark = 0.9;
        c.scanWindow = 16;
        return c;
    }
};

TEST_F(TieringFixture, HeatDecaysByHalfLife)
{
    TieringEngine tiering(100, 16, config());
    for (int i = 0; i < 3; ++i)
        tiering.observe(105, 0);
    EXPECT_DOUBLE_EQ(tiering.heatOf(105, 0), 3.0);
    EXPECT_DOUBLE_EQ(tiering.heatOf(105, 1000), 1.5);   // one half-life
    EXPECT_NEAR(tiering.heatOf(105, 100 * 1000), 0.0, 1e-9);
    EXPECT_DOUBLE_EQ(tiering.heatOf(104, 0), 0.0);      // never touched
    EXPECT_DOUBLE_EQ(tiering.heatOf(999, 0), 0.0);      // untracked
}

TEST_F(TieringFixture, PromotesHotNonResidentPagesOnly)
{
    TieringEngine tiering(100, 16, config());
    std::vector<Addr> promoted;
    std::set<Addr> resident;
    tiering.setHooks(
        [&](Addr vpn, Tick) {
            promoted.push_back(vpn);
            resident.insert(vpn);
            return true;
        },
        nullptr, [&](Addr vpn) { return resident.count(vpn) != 0; },
        [] { return 0.0; });

    for (int i = 0; i < 3; ++i) {
        tiering.observe(103, 0);   // hot, not resident -> promote
        tiering.observe(107, 0);   // hot but already resident
    }
    resident.insert(107);
    tiering.observe(109, 0);       // heat 1 < hotThreshold: too cold

    tiering.pump(0);
    ASSERT_EQ(promoted.size(), 1u);
    EXPECT_EQ(promoted[0], 103u);
    EXPECT_EQ(tiering.promoted(), 1u);

    tiering.pump(0);               // now resident: no re-promotion
    EXPECT_EQ(promoted.size(), 1u);
}

TEST_F(TieringFixture, PromotionsPerPumpAreBounded)
{
    TieringConfig c = config();
    c.maxPromotesPerPump = 2;
    TieringEngine tiering(100, 16, c);
    std::size_t promotes = 0;
    tiering.setHooks([&](Addr, Tick) { ++promotes; return true; },
                     nullptr, [](Addr) { return false; },
                     [] { return 0.0; });
    for (Addr vpn = 100; vpn < 108; ++vpn)
        for (int i = 0; i < 3; ++i)
            tiering.observe(vpn, 0);
    tiering.pump(0);
    EXPECT_EQ(promotes, 2u);
}

TEST_F(TieringFixture, DemotesColdResidentPagesUnderPressure)
{
    TieringEngine tiering(100, 16, config());
    std::vector<Addr> demoted;
    double pressure = 1.0;
    tiering.setHooks(
        [](Addr, Tick) { return true; },
        [&](const Addr *vpns, std::size_t n) {
            demoted.insert(demoted.end(), vpns, vpns + n);
        },
        [](Addr) { return true; },   // everything resident
        [&] { return pressure; });

    for (Addr vpn = 100; vpn < 104; ++vpn)
        tiering.observe(vpn, 0);
    // By t = 20 half-lives every page is far below coldThreshold and
    // past minResidencyNs, but the batch cap holds demotions to 2.
    tiering.pump(20'000);
    EXPECT_EQ(demoted.size(), 2u);
    EXPECT_EQ(tiering.demoted(), 2u);

    // Below the watermark nothing is demoted.
    demoted.clear();
    pressure = 0.0;
    tiering.pump(40'000);
    EXPECT_TRUE(demoted.empty());
}

TEST_F(TieringFixture, AttributionCountersTrackOutcomes)
{
    TieringEngine tiering(100, 16, config());
    tiering.onPromotedUseful(103, 500);
    tiering.onPromotedUseful(104, 700);
    tiering.onPromotedWasted(105);
    EXPECT_EQ(tiering.promotedUseful(), 2u);
    EXPECT_EQ(tiering.promotedWasted(), 1u);
}

// --- runtime integration: shifting working set, no lost pages --------

TEST(TieringIntegration, ShiftingWorkingSetLosesNoPages)
{
    Fabric fabric;
    Controller controller(1 * MiB);
    MemoryNode node(fabric, 5, 128 * MiB);
    controller.registerNode(node);

    KonaConfig cfg;
    cfg.fpga.vfmemSize = 64 * MiB;
    cfg.fpga.fmemSize = 2 * MiB;   // 512 frames
    cfg.fpga.victimPolicy = "scan:2";
    cfg.hierarchy = HierarchyConfig::scaled();
    cfg.tiering = "ewma";
    KonaRuntime runtime(fabric, controller, 0, cfg);
    ASSERT_NE(runtime.tieringEngine(), nullptr);

    constexpr std::size_t numPages = 1536;   // 3x FMem
    Addr region = runtime.allocate(numPages * pageSize, pageSize);
    std::vector<std::uint64_t> expected(numPages);
    for (std::size_t p = 0; p < numPages; ++p) {
        expected[p] = 0x9e3779b97f4a7c15ULL * (p + 1);
        runtime.store<std::uint64_t>(region + p * pageSize,
                                     expected[p]);
    }

    // Three phases, each hammering a different third of the heap with
    // occasional rewrites; the oracle tracks every store.
    Rng rng(7);
    for (std::size_t phase = 0; phase < 3; ++phase) {
        std::size_t base = phase * 512;
        for (int i = 0; i < 12'000; ++i) {
            std::size_t p = rng.below(8) == 0
                                ? rng.below(numPages)
                                : base + rng.below(160);
            Addr addr = region + p * pageSize;
            if (rng.below(4) == 0) {
                expected[p] ^= 0x5bd1e995u + i;
                runtime.store<std::uint64_t>(addr, expected[p]);
            } else {
                EXPECT_EQ(runtime.load<std::uint64_t>(addr),
                          expected[p])
                    << "phase " << phase << " page " << p;
            }
        }
    }

    const TieringEngine &tiering = *runtime.tieringEngine();
    EXPECT_GT(tiering.promoted(), 0u);

    // No-lost-pages content oracle: every page still reads back the
    // last value stored to it, wherever tiering moved it.
    std::size_t lost = 0;
    for (std::size_t p = 0; p < numPages; ++p)
        if (runtime.load<std::uint64_t>(region + p * pageSize) !=
            expected[p])
            ++lost;
    EXPECT_EQ(lost, 0u);
    EXPECT_TRUE(runtime.fpga().fmem().checkInvariants());
}

} // namespace
} // namespace kona
