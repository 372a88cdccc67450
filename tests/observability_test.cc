/**
 * @file
 * PR 7 observability tests: the sim-time TimeSeriesSampler (window
 * deltas, ring wraparound), the structured EventJournal (ring,
 * JSONL, health-name pinning, counters, trace instants), tail-latency
 * attribution (exact sum==total, residual bucketing, slowest-1%
 * slice), and the journal /
 * attribution behavior of a full chaos run.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "chaos/chaos_runner.h"
#include "chaos/chaos_scenario.h"
#include "core/kona_runtime.h"
#include "telemetry/attribution.h"
#include "telemetry/event_journal.h"
#include "telemetry/metric_registry.h"
#include "telemetry/time_series.h"
#include "telemetry/trace_session.h"

namespace kona {
namespace {

// ---------------------------------------------------------------------
// TimeSeriesSampler
// ---------------------------------------------------------------------

TEST(TimeSeries, WindowDeltasAreExact)
{
    auto registry = std::make_shared<MetricRegistry>();
    Counter &hits = registry->counter("hits");
    Gauge &depth = registry->gauge("depth");
    LatencyHistogram &lat = registry->histogram("lat_ns");

    hits.add(5); // pre-attach activity is not part of any window
    lat.record(100.0);

    TimeSeriesSampler sampler(/*intervalNs=*/1000);
    sampler.attach(registry, /*start=*/0);
    ASSERT_EQ(sampler.columns(), 4u); // hits, depth, lat.count, lat.sum

    // Window 1: [0, 1500).
    hits.add(3);
    depth.set(7.0);
    lat.record(50.0);
    lat.record(30.0);
    sampler.onTick(500);  // before the deadline: no window closes
    EXPECT_EQ(sampler.windows(), 0u);
    sampler.onTick(1500); // past it: closes with actual bounds
    ASSERT_EQ(sampler.windows(), 1u);
    EXPECT_EQ(sampler.windowStartNs(0), 0u);
    EXPECT_EQ(sampler.windowEndNs(0), 1500u);

    std::size_t cHits = sampler.columnIndex("hits");
    std::size_t cDepth = sampler.columnIndex("depth");
    std::size_t cCount = sampler.columnIndex("lat_ns.count");
    std::size_t cSum = sampler.columnIndex("lat_ns.sum");
    ASSERT_LT(cHits, sampler.columns());
    ASSERT_LT(cSum, sampler.columns());
    EXPECT_DOUBLE_EQ(sampler.value(0, cHits), 3.0);   // delta, not total
    EXPECT_DOUBLE_EQ(sampler.value(0, cDepth), 7.0);  // gauge: level
    EXPECT_DOUBLE_EQ(sampler.value(0, cCount), 2.0);
    EXPECT_DOUBLE_EQ(sampler.value(0, cSum), 80.0);

    // Window 2: empty activity, wide jump (outage-style).
    sampler.onTick(50'000);
    ASSERT_EQ(sampler.windows(), 2u);
    EXPECT_EQ(sampler.windowStartNs(1), 1500u);
    EXPECT_EQ(sampler.windowEndNs(1), 50'000u);
    EXPECT_DOUBLE_EQ(sampler.value(1, cHits), 0.0);

    // finish() closes the trailing partial window.
    hits.add(1);
    sampler.finish(50'400);
    ASSERT_EQ(sampler.windows(), 3u);
    EXPECT_EQ(sampler.windowEndNs(2), 50'400u);
    EXPECT_DOUBLE_EQ(sampler.value(2, cHits), 1.0);
}

TEST(TimeSeries, RingDropsOldestOnOverflow)
{
    auto registry = std::make_shared<MetricRegistry>();
    Counter &ticks = registry->counter("ticks");
    TimeSeriesSampler sampler(/*intervalNs=*/10, /*capacity=*/4);
    sampler.attach(registry, 0);

    for (Tick t = 10; t <= 60; t += 10) {
        ticks.add(static_cast<std::uint64_t>(t)); // distinct per window
        sampler.onTick(t);
    }
    EXPECT_EQ(sampler.windows(), 4u);
    EXPECT_EQ(sampler.droppedWindows(), 2u);
    // Oldest two ([0,10) and [10,20)) were dropped.
    std::size_t c = sampler.columnIndex("ticks");
    EXPECT_EQ(sampler.windowStartNs(0), 20u);
    EXPECT_DOUBLE_EQ(sampler.value(0, c), 30.0);
    EXPECT_DOUBLE_EQ(sampler.value(3, c), 60.0);
}

TEST(TimeSeries, CsvAndJsonCarryEveryWindow)
{
    auto registry = std::make_shared<MetricRegistry>();
    Counter &n = registry->counter("n");
    TimeSeriesSampler sampler(100);
    sampler.attach(registry, 0);
    n.add(2);
    sampler.onTick(150);
    n.add(1);
    sampler.finish(200);

    std::ostringstream csv;
    sampler.writeCsv(csv);
    EXPECT_NE(csv.str().find("window_start_ns,window_end_ns,n"),
              std::string::npos);
    EXPECT_NE(csv.str().find("0,150,2"), std::string::npos);
    EXPECT_NE(csv.str().find("150,200,1"), std::string::npos);

    std::ostringstream json;
    sampler.writeJson(json);
    EXPECT_NE(json.str().find("\"columns\""), std::string::npos);
    EXPECT_NE(json.str().find("\"start_ns\": 150"), std::string::npos);
}

// ---------------------------------------------------------------------
// EventJournal
// ---------------------------------------------------------------------

TEST(EventJournal, RingOverwritesOldestAndCountsDrops)
{
    EventJournal journal(/*capacity=*/3);
    for (std::uint64_t i = 0; i < 5; ++i)
        journal.record(/*ts=*/10 * (i + 1), JournalKind::RingFullStall,
                       NodeId{1}, i);
    EXPECT_EQ(journal.size(), 3u);
    EXPECT_EQ(journal.recorded(), 5u);
    EXPECT_EQ(journal.dropped(), 2u);
    EXPECT_EQ(journal.event(0).a, 2u); // oldest retained
    EXPECT_EQ(journal.event(2).a, 4u);
    EXPECT_EQ(journal.event(2).ts, 50u);
}

TEST(EventJournal, HealthNamesPinControllerStateOrder)
{
    // The JSONL writer decodes HealthTransition payloads through this
    // table; it must track the NodeHealth enum exactly.
    EXPECT_STREQ(journalHealthName(
                     static_cast<std::uint64_t>(NodeHealth::Healthy)),
                 "healthy");
    EXPECT_STREQ(journalHealthName(
                     static_cast<std::uint64_t>(NodeHealth::Suspect)),
                 "suspect");
    EXPECT_STREQ(journalHealthName(static_cast<std::uint64_t>(
                     NodeHealth::Quarantined)),
                 "quarantined");
    EXPECT_STREQ(journalHealthName(static_cast<std::uint64_t>(
                     NodeHealth::Readmitted)),
                 "readmitted");
    EXPECT_STREQ(journalHealthName(
                     static_cast<std::uint64_t>(NodeHealth::Joining)),
                 "joining");
    EXPECT_STREQ(journalHealthName(
                     static_cast<std::uint64_t>(NodeHealth::Draining)),
                 "draining");
    EXPECT_STREQ(journalHealthName(
                     static_cast<std::uint64_t>(NodeHealth::Failed)),
                 "failed");
}

TEST(EventJournal, JsonlDecodesKindSpecificFields)
{
    EventJournal journal(8);
    journal.record(/*ts=*/42, JournalKind::HealthTransition, NodeId{2},
                   static_cast<std::uint64_t>(NodeHealth::Healthy),
                   static_cast<std::uint64_t>(NodeHealth::Suspect),
                   /*epoch=*/7);
    journal.record(/*ts=*/42, JournalKind::StaleHomeMark, NodeId{3},
                   /*vpn=*/99, /*mask=*/0xff);

    std::string jsonl = journal.toJsonl();
    EXPECT_NE(jsonl.find("\"event\": \"health_transition\""),
              std::string::npos);
    EXPECT_NE(jsonl.find("\"from\": \"healthy\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"to\": \"suspect\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"epoch\": 7"), std::string::npos);
    EXPECT_NE(jsonl.find("\"ts_ns\": 42"), std::string::npos);
    EXPECT_NE(jsonl.find("\"event\": \"stale_home_mark\""),
              std::string::npos);
    EXPECT_NE(jsonl.find("\"vpn\": 99"), std::string::npos);
}

TEST(EventJournal, CountsUnderItsScope)
{
    auto registry = std::make_shared<MetricRegistry>();
    EventJournal journal(/*capacity=*/1,
                         MetricScope(registry, "rack.journal"));
    journal.record(/*ts=*/1, JournalKind::JoinStart, NodeId{4});
    journal.record(/*ts=*/2, JournalKind::JoinComplete, NodeId{4});
    EXPECT_EQ(registry->counter("rack.journal.events_recorded").value(),
              2u);
    EXPECT_EQ(registry->counter("rack.journal.events_dropped").value(),
              1u);
}

TEST(EventJournal, TraceWritesEveryFieldAsAnInstant)
{
    // The trace keeps no copy of the journal: it writes the retained
    // events at export with the JSONL export's field writer, so the
    // kind-specific payloads (vpn/mask, batch/sends) reach the trace.
    EventJournal journal(4);
    journal.record(/*ts=*/1500, JournalKind::StaleHomeMark, NodeId{3},
                   /*vpn=*/99, /*mask=*/0xff);
    journal.record(/*ts=*/2500, JournalKind::RetriesExhausted, NodeId{2},
                   /*batch=*/7, /*sends=*/5);
    TraceSession session;
    EXPECT_EQ(session.toJson().find("\"ph\": \"i\""), std::string::npos);
    session.setJournal(&journal);
    std::string json = session.toJson();
    EXPECT_EQ(session.size(), 0u);
    EXPECT_NE(json.find("{\"name\": \"stale_home_mark\", \"cat\": "
                        "\"journal\", \"ph\": \"i\", \"ts\": 1.500, "
                        "\"s\": \"t\", \"pid\": 1, \"tid\": 1, "
                        "\"args\": {\"node\": 3, \"vpn\": 99, "
                        "\"mask\": 255}}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"args\": {\"node\": 2, \"batch\": 7, "
                        "\"sends\": 5}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"name\": \"app critical path\""),
              std::string::npos);
}

// ---------------------------------------------------------------------
// LatencyAttribution
// ---------------------------------------------------------------------

TEST(Attribution, SerialSampleSumsExactlyToTotal)
{
    LatencyAttribution attr(MissComponent::names, MissComponent::Count);
    attr.begin(1000);
    attr.charge(MissComponent::FmemCheck, 60);
    attr.charge(MissComponent::Wire, 500);
    Tick residual = attr.end(1700, MissComponent::Other);
    EXPECT_EQ(residual, 140u); // 700 total - 560 charged

    EXPECT_EQ(attr.samples(), 1u);
    EXPECT_EQ(attr.totalNs(), 700u);
    Tick sum = 0;
    for (std::size_t c = 0; c < MissComponent::Count; ++c)
        sum += attr.componentNs(c);
    EXPECT_EQ(sum, attr.totalNs()); // the invariant: exact, not approx
    EXPECT_EQ(attr.componentNs(MissComponent::Other), 140u);
}

TEST(Attribution, ChargesWhileInactiveAreIgnored)
{
    LatencyAttribution attr(MissComponent::names, MissComponent::Count);
    attr.charge(MissComponent::Wire, 999); // no sample open: no-op
    EXPECT_EQ(attr.samples(), 0u);
    EXPECT_EQ(attr.totalNs(), 0u);

    attr.begin(0);
    attr.cancel();
    EXPECT_EQ(attr.samples(), 0u); // cancelled samples leave no trace
}

TEST(Attribution, BulkRecordFoldsResidual)
{
    LatencyAttribution attr(EvictComponent::names,
                            EvictComponent::Count);
    std::array<Tick, LatencyAttribution::maxComponents> comp{};
    comp[EvictComponent::Wire] = 300;
    comp[EvictComponent::Ack] = 100;
    attr.record(/*totalNs=*/450, comp.data(), EvictComponent::Other);
    EXPECT_EQ(attr.componentNs(EvictComponent::Other), 50u);
    EXPECT_EQ(attr.totalNs(), 450u);
}

TEST(Attribution, TailSliceIsolatesSlowestSamples)
{
    LatencyAttribution attr(MissComponent::names, MissComponent::Count);
    // 98 fast samples dominated by fmem_check, 2 slow ones by retry.
    // (The slice is octave-granular and widens to cover at least the
    // requested fraction, so the slow octave needs enough samples to
    // satisfy it without spilling into the fast octave.)
    for (int i = 0; i < 98; ++i) {
        attr.begin(0);
        attr.charge(MissComponent::FmemCheck, 100);
        attr.end(100, MissComponent::Other);
    }
    for (int i = 0; i < 2; ++i) {
        attr.begin(0);
        attr.charge(MissComponent::Retry, 1'000'000);
        attr.end(1'000'000, MissComponent::Other);
    }

    LatencyAttribution::TailSlice p99 = attr.tail(0.01);
    EXPECT_EQ(p99.samples, 2u); // the slow octave alone covers 1%
    // The slow sample's component dominates the slice.
    EXPECT_GT(p99.componentNs[MissComponent::Retry],
              p99.componentNs[MissComponent::FmemCheck]);
    EXPECT_EQ(attr.componentNs(MissComponent::Other), 0u);
}

TEST(Attribution, ExportGaugesPublishesTotalsAndTail)
{
    LatencyAttribution attr(MissComponent::names, MissComponent::Count);
    attr.begin(0);
    attr.charge(MissComponent::Wire, 70);
    attr.end(100, MissComponent::Other);

    auto registry = std::make_shared<MetricRegistry>();
    attr.exportGauges(MetricScope(registry, "miss.attr"));
    const Gauge *wire = registry->findGauge("miss.attr.wire_ns");
    const Gauge *other = registry->findGauge("miss.attr.other_ns");
    const Gauge *tailTotal =
        registry->findGauge("miss.attr.p99.total_ns");
    ASSERT_NE(wire, nullptr);
    ASSERT_NE(other, nullptr);
    ASSERT_NE(tailTotal, nullptr);
    EXPECT_DOUBLE_EQ(wire->value(), 70.0);
    EXPECT_DOUBLE_EQ(other->value(), 30.0);
    EXPECT_DOUBLE_EQ(tailTotal->value(), 100.0);
}

// ---------------------------------------------------------------------
// Full-stack behavior: a fault-free Kona run attributes every miss ns
// with zero unexplained residual, and a chaos run journals the exact
// quarantine/readmit sequence the scenario scripts.
// ---------------------------------------------------------------------

TEST(Observability, FaultFreeRunHasNoUnexplainedMissNs)
{
    ChaosScenario scenario;
    for (const ChaosScenario &sc : builtinChaosScenarios()) {
        if (sc.name == "partial-partition")
            scenario = sc;
    }
    ASSERT_FALSE(scenario.name.empty());

    ChaosRunConfig cfg;
    cfg.faultFree = true;
    ChaosReport report = runChaosScenario(scenario, cfg);

    EXPECT_GT(report.missAttrSamples, 0u);
    EXPECT_GT(report.missAttrTotalNs, 0u);
    // Every advance on the miss path is bracketed by a charge, so the
    // residual "other" bucket is exactly zero — not just small.
    EXPECT_EQ(report.missAttrOtherNs, 0u);
    EXPECT_GT(report.shipAttrSamples, 0u);
    EXPECT_EQ(report.shipAttrOtherNs, 0u);
}

TEST(Observability, ChaosRunJournalsQuarantineSequence)
{
    ChaosScenario scenario;
    for (const ChaosScenario &sc : builtinChaosScenarios()) {
        if (sc.name == "partial-partition")
            scenario = sc;
    }
    ASSERT_FALSE(scenario.name.empty());

    TimeSeriesSampler sampler(/*intervalNs=*/1'000'000);
    ChaosRunConfig cfg;
    cfg.sampler = &sampler;
    ChaosReport report = runChaosScenario(scenario, cfg);

    // Node 2's health-transition 'to' sequence must walk the gray-
    // failure state machine: suspect -> quarantined -> readmitted ->
    // healthy, with strictly increasing epochs.
    std::vector<std::uint64_t> to;
    std::uint64_t lastEpoch = 0;
    for (const JournalEvent &ev : report.journal) {
        if (ev.kind != JournalKind::HealthTransition || ev.node != 2)
            continue;
        to.push_back(ev.b);
        EXPECT_GT(ev.epoch, lastEpoch);
        lastEpoch = ev.epoch;
    }
    ASSERT_EQ(to.size(), 4u);
    EXPECT_EQ(to[0], static_cast<std::uint64_t>(NodeHealth::Suspect));
    EXPECT_EQ(to[1],
              static_cast<std::uint64_t>(NodeHealth::Quarantined));
    EXPECT_EQ(to[2],
              static_cast<std::uint64_t>(NodeHealth::Readmitted));
    EXPECT_EQ(to[3], static_cast<std::uint64_t>(NodeHealth::Healthy));

    // The eviction path journals its give-ups against the partitioned
    // node while it was unreachable.
    bool sawRetriesExhausted = false;
    for (const JournalEvent &ev : report.journal)
        sawRetriesExhausted |=
            ev.kind == JournalKind::RetriesExhausted && ev.node == 2;
    EXPECT_TRUE(sawRetriesExhausted);

    // The time series spans the quarantine window: the transition
    // timestamps fall inside the sampled range.
    ASSERT_GT(sampler.windows(), 0u);
    Tick first = sampler.windowStartNs(0);
    Tick last = sampler.windowEndNs(sampler.windows() - 1);
    for (const JournalEvent &ev : report.journal) {
        if (ev.kind == JournalKind::HealthTransition && ev.node == 2) {
            EXPECT_GE(ev.ts, first);
            EXPECT_LE(ev.ts, last);
        }
    }

    // Attribution stays exact under faults too: the retry component
    // absorbs outage backoffs rather than leaking into "other".
    EXPECT_EQ(report.shipAttrOtherNs, 0u);
    EXPECT_EQ(report.missAttrOtherNs, 0u);
}

} // namespace
} // namespace kona
