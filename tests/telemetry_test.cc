/**
 * @file
 * Tests for the unified telemetry layer: the metric registry and its
 * JSON export, the sim-time span tracer (Chrome trace-event output,
 * flight-recorder ring, crash dumps), and the contract that the legacy
 * *Stats snapshots are views over the same registry storage — the
 * aggregate counters in a metrics export must exactly match
 * RuntimeStats, and stats()/reliability() can never diverge.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>

#include "core/kona_runtime.h"
#include "core/vm_runtime.h"
#include "telemetry/metric_registry.h"
#include "telemetry/trace_session.h"

namespace kona {
namespace {

// ---------------------------------------------------------------------
// A minimal JSON parser: enough to validate that the exported metrics
// and Chrome trace files are well-formed and to query their contents.
// ---------------------------------------------------------------------

struct JsonValue
{
    enum Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };
    Kind kind = Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    const JsonValue *
    find(const std::string &key) const
    {
        auto it = object.find(key);
        return it == object.end() ? nullptr : &it->second;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    std::optional<JsonValue>
    parse()
    {
        auto v = value();
        skipWs();
        if (!v.has_value() || pos_ != text_.size())
            return std::nullopt;
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    std::optional<JsonValue>
    value()
    {
        skipWs();
        if (pos_ >= text_.size())
            return std::nullopt;
        char c = text_[pos_];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't' || c == 'f')
            return boolean();
        if (c == 'n') {
            if (text_.substr(pos_, 4) != "null")
                return std::nullopt;
            pos_ += 4;
            return JsonValue{};
        }
        return number();
    }

    std::optional<JsonValue>
    object()
    {
        if (!consume('{'))
            return std::nullopt;
        JsonValue v;
        v.kind = JsonValue::Object;
        skipWs();
        if (consume('}'))
            return v;
        while (true) {
            auto key = string();
            if (!key.has_value() || !consume(':'))
                return std::nullopt;
            auto val = value();
            if (!val.has_value())
                return std::nullopt;
            v.object.emplace(key->str, std::move(*val));
            if (consume(','))
                continue;
            if (consume('}'))
                return v;
            return std::nullopt;
        }
    }

    std::optional<JsonValue>
    array()
    {
        if (!consume('['))
            return std::nullopt;
        JsonValue v;
        v.kind = JsonValue::Array;
        skipWs();
        if (consume(']'))
            return v;
        while (true) {
            auto val = value();
            if (!val.has_value())
                return std::nullopt;
            v.array.push_back(std::move(*val));
            if (consume(','))
                continue;
            if (consume(']'))
                return v;
            return std::nullopt;
        }
    }

    std::optional<JsonValue>
    string()
    {
        if (!consume('"'))
            return std::nullopt;
        JsonValue v;
        v.kind = JsonValue::String;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\') {
                if (pos_ + 1 >= text_.size())
                    return std::nullopt;
                ++pos_;
            }
            v.str += text_[pos_++];
        }
        if (pos_ >= text_.size())
            return std::nullopt;
        ++pos_;   // closing quote
        return v;
    }

    std::optional<JsonValue>
    boolean()
    {
        JsonValue v;
        v.kind = JsonValue::Bool;
        if (text_.substr(pos_, 4) == "true") {
            pos_ += 4;
            v.boolean = true;
            return v;
        }
        if (text_.substr(pos_, 5) == "false") {
            pos_ += 5;
            return v;
        }
        return std::nullopt;
    }

    std::optional<JsonValue>
    number()
    {
        std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            return std::nullopt;
        JsonValue v;
        v.kind = JsonValue::Number;
        v.number = std::stod(std::string(text_.substr(start,
                                                      pos_ - start)));
        return v;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

std::optional<JsonValue>
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

// ---------------------------------------------------------------------
// Histograms.
// ---------------------------------------------------------------------

TEST(LatencyHistogram, EmptyHistogramIsAllZero)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.minValue(), 0.0);
    EXPECT_DOUBLE_EQ(h.maxValue(), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.p99(), 0.0);
}

TEST(LatencyHistogram, SingleRepeatedValueHasExactQuantiles)
{
    LatencyHistogram h;
    for (int i = 0; i < 1000; ++i)
        h.record(100.0);
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_DOUBLE_EQ(h.mean(), 100.0);
    EXPECT_DOUBLE_EQ(h.minValue(), 100.0);
    EXPECT_DOUBLE_EQ(h.maxValue(), 100.0);
    // The bucket upper bound (127) is clamped to the observed max.
    EXPECT_DOUBLE_EQ(h.p50(), 100.0);
    EXPECT_DOUBLE_EQ(h.p95(), 100.0);
    EXPECT_DOUBLE_EQ(h.p99(), 100.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST(LatencyHistogram, QuantilesAreConservativeWithinOneOctave)
{
    LatencyHistogram h;
    for (int v = 1; v <= 1000; ++v)
        h.record(static_cast<double>(v));
    // Conservative: never understate, never exceed 2x (one octave),
    // never exceed the observed max.
    for (double q : {0.10, 0.50, 0.90, 0.95, 0.99}) {
        double truth = q * 1000.0;
        double est = h.quantile(q);
        EXPECT_GE(est, truth) << "q=" << q;
        EXPECT_LE(est, 2.0 * truth) << "q=" << q;
        EXPECT_LE(est, 1000.0) << "q=" << q;
    }
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
}

TEST(LatencyHistogram, FirstSampleSetsBothMinAndMax)
{
    // Regression guard: a single recorded value must become both the
    // min and the max, even when it is far above the initial bucket
    // range — a first-sample init bug would leave minValue() at 0 (or
    // the value at the stale sentinel) and the two would diverge.
    LatencyHistogram h;
    h.record(1.0e9);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_DOUBLE_EQ(h.minValue(), 1.0e9);
    EXPECT_DOUBLE_EQ(h.maxValue(), 1.0e9);
    EXPECT_DOUBLE_EQ(h.minValue(), h.maxValue());
    EXPECT_DOUBLE_EQ(h.mean(), 1.0e9);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.0e9);
}

TEST(LatencyHistogram, ZeroAndNegativeValues)
{
    LatencyHistogram h;
    h.record(0.0);
    h.record(-5.0);   // clamped to 0
    EXPECT_EQ(h.count(), 2u);
    EXPECT_DOUBLE_EQ(h.minValue(), 0.0);
    EXPECT_DOUBLE_EQ(h.maxValue(), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

// ---------------------------------------------------------------------
// Registry and scopes.
// ---------------------------------------------------------------------

TEST(MetricRegistry, GetOrCreateReturnsStableAddresses)
{
    MetricRegistry reg;
    Counter &a = reg.counter("kona.fpga.remote_fetches");
    Counter &b = reg.counter("kona.fpga.remote_fetches");
    EXPECT_EQ(&a, &b);
    a.add(3);
    EXPECT_EQ(reg.counterValue("kona.fpga.remote_fetches"), 3u);
    EXPECT_EQ(reg.counterValue("never.registered"), 0u);
    EXPECT_EQ(reg.findCounter("never.registered"), nullptr);

    LatencyHistogram &h1 = reg.histogram("x.lat");
    LatencyHistogram &h2 = reg.histogram("x.lat");
    EXPECT_EQ(&h1, &h2);
}

TEST(MetricScope, PrefixesComposeAndDefaultScopeIsPrivate)
{
    auto reg = std::make_shared<MetricRegistry>();
    MetricScope root(reg, "kona");
    MetricScope fpga = root.sub("fpga");
    EXPECT_EQ(fpga.qualify("remote_fetches"),
              "kona.fpga.remote_fetches");
    fpga.counter("remote_fetches").add();
    EXPECT_EQ(reg->counterValue("kona.fpga.remote_fetches"), 1u);

    // Default-constructed scopes own a fresh private registry, so
    // standalone components need no wiring.
    MetricScope standalone;
    ASSERT_NE(standalone.registry(), nullptr);
    EXPECT_NE(standalone.registry().get(), reg.get());
    EXPECT_EQ(standalone.qualify("hits"), "hits");
}

TEST(Gauge, SetAddReset)
{
    Gauge g;
    g.set(2.5);
    g.add(1.5);
    EXPECT_DOUBLE_EQ(g.value(), 4.0);
    g.reset();
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(MetricRegistry, JsonExportIsValidAndComplete)
{
    MetricRegistry reg;
    reg.counter("a.count").add(7);
    reg.gauge("b.level").set(1.25);
    LatencyHistogram &h = reg.histogram("c.lat_ns");
    for (int i = 0; i < 10; ++i)
        h.record(64.0);
    reg.counter("needs\"escaping\\too").add(1);

    auto doc = parseJson(reg.toJson());
    ASSERT_TRUE(doc.has_value()) << reg.toJson();
    ASSERT_EQ(doc->kind, JsonValue::Object);
    const JsonValue *counters = doc->find("counters");
    const JsonValue *gauges = doc->find("gauges");
    const JsonValue *histograms = doc->find("histograms");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(gauges, nullptr);
    ASSERT_NE(histograms, nullptr);
    EXPECT_DOUBLE_EQ(counters->find("a.count")->number, 7.0);
    EXPECT_NE(counters->find("needs\"escaping\\too"), nullptr);
    EXPECT_DOUBLE_EQ(gauges->find("b.level")->number, 1.25);
    const JsonValue *lat = histograms->find("c.lat_ns");
    ASSERT_NE(lat, nullptr);
    EXPECT_DOUBLE_EQ(lat->find("count")->number, 10.0);
    EXPECT_DOUBLE_EQ(lat->find("mean")->number, 64.0);
    EXPECT_DOUBLE_EQ(lat->find("p50")->number, 64.0);
    EXPECT_DOUBLE_EQ(lat->find("max")->number, 64.0);
}

TEST(MetricRegistry, EmptyRegistryExportsValidJson)
{
    MetricRegistry reg;
    auto doc = parseJson(reg.toJson());
    ASSERT_TRUE(doc.has_value());
    EXPECT_NE(doc->find("counters"), nullptr);
    EXPECT_NE(doc->find("gauges"), nullptr);
    EXPECT_NE(doc->find("histograms"), nullptr);
}

// ---------------------------------------------------------------------
// TraceSession mechanics.
// ---------------------------------------------------------------------

TEST(TraceSession, DisabledSessionRecordsNothingThroughSpans)
{
    TraceSession session;
    SimClock clock;
    {
        Span s(&session, clock, "ignored", "test");
        s.arg("k", std::uint64_t{1});
        clock.advance(10);
    }
    {
        Span s(nullptr, clock, "ignored", "test");
        clock.advance(10);
    }
    EXPECT_EQ(session.size(), 0u);
}

TEST(TraceSession, SpanRecordsSimTimeAndArgs)
{
    TraceSession session;
    session.enable();
    SimClock clock;
    clock.advance(500);
    {
        Span s(&session, clock, "fetch", "miss");
        s.arg("addr", std::uint64_t{4096});
        s.arg("outcome", "hit");
        clock.advance(250);
    }
    ASSERT_EQ(session.size(), 1u);
    TraceEvent ev = session.snapshot()[0];
    EXPECT_STREQ(ev.name, "fetch");
    EXPECT_STREQ(ev.cat, "miss");
    EXPECT_EQ(ev.ts, 500u);
    EXPECT_EQ(ev.dur, 250u);
    ASSERT_EQ(ev.args.size(), 2u);
    EXPECT_STREQ(ev.args[0].key, "addr");
    EXPECT_EQ(ev.args[0].number, 4096u);
    EXPECT_EQ(ev.args[0].text, nullptr);
    EXPECT_STREQ(ev.args[1].text, "hit");
}

TEST(TraceSession, FlightRecorderDropsOldestWhenFull)
{
    TraceSession session(4);
    session.enable();
    for (std::uint64_t i = 0; i < 6; ++i) {
        TraceEvent ev;
        ev.name = "e";
        ev.cat = "t";
        ev.ts = i;
        session.record(std::move(ev));
    }
    EXPECT_EQ(session.size(), 4u);
    EXPECT_EQ(session.dropped(), 2u);
    auto events = session.snapshot();
    ASSERT_EQ(events.size(), 4u);
    // Oldest first, and the two oldest events (ts 0, 1) are gone.
    EXPECT_EQ(events.front().ts, 2u);
    EXPECT_EQ(events.back().ts, 5u);
}

TEST(TraceSession, CrashDumpFiresOnPanic)
{
    std::string path = ::testing::TempDir() + "kona_crash_dump.json";
    std::remove(path.c_str());
    {
        TraceSession session;
        session.enable();
        session.setCrashDumpPath(path);
        SimClock clock;
        {
            Span s(&session, clock, "doomed", "test");
            clock.advance(7);
        }
        EXPECT_THROW(panic("telemetry crash-dump test"), PanicError);
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "flight recorder was not dumped";
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto doc = parseJson(buffer.str());
    ASSERT_TRUE(doc.has_value());
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    bool sawDoomed = false;
    for (const JsonValue &ev : events->array) {
        const JsonValue *name = ev.find("name");
        sawDoomed |= name != nullptr && name->str == "doomed";
    }
    EXPECT_TRUE(sawDoomed);
    std::remove(path.c_str());
}

TEST(TraceSession, CrashDumpAlsoFiresOnFatal)
{
    std::string path = ::testing::TempDir() + "kona_fatal_dump.json";
    std::remove(path.c_str());
    {
        TraceSession session;
        session.enable();
        session.setCrashDumpPath(path);
        SimClock clock;
        {
            Span s(&session, clock, "pre-fatal", "test");
            clock.advance(1);
        }
        EXPECT_THROW(fatal("telemetry fatal-dump test"), FatalError);
    }
    std::ifstream in(path);
    EXPECT_TRUE(in.good());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Whole-stack telemetry: registry vs legacy stats structs, span trees.
// ---------------------------------------------------------------------

/** A small rack + Kona stack registering into a shared registry. */
struct TelemetryRig
{
    explicit TelemetryRig(KonaConfig cfg = smallConfig())
        : registry(std::make_shared<MetricRegistry>()),
          fabric(LatencyConfig{}, MetricScope(registry, "fabric")),
          controller(1 * MiB, MetricScope(registry, "rack"))
    {
        for (NodeId id = 1; id <= 3; ++id) {
            nodes.push_back(std::make_unique<MemoryNode>(
                fabric, id, 64 * MiB, 4 * MiB,
                MetricScope(registry,
                            "rack.node" + std::to_string(id))));
            controller.registerNode(*nodes.back());
        }
        runtime = std::make_unique<KonaRuntime>(
            fabric, controller, 0, cfg,
            MetricScope(registry, "kona"));
    }

    static KonaConfig
    smallConfig()
    {
        KonaConfig cfg;
        cfg.fpga.vfmemSize = 64 * MiB;
        cfg.fpga.fmemSize = 1 * MiB;
        cfg.hierarchy = HierarchyConfig::scaled();
        return cfg;
    }

    /** Touch enough pages to force remote fetches and evictions. */
    void
    churn()
    {
        Addr a = runtime->allocate(4 * MiB, pageSize);
        for (Addr off = 0; off < 4 * MiB; off += pageSize)
            runtime->store<std::uint64_t>(a + off, off);
        for (Addr off = 0; off < 4 * MiB; off += pageSize)
            (void)runtime->load<std::uint64_t>(a + off);
        runtime->writebackAll();
    }

    std::shared_ptr<MetricRegistry> registry;
    Fabric fabric;
    Controller controller;
    std::vector<std::unique_ptr<MemoryNode>> nodes;
    std::unique_ptr<KonaRuntime> runtime;
};

TEST(KonaTelemetry, RegistryAggregatesExactlyMatchRuntimeStats)
{
    TelemetryRig rig;
    rig.churn();

    RuntimeStats s = rig.runtime->stats();
    const MetricRegistry &reg = *rig.registry;
    EXPECT_GT(s.remoteFetches, 0u);
    EXPECT_GT(s.pagesEvicted, 0u);

    EXPECT_EQ(s.reads, reg.counterValue("kona.cn0.reads"));
    EXPECT_EQ(s.writes, reg.counterValue("kona.cn0.writes"));
    EXPECT_EQ(s.bytesRead, reg.counterValue("kona.cn0.bytes_read"));
    EXPECT_EQ(s.bytesWritten, reg.counterValue("kona.cn0.bytes_written"));
    EXPECT_EQ(s.remoteFetches,
              reg.counterValue("kona.cn0.fpga.remote_fetches"));
    EXPECT_EQ(s.pagesEvicted,
              reg.counterValue("kona.cn0.evict.pages_evicted"));
    EXPECT_EQ(s.silentEvictions,
              reg.counterValue("kona.cn0.evict.silent_evictions"));
    EXPECT_EQ(s.dirtyLinesWritten,
              reg.counterValue("kona.cn0.evict.dirty_lines_written"));
    EXPECT_EQ(s.evictionBytesOnWire,
              reg.counterValue("kona.cn0.evict.bytes_on_wire"));
    EXPECT_EQ(s.retries,
              reg.counterValue("kona.cn0.outage_retries") +
                  reg.counterValue("kona.cn0.evict.retry_backoffs"));
    EXPECT_EQ(s.retransmits,
              reg.counterValue("kona.cn0.evict.log_retransmits"));
    EXPECT_EQ(s.replicaPromotions,
              reg.counterValue("kona.cn0.fpga.replica_promotions") +
                  reg.counterValue("kona.cn0.rebuild_promotions"));

    // The same registry also carries the rack side of the run.
    EXPECT_GT(reg.counterValue("fabric.bytes_moved"), 0u);
    std::uint64_t linesReceived = 0;
    for (NodeId id = 1; id <= 3; ++id) {
        linesReceived += reg.counterValue(
            "rack.node" + std::to_string(id) + ".lines_received");
    }
    EXPECT_EQ(linesReceived, s.dirtyLinesWritten);
}

TEST(KonaTelemetry, StatsAndReliabilityShareOneSource)
{
    TelemetryRig rig([] {
        KonaConfig cfg = TelemetryRig::smallConfig();
        cfg.failurePolicy = FailurePolicy::WaitRetry;
        cfg.retry.initialBackoffNs = 50'000;
        return cfg;
    }());

    Addr a = rig.runtime->allocate(4 * pageSize, pageSize);
    rig.runtime->store<std::uint64_t>(a, 42);
    rig.runtime->writebackAll();

    // Outage: every node down until the third backoff, so the miss
    // path accumulates real retries.
    for (auto &node : rig.nodes)
        rig.fabric.setNodeDown(node->id(), true);
    rig.runtime->setOutageObserver([&rig](std::size_t attempt) {
        if (attempt >= 2) {
            for (auto &node : rig.nodes)
                rig.fabric.setNodeDown(node->id(), false);
        }
    });
    EXPECT_EQ(rig.runtime->load<std::uint64_t>(a), 42u);

    RuntimeStats s = rig.runtime->stats();
    ReliabilityStats r = rig.runtime->reliability();
    EXPECT_GT(s.retries, 0u);
    // The de-duplicated counters: both snapshots are views over the
    // same registry-backed sources and can never diverge.
    EXPECT_EQ(s.retries, r.retries);
    EXPECT_EQ(s.retransmits, r.retransmits);
    EXPECT_EQ(s.replicaPromotions, r.replicaPromotions);
    EXPECT_EQ(s.retries,
              rig.registry->counterValue("kona.cn0.outage_retries") +
                  rig.registry->counterValue(
                      "kona.cn0.evict.retry_backoffs"));
}

/** Find all events named @p name in @p events. */
std::vector<TraceEvent>
eventsNamed(const std::vector<TraceEvent> &events, const char *name)
{
    std::vector<TraceEvent> out;
    for (const TraceEvent &ev : events) {
        if (std::string_view(ev.name) == name)
            out.push_back(ev);
    }
    return out;
}

/** True when @p inner lies within @p outer's [ts, ts+dur] interval. */
bool
nestedIn(const TraceEvent &inner, const TraceEvent &outer)
{
    return inner.ts >= outer.ts &&
           inner.ts + inner.dur <= outer.ts + outer.dur;
}

TEST(KonaTelemetry, MissPathEmitsCompleteSpanTree)
{
    TelemetryRig rig;
    TraceSession *trace = rig.runtime->traceSession();
    ASSERT_NE(trace, nullptr);
    trace->enable();

    // One cold load: miss -> serve_line -> fetch_page -> rdma_read.
    Addr a = rig.runtime->allocate(pageSize, pageSize);
    (void)rig.runtime->load<std::uint64_t>(a);

    auto events = trace->snapshot();
    auto misses = eventsNamed(events, "miss");
    auto serves = eventsNamed(events, "serve_line");
    auto fetches = eventsNamed(events, "fetch_page");
    auto rdmaReads = eventsNamed(events, "rdma_read");
    ASSERT_EQ(misses.size(), 1u);
    ASSERT_GE(serves.size(), 1u);
    ASSERT_GE(fetches.size(), 1u);
    ASSERT_GE(rdmaReads.size(), 1u);

    const TraceEvent &miss = misses[0];
    EXPECT_EQ(miss.tid, traceAppThread);
    EXPECT_GT(miss.dur, 0u);
    EXPECT_TRUE(nestedIn(serves[0], miss));
    EXPECT_TRUE(nestedIn(fetches[0], serves[0]));
    EXPECT_TRUE(nestedIn(rdmaReads[0], fetches[0]));

    // Span args carry the access address and transfer size.
    bool sawAddr = false;
    for (const TraceArg &arg : miss.args)
        sawAddr |= std::string_view(arg.key) == "addr";
    EXPECT_TRUE(sawAddr);
    bool sawBytes = false;
    for (const TraceArg &arg : rdmaReads[0].args)
        sawBytes |= std::string_view(arg.key) == "bytes";
    EXPECT_TRUE(sawBytes);
}

TEST(KonaTelemetry, EvictionPathEmitsCompleteSpanTree)
{
    TelemetryRig rig;
    TraceSession *trace = rig.runtime->traceSession();
    ASSERT_NE(trace, nullptr);

    // Dirty a few pages first, then trace only the eviction batch.
    Addr a = rig.runtime->allocate(8 * pageSize, pageSize);
    for (int p = 0; p < 8; ++p)
        rig.runtime->store<std::uint64_t>(a + p * pageSize, p + 1);
    trace->enable();
    rig.runtime->writebackAll();

    auto events = trace->snapshot();
    auto batches = eventsNamed(events, "evict_batch");
    auto scans = eventsNamed(events, "bitmap_scan");
    auto packs = eventsNamed(events, "pack");
    auto wires = eventsNamed(events, "wire");
    auto unpacks = eventsNamed(events, "unpack");
    auto acks = eventsNamed(events, "ack");
    ASSERT_GE(batches.size(), 1u);
    ASSERT_GE(scans.size(), 1u);
    ASSERT_GE(packs.size(), 1u);
    ASSERT_GE(wires.size(), 1u);
    ASSERT_GE(unpacks.size(), 1u);
    ASSERT_GE(acks.size(), 1u);

    // Find the batch that shipped data (dirty_pages > 0) and check
    // each stage nests inside it.
    const TraceEvent *shipping = nullptr;
    for (const TraceEvent &batch : batches) {
        for (const TraceArg &arg : batch.args) {
            if (std::string_view(arg.key) == "dirty_pages" &&
                arg.number != 0)
                shipping = &batch;
        }
    }
    ASSERT_NE(shipping, nullptr);
    bool scanNested = false, wireNested = false, unpackNested = false;
    for (const TraceEvent &ev : scans)
        scanNested |= nestedIn(ev, *shipping);
    for (const TraceEvent &ev : wires)
        wireNested |= nestedIn(ev, *shipping);
    for (const TraceEvent &ev : unpacks)
        unpackNested |= nestedIn(ev, *shipping);
    EXPECT_TRUE(scanNested);
    EXPECT_TRUE(wireNested);
    EXPECT_TRUE(unpackNested);

    // The receiver's unpack renders on the memory node's lane.
    bool nodeLane = false;
    for (const TraceEvent &ev : unpacks)
        nodeLane |= ev.tid >= 100;
    EXPECT_TRUE(nodeLane);
}

TEST(KonaTelemetry, TraceJsonIsValidChromeTraceFormat)
{
    TelemetryRig rig;
    TraceSession *trace = rig.runtime->traceSession();
    trace->enable();
    rig.churn();

    auto doc = parseJson(trace->toJson());
    ASSERT_TRUE(doc.has_value()) << "trace JSON did not parse";
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, JsonValue::Array);
    ASSERT_GT(events->array.size(), 10u);

    std::size_t complete = 0;
    for (const JsonValue &ev : events->array) {
        const JsonValue *ph = ev.find("ph");
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(ev.find("name"), nullptr);
        ASSERT_NE(ev.find("pid"), nullptr);
        ASSERT_NE(ev.find("tid"), nullptr);
        if (ph->str == "X") {
            ++complete;
            ASSERT_NE(ev.find("ts"), nullptr);
            ASSERT_NE(ev.find("dur"), nullptr);
            ASSERT_NE(ev.find("cat"), nullptr);
        } else {
            EXPECT_EQ(ph->str, "M");   // metadata only otherwise
        }
    }
    EXPECT_GT(complete, 0u);
    const JsonValue *other = doc->find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_NE(other->find("droppedEvents"), nullptr);
}

TEST(VmTelemetry, RegistryAggregatesExactlyMatchRuntimeStats)
{
    auto registry = std::make_shared<MetricRegistry>();
    Fabric fabric(LatencyConfig{}, MetricScope(registry, "fabric"));
    Controller controller(1 * MiB, MetricScope(registry, "rack"));
    std::vector<std::unique_ptr<MemoryNode>> nodes;
    for (NodeId id = 1; id <= 2; ++id) {
        nodes.push_back(std::make_unique<MemoryNode>(
            fabric, id, 64 * MiB, 4 * MiB,
            MetricScope(registry, "rack.node" + std::to_string(id))));
        controller.registerNode(*nodes.back());
    }
    VmConfig cfg;
    cfg.localCachePages = 64;
    cfg.hierarchy = HierarchyConfig::scaled();
    VmRuntime runtime(fabric, controller, 0, cfg,
                      MetricScope(registry, "vm"));

    Addr a = runtime.allocate(512 * pageSize, pageSize);
    for (int p = 0; p < 512; ++p)
        runtime.store<std::uint64_t>(a + p * pageSize, p);
    runtime.writebackAll();

    RuntimeStats s = runtime.stats();
    EXPECT_GT(s.majorFaults, 0u);
    EXPECT_GT(s.pagesEvicted, 0u);
    EXPECT_EQ(s.reads, registry->counterValue("vm.reads"));
    EXPECT_EQ(s.writes, registry->counterValue("vm.writes"));
    EXPECT_EQ(s.majorFaults,
              registry->counterValue("vm.major_faults"));
    EXPECT_EQ(s.minorFaults,
              registry->counterValue("vm.minor_faults"));
    EXPECT_EQ(s.tlbShootdowns,
              registry->counterValue("vm.tlb_shootdowns"));
    EXPECT_EQ(s.pagesEvicted,
              registry->counterValue("vm.pages_evicted"));
    EXPECT_EQ(s.evictionBytesOnWire,
              registry->counterValue("vm.bytes_on_wire"));
    EXPECT_EQ(s.retries, registry->counterValue("vm.fault_retries"));

    // Fault latencies feed the registry histogram.
    const LatencyHistogram *faultNs =
        registry->findHistogram("vm.major_fault_ns");
    ASSERT_NE(faultNs, nullptr);
    EXPECT_EQ(faultNs->count(), s.majorFaults);
    EXPECT_GT(faultNs->p50(), 0.0);
}

TEST(VmTelemetry, FaultPathEmitsSpans)
{
    VmConfig cfg;
    cfg.localCachePages = 64;
    cfg.hierarchy = HierarchyConfig::scaled();
    Fabric fabric;
    Controller controller(1 * MiB);
    MemoryNode node(fabric, 1, 64 * MiB);
    controller.registerNode(node);
    VmRuntime runtime(fabric, controller, 0, cfg);
    TraceSession *trace = runtime.traceSession();
    ASSERT_NE(trace, nullptr);
    trace->enable();

    Addr a = runtime.allocate(128 * pageSize, pageSize);
    for (int p = 0; p < 128; ++p)
        runtime.store<std::uint64_t>(a + p * pageSize, p);

    auto events = trace->snapshot();
    EXPECT_GE(eventsNamed(events, "major_fault").size(), 1u);
    EXPECT_GE(eventsNamed(events, "minor_fault").size(), 1u);
    EXPECT_GE(eventsNamed(events, "writeback_page").size(), 1u);
}

} // namespace
} // namespace kona
