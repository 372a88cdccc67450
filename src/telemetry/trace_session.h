/**
 * @file
 * TraceSession + Span: sim-time span tracing for the miss and eviction
 * critical paths, exported as Chrome trace-event JSON (loadable in
 * Perfetto / chrome://tracing).
 *
 * Spans are RAII: construct one against a SimClock at the top of a
 * path stage, attach args (address, bytes, dirty lines, retry count),
 * and its destructor records a complete ("ph":"X") event spanning the
 * simulated nanoseconds the stage charged to that clock. Stages on the
 * same clock nest naturally, so Perfetto renders the miss path as a
 * tree: access.miss -> fpga.serve_line -> fpga.fetch_page -> rdma.read.
 *
 * The session holds a bounded flight-recorder ring buffer: when full,
 * the oldest events are dropped (dropped() counts them), so tracing a
 * long run keeps the most recent window — exactly what you want when
 * panic()/fatal() fires and the ring is dumped automatically (see
 * setCrashDumpPath).
 *
 * Tracing is off by default; a disabled session makes Span
 * construction a pointer check with no allocation, so instrumented hot
 * paths stay hot.
 *
 * The ring holds spans only. A session may also point at its rack's
 * EventJournal (setJournal); writeJson() then appends every retained
 * journal event as a Chrome instant ("ph":"i") on the app lane, so
 * membership and eviction events show as markers on the span timeline
 * without a second copy of them being kept while the run goes.
 */

#ifndef KONA_TELEMETRY_TRACE_SESSION_H
#define KONA_TELEMETRY_TRACE_SESSION_H

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "common/types.h"

namespace kona {

class Counter;
class EventJournal;

/** Logical sim-thread ids used as Chrome trace "tid"s. */
constexpr std::uint32_t traceAppThread = 1;        ///< app critical path
constexpr std::uint32_t traceBackgroundThread = 2; ///< background pumps

/** Per-memory-node receiver threads. */
inline std::uint32_t
traceNodeThread(NodeId node)
{
    return 100 + static_cast<std::uint32_t>(node);
}

/** One argument attached to a span: a number or a static string. */
struct TraceArg
{
    TraceArg(const char *k, std::uint64_t n) : key(k), number(n) {}
    TraceArg(const char *k, const char *s) : key(k), text(s) {}

    const char *key;               ///< string literal (not owned)
    std::uint64_t number = 0;      ///< the value when @ref text is null
    const char *text = nullptr;    ///< static string value (not owned)
};

/** One complete span ("ph":"X"). Times in simulated ns. */
struct TraceEvent
{
    const char *name = "";  ///< string literal (not owned)
    const char *cat = "";   ///< string literal (not owned)
    Tick ts = 0;
    Tick dur = 0;
    std::uint32_t tid = traceAppThread;
    std::vector<TraceArg> args;
};

/** Bounded sim-time trace recorder with crash dumping. */
class TraceSession
{
  public:
    /** @param capacity Flight-recorder ring size, in events. */
    explicit TraceSession(std::size_t capacity = 1 << 16);
    ~TraceSession();

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    /** Master switch; spans against a disabled session are free. */
    void enable(bool on = true) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Resize the ring (drops recorded events). */
    void setCapacity(std::size_t capacity);
    std::size_t capacity() const { return capacity_; }

    /** Append an event, dropping the oldest when the ring is full. */
    void record(TraceEvent ev);

    std::size_t size() const { return events_.size(); }
    std::uint64_t dropped() const { return dropped_; }
    void clear();

    /** Mirror the dropped-event count into a registry counter so
     *  flight-recorder truncation is visible instead of silent. */
    void bindDroppedCounter(Counter *counter)
    {
        droppedCounter_ = counter;
    }

    /** Write @p journal's retained events as instants in every JSON
     *  export, crash dumps included (nullptr: spans only). */
    void setJournal(const EventJournal *journal) { journal_ = journal; }

    /**
     * Dump the ring to @p path automatically when panic() or fatal()
     * fires (the crash hook covers every live session that set a
     * path). Empty string disables.
     */
    void setCrashDumpPath(std::string path);
    const std::string &crashDumpPath() const { return crashDumpPath_; }

    /** Spans in record order (oldest first). */
    std::vector<TraceEvent> snapshot() const;

    /** Chrome trace-event JSON ({"traceEvents": [...]}): the spans,
     *  then one instant per retained journal event. */
    void writeJson(std::ostream &os) const;
    std::string toJson() const;

    /** Write JSON to @p path; warns and returns false on I/O error. */
    bool writeJsonFile(const std::string &path) const;

  private:
    bool enabled_ = false;
    std::size_t capacity_;
    std::size_t head_ = 0;          ///< index of the oldest event
    std::vector<TraceEvent> events_; ///< ring storage (<= capacity_)
    std::uint64_t dropped_ = 0;
    Counter *droppedCounter_ = nullptr;
    const EventJournal *journal_ = nullptr;
    std::string crashDumpPath_;
};

/**
 * RAII span over a SimClock: start = clock at construction, duration =
 * simulated time the guarded scope charged to the clock.
 */
class Span
{
  public:
    /**
     * @param session Recording session (nullptr / disabled = no-op).
     * @param clock The sim clock this path stage charges.
     * @param name Span name — must be a string literal.
     * @param cat Category (e.g. "miss", "evict") — string literal.
     * @param tid Logical sim-thread lane for Perfetto rendering.
     */
    Span(TraceSession *session, const SimClock &clock, const char *name,
         const char *cat, std::uint32_t tid = traceAppThread)
    {
        if (session != nullptr && session->enabled()) {
            session_ = session;
            clock_ = &clock;
            event_.name = name;
            event_.cat = cat;
            event_.tid = tid;
            event_.ts = clock.now();
        }
    }

    ~Span() { end(); }

    /** Close the span now instead of at scope exit. */
    void
    end()
    {
        if (session_ != nullptr) {
            event_.dur = clock_->now() - event_.ts;
            session_->record(std::move(event_));
            session_ = nullptr;
        }
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Whether this span is recording (cheap early-out for args). */
    bool active() const { return session_ != nullptr; }

    void
    arg(const char *key, std::uint64_t value)
    {
        if (active())
            event_.args.emplace_back(key, value);
    }

    /** @param value A string literal or other static name. */
    void
    arg(const char *key, const char *value)
    {
        if (active())
            event_.args.emplace_back(key, value);
    }

  private:
    TraceSession *session_ = nullptr;
    const SimClock *clock_ = nullptr;
    TraceEvent event_;
};

} // namespace kona

#endif // KONA_TELEMETRY_TRACE_SESSION_H
