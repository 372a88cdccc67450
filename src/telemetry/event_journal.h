/**
 * @file
 * EventJournal: a fixed-capacity, sim-timestamped ring of structured
 * rack events.
 *
 * Counters say *how many* times something happened; the journal says
 * *when and in what order* — which is what makes a chaos run
 * explainable ("node 2 went suspect at 12.4ms, quarantined at 13.1ms,
 * the epoch bumped to 5, evictions to it gave up at 13.2ms"). It records
 * the control-plane transitions that PR 6 introduced: health-state
 * changes, membership-epoch bumps, drain/join lifecycle, stale-home
 * marks, retries-exhausted give-ups, and ring-full stalls.
 *
 * Design constraints mirror TraceSession's flight recorder:
 *  - fixed capacity, preallocated at construction; record() never
 *    allocates (PR 5's --strict-alloc covers runs with the journal on);
 *  - when full, the oldest event is overwritten and a dropped count
 *    (surfaced as a registry counter) makes the truncation visible;
 *  - events are POD (kind + node + two payload words + epoch), with one
 *    per-kind field writer (writeEventFields) shared by the JSONL export
 *    and the Chrome-trace instants a TraceSession writes at export.
 *
 * A rack keeps exactly one journal, owned by its Controller. Every
 * event carries the time its caller passes in: the app-clock now() of
 * the runtime whose operation caused it. The journal reads no clock of
 * its own, so under the parallel engine no shard reads another shard's
 * clock, and since every record happens inside a gated section the
 * journal is in canonical order at every thread count.
 */

#ifndef KONA_TELEMETRY_EVENT_JOURNAL_H
#define KONA_TELEMETRY_EVENT_JOURNAL_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.h"
#include "telemetry/metric_registry.h"

namespace kona {

/** What happened. Payload words a/b are kind-specific (see the table
 *  in journalKindName()'s implementation / the JSONL writer). */
enum class JournalKind : std::uint8_t {
    HealthTransition, ///< a = from state, b = to state (NodeHealth values)
    NodeRemoved,      ///< permanent membership removal (failure rebuild)
    DrainStart,       ///< operator drain began (a = pages resident hint)
    JoinStart,        ///< hot-add warm-up began
    JoinComplete,     ///< hot-add node now takes placements
    StaleHomeMark,    ///< a = vpn whose copy on `node` went stale, b = mask
    RetriesExhausted, ///< eviction shipment gave up; a = batch, b = sends
    RingFullStall,    ///< submit blocked on a full pipeline ring; a = batch
};

/** Stable lowercase name of @p kind (used as the JSONL "event" field
 *  and the Chrome-trace instant name). */
const char *journalKindName(JournalKind kind);

/** Name of a NodeHealth enum value as stored in a HealthTransition
 *  payload: the one state-name table (the Controller logs with it). */
const char *journalHealthName(std::uint64_t state);

/** One journal entry. */
struct JournalEvent
{
    Tick ts = 0;        ///< sim time (ns) when recorded
    JournalKind kind = JournalKind::HealthTransition;
    NodeId node = 0;    ///< the node the event is about
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t epoch = 0; ///< membership epoch after the event (0 = n/a)
};

/** Fixed-size ring of JournalEvents. */
class EventJournal
{
  public:
    /** @param scope Receives the events_recorded/events_dropped
     *         counters. */
    explicit EventJournal(std::size_t capacity = 4096,
                          MetricScope scope = {});

    /** Append an event stamped @p ts (the causing runtime's app-clock
     *  time); overwrites the oldest when full. Never allocates. */
    void record(Tick ts, JournalKind kind, NodeId node,
                std::uint64_t a = 0, std::uint64_t b = 0,
                std::uint64_t epoch = 0);

    std::size_t capacity() const { return ring_.size(); }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::uint64_t recorded() const { return recorded_.value(); }
    std::uint64_t dropped() const { return dropped_.value(); }

    /** The @p i-th retained event, oldest first. */
    const JournalEvent &event(std::size_t i) const;

    /** Retained events, oldest first. */
    std::vector<JournalEvent> snapshot() const;

    /** One JSON object per line, oldest first. */
    void writeJsonl(std::ostream &os) const;
    std::string toJsonl() const;
    bool writeJsonlFile(const std::string &path) const;

    /** Write @p events (e.g. a ChaosReport's journal copy) as JSONL. */
    static void writeEventsJsonl(std::ostream &os,
                                 const std::vector<JournalEvent> &events);

    /** One event as a JSON object (no trailing newline). */
    static void writeEventJson(std::ostream &os, const JournalEvent &e);

    /** The event's fields after its time and kind: "node", the
     *  kind-specific payload names, and "epoch" when set. */
    static void writeEventFields(std::ostream &os, const JournalEvent &e);

  private:
    std::vector<JournalEvent> ring_;
    std::size_t head_ = 0; ///< index of the oldest retained event
    std::size_t size_ = 0;
    MetricScope scope_; ///< keeps the counters' registry alive
    Counter &recorded_;
    Counter &dropped_;
};

} // namespace kona

#endif // KONA_TELEMETRY_EVENT_JOURNAL_H
