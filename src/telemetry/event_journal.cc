#include "telemetry/event_journal.h"

#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/logging.h"

namespace kona {

const char *
journalKindName(JournalKind kind)
{
    switch (kind) {
    case JournalKind::HealthTransition:
        return "health_transition";
    case JournalKind::NodeRemoved:
        return "node_removed";
    case JournalKind::DrainStart:
        return "drain_start";
    case JournalKind::JoinStart:
        return "join_start";
    case JournalKind::JoinComplete:
        return "join_complete";
    case JournalKind::StaleHomeMark:
        return "stale_home_mark";
    case JournalKind::RetriesExhausted:
        return "retries_exhausted";
    case JournalKind::RingFullStall:
        return "ring_full_stall";
    }
    return "unknown";
}

const char *
journalHealthName(std::uint64_t state)
{
    // Follows NodeHealth's declaration order; the test
    // EventJournal.HealthNamesPinControllerStateOrder pins the two.
    static const char *const names[] = {
        "healthy",    "suspect", "quarantined", "readmitted",
        "joining",    "draining", "failed",
    };
    constexpr std::uint64_t n = sizeof(names) / sizeof(names[0]);
    return state < n ? names[state] : "unknown";
}

EventJournal::EventJournal(std::size_t capacity, MetricScope scope)
    : scope_(std::move(scope)),
      recorded_(scope_.counter("events_recorded")),
      dropped_(scope_.counter("events_dropped"))
{
    ring_.resize(capacity == 0 ? 1 : capacity);
}

void
EventJournal::record(Tick ts, JournalKind kind, NodeId node,
                     std::uint64_t a, std::uint64_t b, std::uint64_t epoch)
{
    JournalEvent ev;
    ev.ts = ts;
    ev.kind = kind;
    ev.node = node;
    ev.a = a;
    ev.b = b;
    ev.epoch = epoch;

    if (size_ < ring_.size()) {
        ring_[(head_ + size_) % ring_.size()] = ev;
        ++size_;
    } else {
        ring_[head_] = ev;
        head_ = (head_ + 1) % ring_.size();
        dropped_.add();
    }
    recorded_.add();
}

const JournalEvent &
EventJournal::event(std::size_t i) const
{
    KONA_ASSERT(i < size_, "EventJournal::event(", i, ") of ", size_);
    return ring_[(head_ + i) % ring_.size()];
}

std::vector<JournalEvent>
EventJournal::snapshot() const
{
    std::vector<JournalEvent> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i)
        out.push_back(event(i));
    return out;
}

void
EventJournal::writeEventJson(std::ostream &os, const JournalEvent &e)
{
    os << "{\"ts_ns\": " << e.ts << ", \"event\": \""
       << journalKindName(e.kind) << "\", ";
    writeEventFields(os, e);
    os << "}";
}

void
EventJournal::writeEventFields(std::ostream &os, const JournalEvent &e)
{
    os << "\"node\": " << e.node;
    switch (e.kind) {
    case JournalKind::HealthTransition:
        os << ", \"from\": \"" << journalHealthName(e.a) << "\", \"to\": \""
           << journalHealthName(e.b) << "\"";
        break;
    case JournalKind::StaleHomeMark:
        os << ", \"vpn\": " << e.a << ", \"mask\": " << e.b;
        break;
    case JournalKind::RetriesExhausted:
        os << ", \"batch\": " << e.a << ", \"sends\": " << e.b;
        break;
    case JournalKind::RingFullStall:
        os << ", \"batch\": " << e.a;
        break;
    case JournalKind::NodeRemoved:
    case JournalKind::DrainStart:
    case JournalKind::JoinStart:
    case JournalKind::JoinComplete:
        break;
    }
    if (e.epoch != 0)
        os << ", \"epoch\": " << e.epoch;
}

void
EventJournal::writeEventsJsonl(std::ostream &os,
                               const std::vector<JournalEvent> &events)
{
    for (const JournalEvent &e : events) {
        writeEventJson(os, e);
        os << "\n";
    }
}

void
EventJournal::writeJsonl(std::ostream &os) const
{
    for (std::size_t i = 0; i < size_; ++i) {
        writeEventJson(os, event(i));
        os << "\n";
    }
}

std::string
EventJournal::toJsonl() const
{
    std::ostringstream oss;
    writeJsonl(oss);
    return oss.str();
}

bool
EventJournal::writeJsonlFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        warn("cannot open events output file ", path);
        return false;
    }
    writeJsonl(out);
    out.flush();
    if (!out) {
        warn("short write to events output file ", path);
        return false;
    }
    return true;
}

} // namespace kona
