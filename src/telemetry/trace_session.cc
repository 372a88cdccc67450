#include "telemetry/trace_session.h"

#include <algorithm>
#include <fstream>
#include <mutex>
#include <sstream>

#include "common/logging.h"
#include "telemetry/event_journal.h"
#include "telemetry/metric_registry.h"

namespace kona {

namespace {

/** Live sessions, for the crash-dump hook. */
std::mutex g_sessionsMutex;
std::vector<TraceSession *> g_sessions;

void
dumpAllFlightRecorders()
{
    std::vector<TraceSession *> sessions;
    {
        std::lock_guard<std::mutex> guard(g_sessionsMutex);
        sessions = g_sessions;
    }
    for (TraceSession *session : sessions) {
        if (!session->crashDumpPath().empty() && session->size() > 0)
            session->writeJsonFile(session->crashDumpPath());
    }
}

void
registerSession(TraceSession *session)
{
    std::lock_guard<std::mutex> guard(g_sessionsMutex);
    g_sessions.push_back(session);
    static bool hookInstalled = false;
    if (!hookInstalled) {
        hookInstalled = true;
        setCrashHook(&dumpAllFlightRecorders);
    }
}

void
unregisterSession(TraceSession *session)
{
    std::lock_guard<std::mutex> guard(g_sessionsMutex);
    g_sessions.erase(
        std::remove(g_sessions.begin(), g_sessions.end(), session),
        g_sessions.end());
}

} // namespace

TraceSession::TraceSession(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{
    registerSession(this);
}

TraceSession::~TraceSession()
{
    unregisterSession(this);
}

void
TraceSession::setCapacity(std::size_t capacity)
{
    capacity_ = capacity == 0 ? 1 : capacity;
    clear();
}

void
TraceSession::clear()
{
    events_.clear();
    events_.shrink_to_fit();
    head_ = 0;
    dropped_ = 0;
}

void
TraceSession::record(TraceEvent ev)
{
    if (events_.size() < capacity_) {
        events_.push_back(std::move(ev));
        return;
    }
    // Flight recorder: overwrite the oldest event.
    events_[head_] = std::move(ev);
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
    if (droppedCounter_ != nullptr)
        droppedCounter_->add();
}

void
TraceSession::setCrashDumpPath(std::string path)
{
    crashDumpPath_ = std::move(path);
}

std::vector<TraceEvent>
TraceSession::snapshot() const
{
    std::vector<TraceEvent> out;
    out.reserve(events_.size());
    for (std::size_t i = 0; i < events_.size(); ++i)
        out.push_back(events_[(head_ + i) % events_.size()]);
    return out;
}

namespace {

/** Chrome trace timestamps are in microseconds. */
void
writeMicros(std::ostream &os, Tick ns)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    os << buf;
}

void
writeThreadName(std::ostream &os, std::uint32_t tid,
                const std::string &name, bool &first)
{
    os << (first ? "\n" : ",\n")
       << "    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
          "\"tid\": " << tid << ", \"args\": {\"name\": \""
       << jsonEscape(name) << "\"}}";
    first = false;
}

} // namespace

void
TraceSession::writeJson(std::ostream &os) const
{
    os << "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [";
    bool first = true;

    // Metadata: name the process and every sim-thread lane we used.
    os << (first ? "\n" : ",\n")
       << "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
          "\"tid\": 0, \"args\": {\"name\": \"kona-sim\"}}";
    first = false;
    const bool instants = journal_ != nullptr && !journal_->empty();
    std::vector<std::uint32_t> tids;
    if (instants)
        tids.push_back(traceAppThread);
    for (const TraceEvent &ev : events_) {
        if (std::find(tids.begin(), tids.end(), ev.tid) == tids.end())
            tids.push_back(ev.tid);
    }
    std::sort(tids.begin(), tids.end());
    for (std::uint32_t tid : tids) {
        std::string name;
        if (tid == traceAppThread)
            name = "app critical path";
        else if (tid == traceBackgroundThread)
            name = "background";
        else if (tid >= 100)
            name = "memory node " + std::to_string(tid - 100) +
                   " receiver";
        else
            name = "sim thread " + std::to_string(tid);
        writeThreadName(os, tid, name, first);
    }

    for (const TraceEvent &ev : snapshot()) {
        os << ",\n    {\"name\": \"" << jsonEscape(ev.name)
           << "\", \"cat\": \"" << jsonEscape(ev.cat)
           << "\", \"ph\": \"X\", \"ts\": ";
        writeMicros(os, ev.ts);
        os << ", \"dur\": ";
        writeMicros(os, ev.dur);
        os << ", \"pid\": 1, \"tid\": " << ev.tid;
        if (!ev.args.empty()) {
            os << ", \"args\": {";
            bool firstArg = true;
            for (const TraceArg &arg : ev.args) {
                if (!firstArg)
                    os << ", ";
                os << "\"" << jsonEscape(arg.key) << "\": ";
                if (arg.text != nullptr)
                    os << "\"" << jsonEscape(arg.text) << "\"";
                else
                    os << arg.number;
                firstArg = false;
            }
            os << "}";
        }
        os << "}";
    }
    // Instants carry a scope instead of a duration; "t" pins each
    // marker to the app lane.
    for (std::size_t i = 0; instants && i < journal_->size(); ++i) {
        const JournalEvent &e = journal_->event(i);
        os << ",\n    {\"name\": \"" << journalKindName(e.kind)
           << "\", \"cat\": \"journal\", \"ph\": \"i\", \"ts\": ";
        writeMicros(os, e.ts);
        os << ", \"s\": \"t\", \"pid\": 1, \"tid\": " << traceAppThread
           << ", \"args\": {";
        EventJournal::writeEventFields(os, e);
        os << "}}";
    }
    os << "\n  ],\n  \"otherData\": {\"droppedEvents\": " << dropped_
       << "}\n}\n";
}

std::string
TraceSession::toJson() const
{
    std::ostringstream oss;
    writeJson(oss);
    return oss.str();
}

bool
TraceSession::writeJsonFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        warn("cannot open trace output file ", path);
        return false;
    }
    writeJson(out);
    out.flush();
    if (!out) {
        warn("short write to trace output file ", path);
        return false;
    }
    return true;
}

} // namespace kona
