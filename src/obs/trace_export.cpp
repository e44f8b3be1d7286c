#include "obs/trace_export.h"

#include <algorithm>
#include <map>

#include "obs/coverage/coverage.h"
#include "support/json.h"
#include "support/str.h"

namespace conair::obs {

namespace {

const char *
kindCategory(EventKind k)
{
    switch (k) {
      case EventKind::ThreadSpawn:
      case EventKind::SchedSwitch:
      case EventKind::SchedPoint:
        return "sched";
      case EventKind::Checkpoint:
      case EventKind::Rollback:
      case EventKind::CompensationFree:
      case EventKind::CompensationUnlock:
      case EventKind::Backoff:
      case EventKind::RecoveryDone:
        return "recovery";
      case EventKind::LockAcquire:
      case EventKind::LockBlock:
      case EventKind::LockTimeout:
        return "lock";
      case EventKind::FailureSite:
        return "failure";
      case EventKind::ChaosRollback:
        return "chaos";
      case EventKind::SharedLoad:
      case EventKind::SharedStore:
        return "mem";
      case EventKind::CoverageNovel:
      case EventKind::CoverageSnapshot:
        return "coverage";
    }
    return "misc";
}

std::string
tsString(uint64_t clock, double microsPerTick)
{
    // One decimal is exact for the default 0.1 µs tick; fixed format
    // keeps the artifact byte-stable.
    return strfmt("%.1f", double(clock) * microsPerTick);
}

void
writeMetadata(JsonWriter &w, uint32_t pid, uint32_t tid,
              const char *metaName, const std::string &name)
{
    w.beginObject();
    w.key("name").value(metaName);
    w.key("ph").value("M");
    w.key("pid").value(pid);
    w.key("tid").value(tid);
    w.key("args").beginObject().key("name").value(name).endObject();
    w.endObject();
}

void
writeEventArgs(JsonWriter &w, const TraceEvent &ev)
{
    w.key("args").beginObject();
    w.key("a").value(ev.a);
    w.key("b").value(ev.b);
    w.key("step").value(ev.step);
    w.key("seq").value(ev.seq);
    if (ev.tag != kNoTag)
        w.key("tag").value(tagName(ev.tag));
    w.endObject();
}

void
writeInstant(JsonWriter &w, const TraceProcess &p, const TraceEvent &ev,
             double microsPerTick)
{
    w.beginObject();
    std::string name = eventKindName(ev.kind);
    if (ev.tag != kNoTag)
        name += " @" + tagName(ev.tag);
    w.key("name").value(name);
    w.key("cat").value(kindCategory(ev.kind));
    w.key("ph").value("i");
    w.key("s").value("t");
    w.key("ts").rawValue(tsString(ev.clock, microsPerTick));
    w.key("pid").value(p.pid);
    w.key("tid").value(ev.tid);
    writeEventArgs(w, ev);
    w.endObject();
}

void
writeDuration(JsonWriter &w, const TraceProcess &p, const std::string &name,
              const char *cat, uint32_t tid, uint64_t startClock,
              uint64_t endClock, double microsPerTick,
              const TraceEvent &closing)
{
    w.beginObject();
    w.key("name").value(name);
    w.key("cat").value(cat);
    w.key("ph").value("X");
    w.key("ts").rawValue(tsString(startClock, microsPerTick));
    double dur = double(endClock - startClock) * microsPerTick;
    w.key("dur").rawValue(strfmt("%.1f", dur));
    w.key("pid").value(p.pid);
    w.key("tid").value(tid);
    writeEventArgs(w, closing);
    w.endObject();
}

void
writeProcess(JsonWriter &w, const TraceProcess &p, double microsPerTick)
{
    const FlightRecorder &rec = *p.recorder;
    writeMetadata(w, p.pid, 0, "process_name", p.name);
    for (uint32_t tid = 0; tid < rec.threadCount(); ++tid)
        writeMetadata(w, p.pid, tid, "thread_name",
                      strfmt("vm-thread %u", tid));

    // Pending lock-wait start clocks, per thread, so a LockAcquire
    // granted after blocking closes a visible wait span.
    std::map<uint32_t, uint64_t> lockWaitStart;

    rec.forEachInOrder([&](const TraceEvent &ev) {
        switch (ev.kind) {
          case EventKind::RecoveryDone:
            // b = episode start clock; render the whole episode as a
            // duration block on the recovering thread's track.
            writeDuration(w, p,
                          strfmt("recovery x%llu",
                                 (unsigned long long)ev.a) +
                              (ev.tag == kNoTag ? ""
                                                : " @" + tagName(ev.tag)),
                          "recovery", ev.tid, ev.b, ev.clock,
                          microsPerTick, ev);
            break;
          case EventKind::LockBlock:
            lockWaitStart[ev.tid] = ev.clock;
            writeInstant(w, p, ev, microsPerTick);
            break;
          case EventKind::LockAcquire:
          case EventKind::LockTimeout: {
            auto it = lockWaitStart.find(ev.tid);
            if (it != lockWaitStart.end()) {
                const char *what = ev.kind == EventKind::LockAcquire
                                       ? "lock-wait"
                                       : "lock-wait (timeout)";
                writeDuration(w, p, what, "lock", ev.tid, it->second,
                              ev.clock, microsPerTick, ev);
                lockWaitStart.erase(it);
            } else {
                writeInstant(w, p, ev, microsPerTick);
            }
            break;
          }
          default:
            writeInstant(w, p, ev, microsPerTick);
            break;
        }
    });
}

} // namespace

std::string
chromeTraceJson(const std::vector<TraceProcess> &processes,
                double microsPerTick)
{
    JsonWriter w(2);
    w.beginObject();
    w.key("traceEvents").beginArray();
    for (const TraceProcess &p : processes)
        if (p.recorder)
            writeProcess(w, p, microsPerTick);
    w.endArray();
    w.key("displayTimeUnit").value("ms");
    w.key("otherData").beginObject();
    // Per-kind totals survive ring wraparound: this is where aggregate
    // counts stay comparable with RunStats.
    for (size_t pi = 0; pi < processes.size(); ++pi) {
        const TraceProcess &p = processes[pi];
        if (!p.recorder)
            continue;
        w.key(p.name).beginObject();
        w.key("recorded").value(p.recorder->totalRecordedAll());
        w.key("dropped").value(p.recorder->droppedAll());
        w.key("totals").beginObject();
        for (size_t k = 0; k < kEventKindCount; ++k) {
            uint64_t n = p.recorder->totalOf(EventKind(k));
            if (n)
                w.key(eventKindName(EventKind(k))).value(n);
        }
        w.endObject();
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.str();
}

std::string
chromeTraceJson(const FlightRecorder &rec, const std::string &processName,
                double microsPerTick)
{
    return chromeTraceJson({TraceProcess{&rec, processName, 1}},
                           microsPerTick);
}

std::string
recoveryTimeline(const FlightRecorder &rec, double microsPerTick)
{
    std::string out;
    uint64_t shown = 0;
    // Chronological order: annotation events (coverage) are appended
    // after the run with their discovery clocks, so a stable sort by
    // clock interleaves them where they happened.  For VM-recorded
    // events the clock is already non-decreasing in seq order, so
    // this is the identity on unannotated traces.
    std::vector<TraceEvent> events = rec.merged();
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &x, const TraceEvent &y) {
                         return x.clock < y.clock;
                     });
    for (const TraceEvent &ev : events) {
        const char *cat = kindCategory(ev.kind);
        // The timeline is the recovery story: scheduling noise and
        // diagnosis-mode memory traffic stay in the full trace.
        if (cat[0] == 's' || cat[0] == 'm') // "sched", "mem"
            continue;
        ++shown;
        out += strfmt("[%10.1f us] t%-2u %-19s",
                      double(ev.clock) * microsPerTick, ev.tid,
                      eventKindName(ev.kind));
        switch (ev.kind) {
          case EventKind::Checkpoint:
            out += strfmt("  locals=%llu schedTicks=%llu",
                          (unsigned long long)ev.a,
                          (unsigned long long)ev.b);
            break;
          case EventKind::Rollback:
            out += strfmt("  retry=%llu ckptDistTicks=%llu",
                          (unsigned long long)ev.a,
                          (unsigned long long)ev.b);
            break;
          case EventKind::CompensationFree:
            out += strfmt("  block=%llu", (unsigned long long)ev.a);
            break;
          case EventKind::CompensationUnlock:
            out += strfmt("  cell=%llu+%llu", (unsigned long long)ev.a,
                          (unsigned long long)ev.b);
            break;
          case EventKind::Backoff:
            out += strfmt("  ticks=%llu", (unsigned long long)ev.a);
            break;
          case EventKind::LockAcquire:
          case EventKind::LockBlock:
          case EventKind::LockTimeout:
            out += strfmt("  cell=%llu", (unsigned long long)ev.a);
            break;
          case EventKind::FailureSite:
            out += strfmt("  outcome=%llu", (unsigned long long)ev.a);
            break;
          case EventKind::ChaosRollback:
            out += strfmt("  step=%llu", (unsigned long long)ev.a);
            break;
          case EventKind::RecoveryDone:
            out += strfmt("  retries=%llu span=%.1fus",
                          (unsigned long long)ev.a,
                          double(ev.clock - ev.b) * microsPerTick);
            break;
          case EventKind::CoverageNovel:
            out += strfmt("  edge=%016llx kind=%s",
                          (unsigned long long)ev.a,
                          cov::edgeKindName(cov::EdgeKind(ev.b)));
            break;
          case EventKind::CoverageSnapshot:
            out += strfmt("  distinct=%llu novel=%llu",
                          (unsigned long long)ev.a,
                          (unsigned long long)ev.b);
            break;
          default:
            break;
        }
        if (ev.tag != kNoTag)
            out += "  @" + tagName(ev.tag);
        out += '\n';
    }
    if (shown == 0)
        out = "(no recovery-relevant events recorded)\n";
    uint64_t droppedTotal = rec.droppedAll();
    if (droppedTotal)
        out += strfmt("... %llu earlier events dropped by ring "
                      "wraparound (totals remain exact)\n",
                      (unsigned long long)droppedTotal);
    return out;
}

} // namespace conair::obs
