#include "obs/trace.h"

#include <algorithm>

namespace conair::obs {

const char *
eventKindName(EventKind k)
{
    switch (k) {
      case EventKind::ThreadSpawn: return "thread-spawn";
      case EventKind::SchedSwitch: return "sched-switch";
      case EventKind::SchedPoint: return "sched-point";
      case EventKind::Checkpoint: return "checkpoint";
      case EventKind::Rollback: return "rollback";
      case EventKind::CompensationFree: return "compensation-free";
      case EventKind::CompensationUnlock: return "compensation-unlock";
      case EventKind::Backoff: return "backoff";
      case EventKind::LockAcquire: return "lock-acquire";
      case EventKind::LockBlock: return "lock-block";
      case EventKind::LockTimeout: return "lock-timeout";
      case EventKind::FailureSite: return "failure-site";
      case EventKind::ChaosRollback: return "chaos-rollback";
      case EventKind::RecoveryDone: return "recovery-done";
      case EventKind::SharedLoad: return "shared-load";
      case EventKind::SharedStore: return "shared-store";
      case EventKind::CoverageNovel: return "coverage-novel";
      case EventKind::CoverageSnapshot: return "coverage-snapshot";
    }
    return "unknown";
}

FlightRecorder::FlightRecorder(size_t perThreadCapacity,
                               RecorderMode mode)
    : cap_(std::max<size_t>(perThreadCapacity, 1)), mode_(mode)
{
}

std::vector<TraceEvent>
FlightRecorder::threadEvents(uint32_t tid) const
{
    std::vector<TraceEvent> out;
    if (tid >= rings_.size())
        return out;
    const Ring &r = rings_[tid];
    out.reserve(r.buf.size());
    // Once full, r.next points at the oldest retained event.
    for (size_t i = 0; i < r.buf.size(); ++i)
        out.push_back(r.buf[(r.next + i) % r.buf.size()]);
    return out;
}

std::vector<TraceEvent>
FlightRecorder::merged() const
{
    std::vector<TraceEvent> out;
    size_t n = 0;
    for (const Ring &r : rings_)
        n += r.buf.size();
    out.reserve(n);
    forEachInOrder([&out](const TraceEvent &ev) { out.push_back(ev); });
    return out;
}

uint64_t
FlightRecorder::totalRecorded(uint32_t tid) const
{
    return tid < rings_.size() ? rings_[tid].total : 0;
}

uint64_t
FlightRecorder::dropped(uint32_t tid) const
{
    if (tid >= rings_.size())
        return 0;
    const Ring &r = rings_[tid];
    return r.total - r.buf.size();
}

uint64_t
FlightRecorder::droppedAll() const
{
    uint64_t n = 0;
    for (uint32_t tid = 0; tid < rings_.size(); ++tid)
        n += dropped(tid);
    return n;
}

void
FlightRecorder::clear()
{
    rings_.clear();
    nextSeq_ = 0;
    for (uint64_t &t : kindTotals_)
        t = 0;
}

} // namespace conair::obs
