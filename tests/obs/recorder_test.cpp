/**
 * @file
 * FlightRecorder unit tests: ring wraparound keeps the newest events,
 * per-kind totals survive overwrites, merged() and the in-order visitor
 * respect record order, and the exporters render deterministically.
 */
#include <algorithm>
#include <type_traits>

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "obs/trace_export.h"
#include "support/rng.h"

namespace conair::obs {
namespace {

TEST(FlightRecorder, KeepsEverythingBelowCapacity)
{
    FlightRecorder rec(8);
    for (uint64_t i = 0; i < 5; ++i)
        rec.record(0, EventKind::Checkpoint, i * 10, i, i);
    auto evs = rec.threadEvents(0);
    ASSERT_EQ(evs.size(), 5u);
    for (uint64_t i = 0; i < 5; ++i) {
        EXPECT_EQ(evs[i].seq, i);
        EXPECT_EQ(evs[i].clock, i * 10);
        EXPECT_EQ(evs[i].a, i);
    }
    EXPECT_EQ(rec.totalRecorded(0), 5u);
    EXPECT_EQ(rec.dropped(0), 0u);
}

TEST(FlightRecorder, WraparoundKeepsNewestEvents)
{
    FlightRecorder rec(4);
    for (uint64_t i = 0; i < 10; ++i)
        rec.record(0, EventKind::Rollback, i, i, i);
    auto evs = rec.threadEvents(0);
    ASSERT_EQ(evs.size(), 4u);
    // The newest 4 of 10, oldest first: seq 6, 7, 8, 9.
    for (uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(evs[i].seq, 6 + i);
    EXPECT_EQ(rec.totalRecorded(0), 10u);
    EXPECT_EQ(rec.dropped(0), 6u);
    // Per-kind totals survive the overwrites.
    EXPECT_EQ(rec.totalOf(EventKind::Rollback), 10u);
}

TEST(FlightRecorder, PerThreadRingsAreIndependent)
{
    FlightRecorder rec(2);
    rec.record(0, EventKind::Checkpoint, 1, 1);
    rec.record(3, EventKind::Rollback, 2, 2);
    EXPECT_EQ(rec.threadCount(), 4u);
    EXPECT_EQ(rec.threadEvents(0).size(), 1u);
    EXPECT_EQ(rec.threadEvents(1).size(), 0u);
    EXPECT_EQ(rec.threadEvents(3).size(), 1u);
    EXPECT_EQ(rec.threadEvents(99).size(), 0u); // out of range: empty
    EXPECT_EQ(rec.totalRecorded(99), 0u);
}

TEST(FlightRecorder, MergedIsInRecordOrderAcrossThreads)
{
    FlightRecorder rec(16);
    rec.record(1, EventKind::Checkpoint, 5, 1);
    rec.record(0, EventKind::Rollback, 6, 2);
    rec.record(1, EventKind::RecoveryDone, 7, 3);
    auto evs = rec.merged();
    ASSERT_EQ(evs.size(), 3u);
    EXPECT_EQ(evs[0].kind, EventKind::Checkpoint);
    EXPECT_EQ(evs[1].kind, EventKind::Rollback);
    EXPECT_EQ(evs[2].kind, EventKind::RecoveryDone);
    EXPECT_EQ(evs[0].seq, 0u);
    EXPECT_EQ(evs[2].seq, 2u);
}

// The rings store events by value and the visitor hands out
// references into them: the event must stay plain data.
static_assert(std::is_trivially_copyable_v<TraceEvent> &&
              sizeof(TraceEvent) <= 48);

/** Records @p n random events over @p threads thread ids, in runs of
 *  one to four consecutive events per thread. */
void
recordRandom(FlightRecorder &rec, Rng &rng, uint32_t threads, size_t n)
{
    const char *tags[] = {"", "site.a", "site.b", "lock.main.3"};
    uint32_t tid = 0;
    for (size_t i = 0; i < n; ++i) {
        if (rng.range(4) == 0)
            tid = uint32_t(rng.range(threads));
        rec.record(tid, EventKind(rng.range(kEventKindCount)), i,
                   rng.range(100), rng.next(), rng.next(),
                   tags[rng.range(4)]);
    }
}

/** Sort-by-seq of every thread's retained events: the reference the
 *  k-way merge must reproduce. */
std::vector<TraceEvent>
sortedConcatenation(const FlightRecorder &rec)
{
    std::vector<TraceEvent> all;
    for (uint32_t tid = 0; tid < rec.threadCount(); ++tid) {
        std::vector<TraceEvent> evs = rec.threadEvents(tid);
        all.insert(all.end(), evs.begin(), evs.end());
    }
    std::sort(all.begin(), all.end(),
              [](const TraceEvent &x, const TraceEvent &y) {
                  return x.seq < y.seq;
              });
    return all;
}

TEST(FlightRecorder, MergeEqualsSortedConcatenation)
{
    // Random streams over 1-8 threads, in rings small enough to wrap
    // (capacities 1-7) and in Grow mode: the visitor and merged() must
    // both equal the sorted concatenation of threadEvents().
    Rng rng(17);
    size_t wrapped = 0;
    for (int trial = 0; trial < 400; ++trial) {
        uint32_t threads = 1 + uint32_t(rng.range(8));
        size_t cap = 1 + rng.range(7);
        RecorderMode mode =
            trial % 4 == 3 ? RecorderMode::Grow : RecorderMode::Ring;
        FlightRecorder rec(cap, mode);
        recordRandom(rec, rng, threads, rng.range(60));
        wrapped += rec.droppedAll() > 0;

        std::vector<TraceEvent> want = sortedConcatenation(rec);
        std::vector<TraceEvent> visited;
        rec.forEachInOrder(
            [&](const TraceEvent &ev) { visited.push_back(ev); });
        EXPECT_EQ(visited, want) << "trial " << trial;
        EXPECT_EQ(rec.merged(), want) << "trial " << trial;
        if (mode == RecorderMode::Grow) {
            EXPECT_EQ(rec.droppedAll(), 0u);
        }
    }
    EXPECT_GT(wrapped, 100u); // the rings really wrapped
}

TEST(FlightRecorder, TagsAreInternedIds)
{
    FlightRecorder rec(4);
    rec.record(0, EventKind::Rollback, 1, 1, 0, 0, "site.a");
    rec.record(0, EventKind::Rollback, 2, 2, 0, 0, intern("site.a"));
    rec.record(0, EventKind::Checkpoint, 3, 3);
    std::vector<TraceEvent> evs = rec.merged();
    ASSERT_EQ(evs.size(), 3u);
    EXPECT_EQ(evs[0].tag, evs[1].tag);
    EXPECT_EQ(tagName(evs[0].tag), "site.a");
    EXPECT_EQ(evs[2].tag, kNoTag);
}

TEST(FlightRecorder, ClearForgetsEventsAndTotals)
{
    FlightRecorder rec(4);
    rec.record(0, EventKind::Backoff, 1, 1);
    rec.clear();
    EXPECT_EQ(rec.threadCount(), 0u);
    EXPECT_EQ(rec.totalRecordedAll(), 0u);
    EXPECT_EQ(rec.totalOf(EventKind::Backoff), 0u);
    EXPECT_EQ(rec.capacity(), 4u);
}

TEST(FlightRecorder, CapacityClampsToOne)
{
    FlightRecorder rec(0);
    EXPECT_EQ(rec.capacity(), 1u);
    rec.record(0, EventKind::Checkpoint, 1, 1);
    rec.record(0, EventKind::Rollback, 2, 2);
    auto evs = rec.threadEvents(0);
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(evs[0].kind, EventKind::Rollback);
}

TEST(EventKindName, AllKindsNamed)
{
    for (size_t k = 0; k < kEventKindCount; ++k) {
        const char *name = eventKindName(EventKind(k));
        EXPECT_STRNE(name, "unknown") << k;
        EXPECT_GT(std::string(name).size(), 0u);
    }
}

TEST(TraceExport, ChromeJsonIsDeterministic)
{
    FlightRecorder rec(8);
    rec.record(0, EventKind::Checkpoint, 10, 1, 0, 3);
    rec.record(0, EventKind::Rollback, 20, 2, 1, 2, "site.a");
    rec.record(0, EventKind::RecoveryDone, 30, 3, 1, 10, "site.a");
    std::string a = chromeTraceJson(rec, "proc");
    std::string b = chromeTraceJson(rec, "proc");
    EXPECT_EQ(a, b);
    // The recovery episode renders as a duration event.
    EXPECT_NE(a.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(a.find("recovery x1"), std::string::npos);
    // Per-kind totals land in otherData.
    EXPECT_NE(a.find("\"rollback\": 1"), std::string::npos);
}

TEST(TraceExport, TimelineSkipsSchedulerNoise)
{
    FlightRecorder rec(8);
    rec.record(0, EventKind::SchedSwitch, 1, 1);
    rec.record(0, EventKind::Rollback, 2, 2, 1, 0, "s");
    std::string tl = recoveryTimeline(rec);
    EXPECT_EQ(tl.find("sched-switch"), std::string::npos);
    EXPECT_NE(tl.find("rollback"), std::string::npos);
}

TEST(TraceExport, TimelineReportsDrops)
{
    FlightRecorder rec(2);
    for (int i = 0; i < 5; ++i)
        rec.record(0, EventKind::Rollback, i, i);
    std::string tl = recoveryTimeline(rec);
    EXPECT_NE(tl.find("3 earlier events dropped"), std::string::npos);
}

} // namespace
} // namespace conair::obs
