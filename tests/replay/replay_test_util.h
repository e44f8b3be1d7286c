/**
 * @file
 * Shared plumbing for the record-and-replay tests: compile a kernel,
 * find a failing campaign schedule for it, and record that failure
 * with a replay-grade (Grow) recorder.
 */
#pragma once

#include <gtest/gtest.h>

#include "apps/harness.h"
#include "explore/evidence.h"
#include "obs/replay/replay_log.h"
#include "vm/interp.h"

namespace conair::obs::replay::testutil {

/** One recorded failing run of a kernel's unhardened build. */
struct RecordedFailure
{
    apps::CampaignApp app;
    explore::Target target;
    explore::ScheduleSpec spec;
    vm::VmConfig cfg; ///< the recorded run's exact config (sans recorder)
    vm::RunResult result;
    ReplayLog log;
};

/** The campaign cell config (explore::cellConfig) at the smoke
 *  campaign's step budget. */
inline vm::VmConfig
campaignConfig(const explore::Target &t, const explore::ScheduleSpec &s)
{
    explore::CampaignOptions opts;
    opts.maxSteps = 2'000'000;
    return explore::cellConfig(t, s, opts);
}

inline bool
isFailure(const vm::RunResult &r)
{
    return r.outcome != vm::Outcome::Success &&
           r.outcome != vm::Outcome::Timeout;
}

/**
 * Compiles @p name, scans PCT (d2, d3) and Random seeds for a failing
 * schedule of the unhardened build, then re-runs it with a Grow
 * recorder (diagnosis mode when @p diagMode) and builds the ReplayLog.
 * Fails the current test when no failing schedule exists in the scan
 * budget (all ten kernels have one well inside it).
 */
inline bool
recordFailure(const char *name, RecordedFailure &out,
              bool diagMode = false,
              vm::ExecEngine engine = vm::ExecEngine::Fused)
{
    const apps::AppSpec *spec = apps::findApp(name);
    if (!spec) {
        ADD_FAILURE() << "unknown app " << name;
        return false;
    }
    out.app = apps::prepareCampaignApp(*spec);
    out.target = apps::campaignTarget(out.app);

    // Policy-major scan in the campaign's default matrix order, so the
    // schedule found here is the campaign's first failure (every
    // kernel's seed budget is within 250 — see BENCH_explore.json).
    std::vector<explore::ScheduleSpec> probes;
    for (auto [policy, depth] :
         {std::pair<vm::SchedPolicy, uint32_t>{vm::SchedPolicy::Pct, 2},
          {vm::SchedPolicy::Pct, 3},
          {vm::SchedPolicy::PreemptBound, 2},
          {vm::SchedPolicy::Random, 0}})
        for (uint64_t seed = 1; seed <= 250; ++seed)
            probes.push_back({policy, seed, depth, {}});
    for (const explore::ScheduleSpec &s : probes) {
        vm::VmConfig cfg = campaignConfig(out.target, s);
        cfg.engine = engine;
        vm::RunResult probe = vm::runProgram(*out.target.plain, cfg);
        if (!isFailure(probe))
            continue;

        // Found one: record it replay-grade.
        FlightRecorder rec(4096, RecorderMode::Grow);
        cfg.recorder = &rec;
        cfg.recordSharedAccesses = diagMode;
        out.result = vm::runProgram(*out.target.plain, cfg);
        cfg.recorder = nullptr;
        cfg.recordSharedAccesses = false;
        out.cfg = cfg;
        out.spec = s;

        std::string err;
        if (!buildReplayLog(name, s.token(), cfg, rec, out.result,
                            out.log, err)) {
            ADD_FAILURE() << name << ": buildReplayLog failed: " << err;
            return false;
        }
        return true;
    }
    ADD_FAILURE() << name << ": no failing schedule in scan budget";
    return false;
}

} // namespace conair::obs::replay::testutil
