/**
 * @file
 * Failure evidence: one failing campaign cell recorded once, and
 * everything the postmortem, replay and fix layers need derived from
 * that one recording.
 *
 * captureFailure() runs the unhardened build under a cell's exact
 * config with a replay-grade (Grow) recorder in diagnosis mode.  When
 * that run fails it also runs the chaos-free hardened build under the
 * same config, then diagnoses the leg the leg rule picks and builds
 * the run's ReplayLog.  bench_explore's campaign, --diagnose, --fix
 * and --record-replay modes, minicc --fix and the fix/replay tests all
 * start here, so they diagnose and replay the same run.
 */
#pragma once

#include <string>

#include "explore/campaign.h"
#include "obs/postmortem/diagnosis.h"
#include "obs/replay/replay_log.h"
#include "obs/trace.h"
#include "vm/interp.h"

namespace conair::explore {

/** The exact VmConfig the campaign cell (@p t, @p s) runs under: the
 *  schedule, the target's horizon and quantum, and the campaign's step
 *  and retry budgets.  No DelayRules — campaigns find the buggy
 *  interleavings without the hand-scripted trigger sleeps. */
vm::VmConfig cellConfig(const Target &t, const ScheduleSpec &s,
                        const CampaignOptions &opts);

/** Did @p r behave as @p t expects (outcome, and output and exit code
 *  when the target checks them)? */
bool correctRun(const Target &t, const vm::RunResult &r);

/** The leg a diagnosis reads, and what it found. */
struct LegDiagnosis
{
    bool hardened = false; ///< diagnosed the hardened leg's trace
    obs::pm::RecoveryReport report;

    const char *leg() const { return hardened ? "hardened" : "unhardened"; }
};

/**
 * The leg rule: diagnose the hardened leg when it tells a recovery
 * story (RecoveryDone or FailureSite events) — recovery retries until
 * the racing partner's access lands in the trace, whereas the
 * unhardened leg dies at the failure site first.  Otherwise diagnose
 * the unhardened leg's terminal failure.  @p hardRec is ignored when
 * the target has no hardened build.
 */
LegDiagnosis diagnoseLegs(const Target &t,
                          const obs::FlightRecorder &plainRec,
                          const obs::FlightRecorder &hardRec,
                          const std::string &token);

/** One recorded run of a cell and the evidence derived from it. */
struct FailureEvidence
{
    /** The unhardened run was not correct (a timeout counts). */
    bool failed = false;

    vm::RunResult run; ///< the unhardened run

    obs::FlightRecorder plainTrace{4096, obs::RecorderMode::Grow};
    /** The chaos-free hardened run's trace (only when failed and the
     *  target has a hardened build). */
    obs::FlightRecorder hardenedTrace{4096, obs::RecorderMode::Grow};

    LegDiagnosis diagnosis;

    /** The unhardened run's replay log (built whether or not the run
     *  failed); logError says why when hasLog is false. */
    bool hasLog = false;
    obs::replay::ReplayLog log;
    std::string logError;
};

/** Records the unhardened build of @p t under @p cfg and derives the
 *  evidence (see the file comment).  @p token labels the diagnosis and
 *  the replay log ("" for a scripted, non-campaign schedule). */
FailureEvidence captureFailure(const Target &t, const vm::VmConfig &cfg,
                               const std::string &token);

} // namespace conair::explore
