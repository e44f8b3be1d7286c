/**
 * @file
 * The failure-evidence module (src/explore/evidence.h): one failing
 * campaign cell recorded once must yield a failing unhardened run, a
 * diagnosis that matches the kernel's documented root cause, and a
 * replay log that replays faithfully under both engines — and the
 * hardened leg it diagnoses is the chaos-free one.
 */
#include <gtest/gtest.h>

#include "apps/harness.h"
#include "explore/evidence.h"
#include "obs/replay/replay_run.h"

namespace conair::explore {
namespace {

/** The first failing schedule of @p t in the default campaign matrix
 *  order (policy-major, seeds 1..250); false when none fails. */
bool
firstFailingCell(const Target &t, ScheduleSpec &out)
{
    CampaignOptions opts;
    for (const auto &[policy, depth] : opts.policies)
        for (uint64_t seed = 1; seed <= 250; ++seed) {
            ScheduleSpec s{policy, seed, depth, {}};
            vm::RunResult r =
                vm::runProgram(*t.plain, cellConfig(t, s, opts));
            if (r.outcome != vm::Outcome::Timeout && !correctRun(t, r)) {
                out = s;
                return true;
            }
        }
    return false;
}

TEST(Evidence, EveryKernelsFirstFailureIsDiagnosedAndReplayable)
{
    for (const apps::AppSpec &spec : apps::allApps()) {
        SCOPED_TRACE(spec.name);
        apps::CampaignApp app = apps::prepareCampaignApp(spec);
        Target t = apps::campaignTarget(app);
        ScheduleSpec s;
        ASSERT_TRUE(firstFailingCell(t, s));

        FailureEvidence ev =
            captureFailure(t, cellConfig(t, s, CampaignOptions{}),
                           s.token());
        EXPECT_TRUE(ev.failed) << s.token();
        EXPECT_FALSE(apps::runIsCorrect(spec, ev.run));

        // The recording is the campaign cell's own unhardened leg.
        ScheduleOutcome o = runOneSchedule(t, s, CampaignOptions{});
        EXPECT_EQ(o.unhardened, ev.run.outcome);
        EXPECT_EQ(o.steps, ev.run.stats.steps);

        const obs::pm::EpisodeReport *ep = ev.diagnosis.report.primary();
        ASSERT_NE(ep, nullptr) << s.token();
        EXPECT_TRUE(obs::pm::verdictMatchesRootCause(
            ep->verdict, apps::rootCauseName(spec.rootCause)))
            << s.token() << ": verdict "
            << obs::pm::verdictName(ep->verdict) << " vs root cause "
            << apps::rootCauseName(spec.rootCause);

        ASSERT_TRUE(ev.hasLog) << ev.logError;
        EXPECT_EQ(ev.log.scheduleToken, s.token());
        for (vm::ExecEngine e :
             {vm::ExecEngine::Reference, vm::ExecEngine::Fused}) {
            obs::replay::ReplayRun rr =
                obs::replay::replayLog(*t.plain, ev.log, e);
            EXPECT_TRUE(rr.faithful)
                << obs::replay::engineName(e) << ": " << rr.mismatch;
        }
    }
}

TEST(Evidence, DiagnosedHardenedLegIsChaosFreeOnEvenSeeds)
{
    apps::CampaignApp app =
        apps::prepareCampaignApp(*apps::findApp("ZSNES"));
    Target t = apps::campaignTarget(app);
    ScheduleSpec s;
    std::string err;
    ASSERT_TRUE(parseScheduleToken("pct:d2:s2", s, err)) << err;

    // The campaign cell itself injects chaos on this even seed...
    ScheduleOutcome o = runOneSchedule(t, s, CampaignOptions{});
    ASSERT_TRUE(o.chaos);
    ASSERT_GT(o.chaosRollbacks, 0u);

    // ...the evidence's hardened recording does not.
    FailureEvidence ev =
        captureFailure(t, cellConfig(t, s, CampaignOptions{}), s.token());
    ASSERT_TRUE(ev.failed);
    ASSERT_TRUE(ev.diagnosis.hardened);
    EXPECT_GT(ev.hardenedTrace.totalOf(obs::EventKind::RecoveryDone), 0u);
    EXPECT_EQ(ev.hardenedTrace.totalOf(obs::EventKind::ChaosRollback), 0u);
}

TEST(Evidence, ScriptedProbeReportsNoFailureForAProgramThatNeverFails)
{
    apps::AppSpec quiet;
    quiet.name = "Quiet";
    quiet.rootCause = apps::RootCause::OrderViolation;
    quiet.source = "int main() { print(\"ok\\n\"); return 0; }\n";
    quiet.expectedOutput = "ok\n";
    quiet.expectedFailure = vm::Outcome::AssertFail;
    apps::CampaignApp app = apps::prepareCampaignApp(quiet);
    Target t = apps::campaignTarget(app);

    FailureEvidence ev = apps::captureScriptedFailure(quiet, t);
    EXPECT_FALSE(ev.failed);
    EXPECT_TRUE(apps::runIsCorrect(quiet, ev.run));
    EXPECT_EQ(ev.hardenedTrace.totalRecordedAll(), 0u)
        << "the hardened leg runs only for a failing run";
    EXPECT_TRUE(ev.diagnosis.report.episodes.empty());
    EXPECT_FALSE(ev.diagnosis.hardened);
}

TEST(Evidence, ScriptedProbeCapturesAKernelsScriptedFailure)
{
    const apps::AppSpec &spec = *apps::findApp("MySQL1");
    apps::CampaignApp app = apps::prepareCampaignApp(spec);
    Target t = apps::campaignTarget(app);

    FailureEvidence ev = apps::captureScriptedFailure(spec, t);
    ASSERT_TRUE(ev.failed);
    EXPECT_EQ(ev.run.outcome, spec.expectedFailure);
    EXPECT_TRUE(ev.diagnosis.hardened);
    ASSERT_TRUE(ev.hasLog) << ev.logError;
    EXPECT_EQ(ev.log.scheduleToken, "");
    EXPECT_TRUE(
        obs::replay::replayLog(*t.plain, ev.log, ev.log.engine).faithful);
}

} // namespace
} // namespace conair::explore
