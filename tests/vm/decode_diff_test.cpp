/**
 * @file
 * Differential testing of the two execution engines.
 *
 * The production engine (ExecEngine::Fused: pre-decoded arrays, the
 * memory-handle cache, and superinstruction bursts on the scheduler
 * fast path) must be *tick-for-tick* identical to the reference
 * tree-walking engine: same outcome, output, failure diagnostics,
 * virtual clock, step counts, final-memory digest, and recovery
 * events for every program and seed.  These tests run the bundled example
 * programs and the whole Table 2 application registry (hardened and
 * unhardened, clean and failure-forcing schedules, plus the
 * whole-program-checkpoint and chaos modes) under both engines and
 * every hot-path-knob combination, and require equality.
 */
#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/harness.h"
#include "obs/trace.h"
#include "tests/vm/vm_test_util.h"

#ifndef CONAIR_EXAMPLES_DIR
#define CONAIR_EXAMPLES_DIR "examples/data"
#endif

namespace conair::vm {
namespace {

using testutil::compileC;

/** Equality over everything semantic a run reports.  Engine-internal
 *  counters (decodedInsts, fastPathSteps, memCache*, hintRulesTracked)
 *  are deliberately excluded: they describe *how* the engine ran, not
 *  what the program did. */
void
expectSameRun(const RunResult &a, const RunResult &b,
              const std::string &ctx)
{
    EXPECT_EQ(a.outcome, b.outcome) << ctx;
    EXPECT_EQ(a.exitCode, b.exitCode) << ctx;
    EXPECT_EQ(a.output, b.output) << ctx;
    EXPECT_EQ(a.failureMsg, b.failureMsg) << ctx;
    EXPECT_EQ(a.failureTag, b.failureTag) << ctx;
    EXPECT_EQ(a.clock, b.clock) << ctx;
    EXPECT_EQ(a.memDigest, b.memDigest) << ctx;

    const RunStats &s = a.stats;
    const RunStats &t = b.stats;
    EXPECT_EQ(s.steps, t.steps) << ctx;
    EXPECT_EQ(s.threadsSpawned, t.threadsSpawned) << ctx;
    EXPECT_EQ(s.checkpointsExecuted, t.checkpointsExecuted) << ctx;
    EXPECT_EQ(s.rollbacks, t.rollbacks) << ctx;
    EXPECT_EQ(s.compensationFrees, t.compensationFrees) << ctx;
    EXPECT_EQ(s.compensationUnlocks, t.compensationUnlocks) << ctx;
    EXPECT_EQ(s.backoffs, t.backoffs) << ctx;
    EXPECT_EQ(s.wpSnapshots, t.wpSnapshots) << ctx;
    EXPECT_EQ(s.wpRecoveries, t.wpRecoveries) << ctx;
    EXPECT_EQ(s.wpSnapshotCost, t.wpSnapshotCost) << ctx;
    EXPECT_EQ(s.chaosRollbacks, t.chaosRollbacks) << ctx;
    ASSERT_EQ(s.chaosSites.size(), t.chaosSites.size()) << ctx;
    for (size_t i = 0; i < s.chaosSites.size(); ++i) {
        EXPECT_EQ(s.chaosSites[i].step, t.chaosSites[i].step)
            << ctx << " chaos site " << i;
        EXPECT_EQ(s.chaosSites[i].tid, t.chaosSites[i].tid)
            << ctx << " chaos site " << i;
    }
    ASSERT_EQ(s.recoveries.size(), t.recoveries.size()) << ctx;
    for (size_t i = 0; i < s.recoveries.size(); ++i) {
        const RecoveryEvent &x = s.recoveries[i];
        const RecoveryEvent &y = t.recoveries[i];
        EXPECT_EQ(x.siteTag, y.siteTag) << ctx << " recovery " << i;
        EXPECT_EQ(x.retries, y.retries) << ctx << " recovery " << i;
        EXPECT_EQ(x.startClock, y.startClock) << ctx << " recovery " << i;
        EXPECT_EQ(x.endClock, y.endClock) << ctx << " recovery " << i;
    }
}

/** Every hot-path configuration that must agree: both engines, each
 *  with and without the scheduler fast path.  Reference resolves every
 *  memory access through the uncached map lookup, so it also referees
 *  the fused engine's memory-handle cache. */
std::vector<std::pair<const char *, VmConfig>>
engineVariants(VmConfig base)
{
    base.engine = ExecEngine::Fused;
    base.schedFastPath = true;

    VmConfig no_burst = base;
    no_burst.schedFastPath = false;
    VmConfig ref = base;
    ref.engine = ExecEngine::Reference;
    ref.schedFastPath = false;
    VmConfig ref_burst = base;
    ref_burst.engine = ExecEngine::Reference;

    return {{"fused", base},
            {"fused/no-burst", no_burst},
            {"reference", ref},
            {"reference/burst", ref_burst}};
}

/** Runs every variant, requires equality, and returns the fused run. */
RunResult
diffAllVariants(const ir::Module &m, const VmConfig &base,
                const std::string &ctx)
{
    auto variants = engineVariants(base);
    RunResult first = runProgram(m, variants[0].second);
    for (size_t i = 1; i < variants.size(); ++i) {
        RunResult r = runProgram(m, variants[i].second);
        expectSameRun(first, r,
                      ctx + " [" + variants[i].first + " vs fused]");
    }
    return first;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(DecodeDiff, ExampleProgramsAgreeAcrossSeedsAndPolicies)
{
    const char *files[] = {"racy_counter.mc", "two_lock_server.mc"};
    for (const char *name : files) {
        std::string src =
            readFile(std::string(CONAIR_EXAMPLES_DIR) + "/" + name);
        auto m = compileC(src);
        ASSERT_TRUE(m);
        for (uint64_t seed : {1, 2, 3, 17}) {
            VmConfig cfg;
            cfg.seed = seed;
            diffAllVariants(*m, cfg,
                            std::string(name) + " random seed " +
                                std::to_string(seed));
        }
        VmConfig rr;
        rr.policy = SchedPolicy::RoundRobin;
        diffAllVariants(*m, rr, std::string(name) + " round-robin");

        // Forced interleaving: the examples document hint id 1.
        VmConfig forced;
        forced.delays = {{1, 5000}};
        diffAllVariants(*m, forced, std::string(name) + " forced");
    }
}

TEST(DecodeDiff, AppRegistryAgreesHardenedAndUnhardened)
{
    for (const apps::AppSpec &app : apps::allApps()) {
        apps::HardenOptions harden;
        apps::PreparedApp hardened = apps::prepareApp(app, harden);
        apps::HardenOptions plain_opts;
        plain_opts.applyConAir = false;
        apps::PreparedApp plain = apps::prepareApp(app, plain_opts);

        for (uint64_t seed : {1, 2}) {
            VmConfig buggy = app.buggyConfig;
            buggy.seed = seed;
            diffAllVariants(*hardened.module, buggy,
                            app.name + " hardened buggy seed " +
                                std::to_string(seed));
        }
        VmConfig clean = app.cleanConfig;
        clean.seed = 1;
        diffAllVariants(*hardened.module, clean,
                        app.name + " hardened clean");

        VmConfig buggy = app.buggyConfig;
        buggy.seed = 1;
        diffAllVariants(*plain.module, buggy, app.name + " unhardened");
    }
}

TEST(DecodeDiff, WholeProgramCheckpointModeAgrees)
{
    // The wp baseline exercises snapshot/restore, which rewinds the
    // block-id counters — the one case that must flush every
    // memory-handle cache.  Run a failing app under it on both engines.
    const apps::AppSpec *app = apps::findApp("MySQL1");
    ASSERT_NE(app, nullptr);
    apps::HardenOptions plain_opts;
    plain_opts.applyConAir = false;
    apps::PreparedApp plain = apps::prepareApp(*app, plain_opts);

    VmConfig cfg = app->buggyConfig;
    cfg.seed = 1;
    cfg.wpCheckpointInterval = 2000;
    cfg.wpMaxRecoveries = 4;
    diffAllVariants(*plain.module, cfg, "MySQL1 wp-checkpoint");
}

TEST(DecodeDiff, ChaosRollbackModeAgrees)
{
    // Chaos injection draws from its own RNG on every eligible step;
    // eligibility depends on the idempotent-window bookkeeping both
    // engines must maintain identically (DecodedInst::dirties vs the
    // interpreter-local predicate).  The campaign skips its hardened
    // Reference differential on chaos legs, so this sweep is the only
    // referee of the fused burst's clean-window stepping and in-place
    // quantum renewal: the original long-quantum RoundRobin case, then
    // every hardened kernel under each exploration policy and under
    // RoundRobin at the default short quantum (which expires inside
    // single-thread stretches, so the bursts renew it), several seeds,
    // and a dense and a sparse injection rate.
    const apps::AppSpec *mysql1 = apps::findApp("MySQL1");
    ASSERT_NE(mysql1, nullptr);
    {
        apps::HardenOptions harden;
        apps::PreparedApp hardened = apps::prepareApp(*mysql1, harden);
        VmConfig cfg = mysql1->cleanConfig;
        cfg.seed = 3;
        cfg.chaosRollbackEveryN = 200;
        diffAllVariants(*hardened.module, cfg, "MySQL1 chaos");
    }

    std::vector<const apps::AppSpec *> kernels;
    for (const apps::AppSpec &app : apps::allApps())
        kernels.push_back(&app);
    for (const apps::AppSpec &app : apps::challengeApps())
        kernels.push_back(&app);
    ASSERT_EQ(kernels.size(), 11u);

    uint64_t rolledBackCases = 0;
    for (const apps::AppSpec *app : kernels) {
        apps::HardenOptions harden;
        apps::PreparedApp hardened = apps::prepareApp(*app, harden);
        // Horizon calibrated the way the campaign does: the clean
        // round-robin run's scheduling-tick count.
        VmConfig calib;
        calib.policy = SchedPolicy::RoundRobin;
        calib.quantum = 1'000;
        const uint64_t horizon = std::max<uint64_t>(
            runProgram(*hardened.module, calib).stats.schedTicks, 64);

        for (SchedPolicy policy :
             {SchedPolicy::Pct, SchedPolicy::PreemptBound,
              SchedPolicy::Random, SchedPolicy::RoundRobin}) {
            for (uint64_t every : {16, 128}) {
                for (uint64_t seed : {1, 2, 3}) {
                    VmConfig cfg;
                    cfg.policy = policy;
                    cfg.seed = seed;
                    cfg.pctHorizon = horizon;
                    cfg.chaosRollbackEveryN = every;
                    const std::string ctx =
                        app->name + " chaos " + schedPolicyName(policy) +
                        " every " + std::to_string(every) + " seed " +
                        std::to_string(seed);
                    if (diffAllVariants(*hardened.module, cfg, ctx)
                            .stats.chaosRollbacks > 0)
                        ++rolledBackCases;
                }
            }
        }
    }
    // Not vacuous: chaos really rolls back in most of the sweep.
    EXPECT_GT(rolledBackCases, 11u * 4 * 2 * 3 / 2);
}

/** Runs @p m under @p cfg with a never-dropping recorder in diagnosis
 *  mode (every non-stack access recorded) and returns the stream. */
std::vector<obs::TraceEvent>
recordedStream(const ir::Module &m, VmConfig cfg)
{
    obs::FlightRecorder rec(4096, obs::RecorderMode::Grow);
    cfg.recorder = &rec;
    cfg.recordSharedAccesses = true;
    runProgram(m, cfg);
    EXPECT_EQ(rec.droppedAll(), 0u);
    return rec.merged();
}

/** Both engines under @p base must record the same event stream,
 *  field for field, tags included.  Returns the number of tagged
 *  events in the stream. */
size_t
expectSameStream(const ir::Module &m, const VmConfig &base,
                 const std::string &ctx)
{
    VmConfig fused = base;
    fused.engine = ExecEngine::Fused;
    VmConfig ref = base;
    ref.engine = ExecEngine::Reference;
    ref.schedFastPath = false;
    std::vector<obs::TraceEvent> a = recordedStream(m, fused);
    std::vector<obs::TraceEvent> b = recordedStream(m, ref);
    EXPECT_EQ(a.size(), b.size()) << ctx;
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        if (a[i] == b[i])
            continue;
        ADD_FAILURE() << ctx << ": first divergence at event " << i
                      << ": fused " << obs::eventKindName(a[i].kind)
                      << " tid " << a[i].tid << " step " << a[i].step
                      << " vs reference "
                      << obs::eventKindName(b[i].kind) << " tid "
                      << b[i].tid << " step " << b[i].step;
        break;
    }
    return size_t(std::count_if(
        a.begin(), a.end(),
        [](const obs::TraceEvent &ev) { return ev.tag != kNoTag; }));
}

TEST(DecodeDiff, RecordedStreamsAgree)
{
    // Passivity (tests/obs/vm_trace_test.cpp) pins that recording does
    // not perturb a run; this pins *what* is recorded.  Every record
    // site exists once per engine path, so the Fused and Reference
    // engines must emit the identical stream: every kernel, plain and
    // hardened, under each exploration policy and several seeds, then
    // the hardened chaos cases of ChaosRollbackModeAgrees.
    std::vector<const apps::AppSpec *> kernels;
    for (const apps::AppSpec &app : apps::allApps())
        kernels.push_back(&app);
    for (const apps::AppSpec &app : apps::challengeApps())
        kernels.push_back(&app);
    ASSERT_EQ(kernels.size(), 11u);

    const SchedPolicy policies[] = {SchedPolicy::Pct,
                                    SchedPolicy::PreemptBound,
                                    SchedPolicy::Random,
                                    SchedPolicy::RoundRobin};
    size_t taggedEvents = 0;
    for (const apps::AppSpec *app : kernels) {
        apps::HardenOptions harden;
        apps::HardenOptions plainOpts;
        plainOpts.applyConAir = false;
        for (const apps::HardenOptions &opts : {plainOpts, harden}) {
            apps::PreparedApp p = apps::prepareApp(*app, opts);
            VmConfig calib;
            calib.policy = SchedPolicy::RoundRobin;
            calib.quantum = 1'000;
            const uint64_t horizon = std::max<uint64_t>(
                runProgram(*p.module, calib).stats.schedTicks, 64);
            const std::string build =
                p.hardened ? " hardened " : " plain ";

            for (SchedPolicy policy : policies) {
                for (uint64_t seed : {1, 2, 3}) {
                    VmConfig cfg;
                    cfg.policy = policy;
                    cfg.seed = seed;
                    cfg.pctHorizon = horizon;
                    taggedEvents += expectSameStream(
                        *p.module, cfg,
                        app->name + build + schedPolicyName(policy) +
                            " seed " + std::to_string(seed));
                    if (!p.hardened)
                        continue;
                    for (uint64_t every : {16, 128}) {
                        cfg.chaosRollbackEveryN = every;
                        taggedEvents += expectSameStream(
                            *p.module, cfg,
                            app->name + " chaos " +
                                schedPolicyName(policy) + " every " +
                                std::to_string(every) + " seed " +
                                std::to_string(seed));
                    }
                }
            }
        }
    }
    // Not vacuous: the streams carry site tags to compare.
    EXPECT_GT(taggedEvents, 0u);

    const apps::AppSpec *mysql1 = apps::findApp("MySQL1");
    ASSERT_NE(mysql1, nullptr);
    apps::PreparedApp hardened =
        apps::prepareApp(*mysql1, apps::HardenOptions{});
    VmConfig cfg = mysql1->cleanConfig;
    cfg.seed = 3;
    cfg.chaosRollbackEveryN = 200;
    expectSameStream(*hardened.module, cfg, "MySQL1 chaos");
}

TEST(DecodeDiff, RecursionAndDeepCallsAgree)
{
    // Pre-decoded call records link callee bodies up front, including
    // recursion; make sure frames, alloca lifetimes, and the stack
    // cache invalidation on frame pops line up with the reference.
    auto m = compileC(R"(
int depth(int n) {
    int local[8];
    local[0] = n;
    if (n <= 0) { return local[0]; }
    int r = depth(n - 1);
    return r + local[0];
}
int worker(int x) {
    int acc = 0;
    int i = 0;
    while (i < 20) {
        acc = acc + depth(12);
        i = i + 1;
    }
    return acc;
}
int main() {
    int t = spawn(worker, 0);
    int mine = depth(30);
    join(t);
    print(mine);
    return 0;
}
)");
    ASSERT_TRUE(m);
    for (uint64_t seed : {1, 9}) {
        VmConfig cfg;
        cfg.seed = seed;
        diffAllVariants(*m, cfg, "recursion seed " + std::to_string(seed));
    }
}

} // namespace
} // namespace conair::vm
