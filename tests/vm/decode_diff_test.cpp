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
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/harness.h"
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

void
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
    // interpreter-local predicate).
    const apps::AppSpec *app = apps::findApp("MySQL1");
    ASSERT_NE(app, nullptr);
    apps::HardenOptions harden;
    apps::PreparedApp hardened = apps::prepareApp(*app, harden);

    VmConfig cfg = app->cleanConfig;
    cfg.seed = 3;
    cfg.chaosRollbackEveryN = 200;
    diffAllVariants(*hardened.module, cfg, "MySQL1 chaos");
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
