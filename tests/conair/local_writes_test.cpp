/**
 * @file
 * The Fig 4 "regions with local-variable writes" design point: longer
 * regions whose checkpoints save the frame's stack slots.  The paper
 * sketches this as the next point right of ConAir on the spectrum
 * (more bugs recovered / more overhead); these tests pin down its
 * semantics against the base design.
 */
#include "tests/conair/conair_test_util.h"

#include "apps/harness.h"

namespace conair::ca {
namespace {

using ir::Builtin;
using testutil::compileC;
using testutil::countBuiltinCalls;
using testutil::parseIR;
using testutil::regionAt;
using testutil::taggedInst;

TEST(LocalWrites, StackStoresStopBoundingRegions)
{
    auto m = parseIR(R"(
global @g : i64[1]

func @main() -> i64 {
entry:
    %0 = alloca 2
    %1 = load i64, @g
    %2 = ptradd %0, 0
    store %1, %2 #"local_store"
    %3 = icmp.sge %1, 0
    condbr %3, ok, fail
ok:
    ret 0
fail:
    call $assert_fail("boom") #"site"
    unreachable
}
)");
    RegionPolicy base;
    Region r1 = regionAt(taggedInst(*m, "site"), base);
    ASSERT_EQ(r1.points.size(), 1u);
    EXPECT_EQ(r1.points[0].after, taggedInst(*m, "local_store"));

    RegionPolicy locals;
    locals.allowLocalWrites = true;
    Region r2 = regionAt(taggedInst(*m, "site"), locals);
    ASSERT_EQ(r2.points.size(), 1u);
    EXPECT_TRUE(r2.points[0].isFunctionEntry());
    EXPECT_TRUE(r2.contains(taggedInst(*m, "local_store")));
}

TEST(LocalWrites, GlobalStoresStillBound)
{
    auto m = parseIR(R"(
global @g : i64[1]

func @main() -> i64 {
entry:
    store 1, @g #"shared_store"
    %0 = load i64, @g
    %1 = icmp.sge %0, 0
    condbr %1, ok, fail
ok:
    ret 0
fail:
    call $assert_fail("boom") #"site"
    unreachable
}
)");
    RegionPolicy locals;
    locals.allowLocalWrites = true;
    Region r = regionAt(taggedInst(*m, "site"), locals);
    ASSERT_EQ(r.points.size(), 1u);
    EXPECT_EQ(r.points[0].after, taggedInst(*m, "shared_store"));
}

TEST(LocalWrites, SlicerTracesThroughRegionStackStores)
{
    // oracle on a value staged through a local buffer: only the
    // extended slicer sees the shared read feeding the store.
    auto m = parseIR(R"(
global @flag : i64[1]

func @main() -> i64 {
entry:
    %0 = alloca 1
    %1 = load i64, @flag #"shared_read"
    store %1, %0 #"stage"
    %2 = load i64, %0 #"reload"
    %3 = icmp.eq %2, 1
    condbr %3, ok, fail
ok:
    ret 0
fail:
    call $oracle_fail("wrong") #"site"
    unreachable
}
)");
    ir::Instruction *site = taggedInst(*m, "site");
    FailureSite fs{site, FailureKind::WrongOutput, 1, true};
    analysis::FunctionAnalysis fa(*site->parent()->parent());

    RegionPolicy base;
    Region r1 = regionAt(site, base);
    EXPECT_EQ(classifyRecoverability(fs, r1, fa, base),
              Recoverability::NoSharedReadOnSlice);

    RegionPolicy locals;
    locals.allowLocalWrites = true;
    Region r2 = regionAt(site, locals);
    EXPECT_EQ(classifyRecoverability(fs, r2, fa, locals),
              Recoverability::Recoverable);
}

// A bug whose recovery NEEDS the extended regions: the failing thread
// stages the shared flag through an address-taken local before the
// oracle checks the staged copy.
const char *staged_src = R"(
int flag;
int setter(int x) {
    hint(1);
    flag = 1;
    return 0;
}
int main() {
    int t = spawn(setter, 0);
    int staged[1];
    staged[0] = flag;       // local store of the shared read
    int v = staged[0];
    oracle(v == 1);
    print("v=", v, "\n");
    join(t);
    return 0;
}
)";

vm::VmConfig
stagedSchedule()
{
    vm::VmConfig cfg;
    cfg.delays = {{1, 4'000}};
    cfg.maxRetries = 2'000;
    return cfg;
}

TEST(LocalWrites, ExtendedRegionsRecoverStagedOracle)
{
    // Base ConAir: the region cannot cross the local store, so the
    // retry replays the stale staged value forever.
    {
        auto m = compileC(staged_src);
        ConAirOptions opts; // base policy
        applyConAir(*m, opts);
        vm::RunResult r = vm::runProgram(*m, stagedSchedule());
        EXPECT_EQ(r.outcome, vm::Outcome::OracleFail);
    }
    // Local-writes policy: the checkpoint saves the frame's slots, the
    // region reaches back across the store, and reexecution re-stages
    // the (eventually published) flag.
    {
        auto m = compileC(staged_src);
        ConAirOptions opts;
        opts.regionPolicy.allowLocalWrites = true;
        applyConAir(*m, opts);
        EXPECT_GT(countBuiltinCalls(*m, Builtin::CaCheckpointLocals),
                  0u);
        EXPECT_EQ(countBuiltinCalls(*m, Builtin::CaCheckpoint), 0u);
        vm::RunResult r = vm::runProgram(*m, stagedSchedule());
        EXPECT_EQ(r.outcome, vm::Outcome::Success) << r.failureMsg;
        EXPECT_EQ(r.output, "v=1\n");
        EXPECT_GT(r.stats.rollbacks, 0u);
    }
}

TEST(LocalWrites, AppsStillRecoverUnderExtendedPolicy)
{
    for (const char *name : {"HTTrack", "MySQL2", "HawkNL"}) {
        const apps::AppSpec *app = apps::findApp(name);
        apps::HardenOptions opts;
        opts.conair.regionPolicy.allowLocalWrites = true;
        apps::PreparedApp p = apps::prepareApp(*app, opts);
        vm::RunResult r = apps::runBuggy(p, 1);
        EXPECT_TRUE(apps::runIsCorrect(*app, r))
            << name << ": " << vm::outcomeName(r.outcome) << " "
            << r.failureMsg;
    }
}

TEST(LocalWrites, SemanticsPreservedOnCleanRuns)
{
    const apps::AppSpec *app = apps::findApp("MySQL1");
    apps::HardenOptions plain;
    plain.applyConAir = false;
    apps::PreparedApp base = apps::prepareApp(*app, plain);
    apps::HardenOptions ext;
    ext.conair.regionPolicy.allowLocalWrites = true;
    apps::PreparedApp hard = apps::prepareApp(*app, ext);
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        vm::RunResult a = apps::runClean(base, seed);
        vm::RunResult b = apps::runClean(hard, seed);
        ASSERT_EQ(a.outcome, vm::Outcome::Success);
        ASSERT_EQ(b.outcome, vm::Outcome::Success) << b.failureMsg;
        EXPECT_EQ(a.output, b.output);
    }
}

} // namespace
} // namespace conair::ca
