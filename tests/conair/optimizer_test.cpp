/**
 * @file
 * Tests of the §4.2 unnecessary-rollback elimination, mirroring the
 * paper's Fig 7 examples.
 */
#include "tests/conair/conair_test_util.h"

namespace conair::ca {
namespace {

using testutil::parseIR;
using testutil::regionAt;
using testutil::taggedInst;

Recoverability
classifySite(ir::Module &m, const std::string &tag, FailureKind kind)
{
    ir::Instruction *inst = taggedInst(m, tag);
    EXPECT_NE(inst, nullptr);
    FailureSite site{inst, kind, 1, kind == FailureKind::WrongOutput};
    Region region = regionAt(inst, RegionPolicy{});
    analysis::FunctionAnalysis fa(*inst->parent()->parent());
    return classifyRecoverability(site, region, fa);
}

TEST(Optimizer, Fig7aLockWithBareRegionIsUnrecoverable)
{
    // Reexecution: lock(&L) with nothing before it — rolling back
    // releases nothing, the deadlock peers stay stuck.
    auto m = parseIR(R"(
mutex @L

func @main() -> i64 {
entry:
    store 1, @L
    call $mutex_lock(@L) #"site"
    ret 0
}
)");
    // (The store only bounds the region right before the lock.)
    EXPECT_EQ(classifySite(*m, "site", FailureKind::Deadlock),
              Recoverability::NoLockInRegion);
}

TEST(Optimizer, Fig7bLockAfterLockIsRecoverable)
{
    auto m = parseIR(R"(
mutex @L0
mutex @L

func @main() -> i64 {
entry:
    call $mutex_lock(@L0)
    call $mutex_lock(@L) #"site"
    ret 0
}
)");
    EXPECT_EQ(classifySite(*m, "site", FailureKind::Deadlock),
              Recoverability::Recoverable);
}

TEST(Optimizer, Fig7cLocalOnlyAssertIsUnrecoverable)
{
    // tmp = tmp + 1; assert(tmp): replaying pure register arithmetic
    // can never change the outcome.
    auto m = parseIR(R"(
func @main(i64 %tmp0) -> i64 {
entry:
    %0 = add %tmp0, 1
    %1 = icmp.ne %0, 0
    condbr %1, ok, fail
ok:
    ret 0
fail:
    call $assert_fail("boom") #"site"
    unreachable
}
)");
    EXPECT_EQ(classifySite(*m, "site", FailureKind::Assertion),
              Recoverability::NoSharedReadOnSlice);
}

TEST(Optimizer, Fig7dGlobalReadAssertIsRecoverable)
{
    // tmp = global_x; assert(tmp): the re-read can observe another
    // thread's write.
    auto m = parseIR(R"(
global @global_x : i64[1]

func @main() -> i64 {
entry:
    %0 = load i64, @global_x
    %1 = icmp.ne %0, 0
    condbr %1, ok, fail
ok:
    ret 0
fail:
    call $assert_fail("boom") #"site"
    unreachable
}
)");
    EXPECT_EQ(classifySite(*m, "site", FailureKind::Assertion),
              Recoverability::Recoverable);
}

TEST(Optimizer, SharedReadOutsideRegionDoesNotHelp)
{
    // The global read sits before a store, i.e. outside the region:
    // reexecution never re-reads it.
    auto m = parseIR(R"(
global @g : i64[1]
global @sink : i64[1]

func @main() -> i64 {
entry:
    %0 = load i64, @g
    store %0, @sink
    %1 = icmp.ne %0, 0
    condbr %1, ok, fail
ok:
    ret 0
fail:
    call $assert_fail("boom") #"site"
    unreachable
}
)");
    EXPECT_EQ(classifySite(*m, "site", FailureKind::Assertion),
              Recoverability::NoSharedReadOnSlice);
}

TEST(Optimizer, SegfaultSiteWithPointerReloadIsRecoverable)
{
    // Dereference of a freshly loaded global pointer: the reload can
    // observe the initialising thread (HTTrack/MozillaXP pattern).
    auto m = parseIR(R"(
global @p : ptr[1]

func @main() -> i64 {
entry:
    %0 = load ptr, @p
    %1 = load i64, %0 #"site"
    ret %1
}
)");
    EXPECT_EQ(classifySite(*m, "site", FailureKind::Segfault),
              Recoverability::Recoverable);
}

TEST(Optimizer, SegfaultOnParameterPointerIsUnrecoverable)
{
    // The pointer arrives as an argument: nothing inside the region
    // re-reads shared state (this is what §4.3 later rescues).
    auto m = parseIR(R"(
func @get_state(ptr %thd) -> i64 {
entry:
    %0 = load i64, %thd #"site"
    ret %0
}
)");
    EXPECT_EQ(classifySite(*m, "site", FailureKind::Segfault),
              Recoverability::NoSharedReadOnSlice);
}

TEST(Optimizer, ControlDependentSharedReadQualifies)
{
    // The assert's own operand chain is local, but the branch deciding
    // whether the failing path runs reads a global inside the region.
    auto m = parseIR(R"(
global @mode : i64[1]

func @main(i64 %x) -> i64 {
entry:
    %0 = load i64, @mode
    %1 = icmp.eq %0, 1
    condbr %1, checkx, ok
checkx:
    %2 = icmp.sge %x, 0
    condbr %2, ok, fail
ok:
    ret 0
fail:
    call $assert_fail("boom") #"site"
    unreachable
}
)");
    EXPECT_EQ(classifySite(*m, "site", FailureKind::Assertion),
              Recoverability::Recoverable);
}

TEST(Optimizer, DriverDropsUnrecoverableSites)
{
    auto m = parseIR(R"(
func @main(i64 %x) -> i64 {
entry:
    %0 = add %x, 1
    %1 = icmp.ne %0, 0
    condbr %1, ok, fail
ok:
    ret 0
fail:
    call $assert_fail("boom") #"site"
    unreachable
}
)");
    ConAirOptions opts;
    opts.interproc = false; // isolate §4.2
    ConAirReport r = applyConAir(*m, opts);
    EXPECT_EQ(r.identified.assertion, 1u);
    EXPECT_EQ(r.recoverable.assertion, 0u);
    EXPECT_EQ(r.sitesDroppedByOptimizer, 1u);
    EXPECT_EQ(r.staticReexecPoints, 0u);
    EXPECT_EQ(testutil::countBuiltinCalls(*m,
                                          ir::Builtin::CaTryRollback),
              0u);
}

TEST(Optimizer, DisablingOptimizationKeepsEverything)
{
    auto m = parseIR(R"(
func @main(i64 %x) -> i64 {
entry:
    %0 = add %x, 1
    %1 = icmp.ne %0, 0
    condbr %1, ok, fail
ok:
    ret 0
fail:
    call $assert_fail("boom") #"site"
    unreachable
}
)");
    ConAirOptions opts;
    opts.optimize = false;
    opts.interproc = false;
    ConAirReport r = applyConAir(*m, opts);
    EXPECT_EQ(r.recoverable.assertion, 1u);
    EXPECT_GE(r.staticReexecPoints, 1u);
    EXPECT_EQ(testutil::countBuiltinCalls(*m,
                                          ir::Builtin::CaTryRollback),
              1u);
}

} // namespace
} // namespace conair::ca
