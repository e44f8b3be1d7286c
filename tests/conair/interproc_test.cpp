/**
 * @file
 * Tests of the §4.3 inter-procedural recovery analysis, built around
 * the MozillaXP pattern (Fig 10).
 */
#include "tests/conair/conair_test_util.h"

namespace conair::ca {
namespace {

using testutil::parseIR;
using testutil::siteByTag;
using testutil::regionAt;
using testutil::taggedInst;

// GetState(thd) dereferences its parameter; Get() loads the shared
// pointer @mthd and passes it down.  Recovery must reexecute the load
// in the caller.
const char *mozilla_xp = R"(
global @mthd : ptr[1]
global @scratch : i64[1]

func @get_state(ptr %thd) -> i64 {
entry:
    %0 = load i64, %thd #"site"
    ret %0
}

func @get(i64 %unused) -> i64 {
entry:
    store 0, @scratch #"caller_store"
    %0 = load ptr, @mthd #"caller_load"
    %1 = call @get_state(%0) #"the_call"
    ret %1
}
)";

TEST(Interproc, PromotesParameterDerefIntoCaller)
{
    auto m = parseIR(mozilla_xp);
    ir::Instruction *site_inst = taggedInst(*m, "site");
    FailureSite site{site_inst, FailureKind::Segfault, 1, false};
    Region region = regionAt(site_inst, RegionPolicy{});
    ASSERT_TRUE(region.cleanToEntry);

    analysis::CallGraph cg(*m);
    analysis::ModuleAnalysis ma;
    InterprocDecision d = analyzeInterproc(site, region, cg, ma,
                                           RegionPolicy{}, {});
    ASSERT_TRUE(d.promoted);
    ASSERT_EQ(d.callerPoints.size(), 1u);
    // The caller point is right after the store, so the @mthd load is
    // re-executed on rollback.
    EXPECT_EQ(d.callerPoints[0].after,
              taggedInst(*m, "caller_store"));
    EXPECT_EQ(d.depthUsed, 1u);
}

TEST(Interproc, RequiresCriticalParameterOnSlice)
{
    // The dereferenced pointer comes from a global read inside the
    // callee, not from a parameter: condition (2) fails (and the site
    // is intra-procedurally recoverable anyway).
    auto m = parseIR(R"(
global @p : ptr[1]

func @callee(i64 %unused) -> i64 {
entry:
    %0 = load ptr, @p
    %1 = load i64, %0 #"site"
    ret %1
}

func @main() -> i64 {
entry:
    %0 = call @callee(0)
    ret %0
}
)");
    ir::Instruction *site_inst = taggedInst(*m, "site");
    FailureSite site{site_inst, FailureKind::Segfault, 1, false};
    Region region = regionAt(site_inst, RegionPolicy{});
    analysis::CallGraph cg(*m);
    analysis::ModuleAnalysis ma;
    InterprocDecision d = analyzeInterproc(site, region, cg, ma,
                                           RegionPolicy{}, {});
    EXPECT_FALSE(d.promoted);
}

TEST(Interproc, DirtyPathBlocksPromotion)
{
    auto m = parseIR(R"(
global @sink : i64[1]

func @callee(ptr %p) -> i64 {
entry:
    store 1, @sink
    %0 = load i64, %p #"site"
    ret %0
}

func @main() -> i64 {
entry:
    %0 = call $malloc(1)
    %1 = call @callee(%0)
    ret %1
}
)");
    ir::Instruction *site_inst = taggedInst(*m, "site");
    FailureSite site{site_inst, FailureKind::Segfault, 1, false};
    Region region = regionAt(site_inst, RegionPolicy{});
    EXPECT_FALSE(region.cleanToEntry);
    analysis::CallGraph cg(*m);
    analysis::ModuleAnalysis ma;
    InterprocDecision d = analyzeInterproc(site, region, cg, ma,
                                           RegionPolicy{}, {});
    EXPECT_FALSE(d.promoted);
}

TEST(Interproc, ClimbsThroughCleanWrappers)
{
    // site <- inner <- wrapper <- main; inner and wrapper are pure
    // forwarding functions, main loads the shared pointer.
    auto m = parseIR(R"(
global @p : ptr[1]
global @scratch : i64[1]

func @inner(ptr %x) -> i64 {
entry:
    %0 = load i64, %x #"site"
    ret %0
}

func @wrapper(ptr %y) -> i64 {
entry:
    %0 = call @inner(%y) #"call_in_wrapper"
    ret %0
}

func @main() -> i64 {
entry:
    store 0, @scratch #"main_store"
    %0 = load ptr, @p
    %1 = call @wrapper(%0)
    ret %1
}
)");
    ir::Instruction *site_inst = taggedInst(*m, "site");
    FailureSite site{site_inst, FailureKind::Segfault, 1, false};
    Region region = regionAt(site_inst, RegionPolicy{});
    analysis::CallGraph cg(*m);
    analysis::ModuleAnalysis ma;
    InterprocDecision d = analyzeInterproc(site, region, cg, ma,
                                           RegionPolicy{}, {});
    ASSERT_TRUE(d.promoted);
    EXPECT_EQ(d.depthUsed, 2u);
    ASSERT_EQ(d.callerPoints.size(), 1u);
    EXPECT_EQ(d.callerPoints[0].after, taggedInst(*m, "main_store"));
}

TEST(Interproc, DepthLimitForcesGiveUp)
{
    auto m = parseIR(R"(
global @p : ptr[1]

func @l0(ptr %x) -> i64 {
entry:
    %0 = load i64, %x #"site"
    ret %0
}

func @l1(ptr %x) -> i64 {
entry:
    %0 = call @l0(%x)
    ret %0
}

func @l2(ptr %x) -> i64 {
entry:
    %0 = call @l1(%x)
    ret %0
}

func @main() -> i64 {
entry:
    %0 = load ptr, @p
    %1 = call @l2(%0)
    ret %1
}
)");
    ir::Instruction *site_inst = taggedInst(*m, "site");
    FailureSite site{site_inst, FailureKind::Segfault, 1, false};
    Region region = regionAt(site_inst, RegionPolicy{});
    analysis::CallGraph cg(*m);
    analysis::ModuleAnalysis ma;

    InterprocOptions deep;
    deep.maxDepth = 3;
    InterprocDecision d3 = analyzeInterproc(site, region, cg, ma,
                                            RegionPolicy{}, deep);
    EXPECT_TRUE(d3.promoted);
    EXPECT_EQ(d3.depthUsed, 3u);

    InterprocOptions shallow;
    shallow.maxDepth = 2;
    InterprocDecision d2 = analyzeInterproc(site, region, cg, ma,
                                            RegionPolicy{}, shallow);
    EXPECT_FALSE(d2.promoted);
    EXPECT_TRUE(d2.gaveUp);
}

TEST(Interproc, NoCallersMeansNoPromotion)
{
    auto m = parseIR(R"(
func @main(i64 %x) -> i64 {
entry:
    %0 = add %x, 0
    %1 = icmp.ne %0, 0
    condbr %1, ok, fail
ok:
    ret 0
fail:
    call $assert_fail("boom") #"site"
    unreachable
}
)");
    ir::Instruction *site_inst = taggedInst(*m, "site");
    FailureSite site{site_inst, FailureKind::Assertion, 1, false};
    Region region = regionAt(site_inst, RegionPolicy{});
    analysis::CallGraph cg(*m);
    analysis::ModuleAnalysis ma;
    InterprocDecision d = analyzeInterproc(site, region, cg, ma,
                                           RegionPolicy{}, {});
    EXPECT_FALSE(d.promoted);
}

TEST(Interproc, DriverIntegration)
{
    auto m = parseIR(mozilla_xp);
    ConAirReport r = applyConAir(*m);
    const SiteReport *site = siteByTag(r, "site");
    ASSERT_NE(site, nullptr);
    EXPECT_TRUE(site->interproc);
    EXPECT_TRUE(site->recoverable);
    EXPECT_EQ(r.interprocSites, 1u);
    // The checkpoint landed in @get, not in @get_state.
    bool in_get = false, in_get_state = false;
    for (auto &f : m->functions()) {
        for (auto &bb : f->blocks()) {
            for (auto &inst : bb->insts()) {
                if (inst->opcode() == ir::Opcode::Call &&
                    inst->builtin() == ir::Builtin::CaCheckpoint) {
                    in_get |= f->name() == "get";
                    in_get_state |= f->name() == "get_state";
                }
            }
        }
    }
    EXPECT_TRUE(in_get);
    EXPECT_FALSE(in_get_state);
}

} // namespace
} // namespace conair::ca
