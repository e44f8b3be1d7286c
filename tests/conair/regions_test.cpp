#include <unordered_set>

#include "tests/conair/conair_test_util.h"

namespace conair::ca {
namespace {

using testutil::parseIR;
using testutil::regionAt;
using testutil::taggedInst;

TEST(Regions, StoreBoundsTheRegion)
{
    auto m = parseIR(R"(
global @g : i64[1]

func @main() -> i64 {
entry:
    store 1, @g #"the_store"
    %0 = load i64, @g
    %1 = add %0, 1
    %2 = icmp.sgt %1, 0
    condbr %2, ok, fail
ok:
    ret 0
fail:
    call $assert_fail("boom") #"site"
    unreachable
}
)");
    Region r = regionAt(taggedInst(*m, "site"), RegionPolicy{});
    ASSERT_EQ(r.points.size(), 1u);
    EXPECT_FALSE(r.points[0].isFunctionEntry());
    EXPECT_EQ(r.points[0].after, taggedInst(*m, "the_store"));
    EXPECT_FALSE(r.cleanToEntry);
    EXPECT_FALSE(r.reachesEntry);
    // The loads/arithmetic between store and site are in the region.
    EXPECT_EQ(r.insts.size(), 4u); // load, add, icmp, condbr
}

TEST(Regions, CleanPathReachesFunctionEntry)
{
    auto m = parseIR(R"(
global @g : i64[1]

func @main() -> i64 {
entry:
    %0 = load i64, @g
    %1 = icmp.sgt %0, 0
    condbr %1, ok, fail
ok:
    ret 0
fail:
    call $assert_fail("boom") #"site"
    unreachable
}
)");
    Region r = regionAt(taggedInst(*m, "site"), RegionPolicy{});
    ASSERT_EQ(r.points.size(), 1u);
    EXPECT_TRUE(r.points[0].isFunctionEntry());
    EXPECT_TRUE(r.cleanToEntry);
    EXPECT_TRUE(r.reachesEntry);
}

TEST(Regions, BranchingProducesOnePointPerDirtyPath)
{
    auto m = parseIR(R"(
global @g : i64[2]

func @main(i64 %x) -> i64 {
entry:
    %0 = icmp.slt %x, 0
    condbr %0, left, right
left:
    store 1, @g #"store_left"
    br join
right:
    %1 = ptradd @g, 1
    store 2, %1 #"store_right"
    br join
join:
    %2 = load i64, @g
    %3 = icmp.sge %2, 0
    condbr %3, ok, fail
ok:
    ret 0
fail:
    call $assert_fail("boom") #"site"
    unreachable
}
)");
    Region r = regionAt(taggedInst(*m, "site"), RegionPolicy{});
    EXPECT_EQ(r.points.size(), 2u);
    std::unordered_set<const ir::Instruction *> afters;
    for (const Position &p : r.points) {
        EXPECT_FALSE(p.isFunctionEntry());
        afters.insert(p.after);
    }
    EXPECT_TRUE(afters.count(taggedInst(*m, "store_left")));
    EXPECT_TRUE(afters.count(taggedInst(*m, "store_right")));
    EXPECT_FALSE(r.cleanToEntry);
}

TEST(Regions, MixedCleanAndDirtyPaths)
{
    auto m = parseIR(R"(
global @g : i64[1]

func @main(i64 %x) -> i64 {
entry:
    %0 = icmp.slt %x, 0
    condbr %0, dirty, join
dirty:
    store 1, @g #"the_store"
    br join
join:
    %1 = load i64, @g
    %2 = icmp.sge %1, 0
    condbr %2, ok, fail
ok:
    ret 0
fail:
    call $assert_fail("boom") #"site"
    unreachable
}
)");
    Region r = regionAt(taggedInst(*m, "site"), RegionPolicy{});
    EXPECT_EQ(r.points.size(), 2u); // after store + function entry
    EXPECT_TRUE(r.reachesEntry);
    EXPECT_FALSE(r.cleanToEntry); // one path is dirty
}

TEST(Regions, CallsDestroyIdempotency)
{
    auto m = parseIR(R"(
func @helper() -> i64 {
entry:
    ret 1
}

func @main() -> i64 {
entry:
    %0 = call @helper() #"the_call"
    %1 = icmp.sgt %0, 0
    condbr %1, ok, fail
ok:
    ret 0
fail:
    call $assert_fail("boom") #"site"
    unreachable
}
)");
    Region r = regionAt(taggedInst(*m, "site"), RegionPolicy{});
    ASSERT_EQ(r.points.size(), 1u);
    EXPECT_EQ(r.points[0].after, taggedInst(*m, "the_call"));
}

TEST(Regions, OutputCallsDestroyIdempotency)
{
    auto m = parseIR(R"(
global @g : i64[1]

func @main() -> i64 {
entry:
    call $print_str("hello") #"io"
    %0 = load i64, @g
    %1 = icmp.sgt %0, -1
    condbr %1, ok, fail
ok:
    ret 0
fail:
    call $assert_fail("boom") #"site"
    unreachable
}
)");
    Region r = regionAt(taggedInst(*m, "site"), RegionPolicy{});
    ASSERT_EQ(r.points.size(), 1u);
    EXPECT_EQ(r.points[0].after, taggedInst(*m, "io"));
}

TEST(Regions, LibraryExtensionAdmitsMallocAndLock)
{
    auto m = parseIR(R"(
mutex @mu

func @main() -> i64 {
entry:
    %0 = call $malloc(4) #"alloc"
    call $mutex_lock(@mu) #"acq"
    %1 = icmp.ne %0, null
    condbr %1, ok, fail
ok:
    ret 0
fail:
    call $assert_fail("boom") #"site"
    unreachable
}
)");
    RegionPolicy with;
    Region r1 = regionAt(taggedInst(*m, "site"), with);
    ASSERT_EQ(r1.points.size(), 1u);
    EXPECT_TRUE(r1.points[0].isFunctionEntry());
    EXPECT_TRUE(r1.contains(taggedInst(*m, "alloc")));
    EXPECT_TRUE(r1.contains(taggedInst(*m, "acq")));

    RegionPolicy without;
    without.allowCompensableCalls = false;
    Region r2 = regionAt(taggedInst(*m, "site"), without);
    ASSERT_EQ(r2.points.size(), 1u);
    EXPECT_EQ(r2.points[0].after, taggedInst(*m, "acq"));
}

TEST(Regions, FreeAndUnlockStayDestroying)
{
    auto m = parseIR(R"(
mutex @mu

func @main() -> i64 {
entry:
    %0 = call $malloc(4)
    call $free(%0) #"rel"
    %1 = icmp.eq %0, null
    condbr %1, ok, fail
ok:
    ret 0
fail:
    call $assert_fail("boom") #"site"
    unreachable
}
)");
    Region r = regionAt(taggedInst(*m, "site"), RegionPolicy{});
    ASSERT_EQ(r.points.size(), 1u);
    EXPECT_EQ(r.points[0].after, taggedInst(*m, "rel"));
}

TEST(Regions, LoopBodyRegionTerminates)
{
    // A clean loop between the site and the entry: the walk must
    // terminate and find the entry point.
    auto m = parseIR(R"(
global @g : i64[1]

func @main(i64 %n) -> i64 {
entry:
    br head
head:
    %0 = phi i64 [0, entry], [%1, body]
    %1 = add %0, 1
    %2 = icmp.slt %1, %n
    condbr %2, body, after
body:
    br head
after:
    %3 = load i64, @g
    %4 = icmp.sge %3, 0
    condbr %4, ok, fail
ok:
    ret 0
fail:
    call $assert_fail("boom") #"site"
    unreachable
}
)");
    Region r = regionAt(taggedInst(*m, "site"), RegionPolicy{});
    ASSERT_EQ(r.points.size(), 1u);
    EXPECT_TRUE(r.points[0].isFunctionEntry());
    EXPECT_TRUE(r.cleanToEntry);
}

TEST(Regions, SchedHintIsNeutral)
{
    auto m = parseIR(R"(
global @g : i64[1]

func @main() -> i64 {
entry:
    sched_hint 1
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
    Region r = regionAt(taggedInst(*m, "site"), RegionPolicy{});
    ASSERT_EQ(r.points.size(), 1u);
    EXPECT_TRUE(r.points[0].isFunctionEntry());
}

TEST(Regions, CallerRegionEndsBeforeCall)
{
    auto m = parseIR(R"(
global @p : ptr[1]

func @callee(ptr %x) -> i64 {
entry:
    %0 = load i64, %x
    ret %0
}

func @main() -> i64 {
entry:
    store 0, @p #"setup"
    %0 = load ptr, @p
    %1 = call @callee(%0) #"the_call"
    ret %1
}
)");
    ir::Instruction *call = taggedInst(*m, "the_call");
    Region r = computeCallerRegion(ir::Cfg(*call->parent()->parent()), call,
                                   RegionPolicy{});
    ASSERT_EQ(r.points.size(), 1u);
    EXPECT_EQ(r.points[0].after, taggedInst(*m, "setup"));
    // The pointer load before the call is inside the caller region.
    EXPECT_EQ(r.insts.size(), 1u);
}

} // namespace
} // namespace conair::ca
