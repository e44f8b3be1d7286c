#include <gtest/gtest.h>

#include "analysis/slicing.h"
#include "ir/parser.h"

namespace conair::analysis {
namespace {

using ir::Function;
using ir::Instruction;

struct Parsed
{
    std::unique_ptr<ir::Module> m;
    Function *f;

    explicit Parsed(const std::string &text)
    {
        DiagEngine d;
        m = ir::parseModule(text, d);
        EXPECT_TRUE(m) << d.str();
        f = m->functions().front().get();
    }

    Instruction *
    tagged(const std::string &tag) const
    {
        for (auto &bb : f->blocks())
            for (auto &inst : bb->insts())
                if (inst->tag() == tag)
                    return inst.get();
        return nullptr;
    }
};

TEST(Slicing, FollowsDataDependences)
{
    Parsed p(R"(
global @g : i64[1]

func @f() -> i64 {
entry:
    %0 = load i64, @g        #"shared_read"
    %1 = add %0, 1           #"dep1"
    %2 = mul %1, 2           #"dep2"
    %3 = add 5, 5            #"unrelated"
    %4 = icmp.slt %2, 100    #"cond"
    condbr %4, ok, fail
ok:
    ret %2
fail:
    call $assert_fail("f:8: assert failed")
    unreachable
}
)");
    FunctionAnalysis fa(*p.f);
    SliceResult slice =
        backwardSlice(fa, {p.tagged("cond")});
    EXPECT_TRUE(slice.contains(p.tagged("cond")));
    EXPECT_TRUE(slice.contains(p.tagged("dep2")));
    EXPECT_TRUE(slice.contains(p.tagged("dep1")));
    EXPECT_TRUE(slice.contains(p.tagged("shared_read")));
    EXPECT_FALSE(slice.contains(p.tagged("unrelated")));
    EXPECT_TRUE(slice.args.empty());
}

TEST(Slicing, StopsAtLoads)
{
    // The address computation feeding a load is NOT on the slice: the
    // load is an endpoint (Fig 8 of the paper).
    Parsed p(R"(
global @tbl : i64[8]

func @f(i64 %i) -> i64 {
entry:
    %0 = ptradd @tbl, %i     #"addr"
    %1 = load i64, %0        #"the_load"
    %2 = add %1, 1           #"use"
    ret %2
}
)");
    FunctionAnalysis fa(*p.f);
    SliceResult slice = backwardSlice(fa, {p.tagged("use")});
    EXPECT_TRUE(slice.contains(p.tagged("the_load")));
    EXPECT_FALSE(slice.contains(p.tagged("addr")));
    // %i feeds only the address, so it must not be on the slice either.
    EXPECT_TRUE(slice.args.empty());
}

TEST(Slicing, ReachesArguments)
{
    Parsed p(R"(
func @get_state(ptr %thd) -> i64 {
entry:
    %0 = icmp.ne %thd, null  #"check"
    condbr %0, ok, fail
ok:
    %1 = load i64, %thd
    ret %1
fail:
    ret 0
}
)");
    FunctionAnalysis fa(*p.f);
    SliceResult slice = backwardSlice(fa, {p.tagged("check")});
    ASSERT_EQ(slice.args.size(), 1u);
    EXPECT_EQ((*slice.args.begin())->name(), "thd");
}

TEST(Slicing, IncludesControlDependence)
{
    // The value merged at the phi is control-dependent on the branch;
    // the branch condition reads a global, which must land on the slice.
    Parsed p(R"(
global @mode : i64[1]

func @f() -> i64 {
entry:
    %0 = load i64, @mode     #"mode_read"
    %1 = icmp.eq %0, 1       #"branch_cond"
    condbr %1, a, b
a:
    %2 = add 10, 0
    br join
b:
    %3 = add 20, 0
    br join
join:
    %4 = phi i64 [%2, a], [%3, b]
    %5 = add %4, 1           #"seed"
    ret %5
}
)");
    FunctionAnalysis fa(*p.f);
    SliceResult slice = backwardSlice(fa, {p.tagged("seed")});
    EXPECT_TRUE(slice.contains(p.tagged("branch_cond")));
    EXPECT_TRUE(slice.contains(p.tagged("mode_read")));
}

TEST(ControlDeps, DiamondArmsDependOnBranch)
{
    Parsed p(R"(
func @f(i64 %x) -> i64 {
entry:
    %0 = icmp.slt %x, 0
    condbr %0, a, b
a:
    br join
b:
    br join
join:
    ret 0
}
)");
    ir::Cfg cfg(*p.f);
    ControlDeps cd(cfg);
    ir::BasicBlock *a = nullptr, *b = nullptr, *join = nullptr,
                   *entry = nullptr;
    for (auto &bb : p.f->blocks()) {
        if (bb->name() == "a") a = bb.get();
        if (bb->name() == "b") b = bb.get();
        if (bb->name() == "join") join = bb.get();
        if (bb->name() == "entry") entry = bb.get();
    }
    const Instruction *branch = entry->terminator();
    ASSERT_EQ(cd.of(a).size(), 1u);
    EXPECT_EQ(cd.of(a)[0], branch);
    ASSERT_EQ(cd.of(b).size(), 1u);
    EXPECT_EQ(cd.of(b)[0], branch);
    EXPECT_TRUE(cd.of(join).empty());
    EXPECT_TRUE(cd.of(entry).empty());
}

TEST(ControlDeps, LoopBodyDependsOnHeader)
{
    Parsed p(R"(
func @f(i64 %n) -> i64 {
entry:
    br head
head:
    %0 = phi i64 [0, entry], [%1, body]
    %2 = icmp.slt %0, %n
    condbr %2, body, done
body:
    %1 = add %0, 1
    br head
done:
    ret %0
}
)");
    ir::Cfg cfg(*p.f);
    ControlDeps cd(cfg);
    ir::BasicBlock *head = nullptr, *body = nullptr;
    for (auto &bb : p.f->blocks()) {
        if (bb->name() == "head") head = bb.get();
        if (bb->name() == "body") body = bb.get();
    }
    const Instruction *branch = head->terminator();
    bool body_dep = false;
    for (auto *t : cd.of(body))
        body_dep |= t == branch;
    EXPECT_TRUE(body_dep);
    // The loop header is control dependent on its own branch.
    bool head_dep = false;
    for (auto *t : cd.of(head))
        head_dep |= t == branch;
    EXPECT_TRUE(head_dep);
}

} // namespace
} // namespace conair::analysis
