#include <gtest/gtest.h>

#include "analysis/dominators.h"
#include "ir/parser.h"

namespace conair::analysis {
namespace {

using ir::BasicBlock;
using ir::Function;

std::unique_ptr<ir::Module>
parse(const std::string &text)
{
    DiagEngine d;
    auto m = ir::parseModule(text, d);
    EXPECT_TRUE(m) << d.str();
    return m;
}

BasicBlock *
block(Function *f, const std::string &name)
{
    for (auto &bb : f->blocks())
        if (bb->name() == name)
            return bb.get();
    return nullptr;
}

const char *diamond = R"(
func @f(i64 %x) -> i64 {
entry:
    %0 = icmp.slt %x, 0
    condbr %0, left, right
left:
    br join
right:
    br join
join:
    %1 = phi i64 [1, left], [2, right]
    ret %1
}
)";

TEST(DomTree, DiamondDominators)
{
    auto m = parse(diamond);
    Function *f = m->findFunction("f");
    ir::Cfg cfg(*f);
    DomTree dt(cfg);
    BasicBlock *entry = block(f, "entry");
    BasicBlock *left = block(f, "left");
    BasicBlock *right = block(f, "right");
    BasicBlock *join = block(f, "join");

    EXPECT_EQ(dt.idom(entry), nullptr);
    EXPECT_EQ(dt.idom(left), entry);
    EXPECT_EQ(dt.idom(right), entry);
    EXPECT_EQ(dt.idom(join), entry);
    EXPECT_TRUE(dt.dominates(entry, join));
    EXPECT_FALSE(dt.dominates(left, join));
    EXPECT_TRUE(dt.dominates(join, join));
}

TEST(DomTree, DiamondFrontiers)
{
    auto m = parse(diamond);
    Function *f = m->findFunction("f");
    ir::Cfg cfg(*f);
    DomTree dt(cfg);
    BasicBlock *left = block(f, "left");
    BasicBlock *right = block(f, "right");
    BasicBlock *join = block(f, "join");

    ASSERT_EQ(dt.frontier(left).size(), 1u);
    EXPECT_EQ(dt.frontier(left)[0], join);
    ASSERT_EQ(dt.frontier(right).size(), 1u);
    EXPECT_EQ(dt.frontier(right)[0], join);
    EXPECT_TRUE(dt.frontier(join).empty());
}

TEST(DomTree, DiamondPostDominators)
{
    auto m = parse(diamond);
    Function *f = m->findFunction("f");
    ir::Cfg cfg(*f);
    DomTree pdt(cfg, /*post=*/true);
    BasicBlock *entry = block(f, "entry");
    BasicBlock *left = block(f, "left");
    BasicBlock *join = block(f, "join");

    EXPECT_TRUE(pdt.dominates(join, entry));
    EXPECT_TRUE(pdt.dominates(join, left));
    EXPECT_FALSE(pdt.dominates(left, entry));
    EXPECT_EQ(pdt.idom(left), join);
    EXPECT_EQ(pdt.idom(entry), join);
}

TEST(DomTree, LoopDominance)
{
    auto m = parse(R"(
func @loop(i64 %n) -> i64 {
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
    Function *f = m->findFunction("loop");
    ir::Cfg cfg(*f);
    DomTree dt(cfg);
    BasicBlock *head = block(f, "head");
    BasicBlock *body = block(f, "body");
    BasicBlock *done = block(f, "done");

    EXPECT_EQ(dt.idom(body), head);
    EXPECT_EQ(dt.idom(done), head);
    EXPECT_TRUE(dt.dominates(head, body));
    EXPECT_FALSE(dt.dominates(body, done));
    // head is in body's dominance frontier (back edge).
    bool found = false;
    for (BasicBlock *fr : dt.frontier(body))
        found |= fr == head;
    EXPECT_TRUE(found);
}

TEST(DomTree, InstructionDominance)
{
    auto m = parse(diamond);
    Function *f = m->findFunction("f");
    ir::Cfg cfg(*f);
    DomTree dt(cfg);
    ir::Instruction *cmp = block(f, "entry")->front();
    ir::Instruction *phi = block(f, "join")->front();
    EXPECT_TRUE(dt.dominatesInst(cmp, phi));
    EXPECT_FALSE(dt.dominatesInst(phi, cmp));
    // Same-block ordering.
    ir::Instruction *ret = block(f, "join")->back();
    EXPECT_TRUE(dt.dominatesInst(phi, ret));
    EXPECT_FALSE(dt.dominatesInst(ret, phi));
}

TEST(DomTree, RpoStartsAtEntry)
{
    auto m = parse(diamond);
    Function *f = m->findFunction("f");
    ir::Cfg cfg(*f);
    DomTree dt(cfg);
    ASSERT_FALSE(dt.rpo().empty());
    EXPECT_EQ(dt.rpo().front(), f->entry());
    EXPECT_EQ(dt.rpo().size(), 4u);
}

TEST(VerifySSA, AcceptsValidAndRejectsBroken)
{
    auto m = parse(diamond);
    Function *f = m->findFunction("f");
    DiagEngine d;
    EXPECT_TRUE(verifySSA(*f, d)) << d.str();

    // Move the phi's operand definition after its use: simulate by using
    // a value from 'left' inside 'right' (no dominance).
    auto m2 = parse(R"(
func @g(i64 %x) -> i64 {
entry:
    condbr true, left, right
left:
    %0 = add %x, 1
    br join
right:
    %1 = add %0, 2
    br join
join:
    %2 = phi i64 [%0, left], [%1, right]
    ret %2
}
)");
    DiagEngine d2;
    EXPECT_FALSE(verifySSA(*m2->findFunction("g"), d2));
}

} // namespace
} // namespace conair::analysis
