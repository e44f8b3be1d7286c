#include <bit>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/cfg.h"
#include "ir/module.h"
#include "ir/printer.h"

namespace conair::ir {
namespace {

TEST(Module, ConstantsAreUniquedWhereExpected)
{
    Module m;
    EXPECT_EQ(m.getInt(7), m.getInt(7));
    EXPECT_NE(m.getInt(7), m.getInt(8));
    EXPECT_EQ(m.getNull(), m.getNull());
    EXPECT_EQ(m.getBool(true), m.getBool(true));
    EXPECT_NE(static_cast<Value *>(m.getBool(false)),
              static_cast<Value *>(m.getInt(0)));
}

TEST(Module, FloatConstantsAreUniquedByBitPattern)
{
    // mem2reg asks for 0.0 once per promoted float slot: the pool must
    // not grow per call.  Distinct bit patterns stay distinct.
    Module m;
    ConstFloat *zero = m.getFloat(0.0);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(m.getFloat(0.0), zero);
    EXPECT_NE(m.getFloat(-0.0), zero);
    EXPECT_EQ(m.getFloat(-0.0), m.getFloat(-0.0));
    EXPECT_EQ(m.getFloat(1.5), m.getFloat(1.5));
    EXPECT_NE(m.getFloat(1.5), zero);
    const double nanA = std::bit_cast<double>(0x7ff8000000000001ull);
    const double nanB = std::bit_cast<double>(0x7ff8000000000002ull);
    EXPECT_EQ(m.getFloat(nanA), m.getFloat(nanA));
    EXPECT_NE(m.getFloat(nanA), m.getFloat(nanB));
}

TEST(Module, TeardownWithPopularConstants)
{
    // Module teardown skips per-use unlinking; a constant with many
    // uses across functions must still die cleanly, and erasing one
    // instruction before that still unlinks its use.
    auto m = std::make_unique<Module>();
    ConstInt *zero = m->getInt(0);
    Instruction *dead = nullptr;
    for (int fi = 0; fi < 4; ++fi) {
        Function *f = m->addFunction("f" + std::to_string(fi), Type::I64);
        IRBuilder b(m.get());
        b.setInsertAtEnd(f->addBlock("entry"));
        Value *acc = zero;
        for (int i = 0; i < 200; ++i)
            acc = b.binop(Opcode::Add, acc, zero);
        dead = b.binop(Opcode::Add, zero, zero);
        b.ret(acc);
    }
    // 200 chained adds use zero 201 times, the dead add twice more.
    EXPECT_EQ(zero->uses().size(), 4u * 203);
    dead->parent()->erase(dead);
    EXPECT_EQ(zero->uses().size(), 4u * 203 - 2);
    m.reset();
}

TEST(Module, InternedStringsShareIds)
{
    Module m;
    ConstStr *a = m.getStr("hello");
    ConstStr *b = m.getStr("hello");
    ConstStr *c = m.getStr("other");
    EXPECT_EQ(a->id(), b->id());
    EXPECT_NE(a->id(), c->id());
    EXPECT_EQ(m.strAt(a->id()), "hello");
}

TEST(Module, GlobalLookup)
{
    Module m;
    Global *g = m.addGlobal("flag", Type::I64, 1);
    EXPECT_EQ(m.findGlobal("flag"), g);
    EXPECT_EQ(m.findGlobal("missing"), nullptr);
    EXPECT_FALSE(g->isMutex());
    Global *mu = m.addGlobal("lock", Type::I64, 1, true);
    EXPECT_TRUE(mu->isMutex());
}

TEST(UseList, TracksOperands)
{
    Module m;
    Function *f = m.addFunction("f", Type::I64);
    BasicBlock *bb = f->addBlock("entry");
    IRBuilder b(&m);
    b.setInsertAtEnd(bb);
    Instruction *x = b.binop(Opcode::Add, m.getInt(1), m.getInt(2));
    Instruction *y = b.binop(Opcode::Mul, x, x);
    EXPECT_EQ(x->uses().size(), 2u);
    EXPECT_EQ(x->uses()[0].user, y);

    Instruction *z = b.binop(Opcode::Sub, m.getInt(0), m.getInt(0));
    x->replaceAllUsesWith(z);
    EXPECT_TRUE(x->uses().empty());
    EXPECT_EQ(y->operand(0), z);
    EXPECT_EQ(y->operand(1), z);
    EXPECT_EQ(z->uses().size(), 2u);
    b.ret(y);
}

TEST(BasicBlock, InsertAndRemove)
{
    Module m;
    Function *f = m.addFunction("f", Type::Void);
    BasicBlock *bb = f->addBlock("entry");
    IRBuilder b(&m);
    b.setInsertAtEnd(bb);
    Instruction *first = b.binop(Opcode::Add, m.getInt(1), m.getInt(1));
    Instruction *last = b.ret();
    EXPECT_EQ(bb->size(), 2u);
    EXPECT_EQ(bb->terminator(), last);

    b.setInsertBefore(last);
    Instruction *mid = b.binop(Opcode::Mul, m.getInt(2), m.getInt(2));
    EXPECT_EQ(bb->next(first), mid);
    EXPECT_EQ(bb->prev(last), mid);
    EXPECT_EQ(bb->next(last), nullptr);
    EXPECT_EQ(bb->prev(first), nullptr);

    bb->erase(mid);
    EXPECT_EQ(bb->size(), 2u);
    EXPECT_EQ(bb->next(first), last);
}

TEST(Instruction, SuccessorsFollowTerminator)
{
    Module m;
    Function *f = m.addFunction("f", Type::Void);
    BasicBlock *a = f->addBlock("a");
    BasicBlock *t = f->addBlock("t");
    BasicBlock *e = f->addBlock("e");
    IRBuilder b(&m);
    b.setInsertAtEnd(a);
    Instruction *cond = b.cmp(Opcode::ICmpEq, m.getInt(1), m.getInt(1));
    b.condBr(cond, t, e);
    b.setInsertAtEnd(t);
    b.ret();
    b.setInsertAtEnd(e);
    b.ret();

    auto succs = a->successors();
    ASSERT_EQ(succs.size(), 2u);
    EXPECT_EQ(succs[0], t);
    EXPECT_EQ(succs[1], e);
    EXPECT_TRUE(t->successors().empty());

    f->renumber();
    Cfg cfg(*f);
    ASSERT_EQ(cfg.numBlocks(), 3u);
    EXPECT_EQ(cfg.block(0), a);
    EXPECT_TRUE(cfg.preds(0).empty());
    for (uint32_t b : {1u, 2u}) {
        ASSERT_EQ(cfg.preds(b).size(), 1u);
        EXPECT_EQ(cfg.preds(b)[0], 0u);
    }
    ASSERT_EQ(cfg.succs(0).size(), 2u);
    EXPECT_EQ(cfg.succs(0)[0], 1u);
    EXPECT_EQ(cfg.succs(0)[1], 2u);
}

/** Two-block function: entry (cmp, br) -> exit (ret). */
Function *
twoBlocks(Module &m)
{
    Function *f = m.addFunction("f", Type::Void);
    BasicBlock *a = f->addBlock("a");
    BasicBlock *z = f->addBlock("z");
    IRBuilder b(&m);
    b.setInsertAtEnd(a);
    b.cmp(Opcode::ICmpEq, m.getInt(1), m.getInt(2));
    b.br(z);
    b.setInsertAtEnd(z);
    b.ret();
    return f;
}

TEST(Cfg, RenumberGivesProgramOrderIds)
{
    Module m;
    Function *f = twoBlocks(m);
    EXPECT_EQ(f->entry()->id(), kNoId);
    f->renumber();
    Cfg cfg(*f);
    ASSERT_EQ(cfg.numInsts(), 3u);
    for (uint32_t i = 0; i < cfg.numInsts(); ++i) {
        EXPECT_EQ(cfg.inst(i)->id(), i);
        EXPECT_EQ(cfg.id(cfg.inst(i)), i);
    }
    EXPECT_EQ(cfg.firstInst(0), 0u);
    EXPECT_EQ(cfg.endInst(0), 2u);
    EXPECT_EQ(cfg.firstInst(1), 2u);
    EXPECT_EQ(cfg.endInst(1), 3u);
}

TEST(CfgDeathTest, StaleNumberingIsFatal)
{
    Module m;
    Function *f = twoBlocks(m);
    EXPECT_DEATH(Cfg{*f}, "numbering is stale");
    f->renumber();
    // An inserted instruction, and an added block, both go stale.
    IRBuilder b(&m);
    b.setInsertBefore(f->entry()->front());
    b.schedHint(1);
    EXPECT_DEATH(Cfg{*f}, "numbering is stale");
    f->renumber();
    Cfg fresh(*f);
    f->addBlock("late");
    EXPECT_DEATH(Cfg{*f}, "numbering is stale");
    // A block of another function is refused by id().
    Module other;
    Function *g = twoBlocks(other);
    g->renumber();
    EXPECT_DEATH(fresh.id(g->entry()), "not in this function");
}

TEST(Function, FreshBlockNamesAreUnique)
{
    Module m;
    Function *f = m.addFunction("f", Type::Void);
    BasicBlock *a = f->addBlock("bb");
    BasicBlock *b2 = f->addBlock("bb");
    EXPECT_NE(a->name(), b2->name());
}

TEST(Phi, RemoveIncomingCompacts)
{
    Module m;
    Function *f = m.addFunction("f", Type::I64);
    BasicBlock *a = f->addBlock("a");
    BasicBlock *b2 = f->addBlock("b");
    BasicBlock *c = f->addBlock("c");
    IRBuilder b(&m);
    b.setInsertAtEnd(a);
    b.br(c);
    b.setInsertAtEnd(b2);
    b.br(c);
    b.setInsertAtEnd(c);
    Instruction *phi = b.phi(Type::I64);
    phi->addIncoming(m.getInt(1), a);
    phi->addIncoming(m.getInt(2), b2);
    b.ret(phi);

    phi->removeIncoming(a);
    ASSERT_EQ(phi->numOperands(), 1u);
    EXPECT_EQ(phi->incomingBlock(0), b2);
    EXPECT_EQ(static_cast<ConstInt *>(phi->operand(0))->value(), 2);
}

TEST(Builtins, NamesRoundTrip)
{
    for (auto b : {Builtin::ThreadCreate, Builtin::MutexTimedLock,
                   Builtin::CaCheckpoint, Builtin::CaPtrCheck,
                   Builtin::PrintStr, Builtin::AssertFail}) {
        EXPECT_EQ(builtinFromName(builtinName(b)), b);
    }
    EXPECT_EQ(builtinFromName("no_such_builtin"), Builtin::None);
}

TEST(Opcodes, NamesRoundTrip)
{
    for (auto op : {Opcode::Alloca, Opcode::Load, Opcode::Store,
                    Opcode::FCmpGe, Opcode::Zext, Opcode::SchedHint,
                    Opcode::Unreachable}) {
        Opcode back;
        ASSERT_TRUE(opcodeFromName(opcodeName(op), back));
        EXPECT_EQ(back, op);
    }
}

} // namespace
} // namespace conair::ir
