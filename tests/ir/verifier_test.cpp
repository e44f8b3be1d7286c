#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/verifier.h"

namespace conair::ir {
namespace {

/** Builds `func @f() -> i64 { entry: ... }` and hands back the builder. */
struct Fixture
{
    Module m;
    Function *f;
    BasicBlock *entry;
    IRBuilder b{&m};

    Fixture()
    {
        f = m.addFunction("f", Type::I64);
        entry = f->addBlock("entry");
        b.setInsertAtEnd(entry);
    }

    /** Verifies the module as a pass hands it on: numbered. */
    bool
    verify()
    {
        m.renumber();
        DiagEngine d;
        return verifyModule(m, d);
    }
};

TEST(Verifier, AcceptsWellFormed)
{
    Fixture fx;
    fx.b.ret(fx.m.getInt(0));
    EXPECT_TRUE(fx.verify());
}

TEST(Verifier, RejectsStaleNumbering)
{
    Fixture fx;
    fx.b.ret(fx.m.getInt(0));
    ASSERT_TRUE(fx.verify());
    // An edit without renumber() leaves ids the analyses would misread.
    fx.b.setInsertBefore(fx.entry->front());
    fx.b.schedHint(7);
    DiagEngine d;
    EXPECT_FALSE(verifyModule(fx.m, d));
    EXPECT_NE(d.str().find("stale"), std::string::npos) << d.str();
    EXPECT_TRUE(fx.verify());
}

TEST(Verifier, RejectsMissingTerminator)
{
    Fixture fx;
    fx.b.binop(Opcode::Add, fx.m.getInt(1), fx.m.getInt(2));
    EXPECT_FALSE(fx.verify());
}

TEST(Verifier, RejectsMidBlockTerminator)
{
    Fixture fx;
    fx.b.ret(fx.m.getInt(0));
    fx.b.binop(Opcode::Add, fx.m.getInt(1), fx.m.getInt(2));
    EXPECT_FALSE(fx.verify());
}

TEST(Verifier, RejectsTypeMismatch)
{
    Fixture fx;
    Instruction *x = fx.b.binop(Opcode::FAdd, fx.m.getFloat(1),
                                fx.m.getFloat(2));
    // i64 add fed a f64 operand.
    auto bad = std::make_unique<Instruction>(Opcode::Add, Type::I64);
    bad->addOperand(x);
    bad->addOperand(fx.m.getInt(1));
    Instruction *badp = fx.entry->append(std::move(bad));
    fx.b.ret(badp);
    EXPECT_FALSE(fx.verify());
}

TEST(Verifier, RejectsWrongReturnType)
{
    Fixture fx;
    auto r = std::make_unique<Instruction>(Opcode::Ret, Type::Void);
    r->addOperand(fx.m.getFloat(1.0));
    fx.entry->append(std::move(r));
    EXPECT_FALSE(fx.verify());
}

TEST(Verifier, RejectsPhiNotMatchingPreds)
{
    Fixture fx;
    BasicBlock *next = fx.f->addBlock("next");
    fx.b.br(next);
    fx.b.setInsertAtEnd(next);
    Instruction *phi = fx.b.phi(Type::I64);
    // Claims an incoming edge from "next" itself, which is not a pred.
    phi->addIncoming(fx.m.getInt(1), next);
    fx.b.ret(phi);
    EXPECT_FALSE(fx.verify());
}

TEST(Verifier, RejectsPhiAfterNonPhi)
{
    Fixture fx;
    BasicBlock *next = fx.f->addBlock("next");
    fx.b.br(next);
    fx.b.setInsertAtEnd(next);
    fx.b.binop(Opcode::Add, fx.m.getInt(1), fx.m.getInt(1));
    Instruction *phi = fx.b.phi(Type::I64);
    phi->addIncoming(fx.m.getInt(1), fx.entry);
    fx.b.ret(phi);
    EXPECT_FALSE(fx.verify());
}

TEST(Verifier, RejectsBadCallArity)
{
    Fixture fx;
    Function *g = fx.m.addFunction("g", Type::I64);
    g->addArg(Type::I64, "x");
    BasicBlock *gb = g->addBlock("entry");
    IRBuilder bg(&fx.m);
    bg.setInsertAtEnd(gb);
    bg.ret(g->arg(0));

    Instruction *call = fx.b.call(g, {}); // missing argument
    fx.b.ret(call);
    EXPECT_FALSE(fx.verify());
}

TEST(Verifier, RejectsBuiltinArgType)
{
    Fixture fx;
    // malloc expects i64, given f64.
    auto call = std::make_unique<Instruction>(Opcode::Call, Type::Ptr);
    call->setBuiltin(Builtin::Malloc);
    call->addOperand(fx.m.getFloat(8.0));
    fx.entry->append(std::move(call));
    fx.b.ret(fx.m.getInt(0));
    EXPECT_FALSE(fx.verify());
}

TEST(Verifier, RejectsCondBrOnInt)
{
    Fixture fx;
    BasicBlock *a = fx.f->addBlock("a");
    BasicBlock *c = fx.f->addBlock("c");
    auto br = std::make_unique<Instruction>(Opcode::CondBr, Type::Void);
    br->addOperand(fx.m.getInt(1)); // i64, not i1
    br->addBlockOp(a);
    br->addBlockOp(c);
    fx.entry->append(std::move(br));
    IRBuilder b2(&fx.m);
    b2.setInsertAtEnd(a);
    b2.ret(fx.m.getInt(0));
    b2.setInsertAtEnd(c);
    b2.ret(fx.m.getInt(0));
    EXPECT_FALSE(fx.verify());
}

TEST(Verifier, RejectsEmptyFunction)
{
    Module m;
    m.addFunction("f", Type::Void);
    DiagEngine d;
    EXPECT_FALSE(verifyModule(m, d));
}

TEST(Verifier, RejectsNonPositiveAlloca)
{
    Fixture fx;
    Instruction *a = fx.b.alloca_(0);
    (void)a;
    fx.b.ret(fx.m.getInt(0));
    EXPECT_FALSE(fx.verify());
}

TEST(Verifier, AcceptsPtrEqualityCompare)
{
    Fixture fx;
    Instruction *p = fx.b.alloca_(1);
    Instruction *c = fx.b.cmp(Opcode::ICmpEq, p, fx.m.getNull());
    fx.b.ret(fx.b.zext(c));
    EXPECT_TRUE(fx.verify());
}

TEST(Verifier, RejectsPtrOrderedCompare)
{
    Fixture fx;
    Instruction *p = fx.b.alloca_(1);
    auto bad = std::make_unique<Instruction>(Opcode::ICmpSlt, Type::I1);
    bad->addOperand(p);
    bad->addOperand(fx.m.getNull());
    Instruction *c = fx.entry->append(std::move(bad));
    fx.b.ret(fx.b.zext(c));
    EXPECT_FALSE(fx.verify());
}

} // namespace
} // namespace conair::ir
