#include "ir/builder.h"

#include <initializer_list>

#include "support/diag.h"

namespace conair::ir {

namespace {

/** A fresh instruction whose operand vector is sized up front. */
std::unique_ptr<Instruction>
make(Opcode op, Type t, std::initializer_list<Value *> ops)
{
    auto inst = std::make_unique<Instruction>(op, t);
    inst->reserveOperands(ops.size());
    for (Value *v : ops)
        inst->addOperand(v);
    return inst;
}

} // namespace

Instruction *
IRBuilder::emit(std::unique_ptr<Instruction> inst)
{
    if (!block_)
        fatal("IRBuilder: no insertion point");
    inst->setLoc(loc_);
    if (before_)
        return block_->insertBefore(before_, std::move(inst));
    return block_->append(std::move(inst));
}

Instruction *
IRBuilder::alloca_(int64_t cells)
{
    auto inst = std::make_unique<Instruction>(Opcode::Alloca, Type::Ptr);
    inst->setAllocaSize(cells);
    return emit(std::move(inst));
}

Instruction *
IRBuilder::load(Type t, Value *ptr)
{
    return emit(make(Opcode::Load, t, {ptr}));
}

Instruction *
IRBuilder::store(Value *v, Value *ptr)
{
    return emit(make(Opcode::Store, Type::Void, {v, ptr}));
}

Instruction *
IRBuilder::ptrAdd(Value *ptr, Value *offset)
{
    return emit(make(Opcode::PtrAdd, Type::Ptr, {ptr, offset}));
}

Instruction *
IRBuilder::binop(Opcode op, Value *lhs, Value *rhs)
{
    Type t = (op >= Opcode::FAdd && op <= Opcode::FDiv) ? Type::F64
                                                        : Type::I64;
    return emit(make(op, t, {lhs, rhs}));
}

Instruction *
IRBuilder::cmp(Opcode op, Value *lhs, Value *rhs)
{
    return emit(make(op, Type::I1, {lhs, rhs}));
}

Instruction *
IRBuilder::siToFp(Value *v)
{
    return emit(make(Opcode::SiToFp, Type::F64, {v}));
}

Instruction *
IRBuilder::fpToSi(Value *v)
{
    return emit(make(Opcode::FpToSi, Type::I64, {v}));
}

Instruction *
IRBuilder::zext(Value *v)
{
    return emit(make(Opcode::Zext, Type::I64, {v}));
}

Instruction *
IRBuilder::br(BasicBlock *target)
{
    auto inst = std::make_unique<Instruction>(Opcode::Br, Type::Void);
    inst->addBlockOp(target);
    return emit(std::move(inst));
}

Instruction *
IRBuilder::condBr(Value *cond, BasicBlock *t, BasicBlock *f)
{
    auto inst = make(Opcode::CondBr, Type::Void, {cond});
    inst->addBlockOp(t);
    inst->addBlockOp(f);
    return emit(std::move(inst));
}

Instruction *
IRBuilder::ret(Value *v)
{
    auto inst = std::make_unique<Instruction>(Opcode::Ret, Type::Void);
    if (v)
        inst->addOperand(v);
    return emit(std::move(inst));
}

Instruction *
IRBuilder::unreachable()
{
    return emit(
        std::make_unique<Instruction>(Opcode::Unreachable, Type::Void));
}

Instruction *
IRBuilder::phi(Type t)
{
    return emit(std::make_unique<Instruction>(Opcode::Phi, t));
}

Instruction *
IRBuilder::call(Function *callee, const std::vector<Value *> &args)
{
    auto inst =
        std::make_unique<Instruction>(Opcode::Call, callee->returnType());
    inst->setCallee(callee);
    inst->reserveOperands(args.size());
    for (Value *a : args)
        inst->addOperand(a);
    return emit(std::move(inst));
}

Instruction *
IRBuilder::callBuiltin(Builtin b, const std::vector<Value *> &args)
{
    auto inst =
        std::make_unique<Instruction>(Opcode::Call, builtinResultType(b));
    inst->setBuiltin(b);
    inst->reserveOperands(args.size());
    for (Value *a : args)
        inst->addOperand(a);
    return emit(std::move(inst));
}

Instruction *
IRBuilder::schedHint(uint64_t id)
{
    auto inst = std::make_unique<Instruction>(Opcode::SchedHint, Type::Void);
    inst->setHintId(id);
    return emit(std::move(inst));
}

} // namespace conair::ir
