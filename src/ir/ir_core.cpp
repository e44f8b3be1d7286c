/**
 * @file
 * Implementation of the MiniIR core: types, builtins, values,
 * instructions, blocks, functions, and modules.
 */
#include "ir/basic_block.h"
#include "ir/builtins.h"
#include "ir/function.h"
#include "ir/instruction.h"
#include "ir/module.h"
#include "ir/type.h"
#include "ir/value.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "support/diag.h"
#include "support/str.h"

namespace conair::ir {

//
// Type
//

const char *
typeName(Type t)
{
    switch (t) {
      case Type::Void: return "void";
      case Type::I1: return "i1";
      case Type::I64: return "i64";
      case Type::F64: return "f64";
      case Type::Ptr: return "ptr";
    }
    return "?";
}

bool
typeFromName(const std::string &s, Type &out)
{
    for (Type t : {Type::Void, Type::I1, Type::I64, Type::F64, Type::Ptr}) {
        if (s == typeName(t)) {
            out = t;
            return true;
        }
    }
    return false;
}

//
// Builtins
//

namespace {

struct BuiltinInfo
{
    Builtin b;
    const char *name;
    Type result;
};

const BuiltinInfo builtinTable[] = {
    {Builtin::ThreadCreate, "thread_create", Type::I64},
    {Builtin::ThreadJoin, "thread_join", Type::Void},
    {Builtin::MutexLock, "mutex_lock", Type::Void},
    {Builtin::MutexUnlock, "mutex_unlock", Type::Void},
    {Builtin::MutexTimedLock, "mutex_timedlock", Type::I64},
    {Builtin::Malloc, "malloc", Type::Ptr},
    {Builtin::Free, "free", Type::Void},
    {Builtin::PrintI64, "print_i64", Type::Void},
    {Builtin::PrintF64, "print_f64", Type::Void},
    {Builtin::PrintStr, "print_str", Type::Void},
    {Builtin::AssertFail, "assert_fail", Type::Void},
    {Builtin::OracleFail, "oracle_fail", Type::Void},
    {Builtin::Time, "time", Type::I64},
    {Builtin::Yield, "yield", Type::Void},
    {Builtin::Sleep, "sleep", Type::Void},
    {Builtin::RandInt, "rand_int", Type::I64},
    {Builtin::CaCheckpoint, "conair.checkpoint", Type::Void},
    {Builtin::CaCheckpointLocals, "conair.checkpoint_locals",
     Type::Void},
    {Builtin::CaTryRollback, "conair.try_rollback", Type::Void},
    {Builtin::CaBackoff, "conair.backoff", Type::Void},
    {Builtin::CaNoteAlloc, "conair.note_alloc", Type::Void},
    {Builtin::CaNoteLock, "conair.note_lock", Type::Void},
    {Builtin::CaPtrCheck, "conair.ptr_check", Type::I1},
    {Builtin::CaRecovered, "conair.recovered", Type::Void},
};

} // namespace

const char *
builtinName(Builtin b)
{
    for (const auto &info : builtinTable)
        if (info.b == b)
            return info.name;
    return "<none>";
}

Builtin
builtinFromName(const std::string &name)
{
    for (const auto &info : builtinTable)
        if (name == info.name)
            return info.b;
    return Builtin::None;
}

Type
builtinResultType(Builtin b)
{
    for (const auto &info : builtinTable)
        if (info.b == b)
            return info.result;
    return Type::Void;
}

bool
builtinIsOutput(Builtin b)
{
    return b == Builtin::PrintI64 || b == Builtin::PrintF64 ||
           b == Builtin::PrintStr;
}

bool
builtinIsConAir(Builtin b)
{
    switch (b) {
      case Builtin::CaCheckpoint:
      case Builtin::CaCheckpointLocals:
      case Builtin::CaTryRollback:
      case Builtin::CaBackoff:
      case Builtin::CaNoteAlloc:
      case Builtin::CaNoteLock:
      case Builtin::CaPtrCheck:
      case Builtin::CaRecovered:
        return true;
      default:
        return false;
    }
}

//
// Value
//

void
Value::addUse(Instruction *user, unsigned index)
{
    uses_.push_back({user, index});
}

void
Value::removeUse(Instruction *user, unsigned index)
{
    Use *it = std::find(uses_.begin(), uses_.end(), Use{user, index});
    if (it == uses_.end())
        fatal("Value::removeUse: use not found");
    uses_.erase(it);
}

void
Value::replaceAllUsesWith(Value *repl)
{
    if (repl == this)
        return;
    // Each setOperand removes the front use, so this rewrites the uses
    // in list order.
    while (!uses_.empty()) {
        Use u = uses_[0];
        u.user->setOperand(u.index, repl);
    }
}

bool
Value::isConstant() const
{
    switch (kind_) {
      case ValueKind::ConstInt:
      case ValueKind::ConstFloat:
      case ValueKind::ConstNull:
      case ValueKind::ConstStr:
      case ValueKind::GlobalAddr:
      case ValueKind::FuncAddr:
        return true;
      default:
        return false;
    }
}

//
// Instruction
//

namespace {

struct OpcodeInfo
{
    Opcode op;
    const char *name;
};

const OpcodeInfo opcodeTable[] = {
    {Opcode::Alloca, "alloca"},   {Opcode::Load, "load"},
    {Opcode::Store, "store"},     {Opcode::Add, "add"},
    {Opcode::Sub, "sub"},         {Opcode::Mul, "mul"},
    {Opcode::SDiv, "sdiv"},       {Opcode::SRem, "srem"},
    {Opcode::And, "and"},         {Opcode::Or, "or"},
    {Opcode::Xor, "xor"},         {Opcode::Shl, "shl"},
    {Opcode::Shr, "shr"},         {Opcode::FAdd, "fadd"},
    {Opcode::FSub, "fsub"},       {Opcode::FMul, "fmul"},
    {Opcode::FDiv, "fdiv"},       {Opcode::ICmpEq, "icmp.eq"},
    {Opcode::ICmpNe, "icmp.ne"},  {Opcode::ICmpSlt, "icmp.slt"},
    {Opcode::ICmpSle, "icmp.sle"},{Opcode::ICmpSgt, "icmp.sgt"},
    {Opcode::ICmpSge, "icmp.sge"},{Opcode::FCmpEq, "fcmp.eq"},
    {Opcode::FCmpNe, "fcmp.ne"},  {Opcode::FCmpLt, "fcmp.lt"},
    {Opcode::FCmpLe, "fcmp.le"},  {Opcode::FCmpGt, "fcmp.gt"},
    {Opcode::FCmpGe, "fcmp.ge"},  {Opcode::SiToFp, "sitofp"},
    {Opcode::FpToSi, "fptosi"},   {Opcode::Zext, "zext"},
    {Opcode::PtrAdd, "ptradd"},
    {Opcode::Phi, "phi"},         {Opcode::Br, "br"},
    {Opcode::CondBr, "condbr"},   {Opcode::Ret, "ret"},
    {Opcode::Unreachable, "unreachable"}, {Opcode::Call, "call"},
    {Opcode::SchedHint, "sched_hint"},
};

} // namespace

const char *
opcodeName(Opcode op)
{
    for (const auto &info : opcodeTable)
        if (info.op == op)
            return info.name;
    return "?";
}

bool
opcodeFromName(const std::string &s, Opcode &out)
{
    for (const auto &info : opcodeTable) {
        if (s == info.name) {
            out = info.op;
            return true;
        }
    }
    return false;
}

void
Instruction::setOperand(unsigned i, Value *v)
{
    if (i >= operands_.size())
        fatal("Instruction::setOperand: index out of range");
    if (operands_[i])
        operands_[i]->removeUse(this, i);
    operands_[i] = v;
    if (v)
        v->addUse(this, i);
}

void
Instruction::addOperand(Value *v)
{
    operands_.push_back(v);
    if (v)
        v->addUse(this, operands_.size() - 1);
}

void
Instruction::dropAllOperands()
{
    for (unsigned i = 0; i < operands_.size(); ++i) {
        if (operands_[i])
            operands_[i]->removeUse(this, i);
    }
    operands_.clear();
}

void
Instruction::addIncoming(Value *v, BasicBlock *bb)
{
    addOperand(v);
    blockOps_.push_back(bb);
}

void
Instruction::removeIncoming(BasicBlock *bb)
{
    for (unsigned i = 0; i < blockOps_.size(); ++i) {
        if (blockOps_[i] != bb)
            continue;
        // Detach the matching operand, compacting both arrays.  Rebuild
        // the use bookkeeping because operand indices shift.
        std::vector<Value *> vals;
        std::vector<BasicBlock *> blocks;
        for (unsigned j = 0; j < blockOps_.size(); ++j) {
            if (j == i)
                continue;
            vals.push_back(operands_[j]);
            blocks.push_back(blockOps_[j]);
        }
        dropAllOperands();
        blockOps_.clear();
        for (unsigned j = 0; j < vals.size(); ++j)
            addIncoming(vals[j], blocks[j]);
        return;
    }
}

bool
Instruction::isTerminator() const
{
    switch (op_) {
      case Opcode::Br:
      case Opcode::CondBr:
      case Opcode::Ret:
      case Opcode::Unreachable:
        return true;
      default:
        return false;
    }
}

std::span<BasicBlock *const>
Instruction::successors() const
{
    size_t n = op_ == Opcode::Br ? 1 : op_ == Opcode::CondBr ? 2 : 0;
    return {blockOps_.data(), std::min(n, blockOps_.size())};
}

//
// BasicBlock
//

Instruction *
BasicBlock::append(std::unique_ptr<Instruction> inst)
{
    inst->setParent(this);
    insts_.push_back(std::move(inst));
    return insts_.back().get();
}

BasicBlock::iterator
BasicBlock::find(Instruction *inst)
{
    for (auto it = insts_.begin(); it != insts_.end(); ++it)
        if (it->get() == inst)
            return it;
    fatal("BasicBlock::find: instruction not in block");
}

Instruction *
BasicBlock::insertBefore(Instruction *pos, std::unique_ptr<Instruction> inst)
{
    auto it = find(pos);
    inst->setParent(this);
    return insts_.insert(it, std::move(inst))->get();
}

Instruction *
BasicBlock::insertAfter(Instruction *pos, std::unique_ptr<Instruction> inst)
{
    auto it = find(pos);
    ++it;
    inst->setParent(this);
    return insts_.insert(it, std::move(inst))->get();
}

std::unique_ptr<Instruction>
BasicBlock::remove(Instruction *inst)
{
    auto it = find(inst);
    std::unique_ptr<Instruction> owned = std::move(*it);
    insts_.erase(it);
    owned->setParent(nullptr);
    return owned;
}

void
BasicBlock::erase(Instruction *inst)
{
    if (inst->hasUses())
        fatal("BasicBlock::erase: instruction still has uses");
    std::unique_ptr<Instruction> owned = remove(inst);
    owned->dropAllOperands();
}

Instruction *
BasicBlock::terminator() const
{
    if (insts_.empty())
        return nullptr;
    Instruction *last = insts_.back().get();
    return last->isTerminator() ? last : nullptr;
}

std::span<BasicBlock *const>
BasicBlock::successors() const
{
    Instruction *term = terminator();
    return term ? term->successors() : std::span<BasicBlock *const>{};
}

Instruction *
BasicBlock::next(Instruction *inst)
{
    auto it = find(inst);
    ++it;
    return it == insts_.end() ? nullptr : it->get();
}

Instruction *
BasicBlock::prev(Instruction *inst)
{
    auto it = find(inst);
    return it == insts_.begin() ? nullptr : std::prev(it)->get();
}

//
// Function
//

Function::~Function()
{
    for (auto &bb : blocks_)
        for (auto &inst : bb->insts())
            inst->dropAllOperands();
}

Argument *
Function::addArg(Type t, std::string name)
{
    args_.push_back(
        std::make_unique<Argument>(t, std::move(name), args_.size(), this));
    return args_.back().get();
}

BasicBlock *
Function::addBlock(std::string name)
{
    blocks_.push_back(
        std::make_unique<BasicBlock>(freshBlockName(name), this));
    return blocks_.back().get();
}

BasicBlock *
Function::insertBlockAfter(BasicBlock *pos, std::string name)
{
    for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
        if (it->get() == pos) {
            ++it;
            auto nb =
                std::make_unique<BasicBlock>(freshBlockName(name), this);
            return blocks_.insert(it, std::move(nb))->get();
        }
    }
    fatal("Function::insertBlockAfter: block not found");
}

BasicBlock *
Function::entry() const
{
    return blocks_.empty() ? nullptr : blocks_.front().get();
}

void
Function::renumber()
{
    uint32_t b = 0, i = 0;
    for (auto &bb : blocks_) {
        bb->id_ = b++;
        for (auto &inst : bb->insts())
            inst->id_ = i++;
    }
}

std::string
Function::freshBlockName(const std::string &base)
{
    // Keep the requested name when it is still free.
    bool taken = false;
    for (const auto &bb : blocks_) {
        if (bb->name() == base) {
            taken = true;
            break;
        }
    }
    if (!taken)
        return base;
    for (;;) {
        std::string cand = strfmt("%s.%u", base.c_str(), ++nameCounter_);
        bool clash = false;
        for (const auto &bb : blocks_) {
            if (bb->name() == cand) {
                clash = true;
                break;
            }
        }
        if (!clash)
            return cand;
    }
}

size_t
Function::instructionCount() const
{
    size_t n = 0;
    for (const auto &bb : blocks_)
        n += bb->size();
    return n;
}

//
// Module
//

void
Module::renumber()
{
    for (auto &f : functions_)
        f->renumber();
}

Global *
Module::addGlobal(std::string name, Type elem_type, int64_t size,
                  bool is_mutex)
{
    if (findGlobal(name))
        fatal(strfmt("duplicate global @%s", name.c_str()));
    globals_.push_back(
        std::make_unique<Global>(std::move(name), elem_type, size, is_mutex));
    Global *g = globals_.back().get();
    g->setId(globals_.size() - 1);
    return g;
}

Global *
Module::findGlobal(const std::string &name) const
{
    for (const auto &g : globals_)
        if (g->name() == name)
            return g.get();
    return nullptr;
}

Function *
Module::addFunction(std::string name, Type ret_type)
{
    if (findFunction(name))
        fatal(strfmt("duplicate function @%s", name.c_str()));
    functions_.push_back(
        std::make_unique<Function>(std::move(name), ret_type, this));
    return functions_.back().get();
}

Module::~Module()
{
    // Every value an operand can name (instructions, arguments, pooled
    // constants, globals) dies with the module, so skip the per-use
    // unlinking that ~Function does for a lone function: erasing each
    // use from a pooled constant's long use list is quadratic in the
    // constant's popularity.
    for (auto &f : functions_)
        for (auto &bb : f->blocks())
            for (auto &inst : bb->insts())
                inst->forgetOperands();
}

Function *
Module::findFunction(const std::string &name) const
{
    for (const auto &f : functions_)
        if (f->name() == name)
            return f.get();
    return nullptr;
}

ConstInt *
Module::getInt(int64_t v, Type t)
{
    auto &cache = t == Type::I1 ? boolCache_ : intCache_;
    auto it = cache.find(v);
    if (it != cache.end())
        return it->second;
    pool_.push_back(std::make_unique<ConstInt>(v, t));
    auto *c = static_cast<ConstInt *>(pool_.back().get());
    cache[v] = c;
    return c;
}

ConstFloat *
Module::getFloat(double v)
{
    // Keyed by the bit pattern: -0.0 and +0.0, and NaNs with different
    // payloads, stay distinct constants.
    ConstFloat *&c = floatCache_[std::bit_cast<uint64_t>(v)];
    if (!c) {
        pool_.push_back(std::make_unique<ConstFloat>(v));
        c = static_cast<ConstFloat *>(pool_.back().get());
    }
    return c;
}

ConstNull *
Module::getNull()
{
    if (!null_) {
        pool_.push_back(std::make_unique<ConstNull>());
        null_ = static_cast<ConstNull *>(pool_.back().get());
    }
    return null_;
}

ConstStr *
Module::getStr(const std::string &s)
{
    uint32_t id;
    auto it = strIds_.find(s);
    if (it != strIds_.end()) {
        id = it->second;
    } else {
        id = strings_.size();
        strings_.push_back(s);
        strIds_[s] = id;
    }
    pool_.push_back(std::make_unique<ConstStr>(id));
    return static_cast<ConstStr *>(pool_.back().get());
}

GlobalAddr *
Module::getGlobalAddr(Global *g)
{
    auto it = globalAddrCache_.find(g);
    if (it != globalAddrCache_.end())
        return it->second;
    pool_.push_back(std::make_unique<GlobalAddr>(g));
    auto *addr = static_cast<GlobalAddr *>(pool_.back().get());
    globalAddrCache_[g] = addr;
    return addr;
}

FuncAddr *
Module::getFuncAddr(Function *f)
{
    auto it = funcAddrCache_.find(f);
    if (it != funcAddrCache_.end())
        return it->second;
    pool_.push_back(std::make_unique<FuncAddr>(f));
    auto *addr = static_cast<FuncAddr *>(pool_.back().get());
    funcAddrCache_[f] = addr;
    return addr;
}

} // namespace conair::ir
