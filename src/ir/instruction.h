/**
 * @file
 * MiniIR instructions.
 *
 * A single concrete Instruction class carries an opcode plus per-opcode
 * payload fields.  This keeps IR surgery (the ConAir transform) simple
 * and the interpreter dispatch flat.
 */
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ir/builtins.h"
#include "ir/value.h"
#include "support/diag.h"
#include "support/intern.h"

namespace conair::ir {

class BasicBlock;

/** Every MiniIR operation. */
enum class Opcode : uint8_t {
    // Memory.
    Alloca, ///< reserve allocaSize() cells in the current frame -> ptr
    Load,   ///< (ptr) -> value
    Store,  ///< (value, ptr) -> void

    // Integer arithmetic (i64).
    Add, Sub, Mul, SDiv, SRem, And, Or, Xor, Shl, Shr,

    // Floating-point arithmetic (f64).
    FAdd, FSub, FMul, FDiv,

    // Comparisons -> i1.  ICmp also accepts two ptr operands (Eq/Ne).
    ICmpEq, ICmpNe, ICmpSlt, ICmpSle, ICmpSgt, ICmpSge,
    FCmpEq, FCmpNe, FCmpLt, FCmpLe, FCmpGt, FCmpGe,

    // Conversions.
    SiToFp, ///< (i64) -> f64
    FpToSi, ///< (f64) -> i64 (truncating)
    Zext,   ///< (i1) -> i64 (0 or 1)

    // Pointer arithmetic: (ptr, i64 offset-in-cells) -> ptr.
    PtrAdd,

    // Control flow.
    Phi,    ///< SSA merge; incomingBlock(i) pairs with operand(i)
    Br,     ///< unconditional branch to target(0)
    CondBr, ///< (i1): branch to target(0) when true, target(1) when false
    Ret,    ///< optional operand
    Unreachable,

    // Calls (user functions and builtins).
    Call,

    // Scheduler hint: a no-op that the VM's interleaving controller keys
    // on.  Idempotency-neutral by design (see DESIGN.md §2).
    SchedHint,
};

/** Printable opcode mnemonic. */
const char *opcodeName(Opcode op);

/** Looks up an opcode by mnemonic; returns false when unknown. */
bool opcodeFromName(const std::string &s, Opcode &out);

/**
 * One MiniIR instruction.  Owned by its BasicBlock; usable as an operand
 * of other instructions when it produces a value (type() != Void).
 */
class Instruction : public Value
{
  public:
    Instruction(Opcode op, Type type)
        : Value(ValueKind::Instruction, type), op_(op)
    {}

    ~Instruction() override { dropAllOperands(); }

    Opcode opcode() const { return op_; }
    BasicBlock *parent() const { return parent_; }
    void setParent(BasicBlock *bb) { parent_ = bb; }

    /** Position in the function's program order, as of the last
     *  Function::renumber() (kNoId before it); see ir/cfg.h. */
    uint32_t id() const { return id_; }

    /// @{ Operand access.
    unsigned numOperands() const { return unsigned(operands_.size()); }
    Value *operand(unsigned i) const { return operands_[i]; }
    void setOperand(unsigned i, Value *v);
    void addOperand(Value *v);
    void reserveOperands(unsigned n) { operands_.reserve(n); }
    void dropAllOperands();
    /// @}

    /// @{ Alloca payload.
    int64_t allocaSize() const { return allocaSize_; }
    void setAllocaSize(int64_t n) { allocaSize_ = n; }
    /// @}

    /// @{ Call payload: either a user function or a builtin.
    Function *callee() const { return callee_; }
    void setCallee(Function *f) { callee_ = f; }
    Builtin builtin() const { return builtin_; }
    void setBuiltin(Builtin b) { builtin_ = b; }
    /// @}

    /// @{ Block operands (branch targets / phi incoming blocks).
    unsigned numBlockOps() const { return unsigned(blockOps_.size()); }
    BasicBlock *blockOp(unsigned i) const { return blockOps_[i]; }
    void setBlockOp(unsigned i, BasicBlock *bb) { blockOps_[i] = bb; }
    void addBlockOp(BasicBlock *bb) { blockOps_.push_back(bb); }
    /// @}

    /// @{ Phi helpers: operand(i) flows in from incomingBlock(i).
    BasicBlock *incomingBlock(unsigned i) const { return blockOps_[i]; }
    void addIncoming(Value *v, BasicBlock *bb);
    /** Removes the incoming edge from @p bb (if any). */
    void removeIncoming(BasicBlock *bb);
    /// @}

    /// @{ SchedHint payload.
    uint64_t hintId() const { return hintId_; }
    void setHintId(uint64_t id) { hintId_ = id; }
    /// @}

    /** Source location (from the MiniC front-end), for diagnostics. */
    SrcLoc loc() const { return loc_; }
    void setLoc(SrcLoc loc) { loc_ = loc; }

    /** Free-form annotation; used to name fix-mode failure sites.
     *  Stored interned (support/intern.h): tagId() is what the VM
     *  records, tag() the string it names. */
    const std::string &tag() const { return tagName(tag_); }
    TagId tagId() const { return tag_; }
    void setTag(std::string_view t) { tag_ = intern(t); }

    bool isTerminator() const;
    bool
    producesValue() const
    {
        return type() != Type::Void;
    }

    /** Successor blocks when this is a terminator: a view of the
     *  branch targets, valid until the block operands change. */
    std::span<BasicBlock *const> successors() const;

  private:
    friend class Function; // renumber() writes id_
    friend class Module;   // teardown forgets operands wholesale

    /** Drops the operand list without unlinking the uses: only for a
     *  module teardown, where every used value dies too. */
    void forgetOperands() { operands_.clear(); }

    Opcode op_;
    uint32_t id_ = kNoId;
    SmallVec<Value *, 2> operands_; ///< most instructions have <= 2
    BasicBlock *parent_ = nullptr;

    int64_t allocaSize_ = 1;
    Function *callee_ = nullptr;
    Builtin builtin_ = Builtin::None;
    SmallVec<BasicBlock *, 2> blockOps_; ///< branch targets, phi blocks
    uint64_t hintId_ = 0;
    SrcLoc loc_;
    TagId tag_ = kNoTag;
};

} // namespace conair::ir
