#include "ir/verifier.h"

#include <optional>
#include <unordered_set>

#include "ir/cfg.h"
#include "ir/printer.h"
#include "support/str.h"

namespace conair::ir {

namespace {

class Verifier
{
  public:
    Verifier(const Module &m, DiagEngine &diags) : m_(m), diags_(diags) {}

    bool
    runModule()
    {
        std::unordered_set<std::string> names;
        for (const auto &f : m_.functions()) {
            if (!names.insert(f->name()).second)
                error(nullptr, "duplicate function name @" + f->name());
            runFunction(*f);
        }
        for (const auto &g : m_.globals()) {
            if (g->size() <= 0)
                error(nullptr, "global @" + g->name() +
                                   " has non-positive size");
        }
        return ok_;
    }

    bool
    runFunction(const Function &f)
    {
        func_ = &f;
        if (f.blocks().empty()) {
            error(nullptr, "function @" + f.name() + " has no blocks");
            return ok_;
        }
        // The numbering must be current: ir::Cfg and every analysis
        // index by it.
        blocks_.clear();
        uint32_t num_insts = 0;
        bool fresh = true;
        for (const auto &bb : f.blocks()) {
            fresh &= bb->id() == blocks_.size();
            blocks_.push_back(bb.get());
            for (const auto &inst : bb->insts())
                fresh &= inst->id() == num_insts++;
        }
        if (!fresh) {
            error(nullptr, "function @" + f.name() +
                               " has a stale block/instruction numbering "
                               "(Function::renumber() missing after an "
                               "edit)");
            return ok_;
        }

        // Predecessors come from the CFG snapshot, which needs every
        // branch target to be a block of this function.
        bool targets_ok = true;
        for (const auto &bb : f.blocks())
            for (const BasicBlock *s : bb->successors())
                targets_ok &= ownBlock(s);
        std::optional<Cfg> cfg;
        if (targets_ok)
            cfg.emplace(f);
        predMark_.assign(blocks_.size(), 0);
        inMark_.assign(blocks_.size(), 0);
        epoch_ = 0;

        for (const auto &bb : f.blocks()) {
            if (bb->empty()) {
                error(nullptr, "empty block " + bb->name());
                continue;
            }
            if (!bb->terminator())
                error(bb->back(), "block " + bb->name() +
                                      " does not end in a terminator");
            std::span<const uint32_t> preds;
            if (cfg)
                preds = cfg->preds(bb->id());
            bool seen_non_phi = false;
            for (const auto &inst : bb->insts()) {
                if (inst->parent() != bb.get())
                    error(inst.get(), "instruction parent link broken");
                if (inst->isTerminator() && inst.get() != bb->back())
                    error(inst.get(), "terminator in the middle of block");
                if (inst->opcode() == Opcode::Phi) {
                    if (seen_non_phi)
                        error(inst.get(), "phi after non-phi instruction");
                } else {
                    seen_non_phi = true;
                }
                checkInst(*inst, preds, cfg.has_value());
            }
        }
        return ok_;
    }

  private:
    void
    error(const Instruction *inst, const std::string &msg)
    {
        ok_ = false;
        std::string where = func_ ? "@" + func_->name() : "<module>";
        std::string text = where + ": " + msg;
        if (inst)
            text += " [" + printInstruction(*inst) + "]";
        diags_.error(inst ? inst->loc() : SrcLoc{}, text);
    }

    void
    expectType(const Instruction &inst, unsigned i, Type t)
    {
        if (i >= inst.numOperands()) {
            error(&inst, strfmt("missing operand %u", i));
            return;
        }
        if (inst.operand(i)->type() != t) {
            error(&inst, strfmt("operand %u has type %s, expected %s", i,
                                typeName(inst.operand(i)->type()),
                                typeName(t)));
        }
    }

    void
    expectOperands(const Instruction &inst, unsigned n)
    {
        if (inst.numOperands() != n)
            error(&inst, strfmt("expected %u operands, found %u", n,
                                inst.numOperands()));
    }

    /** True when @p bb is a block of the function being verified. */
    bool
    ownBlock(const BasicBlock *bb) const
    {
        return bb && bb->id() < blocks_.size() && blocks_[bb->id()] == bb;
    }

    /** True when @p v may be an operand here: a value-producing
     *  instruction or an argument of this function, or a constant. */
    bool
    definedHere(const Value *v) const
    {
        if (v->kind() == ValueKind::Argument)
            return static_cast<const Argument *>(v)->parent() == func_;
        if (v->kind() != ValueKind::Instruction)
            return true;
        auto *def = static_cast<const Instruction *>(v);
        return def->producesValue() && ownBlock(def->parent());
    }

    void
    checkInst(const Instruction &inst, std::span<const uint32_t> preds,
              bool have_preds)
    {
        // Scope check: instruction/argument operands must be defined in
        // this function (full dominance is checked at the analysis layer).
        for (unsigned i = 0; i < inst.numOperands(); ++i) {
            const Value *v = inst.operand(i);
            if (!v) {
                error(&inst, strfmt("null operand %u", i));
                continue;
            }
            if (!definedHere(v)) {
                error(&inst, strfmt("operand %u defined outside function",
                                    i));
            }
        }
        for (unsigned i = 0; i < inst.numBlockOps(); ++i) {
            if (!ownBlock(inst.blockOp(i)))
                error(&inst, "branch/phi references foreign block");
        }

        switch (inst.opcode()) {
          case Opcode::Alloca:
            expectOperands(inst, 0);
            if (inst.allocaSize() <= 0)
                error(&inst, "alloca with non-positive size");
            break;
          case Opcode::Load:
            expectOperands(inst, 1);
            expectType(inst, 0, Type::Ptr);
            if (inst.type() == Type::Void)
                error(&inst, "load must produce a value");
            break;
          case Opcode::Store:
            expectOperands(inst, 2);
            expectType(inst, 1, Type::Ptr);
            if (inst.operand(0) && inst.operand(0)->type() == Type::Void)
                error(&inst, "cannot store a void value");
            break;
          case Opcode::PtrAdd:
            expectOperands(inst, 2);
            expectType(inst, 0, Type::Ptr);
            expectType(inst, 1, Type::I64);
            break;
          case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
          case Opcode::SDiv: case Opcode::SRem: case Opcode::And:
          case Opcode::Or: case Opcode::Xor: case Opcode::Shl:
          case Opcode::Shr:
            expectOperands(inst, 2);
            expectType(inst, 0, Type::I64);
            expectType(inst, 1, Type::I64);
            break;
          case Opcode::FAdd: case Opcode::FSub: case Opcode::FMul:
          case Opcode::FDiv:
            expectOperands(inst, 2);
            expectType(inst, 0, Type::F64);
            expectType(inst, 1, Type::F64);
            break;
          case Opcode::ICmpEq: case Opcode::ICmpNe: {
            expectOperands(inst, 2);
            if (inst.numOperands() == 2) {
                Type a = inst.operand(0)->type();
                Type b = inst.operand(1)->type();
                bool ints = a == Type::I64 && b == Type::I64;
                bool bools = a == Type::I1 && b == Type::I1;
                bool ptrs = a == Type::Ptr && b == Type::Ptr;
                if (!ints && !ptrs && !bools)
                    error(&inst, "icmp eq/ne needs two i64, i1 or two ptr "
                                 "operands");
            }
            break;
          }
          case Opcode::ICmpSlt: case Opcode::ICmpSle:
          case Opcode::ICmpSgt: case Opcode::ICmpSge:
            expectOperands(inst, 2);
            expectType(inst, 0, Type::I64);
            expectType(inst, 1, Type::I64);
            break;
          case Opcode::FCmpEq: case Opcode::FCmpNe: case Opcode::FCmpLt:
          case Opcode::FCmpLe: case Opcode::FCmpGt: case Opcode::FCmpGe:
            expectOperands(inst, 2);
            expectType(inst, 0, Type::F64);
            expectType(inst, 1, Type::F64);
            break;
          case Opcode::SiToFp:
            expectOperands(inst, 1);
            expectType(inst, 0, Type::I64);
            break;
          case Opcode::FpToSi:
            expectOperands(inst, 1);
            expectType(inst, 0, Type::F64);
            break;
          case Opcode::Zext:
            expectOperands(inst, 1);
            expectType(inst, 0, Type::I1);
            break;
          case Opcode::Phi: {
            if (inst.numOperands() != inst.numBlockOps())
                error(&inst, "phi operand/block count mismatch");
            // Incoming blocks must exactly match the predecessors, as
            // sets: each block is marked with this phi's epoch.
            ++epoch_;
            unsigned distinct_preds = 0;
            for (uint32_t p : preds) {
                if (predMark_[p] != epoch_) {
                    predMark_[p] = epoch_;
                    ++distinct_preds;
                }
            }
            bool match = true;
            unsigned distinct_incoming = 0;
            for (unsigned i = 0; i < inst.numBlockOps(); ++i) {
                const BasicBlock *in = inst.blockOp(i);
                if (!ownBlock(in)) {
                    match = false;
                    continue;
                }
                if (inMark_[in->id()] == epoch_) {
                    error(&inst, "duplicate phi incoming block");
                    continue;
                }
                inMark_[in->id()] = epoch_;
                ++distinct_incoming;
                match &= predMark_[in->id()] == epoch_;
            }
            // Without predecessors (a branch leaves the function, which
            // is reported above) there is nothing to compare against.
            if (have_preds &&
                (!match || distinct_incoming != distinct_preds))
                error(&inst, "phi incoming blocks do not match "
                             "predecessors");
            for (unsigned i = 0; i < inst.numOperands(); ++i) {
                if (inst.operand(i) &&
                    inst.operand(i)->type() != inst.type())
                    error(&inst, "phi incoming value type mismatch");
            }
            break;
          }
          case Opcode::Br:
            if (inst.numBlockOps() != 1)
                error(&inst, "br needs one target");
            break;
          case Opcode::CondBr:
            expectOperands(inst, 1);
            expectType(inst, 0, Type::I1);
            if (inst.numBlockOps() != 2)
                error(&inst, "condbr needs two targets");
            break;
          case Opcode::Ret: {
            Type want = func_->returnType();
            if (want == Type::Void) {
                expectOperands(inst, 0);
            } else {
                expectOperands(inst, 1);
                if (inst.numOperands() == 1)
                    expectType(inst, 0, want);
            }
            break;
          }
          case Opcode::Unreachable:
          case Opcode::SchedHint:
            expectOperands(inst, 0);
            break;
          case Opcode::Call:
            checkCall(inst);
            break;
        }
    }

    void
    checkCall(const Instruction &inst)
    {
        if (inst.callee()) {
            const Function *callee = inst.callee();
            if (inst.numOperands() != callee->numArgs()) {
                error(&inst, strfmt("call passes %u args, callee takes %u",
                                    inst.numOperands(), callee->numArgs()));
                return;
            }
            for (unsigned i = 0; i < inst.numOperands(); ++i)
                expectType(inst, i, callee->arg(i)->type());
            if (inst.type() != callee->returnType())
                error(&inst, "call result type mismatch");
            return;
        }
        Builtin b = inst.builtin();
        if (b == Builtin::None) {
            error(&inst, "call with neither callee nor builtin");
            return;
        }
        switch (b) {
          case Builtin::ThreadCreate:
            expectOperands(inst, 2);
            expectType(inst, 0, Type::Ptr);
            expectType(inst, 1, Type::I64);
            break;
          case Builtin::ThreadJoin:
          case Builtin::Malloc:
          case Builtin::Sleep:
          case Builtin::RandInt:
          case Builtin::PrintI64:
            expectOperands(inst, 1);
            expectType(inst, 0, Type::I64);
            break;
          case Builtin::MutexLock:
          case Builtin::MutexUnlock:
          case Builtin::Free:
          case Builtin::CaNoteAlloc:
          case Builtin::CaNoteLock:
          case Builtin::CaPtrCheck:
            expectOperands(inst, 1);
            expectType(inst, 0, Type::Ptr);
            break;
          case Builtin::MutexTimedLock:
            expectOperands(inst, 2);
            expectType(inst, 0, Type::Ptr);
            expectType(inst, 1, Type::I64);
            break;
          case Builtin::PrintF64:
            expectOperands(inst, 1);
            expectType(inst, 0, Type::F64);
            break;
          case Builtin::PrintStr:
          case Builtin::AssertFail:
          case Builtin::OracleFail:
            expectOperands(inst, 1);
            if (inst.numOperands() == 1 &&
                inst.operand(0)->kind() != ValueKind::ConstStr)
                error(&inst, "expected string constant operand");
            break;
          case Builtin::Time:
          case Builtin::Yield:
          case Builtin::CaBackoff:
            expectOperands(inst, 0);
            break;
          case Builtin::CaCheckpoint:
          case Builtin::CaCheckpointLocals:
          case Builtin::CaTryRollback:
          case Builtin::CaRecovered:
            expectOperands(inst, 1);
            expectType(inst, 0, Type::I64);
            break;
          case Builtin::None:
            break;
        }
        if (inst.type() != builtinResultType(b))
            error(&inst, "builtin call result type mismatch");
    }

    const Module &m_;
    DiagEngine &diags_;
    const Function *func_ = nullptr;
    std::vector<const BasicBlock *> blocks_; ///< by block id
    std::vector<uint32_t> predMark_, inMark_; ///< phi check, by block id
    uint32_t epoch_ = 0;
    bool ok_ = true;
};

} // namespace

bool
verifyModule(const Module &m, DiagEngine &diags)
{
    Verifier v(m, diags);
    return v.runModule();
}

bool
verifyFunction(const Function &f, DiagEngine &diags)
{
    Verifier v(*f.parent(), diags);
    return v.runFunction(f);
}

} // namespace conair::ir
