#include "analysis/mem2reg.h"

#include <vector>

#include "analysis/cfg_utils.h"
#include "analysis/dominators.h"
#include "support/diag.h"

namespace conair::analysis {

using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Opcode;
using ir::Type;
using ir::Value;

bool
isPromotable(const Instruction *alloca_inst)
{
    if (alloca_inst->opcode() != Opcode::Alloca)
        return false;
    if (alloca_inst->allocaSize() != 1)
        return false; // arrays stay in memory
    for (const ir::Use &u : alloca_inst->uses()) {
        const Instruction *user = u.user;
        if (user->opcode() == Opcode::Load && u.index == 0)
            continue;
        if (user->opcode() == Opcode::Store && u.index == 1)
            continue;
        // Any other use (store of the pointer, ptradd, call argument,
        // phi, compare) means the address escapes.
        return false;
    }
    return true;
}

namespace {

/** Infers the value type stored in a promotable alloca. */
Type
slotType(const Instruction *alloca_inst)
{
    for (const ir::Use &u : alloca_inst->uses()) {
        if (u.user->opcode() == Opcode::Load)
            return u.user->type();
        if (u.user->opcode() == Opcode::Store && u.user->operand(0))
            return u.user->operand(0)->type();
    }
    return Type::I64; // store/load-free slot: type is irrelevant
}

class Promoter
{
  public:
    /** @p f must be numbered; blocks keep their ids throughout. */
    Promoter(Function &f, Mem2RegStats &stats)
        : f_(f), dt_(ir::Cfg(f)), stats_(stats),
          phisOf_(f.numBlocks())
    {}

    void
    run()
    {
        collect();
        if (allocas_.empty())
            return;
        insertPhis();
        rename();
        cleanup();
    }

  private:
    void
    collect()
    {
        varOf_.assign(f_.instructionCount(), -1);
        for (auto &bb : f_.blocks()) {
            for (auto &inst : bb->insts()) {
                if (inst->opcode() != Opcode::Alloca)
                    continue;
                if (isPromotable(inst.get())) {
                    varOf_[inst->id()] = int(allocas_.size());
                    allocas_.push_back(inst.get());
                    ++stats_.promoted;
                } else {
                    ++stats_.unpromoted;
                }
            }
        }
        types_.resize(allocas_.size());
        for (size_t i = 0; i < allocas_.size(); ++i)
            types_[i] = slotType(allocas_[i]);
    }

    /** The promoted variable @p addr is the slot of, or -1.  Only the
     *  allocas were numbered when the pass began; everything it adds
     *  (phis) has kNoId. */
    int
    varOf(const Value *addr) const
    {
        if (addr->kind() != ir::ValueKind::Instruction)
            return -1;
        uint32_t id = static_cast<const Instruction *>(addr)->id();
        if (id >= varOf_.size())
            return -1;
        int v = varOf_[id];
        return v >= 0 && allocas_[v] == addr ? v : -1;
    }

    void
    insertPhis()
    {
        // has_phi[b] == v + 1: block b already merges variable v.
        std::vector<size_t> has_phi(f_.numBlocks(), 0);
        for (size_t v = 0; v < allocas_.size(); ++v) {
            // Blocks containing a store to this variable.
            std::vector<BasicBlock *> defs;
            for (const ir::Use &u : allocas_[v]->uses())
                if (u.user->opcode() == Opcode::Store)
                    defs.push_back(u.user->parent());
            // Iterated dominance frontier.
            std::vector<BasicBlock *> work = defs;
            while (!work.empty()) {
                BasicBlock *bb = work.back();
                work.pop_back();
                for (BasicBlock *df : dt_.frontier(bb)) {
                    if (has_phi[df->id()] == v + 1)
                        continue;
                    has_phi[df->id()] = v + 1;
                    auto phi = std::make_unique<Instruction>(Opcode::Phi,
                                                             types_[v]);
                    Instruction *placed =
                        df->insertBefore(df->front(), std::move(phi));
                    phisOf_[df->id()].push_back({placed, v});
                    ++stats_.phisInserted;
                    work.push_back(df);
                }
            }
        }
    }

    void
    rename()
    {
        std::vector<Value *> current(allocas_.size(), nullptr);
        renameBlock(f_.entry(), current);
    }

    Value *
    defaultValue(size_t v)
    {
        // A load before any store reads an undefined local; model it as
        // zero of the right type (MiniC zero-initialises locals anyway).
        switch (types_[v]) {
          case Type::F64:
            return f_.parent()->getFloat(0.0);
          case Type::Ptr:
            return f_.parent()->getNull();
          case Type::I1:
            return f_.parent()->getBool(false);
          default:
            return f_.parent()->getInt(0);
        }
    }

    void
    renameBlock(BasicBlock *bb, std::vector<Value *> &current)
    {
        // Every change to `current` is logged so it can be undone on
        // the way back up the dominator tree.
        const size_t undo_mark = undo_.size();
        auto define = [&](size_t v, Value *val) {
            undo_.push_back({v, current[v]});
            current[v] = val;
        };
        // Phis in this block define new current values.
        for (const auto &[phi, v] : phisOf_[bb->id()])
            define(v, phi);
        // Rewrite loads, record stores; both go in the same sweep.
        auto &insts = bb->insts();
        for (auto it = insts.begin(); it != insts.end();) {
            Instruction *inst = it->get();
            if (inst->opcode() == Opcode::Load) {
                int v = varOf(inst->operand(0));
                if (v < 0) {
                    ++it;
                    continue;
                }
                Value *cur = current[v];
                if (!cur)
                    cur = defaultValue(v);
                inst->replaceAllUsesWith(cur);
            } else if (inst->opcode() == Opcode::Store) {
                int v = varOf(inst->operand(1));
                if (v < 0) {
                    ++it;
                    continue;
                }
                define(v, inst->operand(0));
            } else {
                ++it;
                continue;
            }
            inst->dropAllOperands();
            it = insts.erase(it);
        }
        // Fill successor phis.
        for (BasicBlock *succ : bb->successors()) {
            for (const auto &[phi, v] : phisOf_[succ->id()]) {
                Value *cur = current[v];
                if (!cur)
                    cur = defaultValue(v);
                phi->addIncoming(cur, bb);
            }
        }
        // Recurse over dominator-tree children.
        for (BasicBlock *child : dt_.children(bb))
            renameBlock(child, current);
        while (undo_.size() > undo_mark) {
            current[undo_.back().first] = undo_.back().second;
            undo_.pop_back();
        }
    }

    void
    cleanup()
    {
        // Drop the now-unused allocas (and phis that ended up unused in
        // unreachable incoming positions stay — they are still valid).
        for (Instruction *a : allocas_) {
            if (a->hasUses())
                fatal("mem2reg: promoted alloca still has uses");
            a->parent()->erase(a);
        }
    }

    Function &f_;
    DomTree dt_;
    Mem2RegStats &stats_;
    std::vector<Instruction *> allocas_;
    std::vector<Type> types_;
    std::vector<int> varOf_; ///< by instruction id: variable or -1
    /** By block id: the phis this pass placed there, with their
     *  variable. */
    std::vector<std::vector<std::pair<Instruction *, size_t>>> phisOf_;
    /** renameBlock's log of (variable, previous value). */
    std::vector<std::pair<size_t, Value *>> undo_;
};

} // namespace

Mem2RegStats
promoteToSSA(Function &f)
{
    // Promotion renames along the dominator tree, which only covers
    // reachable blocks; prune dead ones first so no stale load/store of a
    // promoted slot survives.
    removeUnreachableBlocks(f);
    Mem2RegStats stats;
    Promoter(f, stats).run();
    f.renumber();
    return stats;
}

Mem2RegStats
promoteModuleToSSA(ir::Module &m)
{
    Mem2RegStats total;
    for (const auto &f : m.functions()) {
        Mem2RegStats s = promoteToSSA(*f);
        total.promoted += s.promoted;
        total.unpromoted += s.unpromoted;
        total.phisInserted += s.phisInserted;
    }
    return total;
}

} // namespace conair::analysis
