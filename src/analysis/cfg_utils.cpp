#include "analysis/cfg_utils.h"

#include <vector>

namespace conair::analysis {

using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Opcode;

unsigned
removeUnreachableBlocks(Function &f)
{
    if (f.blocks().empty())
        return 0;
    f.renumber();
    std::vector<char> reachable(f.numBlocks(), 0);
    std::vector<BasicBlock *> work{f.entry()};
    reachable[f.entry()->id()] = 1;
    while (!work.empty()) {
        BasicBlock *bb = work.back();
        work.pop_back();
        for (BasicBlock *s : bb->successors()) {
            if (!reachable[s->id()]) {
                reachable[s->id()] = 1;
                work.push_back(s);
            }
        }
    }
    auto live = [&](const BasicBlock *bb) { return reachable[bb->id()]; };

    // Fix phis: drop incoming edges from doomed blocks.
    for (auto &bb : f.blocks()) {
        if (!live(bb.get()))
            continue;
        for (auto &inst : bb->insts()) {
            if (inst->opcode() != Opcode::Phi)
                break;
            for (unsigned i = 0; i < inst->numBlockOps();) {
                if (!live(inst->blockOp(i)))
                    inst->removeIncoming(inst->blockOp(i));
                else
                    ++i;
            }
        }
    }

    // Break def-use edges out of doomed blocks, then erase them.
    unsigned removed = 0;
    for (auto &bb : f.blocks()) {
        if (live(bb.get()))
            continue;
        for (auto &inst : bb->insts()) {
            inst->dropAllOperands();
            // Uses of this value can only be in other unreachable blocks;
            // point them at a harmless placeholder so teardown is safe.
            if (inst->hasUses()) {
                ir::Value *placeholder =
                    inst->type() == ir::Type::F64
                        ? static_cast<ir::Value *>(
                              f.parent()->getFloat(0.0))
                        : inst->type() == ir::Type::Ptr
                              ? static_cast<ir::Value *>(
                                    f.parent()->getNull())
                              : static_cast<ir::Value *>(
                                    f.parent()->getInt(0, inst->type()));
                inst->replaceAllUsesWith(placeholder);
            }
        }
    }
    for (auto it = f.blocks().begin(); it != f.blocks().end();) {
        if (!live(it->get())) {
            it = f.blocks().erase(it);
            ++removed;
        } else {
            ++it;
        }
    }
    if (removed)
        f.renumber();
    return removed;
}

unsigned
removeUnreachableBlocks(ir::Module &m)
{
    unsigned total = 0;
    for (const auto &f : m.functions())
        total += removeUnreachableBlocks(*f);
    return total;
}

namespace {

/** Moves [first, end) of @p from into @p to and fixes the plumbing. */
BasicBlock *
splitAt(BasicBlock *from, BasicBlock::iterator first,
        const std::string &name)
{
    Function *fn = from->parent();
    BasicBlock *tail = fn->insertBlockAfter(from, name);

    // Move the remaining instructions (including the terminator).
    auto &src = from->insts();
    auto &dst = tail->insts();
    for (auto it = first; it != src.end();) {
        auto next = std::next(it);
        (*it)->setParent(tail);
        dst.push_back(std::move(*it));
        src.erase(it);
        it = next;
    }

    // Successor phis referenced `from`; the edge now comes from `tail`.
    for (BasicBlock *succ : tail->successors()) {
        for (auto &inst : succ->insts()) {
            if (inst->opcode() != Opcode::Phi)
                break;
            for (unsigned i = 0; i < inst->numBlockOps(); ++i)
                if (inst->blockOp(i) == from)
                    inst->setBlockOp(i, tail);
        }
    }

    // Terminate the head with a fall-through branch.
    auto br = std::make_unique<Instruction>(Opcode::Br, ir::Type::Void);
    br->addBlockOp(tail);
    from->append(std::move(br));
    return tail;
}

} // namespace

BasicBlock *
splitBlockAfter(Instruction *inst, const std::string &name)
{
    BasicBlock *bb = inst->parent();
    auto it = bb->find(inst);
    return splitAt(bb, std::next(it), name);
}

BasicBlock *
splitBlockBefore(Instruction *inst, const std::string &name)
{
    BasicBlock *bb = inst->parent();
    return splitAt(bb, bb->find(inst), name);
}

} // namespace conair::analysis
