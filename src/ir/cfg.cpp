#include "ir/cfg.h"

#include "support/diag.h"

namespace conair::ir {

namespace {

[[noreturn]] void
stale(const Function &f, const char *what)
{
    fatal("ir::Cfg: @" + f.name() + ": " + what +
          " (missing Function::renumber() after an edit?)");
}

} // namespace

Cfg::Cfg(const Function &f) : f_(&f)
{
    blocks_.reserve(f.numBlocks());
    instOff_.reserve(f.numBlocks() + 1);
    for (const auto &bb : f.blocks()) {
        if (bb->id() != blocks_.size())
            stale(f, "block numbering is stale");
        blocks_.push_back(bb.get());
        instOff_.push_back(uint32_t(insts_.size()));
        for (const auto &inst : bb->insts()) {
            if (inst->id() != insts_.size())
                stale(f, "instruction numbering is stale");
            insts_.push_back(inst.get());
        }
    }
    instOff_.push_back(uint32_t(insts_.size()));

    const uint32_t n = numBlocks();
    succOff_.reserve(n + 1);
    predOff_.assign(n + 1, 0);
    for (BasicBlock *bb : blocks_) {
        succOff_.push_back(uint32_t(succIds_.size()));
        for (BasicBlock *s : bb->successors()) {
            uint32_t sid = id(s);
            succIds_.push_back(sid);
            ++predOff_[sid + 1];
        }
    }
    succOff_.push_back(uint32_t(succIds_.size()));

    // Predecessors by counting sort over the edges in block order.
    for (uint32_t b = 0; b < n; ++b)
        predOff_[b + 1] += predOff_[b];
    predIds_.resize(succIds_.size());
    std::vector<uint32_t> fill(predOff_.begin(), predOff_.end() - 1);
    for (uint32_t b = 0; b < n; ++b)
        for (uint32_t s : succs(b))
            predIds_[fill[s]++] = b;
}

uint32_t
Cfg::id(const BasicBlock *bb) const
{
    uint32_t i = bb ? bb->id() : kNoId;
    if (i >= blocks_.size() || blocks_[i] != bb)
        stale(*f_, "block is not in this function or its id is stale");
    return i;
}

uint32_t
Cfg::id(const Instruction *inst) const
{
    uint32_t i = inst->id();
    if (i >= insts_.size() || insts_[i] != inst)
        stale(*f_, "instruction is not in this function or its id is stale");
    return i;
}

} // namespace conair::ir
