#include "analysis/slicing.h"

#include <algorithm>

#include "support/diag.h"

namespace conair::analysis {

using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Opcode;
using ir::Value;
using ir::ValueKind;

namespace {

bool
byId(const Instruction *a, const Instruction *b)
{
    return a->id() < b->id();
}

} // namespace

bool
SliceResult::contains(const Instruction *inst) const
{
    return std::binary_search(insts.begin(), insts.end(), inst, byId);
}

bool
SliceResult::reaches(const ir::Argument *arg) const
{
    return std::find(args.begin(), args.end(), arg) != args.end();
}

ControlDeps::ControlDeps(const ir::Cfg &cfg)
    : blocks_(cfg.numBlocks()), deps_(cfg.numBlocks())
{
    DomTree pdt(cfg, /*post=*/true);
    for (uint32_t b = 0; b < cfg.numBlocks(); ++b) {
        const BasicBlock *bb = cfg.block(b);
        blocks_[b] = bb;
        const Instruction *term = bb->terminator();
        if (!term || term->opcode() != Opcode::CondBr)
            continue;
        const BasicBlock *stop = pdt.idom(bb);
        for (BasicBlock *succ : bb->successors()) {
            // Every X on the post-dominator path from succ up to (but
            // excluding) ipdom(bb) is control dependent on bb's
            // terminator; bb itself can appear (loop headers).
            const BasicBlock *x = succ;
            while (x && x != stop) {
                auto &vec = deps_[x->id()];
                if (std::find(vec.begin(), vec.end(), term) == vec.end())
                    vec.push_back(term);
                x = pdt.idom(x);
            }
        }
    }
}

const std::vector<const Instruction *> &
ControlDeps::of(const BasicBlock *bb) const
{
    uint32_t id = bb->id();
    if (id >= blocks_.size() || blocks_[id] != bb)
        fatal("ControlDeps: block " + bb->name() +
              " is not in the analysed function or its id is stale");
    return deps_[id];
}

const FunctionAnalysis &
ModuleAnalysis::of(const Function &f)
{
    for (const auto &[fn, fa] : byFunction_)
        if (fn == &f)
            return *fa;
    byFunction_.push_back({&f, std::make_unique<FunctionAnalysis>(f)});
    return *byFunction_.back().second;
}

namespace {

/** The alloca an address expression is rooted at, if any. */
const Instruction *
allocaRoot(const Value *addr)
{
    while (addr->kind() == ValueKind::Instruction) {
        auto *inst = static_cast<const Instruction *>(addr);
        if (inst->opcode() == Opcode::PtrAdd) {
            addr = inst->operand(0);
            continue;
        }
        return inst->opcode() == Opcode::Alloca ? inst : nullptr;
    }
    return nullptr;
}

} // namespace

SliceResult
backwardSlice(const FunctionAnalysis &fa,
              const std::vector<const Value *> &seeds,
              const SliceOptions &opts)
{
    const ir::Cfg &cfg = fa.cfg;
    const Function &f = cfg.function();
    SliceResult result;

    // Working sets over dense ids: an instruction is queued at most
    // once and enters the slice at most once.
    enum : uint8_t { kQueued = 1, kInSlice = 2 };
    std::vector<uint8_t> mark(cfg.numInsts(), 0);
    std::vector<uint8_t> arg_seen(f.numArgs(), 0);
    std::vector<const Instruction *> work;

    auto push = [&](const Value *v) {
        if (!v)
            return;
        if (v->kind() == ValueKind::Argument) {
            auto *arg = static_cast<const ir::Argument *>(v);
            if (arg->parent() == &f && !arg_seen[arg->index()]) {
                arg_seen[arg->index()] = 1;
                result.args.push_back(arg);
            }
            return;
        }
        if (v->kind() != ValueKind::Instruction)
            return; // constants carry no dependence
        auto *inst = static_cast<const Instruction *>(v);
        uint8_t &m = mark[cfg.id(inst)];
        if (!(m & kQueued)) {
            m |= kQueued;
            work.push_back(inst);
        }
    };
    auto include = [&](const Instruction *inst) {
        uint8_t &m = mark[cfg.id(inst)];
        if (m & kInSlice)
            return false;
        m |= kInSlice;
        result.insts.push_back(inst);
        return true;
    };

    for (const Value *v : seeds)
        push(v);
    while (!work.empty()) {
        const Instruction *inst = work.back();
        work.pop_back();
        if (!include(inst))
            continue;

        // Control dependences: the branches deciding whether this
        // instruction runs.
        for (const Instruction *term : fa.cdeps.of(inst->parent())) {
            if (include(term) && term->numOperands())
                push(term->operand(0));
        }

        // Data dependences.  A Load reads memory, not a virtual
        // register: include it but stop tracking (Fig 8).  Its address
        // is likewise not followed — except under the local-writes
        // extension, where in-region stores to the same alloca feed it.
        if (inst->opcode() == Opcode::Load) {
            if (opts.traceLocalStores && opts.regionInsts) {
                const Instruction *root =
                    allocaRoot(inst->operand(0));
                if (root) {
                    for (const Instruction *cand : *opts.regionInsts) {
                        if (cand->opcode() != Opcode::Store)
                            continue;
                        if (allocaRoot(cand->operand(1)) == root) {
                            include(cand);
                            push(cand->operand(0));
                        }
                    }
                }
            }
            continue;
        }
        for (unsigned i = 0; i < inst->numOperands(); ++i)
            push(inst->operand(i));
    }
    std::sort(result.insts.begin(), result.insts.end(), byId);
    std::sort(result.args.begin(), result.args.end(),
              [](const ir::Argument *a, const ir::Argument *b) {
                  return a->index() < b->index();
              });
    return result;
}

} // namespace conair::analysis
