#include "conair/transform.h"

#include <algorithm>
#include <memory>

#include "analysis/cfg_utils.h"
#include "ir/builder.h"
#include "support/diag.h"

namespace conair::ca {

using ir::BasicBlock;
using ir::Builtin;
using ir::Function;
using ir::Instruction;
using ir::IRBuilder;
using ir::Module;
using ir::Opcode;

namespace {

/** Builds one call instruction (unattached). */
std::unique_ptr<Instruction>
makeBuiltinCall(Builtin b, const std::vector<ir::Value *> &args,
                const std::string &tag = "")
{
    auto inst = std::make_unique<Instruction>(Opcode::Call,
                                              ir::builtinResultType(b));
    inst->setBuiltin(b);
    for (ir::Value *a : args)
        inst->addOperand(a);
    if (!tag.empty())
        inst->setTag(tag);
    return inst;
}

class Transformer
{
  public:
    Transformer(Module &m, const TransformPlan &plan,
                analysis::ModuleAnalysis &ma)
        : m_(m), plan_(plan), ma_(ma)
    {}

    TransformStats
    run()
    {
        insertCheckpoints();
        transformSites();
        instrumentCompensation();
        return stats_;
    }

  private:
    /** Step 1: a conair.checkpoint at every reexecution point. */
    void
    insertCheckpoints()
    {
        uint64_t point_id = 0;
        Builtin ckpt = plan_.localCheckpoints
                           ? Builtin::CaCheckpointLocals
                           : Builtin::CaCheckpoint;
        for (const auto &[pos, info] : plan_.points) {
            (void)info;
            auto call = makeBuiltinCall(ckpt,
                                        {m_.getInt(int64_t(point_id++))});
            if (pos.isFunctionEntry()) {
                if (pos.block->empty())
                    fatal("checkpoint insertion into empty entry block");
                pos.block->insertBefore(pos.block->front(),
                                        std::move(call));
            } else {
                pos.block->insertAfter(pos.after, std::move(call));
            }
            ++stats_.checkpointsInserted;
        }
    }

    /** Step 2: per-site failure handling. */
    void
    transformSites()
    {
        for (const SitePlan &sp : plan_.sites) {
            switch (sp.site.kind) {
              case FailureKind::Assertion:
                transformAssertLike(sp);
                break;
              case FailureKind::WrongOutput:
                if (sp.site.hasOracle)
                    transformAssertLike(sp);
                // Oracle-less output sites only contribute their
                // reexecution points (worst-case overhead, §5); there
                // is no condition to retry on.
                break;
              case FailureKind::Segfault:
                transformSegfaultSite(sp);
                break;
              case FailureKind::Deadlock:
                transformDeadlockSite(sp);
                break;
            }
        }
    }

    /**
     * Control dependences of @p fn: the analysis phase's until a block
     * of @p fn is split (inserting non-terminator instructions leaves
     * them and the block ids valid), then rebuilt from a fresh
     * numbering after each split.
     */
    const analysis::ControlDeps &
    controlDeps(Function *fn)
    {
        if (std::find(split_.begin(), split_.end(), fn) == split_.end())
            return ma_.of(*fn).cdeps;
        for (const auto &[f, cd] : rebuilt_)
            if (f == fn)
                return *cd;
        fn->renumber();
        rebuilt_.push_back(
            {fn, std::make_unique<analysis::ControlDeps>(ir::Cfg(*fn))});
        return *rebuilt_.back().second;
    }

    /** Records a block split in @p fn: its control dependences and
     *  block ids are stale from here on. */
    void
    cfgEdited(Function *fn)
    {
        if (std::find(split_.begin(), split_.end(), fn) == split_.end())
            split_.push_back(fn);
        std::erase_if(rebuilt_, [&](const auto &e) { return e.first == fn; });
    }

    /** True when @p target is reachable from @p from in the CFG.  The
     *  block ids must be current: no split since the numbering that
     *  controlDeps() used. */
    static bool
    reaches(BasicBlock *from, BasicBlock *target)
    {
        std::vector<char> seen(from->parent()->numBlocks(), 0);
        std::vector<BasicBlock *> work{from};
        seen[from->id()] = 1;
        while (!work.empty()) {
            BasicBlock *bb = work.back();
            work.pop_back();
            if (bb == target)
                return true;
            for (BasicBlock *s : bb->successors()) {
                if (!seen[s->id()]) {
                    seen[s->id()] = 1;
                    work.push_back(s);
                }
            }
        }
        return false;
    }

    /**
     * Marks the site as survived on every branch edge that statically
     * avoids it: the controlling branches' successors from which the
     * failing block is unreachable.  Recovery is complete both when the
     * failing check finally passes and when reexecution legally takes a
     * path around the site.
     */
    void
    insertRecoveredMarkers(Instruction *site, ir::Value *id)
    {
        BasicBlock *fail_bb = site->parent();
        const analysis::ControlDeps &cdeps =
            controlDeps(fail_bb->parent());

        // Iterated control dependence: every branch that (transitively)
        // decides whether the failing block runs.  Marks are by block
        // id; a block has one terminator, so they also dedup the terms.
        const size_t num_blocks = fail_bb->parent()->numBlocks();
        std::vector<const Instruction *> terms;
        std::vector<char> queued(num_blocks, 0), has_term(num_blocks, 0);
        std::vector<const BasicBlock *> work{fail_bb};
        queued[fail_bb->id()] = 1;
        while (!work.empty()) {
            const BasicBlock *bb = work.back();
            work.pop_back();
            for (const Instruction *term : cdeps.of(bb)) {
                const BasicBlock *tb = term->parent();
                if (has_term[tb->id()])
                    continue;
                has_term[tb->id()] = 1;
                terms.push_back(term);
                if (!queued[tb->id()]) {
                    queued[tb->id()] = 1;
                    work.push_back(tb);
                }
            }
        }

        std::vector<char> marked(num_blocks, 0);
        for (const Instruction *term : terms) {
            for (unsigned i = 0; i < term->numBlockOps(); ++i) {
                BasicBlock *succ = term->blockOp(i);
                if (succ == fail_bb || marked[succ->id()])
                    continue;
                marked[succ->id()] = 1;
                if (reaches(succ, fail_bb))
                    continue;
                insertAfterPhis(succ,
                                makeBuiltinCall(Builtin::CaRecovered,
                                                {id}, site->tag()));
            }
        }
    }

    /** Fig 6: retry loop in front of assert_fail / oracle_fail. */
    void
    transformAssertLike(const SitePlan &sp)
    {
        if (!sp.recoverable)
            return;
        Instruction *site = sp.site.inst;
        BasicBlock *fail_bb = site->parent();
        ir::Value *id = m_.getInt(sp.site.id);

        fail_bb->insertBefore(site,
                              makeBuiltinCall(Builtin::CaTryRollback,
                                              {id}, site->tag()));
        ++stats_.retrySites;
        insertRecoveredMarkers(site, id);
    }

    /** Fig 5c: pointer sanity check + retry before a dereference. */
    void
    transformSegfaultSite(const SitePlan &sp)
    {
        if (!sp.recoverable)
            return; // §4.2: no recovery code at unrecoverable sites
        Instruction *site = sp.site.inst;
        ir::Value *addr = site->opcode() == Opcode::Load
                              ? site->operand(0)
                              : site->operand(1);
        BasicBlock *head = site->parent();
        BasicBlock *tail =
            analysis::splitBlockBefore(site, "ca.deref");
        Function *fn = head->parent();
        cfgEdited(fn);

        auto check = makeBuiltinCall(Builtin::CaPtrCheck, {addr},
                                     site->tag());
        Instruction *check_inst =
            head->insertBefore(head->terminator(), std::move(check));
        ++stats_.ptrChecksInserted;

        BasicBlock *ok_bb = fn->insertBlockAfter(head, "ca.ptr.ok");
        BasicBlock *fail_bb = fn->insertBlockAfter(ok_bb, "ca.ptr.fail");
        ir::Value *id = m_.getInt(sp.site.id);

        // head: condbr (check) ok, fail — replacing the fall-through br.
        Instruction *old_br = head->terminator();
        head->erase(old_br);
        IRBuilder b(&m_);
        b.setInsertAtEnd(head);
        b.condBr(check_inst, ok_bb, fail_bb);

        b.setInsertAtEnd(ok_bb);
        b.callBuiltin(Builtin::CaRecovered, {id})->setTag(site->tag());
        b.br(tail);

        // fail: retry; on give-up, fall into the dereference and fail
        // exactly like the untransformed program.
        b.setInsertAtEnd(fail_bb);
        b.callBuiltin(Builtin::CaTryRollback, {id})->setTag(site->tag());
        b.br(tail);
        ++stats_.retrySites;
    }

    /** Fig 5d: lock -> timedlock with back-off and retry. */
    void
    transformDeadlockSite(const SitePlan &sp)
    {
        if (!sp.recoverable)
            return; // stays a plain blocking lock (§4.2 reverts it)
        Instruction *site = sp.site.inst;
        ir::Value *mutex_arg = site->operand(0);
        ir::Value *id = m_.getInt(sp.site.id);
        BasicBlock *head = site->parent();
        Function *fn = head->parent();

        BasicBlock *tail = analysis::splitBlockAfter(site, "ca.locked");
        cfgEdited(fn);
        BasicBlock *ok_bb = fn->insertBlockAfter(head, "ca.lock.ok");
        BasicBlock *fail_bb =
            fn->insertBlockAfter(ok_bb, "ca.lock.fail");

        IRBuilder b(&m_);
        b.setInsertBefore(site);
        Instruction *timed = b.callBuiltin(
            Builtin::MutexTimedLock,
            {mutex_arg, m_.getInt(plan_.lockTimeout)});
        timed->setTag(site->tag());
        Instruction *got =
            b.cmp(Opcode::ICmpEq, timed, m_.getInt(0));

        // Drop the original lock and the fall-through branch; branch on
        // the timed result instead.
        Instruction *old_br = head->terminator();
        head->erase(old_br);
        head->erase(site);
        b.setInsertAtEnd(head);
        b.condBr(got, ok_bb, fail_bb);

        b.setInsertAtEnd(ok_bb);
        b.callBuiltin(Builtin::CaRecovered, {id})->setTag(timed->tag());
        b.callBuiltin(Builtin::CaNoteLock, {mutex_arg});
        ++stats_.compensationHooks;
        b.br(tail);

        b.setInsertAtEnd(fail_bb);
        b.callBuiltin(Builtin::CaBackoff, {});
        b.callBuiltin(Builtin::CaTryRollback, {id})->setTag(timed->tag());
        // Retry budget exhausted: wait like the original program did.
        b.callBuiltin(Builtin::MutexLock, {mutex_arg});
        b.callBuiltin(Builtin::CaNoteLock, {mutex_arg});
        ++stats_.compensationHooks;
        b.br(tail);

        ++stats_.locksConverted;
        ++stats_.retrySites;
    }

    /** §4.1: log every allocation / acquisition for compensation. */
    void
    instrumentCompensation()
    {
        for (const auto &fn : m_.functions()) {
            // Collect first: insertion invalidates naive iteration.
            std::vector<Instruction *> mallocs;
            std::vector<Instruction *> locks;
            for (const auto &bb : fn->blocks()) {
                for (const auto &inst : bb->insts()) {
                    if (inst->opcode() != Opcode::Call)
                        continue;
                    if (inst->builtin() == Builtin::Malloc)
                        mallocs.push_back(inst.get());
                    else if (inst->builtin() == Builtin::MutexLock)
                        locks.push_back(inst.get());
                }
            }
            for (Instruction *call : mallocs) {
                call->parent()->insertAfter(
                    call,
                    makeBuiltinCall(Builtin::CaNoteAlloc, {call}));
                ++stats_.compensationHooks;
            }
            for (Instruction *call : locks) {
                // Skip the give-up fallback locks emitted above (they
                // are already followed by a note_lock).
                Instruction *next = call->parent()->next(call);
                if (next && next->opcode() == Opcode::Call &&
                    next->builtin() == Builtin::CaNoteLock)
                    continue;
                call->parent()->insertAfter(
                    call, makeBuiltinCall(Builtin::CaNoteLock,
                                          {call->operand(0)}));
                ++stats_.compensationHooks;
            }
        }
    }

    void
    insertAfterPhis(BasicBlock *bb, std::unique_ptr<Instruction> inst)
    {
        for (auto &existing : bb->insts()) {
            if (existing->opcode() != Opcode::Phi) {
                bb->insertBefore(existing.get(), std::move(inst));
                return;
            }
        }
        bb->append(std::move(inst));
    }

    Module &m_;
    const TransformPlan &plan_;
    TransformStats stats_;
    analysis::ModuleAnalysis &ma_;
    std::vector<Function *> split_; ///< functions with a split block
    std::vector<std::pair<Function *,
                          std::unique_ptr<analysis::ControlDeps>>>
        rebuilt_;
};

} // namespace

TransformStats
applyTransform(Module &m, const TransformPlan &plan,
               analysis::ModuleAnalysis &ma)
{
    Transformer t(m, plan, ma);
    return t.run();
}

} // namespace conair::ca
