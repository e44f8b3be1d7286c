/**
 * @file
 * Dominator and post-dominator trees plus dominance frontiers, computed
 * with the Cooper-Harvey-Kennedy iterative algorithm.
 *
 * Used by mem2reg (phi placement), the SSA verifier, and control
 * dependence for ConAir's backward slicing (§4.2 of the paper).
 */
#pragma once

#include <vector>

#include "ir/cfg.h"

namespace conair::analysis {

/**
 * Dominator information for one function.  Construct with
 * @p post = false for dominators, true for post-dominators (computed on
 * the reversed CFG with a virtual exit joining all Ret/Unreachable
 * blocks).
 *
 * The tree is indexed by block id and keeps no reference to @p cfg, so
 * it stays usable while instructions are added or removed (mem2reg),
 * but not across an edit of the block list.  Queries about a block of
 * another function answer as for an unreachable block; a block of this
 * function whose id is stale is fatal.
 */
class DomTree
{
  public:
    explicit DomTree(const ir::Cfg &cfg, bool post = false);

    /** Immediate dominator, or nullptr for the root / unreachable. */
    ir::BasicBlock *idom(const ir::BasicBlock *bb) const;

    /** True when @p a dominates @p b (reflexive). */
    bool dominates(const ir::BasicBlock *a, const ir::BasicBlock *b) const;

    /** True when @p a strictly dominates @p b. */
    bool
    strictlyDominates(const ir::BasicBlock *a,
                      const ir::BasicBlock *b) const
    {
        return a != b && dominates(a, b);
    }

    /**
     * Instruction-level dominance: does the definition point of @p a
     * dominate instruction @p b?  (Same block: program order.)
     */
    bool dominatesInst(const ir::Instruction *a,
                       const ir::Instruction *b) const;

    /** Dominance frontier of @p bb. */
    const std::vector<ir::BasicBlock *> &
    frontier(const ir::BasicBlock *bb) const;

    /** Children of @p bb in the dominator tree. */
    const std::vector<ir::BasicBlock *> &
    children(const ir::BasicBlock *bb) const;

    /** Blocks reachable from the root, in reverse post-order. */
    const std::vector<ir::BasicBlock *> &rpo() const { return rpo_; }

    bool
    isReachable(const ir::BasicBlock *bb) const
    {
        return indexOf(bb) >= 0;
    }

  private:
    /** RPO index of @p bb, or -1 (unreachable or another function's). */
    int indexOf(const ir::BasicBlock *bb) const;

    const ir::Function *f_ = nullptr;
    std::vector<ir::BasicBlock *> blocks_;        // by block id
    std::vector<int> rpoOf_;                      // by block id, -1 if none
    std::vector<ir::BasicBlock *> rpo_;
    std::vector<int> idom_;                       // by rpo index
    std::vector<std::vector<ir::BasicBlock *>> frontier_;
    std::vector<std::vector<ir::BasicBlock *>> children_;
    std::vector<ir::BasicBlock *> byIndex_;
    static const std::vector<ir::BasicBlock *> empty_;
};

/**
 * Full SSA validity check (defs dominate uses; phi operands dominate the
 * corresponding incoming edge).  Complements ir::verifyModule, which is
 * purely structural.
 */
bool verifySSA(const ir::Function &f, conair::DiagEngine &diags);

} // namespace conair::analysis
