/**
 * @file
 * Intra-procedural backward slicing, ConAir-style (paper §4.2, Fig 8).
 *
 * The slice follows SSA data dependences and (branch-condition) control
 * dependences.  Crucially it does *not* need alias analysis: inside a
 * ConAir reexecution region every write targets a virtual register, so
 * when the slicer reaches a Load (a read that is not from a virtual
 * register) it includes the load and stops — the producing store is
 * outside every idempotent region and therefore irrelevant.
 */
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "analysis/dominators.h"
#include "ir/cfg.h"

namespace conair::analysis {

/** The result of a backward slice. */
struct SliceResult
{
    /** Instructions on the slice (loads included as endpoints), in
     *  program order. */
    std::vector<const ir::Instruction *> insts;

    /** Function arguments the slice reaches (for §4.3 condition 2), in
     *  parameter order. */
    std::vector<const ir::Argument *> args;

    /** Membership by id; valid while the sliced function's numbering
     *  is. */
    bool contains(const ir::Instruction *inst) const;

    bool reaches(const ir::Argument *arg) const;
};

/**
 * Branch-condition control dependences of each block, computed from the
 * post-dominator tree (Ferrante et al.): block X depends on terminator T
 * of block B iff B has a successor S with X post-dominating S while X
 * does not strictly post-dominate B.
 *
 * Indexed by block id and self-contained (no reference to the Cfg it
 * was built from): it stays valid while instructions other than
 * terminators are inserted, and must be rebuilt after a CFG edit.
 */
class ControlDeps
{
  public:
    explicit ControlDeps(const ir::Cfg &cfg);

    /** Terminators whose outcome controls whether @p bb executes. */
    const std::vector<const ir::Instruction *> &
    of(const ir::BasicBlock *bb) const;

  private:
    std::vector<const ir::BasicBlock *> blocks_; // by block id
    std::vector<std::vector<const ir::Instruction *>> deps_;
};

/**
 * The analysis state of one function for one phase: its CFG snapshot
 * and control dependences, built together once.  Like ir::Cfg it must
 * not live across an edit of the function.
 */
struct FunctionAnalysis
{
    explicit FunctionAnalysis(const ir::Function &f) : cfg(f), cdeps(cfg) {}

    ir::Cfg cfg;
    ControlDeps cdeps;
};

/**
 * The FunctionAnalysis of each function of a module, built on first
 * request: one per function for a phase that does not edit the module
 * (ConAir's analysis phase, including §4.3's walk through callers).
 */
class ModuleAnalysis
{
  public:
    const FunctionAnalysis &of(const ir::Function &f);

  private:
    std::vector<std::pair<const ir::Function *,
                          std::unique_ptr<FunctionAnalysis>>>
        byFunction_;
};

/** Optional slicing extensions. */
struct SliceOptions
{
    /**
     * Trace data flow through stack-slot stores that lie inside
     * @ref regionInsts.  Sound without alias analysis because distinct
     * allocas never alias: a load from slot A can only be fed by
     * stores to slot A.  Used by the Fig 4 local-writes region design,
     * where regions may contain such stores; the base ConAir design
     * has none, so its slicer stops at every load (Fig 8).
     */
    bool traceLocalStores = false;

    /** Region membership for traceLocalStores (required with it). */
    const std::vector<const ir::Instruction *> *regionInsts = nullptr;
};

/**
 * Computes the ConAir backward slice of @p seeds within the function
 * @p fa describes.
 *
 * @param fa      the sliced function's CFG snapshot and control
 *                dependences
 * @param seeds   starting values (e.g. an assert condition, a checked
 *                pointer)
 * @param opts    optional extensions (local-store tracing)
 */
SliceResult backwardSlice(const FunctionAnalysis &fa,
                          const std::vector<const ir::Value *> &seeds,
                          const SliceOptions &opts = {});

} // namespace conair::analysis
