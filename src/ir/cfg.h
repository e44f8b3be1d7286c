/**
 * @file
 * A read-only snapshot of one function's control-flow graph over dense
 * ids.
 *
 * Function::renumber() gives every block its position in the block
 * list and every instruction its position in program order.  A Cfg
 * built from a numbered function holds, per block id, the predecessor
 * and successor ids and the range of instruction ids it contains, so
 * the analyses (the verifier, DomTree, ControlDeps, the region walk and
 * the slicer) index flat arrays instead of hashing pointers or
 * rebuilding predecessor lists.
 *
 * The rules:
 *  - a snapshot is built once per function per phase and never lives
 *    across an edit of the function's blocks or instructions; a pass
 *    that edits renumbers before it builds the next one;
 *  - building one checks the numbering and fatal()s when it is stale,
 *    and id() lookups check that the object is the one at that id, so
 *    a missed renumber() fails loudly instead of answering wrongly;
 *  - building and reading a snapshot writes nothing into the IR, so a
 *    const module can be analysed from several threads at once.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ir/function.h"

namespace conair::ir {

class Cfg
{
  public:
    explicit Cfg(const Function &f);

    const Function &function() const { return *f_; }

    uint32_t numBlocks() const { return uint32_t(blocks_.size()); }
    uint32_t numInsts() const { return uint32_t(insts_.size()); }

    BasicBlock *block(uint32_t id) const { return blocks_[id]; }
    Instruction *inst(uint32_t id) const { return insts_[id]; }

    /// @{ The id of a block / instruction of this function; fatal()
    /// when it belongs elsewhere or the numbering is stale.
    uint32_t id(const BasicBlock *bb) const;
    uint32_t id(const Instruction *inst) const;
    /// @}

    /** Predecessor block ids, in block-list order; a block reached by
     *  both arms of one condbr appears twice. */
    std::span<const uint32_t>
    preds(uint32_t b) const
    {
        return {predIds_.data() + predOff_[b],
                predOff_[b + 1] - predOff_[b]};
    }

    /** Successor block ids, in terminator order. */
    std::span<const uint32_t>
    succs(uint32_t b) const
    {
        return {succIds_.data() + succOff_[b],
                succOff_[b + 1] - succOff_[b]};
    }

    /// @{ Block @p b holds instruction ids [firstInst, endInst).
    uint32_t firstInst(uint32_t b) const { return instOff_[b]; }
    uint32_t endInst(uint32_t b) const { return instOff_[b + 1]; }
    /// @}

  private:
    const Function *f_;
    std::vector<BasicBlock *> blocks_;
    std::vector<Instruction *> insts_;
    std::vector<uint32_t> instOff_;
    std::vector<uint32_t> succOff_, succIds_;
    std::vector<uint32_t> predOff_, predIds_;
};

} // namespace conair::ir
