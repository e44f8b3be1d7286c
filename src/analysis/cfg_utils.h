/**
 * @file
 * CFG hygiene utilities shared by passes.
 */
#pragma once

#include "ir/function.h"
#include "ir/module.h"

namespace conair::analysis {

/**
 * Removes blocks not reachable from the entry, fixing up phis in the
 * surviving blocks.  Leaves @p f numbered (Function::renumber()).
 * Returns the number of blocks removed.
 */
unsigned removeUnreachableBlocks(ir::Function &f);

/** Runs removeUnreachableBlocks over the whole module. */
unsigned removeUnreachableBlocks(ir::Module &m);

/**
 * Splits the block containing @p inst immediately after it.  Everything
 * following @p inst moves into a fresh block (named from @p name); the
 * original block is terminated with an unconditional branch to it.
 * Phi nodes in the moved terminator's successors are retargeted.
 *
 * @return the new tail block.
 */
ir::BasicBlock *splitBlockAfter(ir::Instruction *inst,
                                const std::string &name);

/**
 * Splits the block containing @p inst immediately before it; @p inst
 * becomes the first instruction of the tail block.  @p inst must not be
 * a phi.
 */
ir::BasicBlock *splitBlockBefore(ir::Instruction *inst,
                                 const std::string &name);

} // namespace conair::analysis
