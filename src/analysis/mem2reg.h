/**
 * @file
 * SSA promotion of scalar allocas ("mem2reg").
 *
 * The MiniC front-end emits every local as an alloca with loads and
 * stores.  This pass promotes the promotable ones into SSA virtual
 * registers — exactly the compiler behaviour the paper relies on: a
 * source region like `x = x + 1` becomes idempotent in bitcode through
 * variable renaming (Fig 3), while address-taken locals and arrays stay
 * in memory and their stores remain idempotency-destroying.
 */
#pragma once

#include "ir/function.h"
#include "ir/module.h"

namespace conair::analysis {

/** Statistics returned by the promotion pass. */
struct Mem2RegStats
{
    unsigned promoted = 0;   ///< allocas rewritten into SSA registers
    unsigned unpromoted = 0; ///< allocas left in memory (escaped / arrays)
    unsigned phisInserted = 0;
};

/** True when @p alloca_inst can be promoted to SSA form. */
bool isPromotable(const ir::Instruction *alloca_inst);

/** Promotes all promotable allocas in @p f; leaves @p f numbered
 *  (Function::renumber()). */
Mem2RegStats promoteToSSA(ir::Function &f);

/** Runs promoteToSSA over every function in @p m. */
Mem2RegStats promoteModuleToSSA(ir::Module &m);

} // namespace conair::analysis
