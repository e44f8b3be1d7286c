#include "conair/optimizer.h"

#include "analysis/memory_class.h"

namespace conair::ca {

using ir::Builtin;
using ir::Instruction;
using ir::Opcode;

std::vector<const ir::Value *>
failureConditionSeeds(const FailureSite &site,
                      const analysis::ControlDeps &cdeps)
{
    std::vector<const ir::Value *> seeds;
    // The branches deciding whether the failing block runs carry the
    // failure condition (the assert/oracle predicate, the pointer
    // check, the timeout check).
    for (const Instruction *term : cdeps.of(site.inst->parent()))
        if (term->numOperands())
            seeds.push_back(term->operand(0));
    // For a dereference site the checked pointer itself is the
    // condition.
    if (analysis::isMemAccess(site.inst))
        seeds.push_back(analysis::addressOf(site.inst));
    // For output sites, the printed value matters (a wrong-output
    // oracle constrains it).
    if (site.kind == FailureKind::WrongOutput &&
        site.inst->opcode() == Opcode::Call &&
        ir::builtinIsOutput(site.inst->builtin()) &&
        site.inst->numOperands() &&
        site.inst->operand(0)->kind() != ir::ValueKind::ConstStr)
        seeds.push_back(site.inst->operand(0));
    return seeds;
}

bool
regionHasQualifyingSharedRead(const analysis::SliceResult &slice,
                              const Region &region)
{
    for (const Instruction *inst : slice.insts)
        if (analysis::isSharedRead(inst) && region.contains(inst))
            return true;
    return false;
}

bool
regionHasLockAcquisition(const Region &region, const Instruction *site)
{
    for (const Instruction *inst : region.insts) {
        if (inst == site || inst->opcode() != Opcode::Call)
            continue;
        if (inst->builtin() == Builtin::MutexLock ||
            inst->builtin() == Builtin::MutexTimedLock)
            return true;
    }
    return false;
}

Recoverability
classifyRecoverability(const FailureSite &site, const Region &region,
                       const analysis::FunctionAnalysis &fa,
                       const RegionPolicy &policy)
{
    if (site.kind == FailureKind::Deadlock) {
        return regionHasLockAcquisition(region, site.inst)
                   ? Recoverability::Recoverable
                   : Recoverability::NoLockInRegion;
    }
    analysis::SliceOptions sopts;
    if (policy.allowLocalWrites) {
        sopts.traceLocalStores = true;
        sopts.regionInsts = &region.insts;
    }
    analysis::SliceResult slice = analysis::backwardSlice(
        fa, failureConditionSeeds(site, fa.cdeps), sopts);
    return regionHasQualifyingSharedRead(slice, region)
               ? Recoverability::Recoverable
               : Recoverability::NoSharedReadOnSlice;
}

} // namespace conair::ca
