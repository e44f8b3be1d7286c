#include "conair/regions.h"

#include <algorithm>

#include "analysis/memory_class.h"
#include "support/diag.h"

namespace conair::ca {

using ir::BasicBlock;
using ir::Builtin;
using ir::Function;
using ir::Instruction;
using ir::Opcode;

bool
destroysIdempotency(const Instruction *inst, const RegionPolicy &policy)
{
    switch (inst->opcode()) {
      case Opcode::Store:
        // Every store: to shared memory (would violate the memory
        // consistency argument of §2.2) or to a non-register stack slot
        // (could corrupt reexecution).  Virtual-register writes are the
        // only writes allowed, and those are not Store instructions.
        // Under the Fig 4 local-writes policy, stack-slot stores are
        // re-admitted: the checkpoint saves the frame's slots.
        if (policy.allowLocalWrites &&
            analysis::classifyAddress(analysis::addressOf(inst)) ==
                analysis::AddrRoot::StackSlot)
            return false;
        return true;
      case Opcode::Call: {
        if (inst->callee())
            return true; // user-function calls
        Builtin b = inst->builtin();
        if (ir::builtinIsConAir(b))
            return false; // runtime intrinsics are recovery plumbing
        // §4.1 extension: allocation and lock acquisition can live in a
        // region because the transform logs them for compensation.
        // User-written timed locks are NOT instrumented (only the ones
        // the transform itself emits are), so they stay destroying.
        if (policy.allowCompensableCalls &&
            (b == Builtin::Malloc || b == Builtin::MutexLock))
            return false;
        return true;
      }
      default:
        // Loads, arithmetic, phis, branches, sched hints: all write at
        // most a virtual register.
        return false;
    }
}

bool
Region::contains(const Instruction *inst) const
{
    return std::binary_search(
        insts.begin(), insts.end(), inst,
        [](const Instruction *a, const Instruction *b) {
            return a->id() < b->id();
        });
}

namespace {

/**
 * Backward DFS per §3.2.2, shared by the intra-procedural and
 * caller-side analyses.  The walk begins at the statement before
 * @p start (exclusive) and moves over instruction ids: within a block
 * the previous statement is the previous id, across blocks it is the
 * last id of each predecessor.
 */
Region
walkBackward(const ir::Cfg &cfg, const Instruction *start,
             const RegionPolicy &policy)
{
    Region region;
    std::vector<uint8_t> visited(cfg.numInsts(), 0);
    std::vector<uint32_t> work;
    bool clean_everywhere = true;
    bool entry_point = false;

    // Queues the statement(s) immediately preceding instruction @p id;
    // records the entry point when there is none.
    auto push_before = [&](uint32_t id) {
        uint32_t b = cfg.inst(id)->parent()->id();
        if (id > cfg.firstInst(b)) {
            work.push_back(id - 1);
            return;
        }
        std::span<const uint32_t> preds = cfg.preds(b);
        if (preds.empty()) {
            // Start of the entry block: a reexecution point by rule (2).
            if (!entry_point)
                region.points.push_back(
                    Position{cfg.function().entry(), nullptr});
            entry_point = true;
            region.reachesEntry = true;
            return;
        }
        for (uint32_t p : preds) {
            if (cfg.firstInst(p) == cfg.endInst(p))
                fatal("walkBackward: empty predecessor block");
            work.push_back(cfg.endInst(p) - 1);
        }
    };

    push_before(cfg.id(start));

    while (!work.empty()) {
        uint32_t id = work.back();
        work.pop_back();
        if (visited[id])
            continue;
        visited[id] = 1;
        Instruction *inst = cfg.inst(id);
        if (destroysIdempotency(inst, policy)) {
            // Rule (1): reexecution point right after this instruction.
            region.points.push_back(Position{inst->parent(), inst});
            clean_everywhere = false;
            continue;
        }
        region.insts.push_back(inst);
        push_before(id);
    }

    std::sort(region.insts.begin(), region.insts.end(),
              [](const Instruction *a, const Instruction *b) {
                  return a->id() < b->id();
              });
    region.cleanToEntry = region.reachesEntry && clean_everywhere;
    return region;
}

} // namespace

Region
computeRegion(const ir::Cfg &cfg, const Instruction *site,
              const RegionPolicy &policy)
{
    return walkBackward(cfg, site, policy);
}

Region
computeCallerRegion(const ir::Cfg &cfg, const Instruction *call,
                    const RegionPolicy &policy)
{
    return walkBackward(cfg, call, policy);
}

} // namespace conair::ca
