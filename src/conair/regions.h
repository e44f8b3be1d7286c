/**
 * @file
 * Idempotent reexecution-region identification (paper §3.2).
 *
 * For each failure site a backward depth-first search over the CFG
 * finds every reexecution point: the position right after the nearest
 * idempotency-destroying instruction on each path, or the function
 * entry.  The instructions strictly between the points and the site
 * form the (idempotent) reexecution region.
 */
#pragma once

#include <vector>

#include "conair/failure_sites.h"
#include "ir/cfg.h"

namespace conair::ca {

/**
 * A reexecution point: either "right after instruction `after`" or, when
 * `after == nullptr`, "at the start of `block`" (which is then the
 * function's entry block).
 */
struct Position
{
    ir::BasicBlock *block = nullptr;
    ir::Instruction *after = nullptr;

    bool isFunctionEntry() const { return after == nullptr; }
    bool operator==(const Position &o) const = default;
};

/**
 * Controls which instructions destroy idempotency.  The default is the
 * paper's design: every store, every I/O, every call — except the §4.1
 * library extension re-admitting allocation and lock acquisition under
 * compensation logging.  Fig 4's ablation tightens/loosens this.
 */
struct RegionPolicy
{
    /** §4.1 extension: allow malloc / lock / timedlock in regions. */
    bool allowCompensableCalls = true;

    /**
     * Fig 4's next design point to the right: admit writes to
     * non-register *local* (stack) variables.  Regions get longer, but
     * every reexecution point must checkpoint the frame's stack slots
     * (conair.checkpoint_locals), which costs time proportional to the
     * saved state — the trade-off the paper's spectrum sketches.
     * Shared-variable writes and I/O remain excluded either way.
     */
    bool allowLocalWrites = false;
};

/** True when @p inst ends an idempotent region under @p policy. */
bool destroysIdempotency(const ir::Instruction *inst,
                         const RegionPolicy &policy);

/** The reexecution region of one failure site. */
struct Region
{
    /** All reexecution points guarding the site, in the order the
     *  walk found them. */
    std::vector<Position> points;

    /** Instructions inside the region (between points and site), in
     *  program order. */
    std::vector<const ir::Instruction *> insts;

    /** Some backward path reached the function entry. */
    bool reachesEntry = false;

    /**
     * Every backward path reached the entry with no destroying
     * instruction — §4.3 condition (1) for inter-procedural recovery.
     */
    bool cleanToEntry = false;

    /** Membership by id; valid while the function's numbering is. */
    bool contains(const ir::Instruction *inst) const;
};

/**
 * Computes the reexecution region ending at @p site (§3.2.2); @p cfg is
 * the snapshot of the site's function.  The search is linear in the
 * size of that function.
 */
Region computeRegion(const ir::Cfg &cfg, const ir::Instruction *site,
                     const RegionPolicy &policy);

/**
 * Computes a region ending just before call instruction @p call in a
 * caller function (snapshot @p cfg) — used by inter-procedural recovery
 * (§4.3), where the reexecution point moves into the caller of the
 * failing function.
 */
Region computeCallerRegion(const ir::Cfg &cfg, const ir::Instruction *call,
                           const RegionPolicy &policy);

} // namespace conair::ca
