/**
 * @file
 * The ConAir code transformation (paper §3.3, Fig 6 and Fig 5).
 *
 * Given the analysis results (failure sites, reexecution points,
 * recoverability, inter-procedural decisions), this pass rewrites the
 * module:
 *  - a conair.checkpoint (setjmp) at every reexecution point,
 *  - a bounded conair.try_rollback (longjmp) retry at every recoverable
 *    failure site,
 *  - lock -> timedlock conversion + random back-off at recoverable
 *    deadlock sites,
 *  - a pointer sanity check before every segfault site,
 *  - compensation logging after every malloc / lock call (§4.1),
 *  - a zero-cost conair.recovered marker on each site's success path
 *    (recovery-latency measurement; see DESIGN.md).
 */
#pragma once

#include <vector>

#include "analysis/slicing.h"
#include "conair/failure_sites.h"
#include "conair/regions.h"

namespace conair::ca {

/** Everything the transform needs to know about one site. */
struct SitePlan
{
    FailureSite site;
    bool recoverable = true;   ///< §4.2 verdict (kept sites only retry)
    bool interproc = false;    ///< §4.3 promoted
};

/** Per-position bookkeeping for reporting (Tables 5/6). */
struct PositionInfo
{
    bool usedByDeadlock = false;
    bool usedByNonDeadlock = false;
};

/** Inputs to applyTransform(). */
struct TransformPlan
{
    std::vector<SitePlan> sites;

    /** Deduplicated reexecution points with their site-kind usage. */
    std::vector<std::pair<Position, PositionInfo>> points;

    /** Timeout passed to the converted timed locks (virtual ticks). */
    int64_t lockTimeout = 5'000;

    /** Emit conair.checkpoint_locals instead of conair.checkpoint
     *  (required when RegionPolicy::allowLocalWrites was used). */
    bool localCheckpoints = false;
};

/** Static counters produced by the transform. */
struct TransformStats
{
    unsigned checkpointsInserted = 0; ///< static reexecution points
    unsigned retrySites = 0;          ///< sites with a retry loop
    unsigned locksConverted = 0;      ///< lock -> timedlock (Fig 5d)
    unsigned ptrChecksInserted = 0;   ///< sanity checks (Fig 5c)
    unsigned compensationHooks = 0;   ///< note_alloc / note_lock calls
};

/**
 * Applies the transformation to @p m in place.  @p ma is the analysis
 * phase's per-function state, built before any edit: the transform
 * reuses its control dependences (which inserted instructions leave
 * valid) until it splits a block of that function, and then rebuilds
 * them from a fresh numbering.
 */
TransformStats applyTransform(ir::Module &m, const TransformPlan &plan,
                              analysis::ModuleAnalysis &ma);

} // namespace conair::ca
