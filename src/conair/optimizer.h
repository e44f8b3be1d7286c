/**
 * @file
 * Unnecessary-rollback elimination (paper §4.2).
 *
 * A failure site that provably cannot be helped by rolling back its
 * idempotent region gets no recovery code:
 *  - a deadlock site is hopeless unless its region re-acquires at least
 *    one other lock (Fig 7a/7b) — nothing would be released, so the
 *    other deadlocked threads could never progress;
 *  - a non-deadlock site is hopeless unless a global/heap read that can
 *    affect the failure condition (via the simplified register-only
 *    backward slice, Fig 8) lies inside the region (Fig 7c/7d) —
 *    otherwise reexecution recomputes exactly the same values.
 */
#pragma once

#include "analysis/slicing.h"
#include "conair/failure_sites.h"
#include "conair/regions.h"

namespace conair::ca {

/** Why a site was kept or dropped. */
enum class Recoverability : uint8_t {
    Recoverable,
    NoLockInRegion,     ///< deadlock site, no other acquisition inside
    NoSharedReadOnSlice ///< non-deadlock site, reexecution is pure replay
};

/**
 * Seeds of the failure condition used for slicing: the controlling
 * branch conditions of the site's block plus, for memory accesses, the
 * dereferenced address.
 */
std::vector<const ir::Value *>
failureConditionSeeds(const FailureSite &site,
                      const analysis::ControlDeps &cdeps);

/**
 * Classifies one site given its region.  @p fa must describe the
 * site's function.  Under RegionPolicy::allowLocalWrites the slice
 * additionally traces through the region's stack stores.
 */
Recoverability
classifyRecoverability(const FailureSite &site, const Region &region,
                       const analysis::FunctionAnalysis &fa,
                       const RegionPolicy &policy = {});

/**
 * The §4.2 condition evaluated against an arbitrary slice/region pair;
 * exposed for the inter-procedural analysis, which re-checks it in
 * callers.
 */
bool regionHasQualifyingSharedRead(const analysis::SliceResult &slice,
                                   const Region &region);

/** True when the region contains a lock acquisition other than @p site. */
bool regionHasLockAcquisition(const Region &region,
                              const ir::Instruction *site);

} // namespace conair::ca
