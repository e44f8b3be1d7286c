/**
 * @file
 * The ConAir pipeline driver: failure sites -> regions -> §4.3
 * inter-procedural promotion -> §4.2 optimization -> code transform.
 *
 * This is the library's main entry point (the equivalent of running the
 * paper's LLVM pass stack over a program).
 */
#pragma once

#include <string>
#include <vector>

#include "conair/failure_sites.h"
#include "conair/interproc.h"
#include "conair/regions.h"
#include "conair/transform.h"
#include "ir/module.h"

namespace conair::ca {

/** All pipeline knobs. */
struct ConAirOptions
{
    Mode mode = Mode::Survival;
    std::vector<std::string> fixTags; ///< fix-mode site tags

    bool optimize = true;   ///< §4.2 unnecessary-rollback elimination
    bool interproc = true;  ///< §4.3 inter-procedural recovery
    unsigned interprocDepth = 3;

    RegionPolicy regionPolicy;
    int64_t lockTimeout = 1'500; ///< converted timedlock timeout (ticks)

    /** Verify the module after transforming (fatal on pass bugs). */
    bool verifyAfter = true;
};

/** Per-site outcome, for reports and tests. */
struct SiteReport
{
    std::string tag;
    FailureKind kind;
    bool hasOracle;
    bool recoverable;   ///< survived §4.2
    bool interproc;     ///< promoted by §4.3
    bool interprocGaveUp;
    unsigned numPoints; ///< reexecution points guarding it
};

/** Everything the pipeline reports (feeds Tables 4, 5, 6 and §6.4). */
struct ConAirReport
{
    SiteCounts identified;    ///< Table 4: sites hardened
    SiteCounts recoverable;   ///< sites that kept recovery code
    unsigned staticReexecPoints = 0; ///< Table 5 (static)
    unsigned deadlockPoints = 0;     ///< points used by deadlock sites
    unsigned nonDeadlockPoints = 0;  ///< points used by other sites
    unsigned interprocSites = 0;
    unsigned sitesDroppedByOptimizer = 0;
    double analysisMicros = 0; ///< §6.4 wall-clock analysis+transform
    TransformStats transform;
    std::vector<SiteReport> sites;
};

/**
 * Runs the full ConAir pipeline over @p m, in place.  @p m must be
 * numbered (Function::renumber(), as compileMiniC and parseModule
 * leave it) and is left numbered.
 */
ConAirReport applyConAir(ir::Module &m, const ConAirOptions &opts = {});

} // namespace conair::ca
