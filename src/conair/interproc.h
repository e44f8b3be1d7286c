/**
 * @file
 * Inter-procedural recovery analysis (paper §4.3).
 *
 * A failure site f inside function foo is promoted to inter-procedural
 * recovery when (1) no path from foo's entry to f contains an
 * idempotency-destroying operation, (2) for non-deadlock sites at least
 * one of foo's parameters is on f's backward slice (the critical
 * parameters — the only channel through which a caller can change f's
 * outcome, since regions contain no shared writes), and (3) the
 * intra-procedural region is unrecoverable per §4.2.  Reexecution
 * points then move into the callers, recursively up to a configurable
 * depth (default 3); if the walk is still "clean" at the depth limit,
 * ConAir gives the attempt up and keeps the point at foo's entry.
 */
#pragma once

#include "analysis/callgraph.h"
#include "analysis/slicing.h"
#include "conair/optimizer.h"
#include "conair/regions.h"

namespace conair::ca {

/** Result of the §4.3 analysis for one failure site. */
struct InterprocDecision
{
    /** Reexecution moved into the caller(s). */
    bool promoted = false;

    /** Positions in caller functions replacing the foo-entry point. */
    std::vector<Position> callerPoints;

    /** Levels actually climbed (1 = direct caller). */
    unsigned depthUsed = 0;

    /** Hit the depth limit while still clean: revert to foo entry. */
    bool gaveUp = false;
};

/** Tunables for the analysis. */
struct InterprocOptions
{
    unsigned maxDepth = 3; ///< paper default: up to foo's 3rd caller
};

/**
 * Runs the §4.3 analysis for @p site, whose intra-procedural region is
 * @p region.  Pre-condition: the caller established conditions (1) and
 * (3) — region.cleanToEntry and intra-procedural unrecoverability.
 * Condition (2) and the caller exploration happen here.
 */
InterprocDecision analyzeInterproc(const FailureSite &site,
                                   const Region &region,
                                   const analysis::CallGraph &cg,
                                   analysis::ModuleAnalysis &ma,
                                   const RegionPolicy &policy,
                                   const InterprocOptions &opts);

} // namespace conair::ca
