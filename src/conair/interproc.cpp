#include "conair/interproc.h"

namespace conair::ca {

using analysis::CallEdge;
using analysis::FunctionAnalysis;
using analysis::SliceResult;
using ir::Function;
using ir::Instruction;

namespace {

/** Argument indices of @p fn that appear in @p slice. */
std::vector<unsigned>
criticalArgIndices(const Function *fn, const SliceResult &slice)
{
    std::vector<unsigned> out;
    for (unsigned i = 0; i < fn->numArgs(); ++i)
        if (slice.reaches(fn->arg(i)))
            out.push_back(i);
    return out;
}

class Explorer
{
  public:
    Explorer(const FailureSite &site, const analysis::CallGraph &cg,
             analysis::ModuleAnalysis &ma, const RegionPolicy &policy,
             const InterprocOptions &opts)
        : site_(site), cg_(cg), ma_(ma), policy_(policy), opts_(opts)
    {}

    InterprocDecision
    run(const std::vector<unsigned> &critical_args)
    {
        InterprocDecision d;
        const Function *foo = site_.inst->parent()->parent();
        if (cg_.callersOf(foo).empty())
            return d; // no callers to host the reexecution point
        bool gave_up = false;
        std::vector<Position> points =
            explore(foo, critical_args, 1, gave_up);
        if (gave_up) {
            d.gaveUp = true;
            return d;
        }
        d.promoted = true;
        d.callerPoints = std::move(points);
        d.depthUsed = depthUsed_;
        return d;
    }

  private:
    /**
     * Collects reexecution points across every caller of @p fn.  Sets
     * @p gave_up when some chain is still clean at the depth limit
     * (the paper then abandons the whole attempt for this site).
     */
    std::vector<Position>
    explore(const Function *fn,
            const std::vector<unsigned> &critical_args, unsigned depth,
            bool &gave_up)
    {
        std::vector<Position> points;
        depthUsed_ = std::max(depthUsed_, depth);
        for (const CallEdge &edge : cg_.callersOf(fn)) {
            if (gave_up)
                return points;
            const FunctionAnalysis &fa = ma_.of(*edge.caller);
            Region creg = computeCallerRegion(fa.cfg, edge.site, policy_);

            // Find the caller's own critical arguments: which caller
            // parameters flow into the critical operands of this call.
            std::vector<const ir::Value *> seeds;
            if (site_.kind == FailureKind::Deadlock) {
                // Deadlocks have no data-flow condition; the call site
                // itself anchors the walk.
            } else {
                for (unsigned idx : critical_args)
                    if (idx < edge.site->numOperands())
                        seeds.push_back(edge.site->operand(idx));
            }
            SliceResult cslice = analysis::backwardSlice(fa, seeds);

            bool recoverable_here =
                site_.kind == FailureKind::Deadlock
                    ? regionHasLockAcquisition(creg, nullptr)
                    : regionHasQualifyingSharedRead(cslice, creg);

            bool can_climb =
                creg.cleanToEntry && !recoverable_here &&
                !cg_.callersOf(edge.caller).empty() &&
                (site_.kind == FailureKind::Deadlock ||
                 !criticalArgIndices(edge.caller, cslice).empty());

            if (can_climb) {
                if (depth >= opts_.maxDepth) {
                    // Still clean at the limit: the paper reverts the
                    // whole site to intra-procedural recovery.
                    gave_up = true;
                    return points;
                }
                std::vector<Position> up =
                    explore(edge.caller,
                            criticalArgIndices(edge.caller, cslice),
                            depth + 1, gave_up);
                if (gave_up)
                    return points;
                points.insert(points.end(), up.begin(), up.end());
            } else {
                points.insert(points.end(), creg.points.begin(),
                              creg.points.end());
            }
        }
        return points;
    }

    const FailureSite &site_;
    const analysis::CallGraph &cg_;
    analysis::ModuleAnalysis &ma_;
    const RegionPolicy &policy_;
    const InterprocOptions &opts_;
    unsigned depthUsed_ = 0;
};

} // namespace

InterprocDecision
analyzeInterproc(const FailureSite &site, const Region &region,
                 const analysis::CallGraph &cg,
                 analysis::ModuleAnalysis &ma, const RegionPolicy &policy,
                 const InterprocOptions &opts)
{
    InterprocDecision none;
    if (!region.cleanToEntry)
        return none; // condition (1)

    const Function *foo = site.inst->parent()->parent();
    std::vector<unsigned> critical;
    if (site.kind != FailureKind::Deadlock) {
        // Condition (2): a critical parameter must be on the slice.
        const FunctionAnalysis &fa = ma.of(*foo);
        SliceResult slice = analysis::backwardSlice(
            fa, failureConditionSeeds(site, fa.cdeps));
        critical = criticalArgIndices(foo, slice);
        if (critical.empty())
            return none;
    }
    return Explorer(site, cg, ma, policy, opts).run(critical);
}

} // namespace conair::ca
