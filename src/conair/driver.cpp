#include "conair/driver.h"

#include <algorithm>
#include <chrono>

#include "analysis/callgraph.h"
#include "analysis/slicing.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "support/diag.h"

namespace conair::ca {

using analysis::CallGraph;
using ir::Function;

namespace {

struct SiteWork
{
    FailureSite site;
    std::string tag; ///< captured pre-transform (conversion may erase
                     ///< the site instruction, e.g. lock -> timedlock)
    Region region;
    bool recoverable = true;
    bool promoted = false;
    bool gaveUp = false;
    std::vector<Position> points; ///< final positions for this site
};

} // namespace

ConAirReport
applyConAir(ir::Module &m, const ConAirOptions &opts)
{
    ConAirReport report;
    auto t0 = std::chrono::steady_clock::now();

    // Pass 1 (§3.1): failure sites.
    FailureSiteOptions fso;
    fso.mode = opts.mode;
    fso.fixTags = opts.fixTags;
    std::vector<FailureSite> sites = identifyFailureSites(m, fso);
    report.identified = countByKind(sites);

    // The analysis phase edits nothing, so one CFG snapshot and one
    // set of control dependences per function serve every site.  The
    // module arrives numbered (ir::Cfg checks it).
    CallGraph cg(m);
    analysis::ModuleAnalysis ma;
    InterprocOptions ipo;
    ipo.maxDepth = opts.interprocDepth;

    // Pass 2 (§3.2): reexecution regions, then §4.3 and §4.2 per site.
    std::vector<SiteWork> work;
    std::vector<const Function *> promoted_fns; ///< footnote 5
    for (const FailureSite &site : sites) {
        SiteWork w;
        w.site = site;
        w.tag = site.inst->tag();
        const Function *fn = site.inst->parent()->parent();
        const analysis::FunctionAnalysis &fa = ma.of(*fn);
        w.region = computeRegion(fa.cfg, site.inst, opts.regionPolicy);

        Recoverability intra = Recoverability::Recoverable;
        if (opts.optimize || opts.interproc)
            intra = classifyRecoverability(site, w.region, fa,
                                           opts.regionPolicy);

        // §4.3 runs first: it targets exactly the sites whose
        // intra-procedural region is clean to the entry yet useless.
        if (opts.interproc && w.region.cleanToEntry &&
            intra != Recoverability::Recoverable) {
            InterprocDecision d = analyzeInterproc(
                site, w.region, cg, ma, opts.regionPolicy, ipo);
            if (d.promoted) {
                w.promoted = true;
                w.points = d.callerPoints;
                // Footnote 5: the foo-entry point is removed; other
                // sites sharing it ride along inter-procedurally.
                promoted_fns.push_back(fn);
            } else if (d.gaveUp) {
                w.gaveUp = true;
            }
        }
        if (!w.promoted) {
            if (opts.optimize &&
                intra != Recoverability::Recoverable) {
                w.recoverable = false;
                ++report.sitesDroppedByOptimizer;
            }
            w.points = w.region.points;
        }
        work.push_back(std::move(w));
    }

    // Deduplicate reexecution points across the surviving sites and
    // number them in program order (function, then instruction; a
    // function's entry point first), so the hardened IR does not
    // depend on where the heap put anything.
    std::vector<const Function *> fn_order;
    for (const auto &f : m.functions())
        fn_order.push_back(f.get());
    struct KeyedPoint
    {
        uint64_t key;
        Position pos;
        PositionInfo info;
    };
    std::vector<KeyedPoint> keyed;
    for (const SiteWork &w : work) {
        if (!w.recoverable)
            continue;
        for (const Position &p : w.points) {
            const Function *f = p.block->parent();
            if (p.isFunctionEntry() &&
                std::find(promoted_fns.begin(), promoted_fns.end(), f) !=
                    promoted_fns.end())
                continue;
            uint64_t fi = std::find(fn_order.begin(), fn_order.end(), f) -
                          fn_order.begin();
            KeyedPoint kp{fi << 32 | (p.after ? p.after->id() + 1ull : 0),
                          p, {}};
            if (w.site.kind == FailureKind::Deadlock)
                kp.info.usedByDeadlock = true;
            else
                kp.info.usedByNonDeadlock = true;
            keyed.push_back(kp);
        }
    }
    std::sort(keyed.begin(), keyed.end(),
              [](const KeyedPoint &a, const KeyedPoint &b) {
                  return a.key < b.key;
              });
    std::vector<std::pair<Position, PositionInfo>> points;
    for (size_t i = 0; i < keyed.size(); ++i) {
        if (i == 0 || keyed[i].key != keyed[i - 1].key) {
            points.push_back({keyed[i].pos, keyed[i].info});
            continue;
        }
        points.back().second.usedByDeadlock |= keyed[i].info.usedByDeadlock;
        points.back().second.usedByNonDeadlock |=
            keyed[i].info.usedByNonDeadlock;
    }

    // Pass 3 (§3.3): the code transformation.
    TransformPlan plan;
    plan.lockTimeout = opts.lockTimeout;
    plan.localCheckpoints = opts.regionPolicy.allowLocalWrites;
    for (const SiteWork &w : work) {
        if (!w.recoverable && w.site.kind == FailureKind::Deadlock)
            continue; // reverted to a plain lock: nothing to transform
        SitePlan sp;
        sp.site = w.site;
        sp.recoverable = w.recoverable;
        sp.interproc = w.promoted;
        plan.sites.push_back(sp);
    }
    plan.points = points;
    report.transform = applyTransform(m, plan, ma);
    m.renumber();

    auto t1 = std::chrono::steady_clock::now();
    report.analysisMicros =
        std::chrono::duration<double, std::micro>(t1 - t0).count();

    // Reporting.
    report.staticReexecPoints = points.size();
    for (const auto &[pos, info] : points) {
        (void)pos;
        if (info.usedByDeadlock)
            ++report.deadlockPoints;
        if (info.usedByNonDeadlock)
            ++report.nonDeadlockPoints;
    }
    std::vector<FailureSite> kept;
    for (const SiteWork &w : work) {
        SiteReport sr;
        sr.tag = w.tag;
        sr.kind = w.site.kind;
        sr.hasOracle = w.site.hasOracle;
        sr.recoverable = w.recoverable;
        sr.interproc = w.promoted;
        sr.interprocGaveUp = w.gaveUp;
        sr.numPoints = w.points.size();
        report.sites.push_back(std::move(sr));
        if (w.recoverable)
            kept.push_back(w.site);
        if (w.promoted)
            ++report.interprocSites;
    }
    report.recoverable = countByKind(kept);

    if (opts.verifyAfter) {
        DiagEngine diags;
        if (!ir::verifyModule(m, diags)) {
            fatal("ConAir transform produced invalid IR:\n" +
                  diags.str() + ir::printModule(m));
        }
    }
    return report;
}

} // namespace conair::ca
