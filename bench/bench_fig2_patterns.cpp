/**
 * @file
 * Reproduces paper Fig 2 / §2.2: which atomicity-violation patterns
 * single-threaded idempotent reexecution can recover.  WAW and RAR
 * violations recover (the failing thread only re-reads); RAW and WAR
 * violations cannot (they would need the failing thread's own
 * shared-variable write re-executed, which idempotent regions exclude).
 */
#include "bench/bench_util.h"

#include "apps/patterns.h"
#include "conair/driver.h"
#include "frontend/compile.h"

using namespace conair;
using namespace conair::apps;
using namespace conair::bench;

int
main(int argc, char **argv)
{
    unsigned runs = 25;
    if (int rc = parseCountFlags(argc, argv, "bench_fig2_patterns",
                                 "[--runs N]",
                                 {{"--runs", &runs}}))
        return rc;

    std::printf("=== Fig 2: recoverability of atomicity-violation "
                "patterns under idempotent reexecution ===\n\n");

    Table t({"Pattern", "Figure", "Original run", "Hardened runs",
             "Predicted", "Matches"});
    bool all_match = true;
    for (const PatternSpec &p : fig2Patterns()) {
        DiagEngine d;
        auto original = fe::compileMiniC(p.source, d);
        vm::VmConfig cfg = p.buggyConfig;
        cfg.seed = 1;
        vm::RunResult orig = vm::runProgram(*original, cfg);

        unsigned ok = 0;
        for (unsigned seed = 1; seed <= runs; ++seed) {
            DiagEngine d2;
            auto hardened = fe::compileMiniC(p.source, d2);
            ca::applyConAir(*hardened);
            vm::VmConfig hc = p.buggyConfig;
            hc.seed = seed;
            ok += vm::runProgram(*hardened, hc).outcome ==
                  vm::Outcome::Success;
        }
        bool recovered = ok == runs;
        bool matches = recovered == p.recoverableByConAir;
        all_match &= matches;
        t.row({p.name, p.figure, vm::outcomeName(orig.outcome),
               fmt("%u/%u ok", ok, runs),
               p.recoverableByConAir ? "recoverable" : "unrecoverable",
               matches ? "yes" : "NO"});
    }
    t.print();
    std::printf("\nPaper shape: WAW and RAR recover; RAW and WAR need "
                "shared-write reexecution and do not.  All predictions "
                "%s.\n", all_match ? "hold" : "DO NOT HOLD");
    return all_match ? 0 : 1;
}
