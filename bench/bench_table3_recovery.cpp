/**
 * @file
 * Reproduces paper Table 3: per application, whether ConAir recovers
 * the forced failure (fix mode and survival mode) and the run-time
 * overhead of each mode.
 *
 * Methodology (paper §5): the failure-forcing schedule replaces the
 * authors' injected sleeps; recovery is claimed only when all N runs
 * (default 1000) produce fully correct executions; overhead is the
 * mean over 20 clean runs.  Wrong-output apps (FFT, MySQL1) are
 * "conditionally recovered": their recovery needs the developer's
 * oracle() annotation.
 */
#include "bench/bench_util.h"

using namespace conair;
using namespace conair::apps;
using namespace conair::bench;

int
main(int argc, char **argv)
{
    unsigned runs = 1000;
    unsigned oh_runs = 20;
    if (int rc = parseCountFlags(argc, argv, "bench_table3_recovery",
                                 "[--runs N] [--overhead-runs N]",
                                 {{"--runs", &runs},
                                  {"--overhead-runs", &oh_runs}}))
        return rc;

    std::printf("=== Table 3: overall bug recovery results ===\n");
    std::printf("(recovery over %u failure runs; overhead over %u "
                "clean runs; 'Yes*' = needs the oracle annotation)\n\n",
                runs, oh_runs);

    Table t({"App", "Failure", "Recovered(fix)", "Recovered(survival)",
             "Overhead(fix)", "Overhead(survival)"});

    for (const AppSpec &app : allApps()) {
        // Fix mode: harden only the site(s) observed in one failing
        // run of the original program.
        HardenOptions fix;
        fix.conair.mode = ca::Mode::Fix;
        fix.conair.fixTags = observedFailureTags(app);
        PreparedApp fixed = prepareApp(app, fix);
        RecoveryTrial fix_trial = runRecoveryTrial(fixed, runs);

        // Survival mode: no knowledge of the bug at all.
        HardenOptions survival;
        PreparedApp hardened = prepareApp(app, survival);
        RecoveryTrial sur_trial = runRecoveryTrial(hardened, runs);

        double fix_oh = measureOverhead(app, fix, oh_runs);
        double sur_oh = measureOverhead(app, survival, oh_runs);

        auto verdict = [&](const RecoveryTrial &trial) {
            std::string mark = trial.allCorrect() ? "Yes" : "NO";
            if (trial.allCorrect() && app.needsOracle)
                mark += "*";
            if (!trial.allCorrect())
                mark += fmt(" (%u/%u)", trial.correct, trial.runs);
            return mark;
        };

        t.row({app.name, vm::outcomeName(app.expectedFailure),
               verdict(fix_trial), verdict(sur_trial),
               fmt("%.2f%%", fix_oh * 100),
               fmt("%.2f%%", sur_oh * 100)});
    }
    t.print();
    std::printf("\nPaper shape: every bug recovered (FFT/MySQL1 "
                "conditionally), overhead 0%% fix / <1%% survival.\n");
    return 0;
}
