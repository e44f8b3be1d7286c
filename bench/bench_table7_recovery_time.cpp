/**
 * @file
 * Reproduces paper Table 7: ConAir's failure-recovery latency and
 * retry counts versus whole-program restart, in (virtual-time)
 * microseconds on the same VM substrate.
 */
#include "bench/bench_util.h"

#include "baselines/baselines.h"

using namespace conair;
using namespace conair::apps;
using namespace conair::bench;

int
main(int argc, char **argv)
{
    unsigned runs = 50;
    if (int rc = parseCountFlags(argc, argv, "bench_table7_recovery_time",
                                 "[--runs N]",
                                 {{"--runs", &runs}}))
        return rc;

    std::printf("=== Table 7: failure recovery time (virtual-time "
                "microseconds) ===\n\n");

    Table t({"App", "ConAir time (us)", "# retries (max)",
             "Restart (us)", "Speedup"});
    for (const AppSpec &app : allApps()) {
        PreparedApp hardened = prepareApp(app, HardenOptions{});
        RecoveryTrial trial = runRecoveryTrial(hardened, runs);

        HardenOptions plain;
        plain.applyConAir = false;
        PreparedApp orig = prepareApp(app, plain);
        bl::RestartResult restart = bl::measureRestart(orig, 1);

        double speedup = trial.recoveryMicrosAvg > 0
                             ? restart.restartMicros /
                                   trial.recoveryMicrosAvg
                             : 0;
        t.row({app.name, fmt("%.1f", trial.recoveryMicrosAvg),
               fmt("%llu",
                   (unsigned long long)trial.totalRetriesMax),
               fmt("%.1f", restart.restartMicros),
               fmt("%.1fx", speedup)});
    }
    t.print();
    std::printf(
        "\nPaper shape: RAR atomicity violations recover fastest "
        "(MySQL2, ~1 retry); order violations wait for the delayed "
        "thread; restart always costs a full rerun.  The paper's "
        "speedups reach 8x-100,000x because its workloads run for "
        "seconds; the miniatures compress the gap (see "
        "EXPERIMENTS.md).\n");
    return 0;
}
