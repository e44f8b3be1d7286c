/**
 * @file
 * Reproduces paper Fig 4: the reexecution-region design spectrum.
 * Each column is one design point, from ConAir's leftmost choice
 * (idempotent regions, no state saving) to the traditional right end
 * (whole-program checkpoints / restart):
 *
 *   1. idempotent regions WITHOUT the §4.1 library extension
 *      (strictest: no allocation or lock acquisition in regions),
 *   2. ConAir (idempotent regions + compensated malloc/lock),
 *   3. ConAir + local-variable checkpointing (the spectrum's next
 *      point: longer regions, checkpoints save the frame's slots),
 *   4. whole-program checkpoint/rollback (Rx-style),
 *   5. whole-program restart.
 *
 * For each point: how many of the ten Table 2 bugs it survives, its
 * clean-run overhead, and its mean recovery latency — the paper's
 * "more bugs recovered vs more overhead, slower recovery" trade-off.
 */
#include "bench/bench_util.h"

#include "baselines/baselines.h"

using namespace conair;
using namespace conair::apps;
using namespace conair::bench;

namespace {

struct PointResult
{
    unsigned recovered = 0;
    double overheadSum = 0;
    double recoverySum = 0;
    unsigned recoverySamples = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    unsigned runs = 20;
    unsigned oh_runs = 5;
    if (int rc = parseCountFlags(argc, argv, "bench_fig4_ablation",
                                 "[--runs N] [--overhead-runs N]",
                                 {{"--runs", &runs},
                                  {"--overhead-runs", &oh_runs}}))
        return rc;
    const unsigned napps = allApps().size();

    std::printf("=== Fig 4: reexecution-region design spectrum ===\n\n");

    PointResult strict, conair_pt, locals_pt, wp, restart;

    for (const AppSpec &app : allApps()) {
        // 1. Idempotent-only, no library extension.
        HardenOptions no_ext;
        no_ext.conair.regionPolicy.allowCompensableCalls = false;
        PreparedApp p1 = prepareApp(app, no_ext);
        RecoveryTrial t1 = runRecoveryTrial(p1, runs);
        strict.recovered += t1.allCorrect();
        strict.overheadSum += measureOverhead(app, no_ext, oh_runs);
        if (t1.recoveryMicrosAvg > 0) {
            strict.recoverySum += t1.recoveryMicrosAvg;
            ++strict.recoverySamples;
        }

        // 2. ConAir as published.
        HardenOptions full;
        PreparedApp p2 = prepareApp(app, full);
        RecoveryTrial t2 = runRecoveryTrial(p2, runs);
        conair_pt.recovered += t2.allCorrect();
        conair_pt.overheadSum += measureOverhead(app, full, oh_runs);
        if (t2.recoveryMicrosAvg > 0) {
            conair_pt.recoverySum += t2.recoveryMicrosAvg;
            ++conair_pt.recoverySamples;
        }

        // 3. ConAir + local-variable checkpointing.
        HardenOptions locals;
        locals.conair.regionPolicy.allowLocalWrites = true;
        PreparedApp p3 = prepareApp(app, locals);
        RecoveryTrial t3 = runRecoveryTrial(p3, runs);
        locals_pt.recovered += t3.allCorrect();
        locals_pt.overheadSum += measureOverhead(app, locals, oh_runs);
        if (t3.recoveryMicrosAvg > 0) {
            locals_pt.recoverySum += t3.recoveryMicrosAvg;
            ++locals_pt.recoverySamples;
        }

        // 4. Whole-program checkpointing (original binary).
        HardenOptions plain;
        plain.applyConAir = false;
        PreparedApp orig = prepareApp(app, plain);
        unsigned wp_ok = 0;
        double wp_latency = 0;
        unsigned wp_events = 0;
        for (unsigned seed = 1; seed <= runs; ++seed) {
            bl::WpRunResult r =
                bl::runWithWpCheckpoint(orig, seed, bl::WpOptions{});
            wp_ok += r.recovered;
            if (r.recovered) {
                // Rollback latency ~ work redone since the snapshot.
                wp_latency += double(r.run.clock) * vm::kNanosPerStep /
                              1000.0 / (r.run.stats.wpRecoveries + 1);
                ++wp_events;
            }
        }
        wp.recovered += wp_ok == runs;
        wp.overheadSum += bl::measureWpOverhead(app, bl::WpOptions{},
                                                oh_runs);
        if (wp_events) {
            wp.recoverySum += wp_latency / wp_events;
            ++wp.recoverySamples;
        }

        // 5. Restart.
        bl::RestartResult rr = bl::measureRestart(orig, 1);
        restart.recovered += rr.recovered;
        restart.recoverySum += rr.restartMicros;
        ++restart.recoverySamples;
    }

    Table t({"Design point", "Bugs survived", "Overhead (mean)",
             "Recovery (mean us)"});
    auto row = [&](const char *name, const PointResult &p,
                   bool overhead_known) {
        t.row({name, fmt("%u/%u", p.recovered, napps),
               overhead_known ? fmt("%.2f%%",
                                    p.overheadSum / napps * 100)
                              : std::string("~0%"),
               p.recoverySamples
                   ? fmt("%.1f", p.recoverySum / p.recoverySamples)
                   : std::string("-")});
    };
    row("idempotent only (no 4.1 ext.)", strict, true);
    row("ConAir (idempotent + compensation)", conair_pt, true);
    row("ConAir + local-var checkpoints", locals_pt, true);
    row("whole-program checkpoint (Rx-like)", wp, true);
    row("whole-program restart", restart, false);
    t.print();
    std::printf(
        "\nPaper shape (Fig 4): moving right recovers more bugs but "
        "costs more overhead and slower recovery; ConAir's point "
        "recovers most bugs at negligible cost.  (The checkpoint "
        "baseline only escapes *transient* anomalies: it survives by "
        "rescheduling, not by waiting the bug out.  The Table 2 "
        "kernels keep no address-taken locals in their recovery "
        "regions, so the local-var point coincides with ConAir here; "
        "the LocalWrites test suite exercises programs where only the "
        "extended regions recover.)\n");
    return 0;
}
