/**
 * @file
 * VM execution-engine throughput: the production Fused engine (flat
 * pre-decoded arrays, superinstruction bursts on the scheduler fast
 * path, the per-thread memory-handle cache) versus the reference
 * tree-walking interpreter, plus the enabled cost of each observation
 * hook on top of Fused.
 *
 * Unlike the table benches, this one measures *wall-clock* interpreter
 * speed, not virtual time: both engines execute the identical
 * instruction stream (the differential tests pin that down), so
 * steps-per-second is a like-for-like comparison.  Results go to
 * stdout as a table and to BENCH_vm.json in the working directory.
 *
 * Flags:
 *   --runs N    repetitions per (workload, engine) cell; best-of-N
 *               wall time is reported (default 3)
 *   --smoke     shrink workloads for CI: verifies the harness and the
 *               JSON output without waiting on full-size runs
 *   --profile [FILE]
 *               print the per-workload phase profile (hot-phase
 *               table) of the profiled Fused row; with FILE, also
 *               write the speedscope JSON there and folded flamegraph
 *               stacks next to it.  The profiled row itself always
 *               runs — its step-identity against the bare rows is
 *               part of the divergence gate — the flag only controls
 *               printing and export.
 *
 * The command line is strict: an unknown flag (--help included), a
 * missing value, or a --runs count that is not a positive number
 * prints the usage line and exits 2.
 */
#include "bench/bench_util.h"

#include <chrono>
#include <fstream>

#include "frontend/compile.h"
#include "obs/profile/profile_export.h"
#include "obs/trace.h"
#include "support/json.h"
#include "vm/interp.h"

using namespace conair;
using namespace conair::bench;

namespace {

struct Workload
{
    std::string name;
    std::string source;
    bool singleThread;
};

/** Arithmetic + control flow in one thread: the pure dispatch-speed
 *  case the pre-decoder targets.  (Sources are assembled with string
 *  concatenation — fmt()'s fixed buffer is too small for them.) */
std::string
srcSpin(unsigned outer)
{
    return R"(
int main() {
    int acc = 0;
    int i = 0;
    while (i < )" +
           std::to_string(outer) + R"() {
        int j = 0;
        while (j < 100) {
            acc = acc + j * 3 - (acc / 7);
            j = j + 1;
        }
        i = i + 1;
    }
    return acc & 1;
}
)";
}

/** Loads/stores against a local array plus calls: exercises the
 *  memory-handle cache and the pre-decoded call path. */
std::string
srcMemCalls(unsigned outer)
{
    return R"(
int sum8(int seed) {
    int buf[8];
    int k = 0;
    while (k < 8) {
        buf[k] = seed + k;
        k = k + 1;
    }
    int s = 0;
    k = 0;
    while (k < 8) {
        s = s + buf[k];
        k = k + 1;
    }
    return s;
}
int main() {
    int acc = 0;
    int i = 0;
    while (i < )" +
           std::to_string(outer) + R"() {
        acc = acc + sum8(i);
        i = i + 1;
    }
    return acc & 1;
}
)";
}

/** Contended increments across four threads: the scheduler burst path
 *  has to keep its fast-path bookkeeping while switching threads and
 *  parking on locks. */
std::string
srcThreads(unsigned outer)
{
    std::string n = std::to_string(outer);
    return R"(
mutex m;
int counter;
int worker(int n) {
    int i = 0;
    while (i < )" +
           n + R"() {
        lock(m);
        counter = counter + 1;
        unlock(m);
        i = i + 1;
    }
    return 0;
}
int main() {
    int a = spawn(worker, 0);
    int b = spawn(worker, 0);
    int c = spawn(worker, 0);
    int i = 0;
    while (i < )" +
           n + R"() {
        lock(m);
        counter = counter + 1;
        unlock(m);
        i = i + 1;
    }
    join(a);
    join(b);
    join(c);
    return 0;
}
)";
}

struct Cell
{
    uint64_t steps = 0;
    double seconds = 0;
    double stepsPerSec = 0;
    vm::Outcome outcome = vm::Outcome::Success;
};

Cell
measure(const ir::Module &m, vm::VmConfig cfg, unsigned runs,
        obs::FlightRecorder *rec = nullptr,
        bool recordSharedAccesses = false,
        obs::prof::PhaseProfiler *prof = nullptr)
{
    Cell best;
    for (unsigned r = 0; r < runs; ++r) {
        if (rec) {
            rec->clear();
            cfg.recorder = rec;
            cfg.recordSharedAccesses = recordSharedAccesses;
        }
        if (prof) {
            // Cleared per repetition: every run is identical, so the
            // profiler ends holding exactly one run's (deterministic)
            // phase attribution.
            prof->clear();
            cfg.profiler = prof;
        }
        auto t0 = std::chrono::steady_clock::now();
        vm::RunResult res = vm::runProgram(m, cfg);
        auto t1 = std::chrono::steady_clock::now();
        double sec = std::chrono::duration<double>(t1 - t0).count();
        if (sec <= 0)
            sec = 1e-9;
        double sps = double(res.stats.steps) / sec;
        if (sps > best.stepsPerSec) {
            best.steps = res.stats.steps;
            best.seconds = sec;
            best.stepsPerSec = sps;
            best.outcome = res.outcome;
        }
    }
    return best;
}

/** Enabled cost of an observation hook: the share of @p bare's
 *  throughput the instrumented cell loses. */
double
overhead(const Cell &instrumented, const Cell &bare)
{
    return 1.0 - instrumented.stepsPerSec / bare.stepsPerSec;
}

} // namespace

int
main(int argc, char **argv)
{
    constexpr const char *kTool = "bench_vm_throughput";
    constexpr const char *kUsage = "[--smoke] [--runs N] [--profile [FILE]]";
    unsigned runs = 3;
    bool smoke = false, profileOn = false;
    std::string profilePath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--profile") {
            profileOn = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                profilePath = argv[++i];
        } else if (arg == "--runs") {
            if (!takePositiveCount(argc, argv, i, runs))
                return usageExit(kTool, kUsage,
                                 "--runs needs a positive count");
        } else {
            return usageExit(kTool, kUsage,
                             "unknown argument '" + arg + "'");
        }
    }

    const unsigned scale = smoke ? 200 : 20000;
    std::vector<Workload> workloads = {
        {"spin-loop", srcSpin(scale), true},
        {"mem+calls", srcMemCalls(scale * 4), true},
        {"4-thread-locks", srcThreads(scale * 2), false},
    };

    // The baseline is the reference engine with the scheduler fast
    // path off; "fused" is the production default.
    vm::VmConfig base;
    base.seed = 1;
    base.maxSteps = 1ull << 40;

    vm::VmConfig ref = base;
    ref.engine = vm::ExecEngine::Reference;
    ref.schedFastPath = false;

    vm::VmConfig fused = base;
    fused.engine = vm::ExecEngine::Fused;

    std::printf("=== VM engine throughput: fused vs reference "
                "(wall clock) ===\n\n");

    Table t({"Workload", "Reference (steps/s)", "Fused (steps/s)",
             "Speedup", "Fused+trace (steps/s)", "Trace cost",
             "Diag cost", "Prof cost"});

    struct Row
    {
        std::string name;
        bool singleThread;
        Cell ref, fus, traced, diag, prof;
    };
    std::vector<Row> rows;
    obs::prof::ProfileDoc profDoc;

    for (const Workload &w : workloads) {
        DiagEngine d;
        auto m = fe::compileMiniC(w.source, d);
        if (!m) {
            std::fprintf(stderr, "compile failed for %s:\n%s\n",
                         w.name.c_str(), d.str().c_str());
            return 1;
        }
        Row row;
        row.name = w.name;
        row.singleThread = w.singleThread;
        row.ref = measure(*m, ref, runs);
        row.fus = measure(*m, fused, runs);
        // The tracing-on row: same fused config, flight recorder
        // attached.  Its distance from the plain fused row is the
        // *enabled* cost; the fused row itself carries the
        // disabled-mode branch, so regressions there surface in
        // fused_steps_per_sec.
        obs::FlightRecorder recorder(4096);
        row.traced = measure(*m, fused, runs, &recorder);
        // The diagnosis-mode row (recordSharedAccesses on): bounds the
        // cost of SharedLoad/SharedStore recording.  Like the trace
        // row, its *default-mode* counterpart (the plain fused row)
        // must stay unchanged — the guard below checks step identity
        // across all five cells.
        obs::FlightRecorder diagRecorder(4096);
        row.diag = measure(*m, fused, runs, &diagRecorder, true);
        // The profiler-on row: same fused config, phase profiler
        // attached.  Its step identity against the bare rows is the
        // passivity check; its distance from the plain fused row is
        // the enabled cost of profiling.
        obs::prof::PhaseProfiler profiler;
        row.prof = measure(*m, fused, runs, nullptr, false, &profiler);
        {
            obs::prof::ProfileAgg agg;
            agg.add(profiler);
            profDoc.phaseGroups.emplace_back(w.name, agg);
        }
        if (row.ref.outcome != vm::Outcome::Success ||
            row.fus.outcome != vm::Outcome::Success ||
            row.ref.steps != row.fus.steps ||
            row.traced.steps != row.fus.steps ||
            row.diag.steps != row.fus.steps ||
            row.prof.steps != row.fus.steps) {
            std::fprintf(stderr,
                         "engine divergence on %s: steps %llu vs %llu "
                         "(traced %llu, diag %llu, profiled %llu)\n",
                         w.name.c_str(),
                         (unsigned long long)row.ref.steps,
                         (unsigned long long)row.fus.steps,
                         (unsigned long long)row.traced.steps,
                         (unsigned long long)row.diag.steps,
                         (unsigned long long)row.prof.steps);
            return 1;
        }
        rows.push_back(row);
        t.row({row.name, fmt("%.0f", row.ref.stepsPerSec),
               fmt("%.0f", row.fus.stepsPerSec),
               fmt("%.2fx", row.fus.stepsPerSec / row.ref.stepsPerSec),
               fmt("%.0f", row.traced.stepsPerSec),
               fmt("%.1f%%", overhead(row.traced, row.fus) * 100),
               fmt("%.1f%%", overhead(row.diag, row.fus) * 100),
               fmt("%.1f%%", overhead(row.prof, row.fus) * 100)});
    }
    t.print();

    if (profileOn) {
        std::printf("\n%s",
                    obs::prof::hotPhaseTable(profDoc).c_str());
        if (!profilePath.empty() &&
            !writeProfileArtifacts(profDoc, "vm_throughput", profilePath))
            return 1;
    }

    JsonWriter w(2);
    w.beginObject();
    w.key("bench").value("vm_throughput");
    w.key("mode").value(smoke ? "smoke" : "full");
    w.key("runs").value(runs);
    w.key("workloads").beginArray();
    for (const Row &r : rows) {
        w.beginObject();
        w.key("name").value(r.name);
        w.key("single_thread").value(r.singleThread);
        w.key("steps").value(r.ref.steps);
        w.key("reference_steps_per_sec")
            .value(r.ref.stepsPerSec, "%.0f");
        w.key("fused_steps_per_sec").value(r.fus.stepsPerSec, "%.0f");
        w.key("speedup")
            .value(r.fus.stepsPerSec / r.ref.stepsPerSec, "%.3f");
        w.key("fused_traced_steps_per_sec")
            .value(r.traced.stepsPerSec, "%.0f");
        w.key("trace_overhead").value(overhead(r.traced, r.fus), "%.3f");
        w.key("fused_diag_steps_per_sec")
            .value(r.diag.stepsPerSec, "%.0f");
        w.key("diag_overhead").value(overhead(r.diag, r.fus), "%.3f");
        w.key("fused_prof_steps_per_sec")
            .value(r.prof.stepsPerSec, "%.0f");
        w.key("prof_overhead").value(overhead(r.prof, r.fus), "%.3f");
        w.endObject();
    }
    w.endArray();
    w.endObject();
    std::ofstream out("BENCH_vm.json");
    out << w.str() << "\n";
    out.close();
    std::printf("\nwrote BENCH_vm.json\n");

    // The fused engine exists to be faster: hold the single-thread
    // dispatch workloads to a 3x floor over the reference walker
    // (skipped in smoke mode, where runs are too short to time
    // meaningfully).
    if (!smoke) {
        for (const Row &r : rows) {
            if (!r.singleThread)
                continue;
            double speedup = r.fus.stepsPerSec / r.ref.stepsPerSec;
            if (speedup < 3.0) {
                std::fprintf(stderr,
                             "FAIL: %s fused speedup %.2fx below the "
                             "3x floor\n",
                             r.name.c_str(), speedup);
                return 1;
            }
        }
    }
    return 0;
}
