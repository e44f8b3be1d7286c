/**
 * @file
 * End-to-end benchmark of the find -> fix -> harden pipeline.
 *
 * One process runs one workload: a fixed, deterministic amount of work
 * per pass, repeated until the measuring time is up.  Every pass checks
 * its outputs and folds the work it did into a digest; two passes of
 * one run must produce the same digest.  The last line of stdout is
 * one JSON object with the metrics (README.md defines each one).
 *
 *   hunt    blind runCampaign over the 11 kernels plus seeded
 *           adversarial generated programs (explore + vm layers)
 *   loop    per kernel: runGuided, record the failing run, diagnose,
 *           minimise the replay log, synthesize and validate a fix
 *           (explore + vm + obs + fix layers)
 *   harden  compileMiniC + applyConAir of seeded generated programs and
 *           the kernels, clean runs of both builds and failure-forcing
 *           runs of the plain kernels (frontend + conair + vm layers)
 *
 * Every workload also runs the same clean-run and failure-forcing
 * recovery stage over the kernels, so the paper's own metrics (clean
 * overhead, recovery rate, recovery latency) exist on each.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/app_spec.h"
#include "apps/harness.h"
#include "conair/driver.h"
#include "explore/campaign.h"
#include "explore/guided.h"
#include "fix/fix.h"
#include "fix/validate.h"
#include "frontend/compile.h"
#include "ir/module.h"
#include "obs/postmortem/diagnosis.h"
#include "obs/replay/minimize.h"
#include "obs/replay/replay_log.h"
#include "obs/replay/replay_run.h"
#include "obs/trace.h"
#include "spans.h"
#include "support/diag.h"
#include "support/str.h"
#include "tests/property/program_gen.h"
#include "vm/interp.h"

namespace {

using namespace conair;
using e2ebench::nowSeconds;
using e2ebench::Scope;
using e2ebench::Tracer;

//
// Fixed work per pass.  Changing any of these changes the benchmark.
//
constexpr unsigned kSetupReps = 5;          ///< fresh preparations/pass
constexpr unsigned kMatrixSeeds = 40;       ///< hunt: seeds per policy
constexpr unsigned kAdversarialPrograms = 8; ///< hunt: generated targets
constexpr uint64_t kGuidedBudget = 400;     ///< loop: schedules/kernel
constexpr unsigned kValidateSeeds = 10;     ///< loop: validation seeds
/** loop: per-run step budget of the guided and validation campaigns.
 *  The longest clean kernel run takes 114k steps (ZSNES); a run that
 *  reaches the budget is an inconclusive livelock either way.  At the
 *  campaign default (4M) the recorded livelocks of MySQL2's guided
 *  schedules took most of the pass, varying with the mutation seed. */
constexpr uint64_t kLoopMaxSteps = 250'000;
constexpr unsigned kHardenPrograms = 600;   ///< harden: generated programs
constexpr unsigned kForcedRuns = 32;        ///< forced runs per kernel
constexpr uint64_t kAdversarialMaxSteps = 2'000'000;

/** TargetReport::wall leg names, in PassResult::legMicros order. */
const char *const kWallLegs[4] = {"unhardened", "differential", "hardened",
                                  "hardened_diff"};

const char *const kUsage =
    "usage: e2ebench --workload hunt|loop|harden [--seed N] "
    "[--seconds S] [--trace 0|1] [--workers N] [--break-check]";

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    unsigned workers = 0; ///< 0 = min(4, hardware threads)
    /** Corrupts one kernel's expected output, so the checks must count
     *  failed operations (the benchmark's own failure test). */
    bool breakCheck = false;
};

bool
parseUnsigned(const char *s, uint64_t &out)
{
    if (!*s)
        return false;
    uint64_t v = 0;
    for (const char *p = s; *p; ++p) {
        if (*p < '0' || *p > '9' || v > (UINT64_MAX - 9) / 10)
            return false;
        v = v * 10 + uint64_t(*p - '0');
    }
    out = v;
    return true;
}

/** Strict parser: any unknown flag or bad value is an error. */
bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--break-check") {
            a.breakCheck = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const char *val = argv[++i];
        uint64_t n = 0;
        if (flag == "--workload") {
            a.workload = val;
            if (a.workload != "hunt" && a.workload != "loop" &&
                a.workload != "harden")
                return false;
        } else if (flag == "--seed") {
            if (!parseUnsigned(val, n) || n > (uint64_t(1) << 40))
                return false;
            a.seed = n;
        } else if (flag == "--seconds") {
            if (!parseUnsigned(val, n) || n < 1 || n > 3600)
                return false;
            a.seconds = double(n);
        } else if (flag == "--trace") {
            if (!parseUnsigned(val, n) || n > 1)
                return false;
            a.trace = n == 1;
        } else if (flag == "--workers") {
            if (!parseUnsigned(val, n) || n < 1 || n > 64)
                return false;
            a.workers = unsigned(n);
        } else {
            return false;
        }
    }
    return !a.workload.empty();
}

/** FNV-1a over the work counts of one pass. */
struct Digest
{
    uint64_t h = 1469598103934665603ull;

    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }

    void
    add(const std::string &s)
    {
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ull;
        }
        add(s.size());
    }
};

/** One kernel, prepared: both builds plus its campaign target.  Owns a
 *  copy of its AppSpec so --break-check can corrupt one locally; the
 *  builds and the target point into this object, so it never moves. */
struct Kernel
{
    apps::AppSpec spec;
    apps::CampaignApp app;
    explore::Target target;
};

/** One seeded generated program (hunt's adversarial targets). */
struct GenTarget
{
    std::string name;
    std::unique_ptr<ir::Module> plain;
    std::unique_ptr<ir::Module> hardened;
    explore::Target target;
};

struct Prepared
{
    std::vector<std::unique_ptr<Kernel>> kernels;
    std::vector<std::unique_ptr<GenTarget>> adversarial;
};

std::unique_ptr<ir::Module>
compileOrThrow(const std::string &src, const std::string &name)
{
    DiagEngine d;
    fe::CompileOptions co;
    co.moduleName = name;
    auto m = fe::compileMiniC(src, d, co);
    if (!m)
        throw std::runtime_error(name + " failed to compile: " + d.str());
    return m;
}

/** The work of setup: compile and harden every target, calibrate the
 *  PCT horizons. */
Prepared
prepare(const std::vector<apps::AppSpec> &specs,
        const std::vector<std::string> &adversarialSrc, Tracer &tr)
{
    Prepared p;
    for (const apps::AppSpec &spec : specs) {
        auto k = std::make_unique<Kernel>();
        k->spec = spec;
        {
            Scope s(tr, "setup.prepare", spec.name);
            k->app = apps::prepareCampaignApp(k->spec);
        }
        {
            Scope s(tr, "setup.calibrate", spec.name);
            k->target = apps::campaignTarget(k->app);
        }
        p.kernels.push_back(std::move(k));
    }
    for (size_t i = 0; i < adversarialSrc.size(); ++i) {
        auto g = std::make_unique<GenTarget>();
        g->name = strfmt("adv%zu", i + 1);
        {
            Scope s(tr, "setup.prepare", g->name);
            g->plain = compileOrThrow(adversarialSrc[i], g->name);
            g->hardened = compileOrThrow(adversarialSrc[i], g->name);
            ca::applyConAir(*g->hardened);
        }
        explore::Target &t = g->target;
        t.name = g->name;
        t.plain = g->plain.get();
        t.hardened = g->hardened.get();
        t.checkOutput = false; // racy by design: output is schedule-dependent
        t.mustRecover = false; // lost updates are unrecoverable by design
        t.quantum = 16;
        {
            Scope s(tr, "setup.calibrate", g->name);
            t.horizon =
                explore::calibrateHorizon(*g->plain, kAdversarialMaxSteps);
        }
        p.adversarial.push_back(std::move(g));
    }
    return p;
}

uint64_t
irInsts(const ir::Module &m)
{
    uint64_t n = 0;
    for (const auto &f : m.functions())
        for (const auto &b : f->blocks())
            n += b->size();
    return n;
}

/** Everything one pass measured.  Counts are per pass. */
struct PassResult
{
    double wall = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; ///< one line per failed operation
    Digest digest;

    // End-to-end results.
    uint64_t bugsFound = 0;
    double logStepRatioSum = 0; ///< Σ ln(hardened/plain clean steps)
    uint64_t cleanPrograms = 0;
    uint64_t forcedRuns = 0;
    uint64_t forcedRecovered = 0;
    std::vector<uint64_t> recoveryTicks;

    // Per-layer counts (the traced run reports them).
    uint64_t programs = 0, irInsts = 0, irInstsHardened = 0;
    uint64_t sites = 0, recoverableSites = 0, reexecPoints = 0;
    uint64_t dynCheckpoints = 0;
    uint64_t vmRuns = 0, vmSteps = 0, vmFastPath = 0, vmFused = 0;
    uint64_t vmCacheHits = 0, vmCacheMisses = 0, vmRollbacks = 0;
    uint64_t schedules = 0, campaignVmRuns = 0, campaignSteps = 0;
    uint64_t inconclusive = 0, divergences = 0, unrecovered = 0;
    double legMicros[4] = {};
    uint64_t guidedSchedules = 0, schedulesToBug = 0, corpusEntries = 0;
    uint64_t distinctEdges = 0, mutated = 0, mutationNovel = 0;
    uint64_t episodes = 0, probes = 0, switchesIn = 0, switchesOut = 0;
    uint64_t edits = 0, validateSchedules = 0, fixesValidated = 0;

    void
    failMany(uint64_t n, const std::string &what)
    {
        failed += n;
        failures.push_back(what);
    }

    void fail(const std::string &what) { failMany(1, what); }

    void
    noteRun(const vm::RunResult &r)
    {
        ++vmRuns;
        vmSteps += r.stats.steps;
        vmFastPath += r.stats.fastPathSteps;
        vmFused += r.stats.fusedSteps;
        vmCacheHits += r.stats.memCacheHits;
        vmCacheMisses += r.stats.memCacheMisses;
        vmRollbacks += r.stats.rollbacks;
    }
};

/** The campaign's base VM config for one schedule of @p t (mirrors the
 *  unhardened leg of explore::runOneSchedule). */
vm::VmConfig
scheduleConfig(const explore::Target &t, const explore::ScheduleSpec &s,
               const explore::CampaignOptions &opts)
{
    vm::VmConfig cfg;
    s.applyTo(cfg);
    cfg.pctHorizon = t.horizon;
    cfg.quantum = t.quantum;
    cfg.maxSteps = opts.maxSteps;
    cfg.maxRetries = opts.maxRetries;
    return cfg;
}

class Bench
{
  public:
    Bench(const Args &a, const std::vector<std::string> &hardenSrc,
          Tracer &tr)
        : a_(a), hardenSrc_(hardenSrc), tr_(tr)
    {}

    PassResult
    runPass(const Prepared &p)
    {
        p_ = &p;
        PassResult r;
        double t0 = nowSeconds();
        {
            Scope s(tr_, "harness.pass", a_.workload);
            if (a_.workload == "hunt")
                hunt(r);
            else if (a_.workload == "loop")
                loop(r);
            else
                harden(r);
            cleanStage(r);
            recoveryStage(r);
        }
        r.wall = nowSeconds() - t0;
        return r;
    }

  private:
    /** Blind matrix over every kernel and adversarial program. */
    void
    hunt(PassResult &r)
    {
        std::vector<explore::Target> targets;
        for (const auto &k : p_->kernels)
            targets.push_back(k->target);
        for (const auto &g : p_->adversarial)
            targets.push_back(g->target);
        explore::CampaignOptions co;
        co.seedsPerPolicy = kMatrixSeeds;
        co.workers = a_.workers;
        // The per-leg wall cells come with the recovery-cost profiler;
        // it is passive (tick-identical), so the traced run may use it.
        co.collectProfile = tr_.enabled;
        explore::CampaignReport rep;
        {
            Scope s(tr_, "explore.campaign", "matrix");
            rep = explore::runCampaign(targets, co);
        }
        for (size_t i = 0; i < rep.targets.size(); ++i) {
            const explore::TargetReport &t = rep.targets[i];
            r.attempted += t.schedules;
            r.digest.add(t.name);
            r.digest.add(t.schedules);
            r.digest.add(t.failingSchedules);
            r.digest.add(t.inconclusive);
            r.digest.add(t.hardenedSchedules);
            r.digest.add(t.chaosRollbacks);
            r.digest.add(t.totalSteps);
            // Capped at the schedules run: the report does not say how
            // many schedules tripped both checks.
            if (t.divergences || t.unrecovered)
                r.failMany(
                    std::min(t.schedules, t.divergences + t.unrecovered),
                    strfmt("hunt %s: %llu divergent (first %s), %llu "
                           "unrecovered (first %s)",
                           t.name.c_str(), (unsigned long long)t.divergences,
                           t.firstDivergence.token().c_str(),
                           (unsigned long long)t.unrecovered,
                           t.firstUnrecovered.token().c_str()));
            r.inconclusive += t.inconclusive;
            r.divergences += t.divergences;
            r.unrecovered += t.unrecovered;
            for (const auto &c : t.wall)
                for (int leg = 0; leg < 4; ++leg)
                    if (c.leg == kWallLegs[leg])
                        r.legMicros[leg] += double(c.micros);
            if (i < p_->kernels.size())
                r.bugsFound += t.foundFailure;
        }
        r.schedules += rep.schedules;
        r.campaignVmRuns += rep.vmRuns;
        r.campaignSteps += rep.totalSteps;
        r.digest.add(rep.vmRuns);
    }

    /** Guided search, then the diagnose -> fix -> validate chain. */
    void
    loop(PassResult &r)
    {
        explore::CampaignOptions co;
        co.workers = a_.workers;
        co.maxSteps = kLoopMaxSteps;
        explore::GuidedOptions g;
        g.budget = kGuidedBudget;
        g.mutationSeed = a_.seed;
        // The whole budget runs even after the first failure: the same
        // work whatever the seed finds, and when.
        g.stopAtFirstFailure = false;
        for (const auto &k : p_->kernels) {
            const explore::Target &t = k->target;
            explore::GuidedResult gr;
            {
                Scope s(tr_, "guided.search", t.name);
                gr = explore::runGuided(t, co, g);
            }
            r.attempted += gr.schedules;
            r.guidedSchedules += gr.schedules;
            r.mutated += gr.mutatedSchedules;
            r.mutationNovel += gr.mutationNovel;
            r.corpusEntries += gr.corpus.entries.size();
            r.distinctEdges += gr.distinctEdges;
            r.divergences += gr.divergences;
            r.unrecovered += gr.unrecovered;
            r.digest.add(t.name);
            r.digest.add(gr.schedules);
            r.digest.add(gr.coverageDigest);
            r.digest.add(gr.corpus.digest());
            r.digest.add(gr.seedsToFirstFailure);
            if (gr.divergences || gr.unrecovered)
                r.failMany(std::min(gr.schedules,
                                    gr.divergences + gr.unrecovered),
                           strfmt("loop %s: %llu divergent, %llu "
                                  "unrecovered guided schedules",
                                  t.name.c_str(),
                                  (unsigned long long)gr.divergences,
                                  (unsigned long long)gr.unrecovered));
            r.schedulesToBug +=
                gr.foundFailure ? gr.seedsToFirstFailure : kGuidedBudget;
            if (!gr.foundFailure)
                continue;
            ++r.bugsFound;
            ++r.attempted; // the fix chain of this kernel is one operation
            try {
                fixChain(*k, co, gr.firstFailure, r);
            } catch (const std::exception &e) {
                r.fail(strfmt("loop %s: exception: %s", t.name.c_str(),
                              e.what()));
            }
        }
    }

    /** Record -> diagnose -> minimise -> synthesize -> validate for one
     *  kernel whose guided search found @p spec failing.  Fails the
     *  operation unless it ends in a validated patch. */
    void
    fixChain(const Kernel &k, const explore::CampaignOptions &co,
             const explore::ScheduleSpec &spec, PassResult &r)
    {
        const explore::Target &t = k.target;
        const std::string &name = t.name;
        const std::string token = spec.token();
        vm::VmConfig cfg = scheduleConfig(t, spec, co);
        obs::FlightRecorder rec(4096, obs::RecorderMode::Grow);
        obs::FlightRecorder hardRec(4096, obs::RecorderMode::Grow);
        vm::RunResult fail;
        {
            Scope s(tr_, "replay.record", name);
            cfg.recorder = &rec;
            cfg.recordSharedAccesses = true;
            fail = vm::runProgram(*t.plain, cfg);
            vm::VmConfig hcfg = cfg;
            hcfg.recorder = &hardRec;
            r.noteRun(vm::runProgram(*t.hardened, hcfg));
            cfg.recorder = nullptr;
            cfg.recordSharedAccesses = false;
        }
        r.noteRun(fail);
        if (apps::runIsCorrect(k.spec, fail)) {
            r.fail("loop " + name + ": guided failure " + token +
                   " did not reproduce");
            return;
        }

        // The hardened leg tells the recovery story when it has one; the
        // unhardened leg dies before the racing partner runs.
        obs::pm::RecoveryReport diag;
        {
            Scope s(tr_, "postmortem.diagnose", name);
            bool useHard =
                hardRec.totalOf(obs::EventKind::RecoveryDone) > 0 ||
                hardRec.totalOf(obs::EventKind::FailureSite) > 0;
            diag = obs::pm::diagnose(useHard ? hardRec : rec,
                                     useHard ? *t.hardened : *t.plain,
                                     name, token);
        }
        r.episodes += diag.episodes.size();

        obs::replay::ReplayLog log;
        std::string err;
        {
            Scope s(tr_, "replay.record", name);
            if (!obs::replay::buildReplayLog(name, token, cfg, rec, fail,
                                             log, err)) {
                r.fail("loop " + name + ": replay log: " + err);
                return;
            }
        }
        r.switchesIn += log.switches.size();
        {
            Scope s(tr_, "replay.minimize", name);
            obs::replay::MinimizeResult m =
                obs::replay::minimizeReplayLog(*t.plain, log, {});
            r.probes += m.probes;
            if (m.ok)
                log = std::move(m.minimized);
        }
        r.switchesOut += log.switches.size();
        {
            Scope s(tr_, "replay.verify", name);
            obs::replay::ReplayRun check =
                obs::replay::replayLog(*t.plain, log, log.engine);
            r.noteRun(check.result);
            if (!check.faithful) {
                r.fail("loop " + name + ": unfaithful replay: " +
                       check.mismatch);
                return;
            }
        }

        fix::FixPlan plan;
        {
            Scope s(tr_, "fix.synthesize", name);
            plan = fix::synthesizeFix(*t.plain, diag);
        }
        r.digest.add(log.switches.size());
        r.digest.add(plan.edits.size());
        r.digest.add(std::string(fix::strategyName(plan.strategy)));
        if (!plan.ok) {
            r.fail("loop " + name + ": no fix: " + plan.error);
            return;
        }
        r.edits += plan.edits.size();
        fix::ValidationOptions vo;
        vo.campaign = co;
        vo.campaign.seedsPerPolicy = kValidateSeeds;
        vo.cleanConfig = k.spec.cleanConfig;
        fix::ValidationResult val;
        {
            Scope s(tr_, "fix.validate", name);
            val = fix::validatePatch(*plan.patched, t, &log, vo);
        }
        r.validateSchedules += val.schedules;
        r.digest.add(val.schedules);
        r.digest.add(val.inconclusive);
        if (!val.ok()) {
            r.fail(strfmt("loop %s: patch not validated (%s, %llu failing, "
                          "%llu deadlocks, %llu divergences)",
                          name.c_str(), val.error.c_str(),
                          (unsigned long long)val.failing,
                          (unsigned long long)val.deadlocks,
                          (unsigned long long)val.divergences));
            return;
        }
        ++r.fixesValidated;
    }

    /** Compile + ConAir of the generated programs and the kernels, a
     *  clean run of both builds per program, and the failure-forcing
     *  runs of the plain kernels. */
    void
    harden(PassResult &r)
    {
        std::vector<std::pair<std::string, const std::string *>> progs;
        for (size_t i = 0; i < hardenSrc_.size(); ++i)
            progs.push_back({strfmt("gen%zu", i + 1), &hardenSrc_[i]});
        for (const auto &k : p_->kernels)
            progs.push_back({k->spec.name, &k->spec.source});

        for (size_t i = 0; i < progs.size(); ++i) {
            const std::string &name = progs[i].first;
            ++r.attempted;
            try {
                std::unique_ptr<ir::Module> plain, hard;
                ca::ConAirReport rep;
                {
                    Scope s(tr_, "frontend.compile", name);
                    plain = compileOrThrow(*progs[i].second, name);
                    hard = compileOrThrow(*progs[i].second, name);
                }
                {
                    Scope s(tr_, "conair.apply", name);
                    rep = ca::applyConAir(*hard);
                }
                uint64_t ni = irInsts(*plain), nh = irInsts(*hard);
                ++r.programs;
                r.irInsts += ni;
                r.irInstsHardened += nh;
                r.sites += rep.identified.total();
                r.recoverableSites += rep.recoverable.total();
                r.reexecPoints += rep.staticReexecPoints;
                r.digest.add(ni);
                r.digest.add(nh);
                r.digest.add(rep.recoverable.total());
                // The kernels' clean runs belong to the shared stage.
                if (i < hardenSrc_.size())
                    cleanPair(name, *plain, *hard, nullptr, r);
            } catch (const std::exception &e) {
                r.fail("harden " + name + ": exception: " + e.what());
            }
        }

        // Table 3's other half: the plain kernels fail under the same
        // forcing the recovery stage survives.
        for (const auto &k : p_->kernels) {
            bool found = false;
            Scope s(tr_, "vm.forced", k->spec.name + " plain");
            for (unsigned i = 0; i < kForcedRuns; ++i) {
                vm::RunResult res =
                    apps::runBuggy(k->app.plain, forcedSeed(i));
                r.noteRun(res);
                r.digest.add(res.stats.steps);
                found |= !apps::runIsCorrect(k->spec, res);
            }
            r.bugsFound += found;
        }
    }

    /** One clean run of each build under the same schedule.  @p spec
     *  (kernels) also checks the expected output; generated programs
     *  must simply agree and succeed. */
    void
    cleanPair(const std::string &name, const ir::Module &plain,
              const ir::Module &hard, const apps::AppSpec *spec,
              PassResult &r)
    {
        Scope s(tr_, "vm.clean", name);
        vm::VmConfig cfg;
        if (spec)
            cfg = spec->cleanConfig;
        cfg.seed = a_.seed;
        vm::RunResult a = vm::runProgram(plain, cfg);
        vm::RunResult b = vm::runProgram(hard, cfg);
        r.noteRun(a);
        r.noteRun(b);
        r.dynCheckpoints += b.stats.checkpointsExecuted;
        r.digest.add(a.stats.steps);
        r.digest.add(b.stats.steps);
        bool ok = a.outcome == vm::Outcome::Success &&
                  b.outcome == a.outcome && b.output == a.output &&
                  b.exitCode == a.exitCode &&
                  (!spec || apps::runIsCorrect(*spec, a));
        if (!ok) {
            r.fail(strfmt("%s %s: clean runs disagree (plain %s, "
                          "hardened %s)",
                          a_.workload.c_str(), name.c_str(),
                          vm::outcomeName(a.outcome),
                          vm::outcomeName(b.outcome)));
            return;
        }
        ++r.cleanPrograms;
        r.logStepRatioSum +=
            std::log(double(b.stats.steps) / double(a.stats.steps));
    }

    /** Clean runs of both kernel builds (every workload). */
    void
    cleanStage(PassResult &r)
    {
        for (const auto &k : p_->kernels) {
            ++r.attempted;
            cleanPair(k->spec.name, *k->app.plain.module,
                      *k->app.hardened.module, &k->spec, r);
        }
    }

    uint64_t
    forcedSeed(unsigned i) const
    {
        return a_.seed * 1000 + i + 1;
    }

    /** Failure-forcing runs of the hardened kernels (every workload). */
    void
    recoveryStage(PassResult &r)
    {
        for (const auto &k : p_->kernels) {
            Scope s(tr_, "vm.forced", k->spec.name);
            for (unsigned i = 0; i < kForcedRuns; ++i) {
                vm::RunResult res =
                    apps::runBuggy(k->app.hardened, forcedSeed(i));
                r.noteRun(res);
                ++r.attempted;
                ++r.forcedRuns;
                r.digest.add(res.stats.steps);
                r.digest.add(res.stats.recoveries.size());
                for (const vm::RecoveryEvent &ev : res.stats.recoveries)
                    r.recoveryTicks.push_back(ev.endClock - ev.startClock);
                if (apps::runIsCorrect(k->spec, res))
                    ++r.forcedRecovered;
                else
                    r.fail(strfmt("%s %s: forced run seed %llu not "
                                  "recovered (%s)",
                                  a_.workload.c_str(),
                                  k->spec.name.c_str(),
                                  (unsigned long long)forcedSeed(i),
                                  vm::outcomeName(res.outcome)));
            }
        }
    }

    const Args &a_;
    const Prepared *p_ = nullptr;
    const std::vector<std::string> &hardenSrc_;
    Tracer &tr_;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Nearest-rank quantile of a sorted sample. */
uint64_t
quantile(const std::vector<uint64_t> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    size_t rank = size_t(std::ceil(q * double(sorted.size())));
    return sorted[std::min(sorted.size(), std::max<size_t>(rank, 1)) - 1];
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr, "%s\n", kUsage);
        return 2;
    }
    if (a.workers == 0)
        a.workers = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);

    // Inputs are generated before any clock starts: generating a
    // program costs more than compiling it.
    std::vector<apps::AppSpec> specs = apps::allApps();
    for (const apps::AppSpec &c : apps::challengeApps())
        specs.push_back(c);
    if (a.breakCheck)
        specs.front().expectedOutput += "(deliberately wrong)\n";
    std::vector<std::string> adversarialSrc, hardenSrc;
    if (a.workload == "hunt") {
        // Small racy programs: the random filler code around the races
        // would only add compile time to set-up.
        proptest::GenOptions g;
        g.adversarial = true;
        g.maxFunctions = 1;
        g.maxStmtsPerBlock = 3;
        g.maxDepth = 2;
        for (unsigned i = 0; i < kAdversarialPrograms; ++i)
            adversarialSrc.push_back(
                proptest::generateProgram(a.seed * 1000 + i + 1, g));
    } else if (a.workload == "harden") {
        for (unsigned i = 0; i < kHardenPrograms; ++i)
            hardenSrc.push_back(
                proptest::generateProgram(a.seed * 1000 + i + 1));
    }

    Tracer tracer;

    // Passes of fixed work until the measuring time is up (at least
    // two, so the work-identity guard always has a pair to compare).
    // Every pass starts from kSetupReps fresh preparations and uses the
    // last; setup_s is the median of all of them, taken under the same
    // machine state as the passes.  The traced run alternates traced
    // and untraced passes: the difference is the tracing overhead.
    Bench bench(a, hardenSrc, tracer);
    std::vector<PassResult> passes;
    std::vector<double> setupTimes, tracedWalls, untracedWalls;
    unsigned tracedPreps = 0;
    double t0 = nowSeconds();
    while (passes.size() < 2 || nowSeconds() - t0 < a.seconds) {
        bool traced = a.trace && passes.size() % 2 == 0;
        tracer.enabled = traced;
        PassResult r;
        try {
            Prepared prep;
            for (unsigned i = 0; i < kSetupReps; ++i) {
                double ts = nowSeconds();
                Prepared fresh = prepare(specs, adversarialSrc, tracer);
                setupTimes.push_back(nowSeconds() - ts);
                prep = std::move(fresh);
            }
            tracedPreps += traced ? kSetupReps : 0;
            r = bench.runPass(prep);
        } catch (const std::exception &e) {
            r.fail(std::string("exception: ") + e.what());
            ++r.attempted;
        }
        (traced ? tracedWalls : untracedWalls).push_back(r.wall);
        passes.push_back(std::move(r));
    }
    tracer.enabled = false;

    uint64_t attempted = 0, failed = 0;
    std::vector<std::string> problems;
    for (size_t i = 0; i < passes.size(); ++i) {
        const PassResult &r = passes[i];
        attempted += r.attempted;
        failed += r.failed;
        for (const std::string &f : r.failures)
            problems.push_back(strfmt("pass %zu: %s", i + 1, f.c_str()));
        if (r.digest.h != passes[0].digest.h)
            problems.push_back(strfmt(
                "work digest of pass %zu (%016llx) differs from pass 1 "
                "(%016llx)",
                i + 1, (unsigned long long)r.digest.h,
                (unsigned long long)passes[0].digest.h));
    }
    const bool ok = problems.empty();

    const PassResult &p0 = passes[0];
    std::vector<double> walls;
    for (const PassResult &r : passes)
        walls.push_back(r.wall);
    std::vector<uint64_t> ticks = p0.recoveryTicks;
    std::sort(ticks.begin(), ticks.end());

    std::printf("e2ebench %s seed %llu: %zu passes of fixed work, %u "
                "workers, work digest %016llx\n",
                a.workload.c_str(), (unsigned long long)a.seed,
                passes.size(), a.workers,
                (unsigned long long)p0.digest.h);
    std::printf("recovery episodes per pass: %zu (p90 needs >= 100)\n",
                ticks.size());
    for (const std::string &problem : problems)
        std::fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());

    std::vector<Metric> metrics;
    if (!a.trace) {
        metrics = {
            {"setup_s", median(setupTimes), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"ok_frac",
             ratio(double(attempted) - double(failed), double(attempted)),
             "ratio"},
            {"loop_s", median(walls), "s"},
            {"bugs_found", double(p0.bugsFound), "count"},
            {"overhead_pct",
             100.0 * (std::exp(ratio(p0.logStepRatioSum,
                                     double(p0.cleanPrograms))) -
                      1.0),
             "%"},
            {"recovered_frac",
             ratio(double(p0.forcedRecovered), double(p0.forcedRuns)),
             "ratio"},
            {"recovery_ticks_p50", double(quantile(ticks, 0.5)), "ticks"},
            {"recovery_ticks_p90", double(quantile(ticks, 0.9)), "ticks"},
        };
    } else {
        // Per-layer numbers come from the traced passes only; counts are
        // per pass, times are per traced pass.
        const double nt = double(tracedWalls.size());
        std::map<std::string, double> tot = tracer.totals();
        std::map<std::string, double> self = tracer.selfTimes();
        self.erase("setup"); // preparations are not part of a pass
        auto span = [&](const char *name) {
            auto it = tot.find(name);
            return it == tot.end() ? 0.0 : it->second / nt;
        };
        auto setupSpan = [&](const char *name) {
            auto it = tot.find(name);
            return it == tot.end() ? 0.0 : it->second / tracedPreps;
        };
        double compileS = span("frontend.compile");
        double vmS = span("vm.clean") + span("vm.forced") +
                     span("replay.record") + span("replay.verify");
        double campaignS = span("explore.campaign");
        double untraced = median(untracedWalls);
        double traced = median(tracedWalls);
        metrics = {
            {"setup.prepare_s", setupSpan("setup.prepare"), "s"},
            {"setup.calibrate_s", setupSpan("setup.calibrate"), "s"},
            {"frontend.compile_s", compileS, "s"},
            {"frontend.ir_insts", double(p0.irInsts), "count"},
            {"frontend.ir_insts_per_s", ratio(double(p0.irInsts), compileS),
             "1/s"},
            {"programs_per_s",
             ratio(double(p0.programs),
                   compileS + span("conair.apply")),
             "prog/s"},
            {"conair.apply_s", span("conair.apply"), "s"},
            {"conair.sites", double(p0.sites), "count"},
            {"conair.recoverable_sites", double(p0.recoverableSites),
             "count"},
            {"conair.reexec_points", double(p0.reexecPoints), "count"},
            {"conair.ir_growth_pct",
             100.0 * ratio(double(p0.irInstsHardened) - double(p0.irInsts),
                           double(p0.irInsts)),
             "%"},
            {"conair.dyn_checkpoints", double(p0.dynCheckpoints), "count"},
            {"vm.runs", double(p0.vmRuns), "count"},
            {"vm.steps", double(p0.vmSteps), "count"},
            {"vm.steps_per_s", ratio(double(p0.vmSteps), vmS), "1/s"},
            {"vm.fast_path_share",
             ratio(double(p0.vmFastPath), double(p0.vmSteps)), "ratio"},
            {"vm.fused_share", ratio(double(p0.vmFused), double(p0.vmSteps)),
             "ratio"},
            {"vm.mem_cache_hit_ratio",
             ratio(double(p0.vmCacheHits),
                   double(p0.vmCacheHits + p0.vmCacheMisses)),
             "ratio"},
            {"vm.rollbacks", double(p0.vmRollbacks), "count"},
            {"explore.campaign_s", campaignS, "s"},
            {"explore.schedules", double(p0.schedules), "count"},
            {"explore.vm_runs_per_schedule",
             ratio(double(p0.campaignVmRuns), double(p0.schedules)), "ratio"},
            {"explore.steps_per_s", ratio(double(p0.campaignSteps), campaignS),
             "1/s"},
            {"explore.inconclusive_schedules", double(p0.inconclusive),
             "count"},
            {"explore.divergences", double(p0.divergences), "count"},
            {"explore.unrecovered", double(p0.unrecovered), "count"},
            // Pass 1 is traced, so it carries the profiler's leg cells.
            {"explore.leg.primary_s", p0.legMicros[0] / 1e6, "s"},
            {"explore.leg.reference_s", p0.legMicros[1] / 1e6, "s"},
            {"explore.leg.hardened_s", p0.legMicros[2] / 1e6, "s"},
            {"explore.leg.hardened_reference_s", p0.legMicros[3] / 1e6, "s"},
            {"schedules_per_s", ratio(double(p0.schedules), campaignS),
             "sched/s"},
            {"guided.search_s", span("guided.search"), "s"},
            {"guided.schedules", double(p0.guidedSchedules), "count"},
            {"guided.mutation_yield",
             ratio(double(p0.mutationNovel), double(p0.mutated)), "ratio"},
            {"guided.corpus_entries", double(p0.corpusEntries), "count"},
            {"guided.distinct_edges", double(p0.distinctEdges), "count"},
            {"guided_schedules_to_bug", double(p0.schedulesToBug), "count"},
            {"postmortem.diagnose_s", span("postmortem.diagnose"), "s"},
            {"postmortem.episodes", double(p0.episodes), "count"},
            {"replay.record_s", span("replay.record"), "s"},
            {"replay.minimize_s", span("replay.minimize"), "s"},
            {"replay.probes", double(p0.probes), "count"},
            {"replay.switches_in", double(p0.switchesIn), "count"},
            {"replay.switches_out", double(p0.switchesOut), "count"},
            {"fix.synthesize_s", span("fix.synthesize"), "s"},
            {"fix.edits", double(p0.edits), "count"},
            {"fix.validate_s", span("fix.validate"), "s"},
            {"fix.validate_schedules", double(p0.validateSchedules), "count"},
            {"fixes_validated", double(p0.fixesValidated), "count"},
            {"trace.pass_s_traced", traced, "s"},
            {"trace.pass_s_untraced", untraced, "s"},
            {"trace.overhead_pct", 100.0 * ratio(traced - untraced, untraced),
             "%"},
        };
        for (const char *layer : {"harness", "frontend", "conair", "vm",
                                  "explore", "guided", "postmortem",
                                  "replay", "fix"}) {
            auto it = self.find(layer);
            metrics.push_back({std::string("self.") + layer + "_s",
                               it == self.end() ? 0.0 : it->second / nt,
                               "s"});
        }
        std::string spanPath = "e2ebench-spans-" + a.workload + ".json";
        if (!tracer.write(spanPath))
            std::fprintf(stderr, "could not write %s\n", spanPath.c_str());

        // Human-readable summary: self time per layer as a share of the
        // traced pass (the base of every ratio is printed with it).
        std::printf("tracing overhead: traced pass %.4f s vs untraced %.4f "
                    "s (base) = %+.2f%% over %zu+%zu passes\n",
                    traced, untraced,
                    100.0 * ratio(traced - untraced, untraced),
                    tracedWalls.size(), untracedWalls.size());
        // Self times are means over the traced passes, so their base is
        // the mean traced pass (the shares then add up to 100%).
        double tracedMean = 0;
        for (double w : tracedWalls)
            tracedMean += w / nt;
        std::printf("self time per traced pass (base: mean traced pass "
                    "%.4f s):\n",
                    tracedMean);
        for (const auto &[layer, secs] : self)
            std::printf("  %-11s %9.4f s  %6.2f%%\n", layer.c_str(),
                        secs / nt, 100.0 * ratio(secs / nt, tracedMean));
    }

    std::string json = strfmt("{\"correct\": %s, \"attempted\": %llu, "
                              "\"failed\": %llu, \"metrics\": {",
                              ok ? "true" : "false",
                              (unsigned long long)attempted,
                              (unsigned long long)failed);
    for (size_t i = 0; i < metrics.size(); ++i)
        json += strfmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                       i ? ", " : "", metrics[i].name.c_str(),
                       metrics[i].value, metrics[i].unit.c_str());
    json += "}}";
    std::printf("%s\n", json.c_str());
    return ok ? 0 : 1;
}
