/**
 * @file
 * Cross-engine differential fuzzer.
 *
 * Every seed generates a MiniC program (multi-threaded, shared
 * globals/heap, a variety of locks; some seeds adversarial so failure
 * paths get fuzzed too), compiles it plain and ConAir-hardened, and
 * runs both builds under a seed-derived schedule on both execution
 * engines.  Reference and Fused must agree on the complete observable
 * run: outcome, output, exit code, failure
 * diagnostics, virtual clock, step and scheduling-tick counts, and
 * the final-memory digest.  Any divergence prints the generator seed
 * and the source so the case can be replayed directly.
 *
 * Seed count defaults to a quick-ctest batch; CI sets
 * CONAIR_FUZZ_SEEDS=500 for the sanitizer smoke sweep (see
 * .github/workflows/ci.yml and docs/TESTING.md).
 */
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "conair/driver.h"
#include "frontend/compile.h"
#include "tests/property/program_gen.h"
#include "vm/interp.h"

namespace conair::proptest {
namespace {

uint64_t
seedCount()
{
    if (const char *env = std::getenv("CONAIR_FUZZ_SEEDS")) {
        long n = std::strtol(env, nullptr, 10);
        if (n > 0)
            return uint64_t(n);
    }
    return 40; // quick default; CI smoke raises this to >= 500
}

/** Per-seed program shape: sweep the generator knobs so the corpus
 *  covers threads on/off, shared heap, lock variety, pointers, and
 *  (every fifth seed) genuinely racing adversarial programs. */
GenOptions
optionsFor(uint64_t seed)
{
    GenOptions o;
    o.maxFunctions = 1 + unsigned(seed % 3);
    o.maxStmtsPerBlock = 3 + unsigned(seed % 5);
    o.maxDepth = 2 + unsigned(seed % 2);
    o.numGlobals = 2 + unsigned(seed % 4);
    o.arraySize = 4 + unsigned(seed % 8);
    o.withThreads = seed % 4 != 1;
    o.withPointers = seed % 3 != 2;
    o.sharedHeap = o.withThreads && seed % 2 == 0;
    o.numMutexes = 1 + unsigned(seed % 3);
    o.adversarial = seed % 5 == 0;
    return o;
}

/** Per-seed schedule: cycle the policy axis and vary quantum/seed so
 *  the same program body is explored under different interleavings. */
vm::VmConfig
configFor(uint64_t seed)
{
    vm::VmConfig cfg;
    cfg.seed = seed * 977 + 11;
    cfg.quantum = 8 + seed % 57;
    cfg.maxSteps = 2'000'000;
    switch (seed % 4) {
      case 0: cfg.policy = vm::SchedPolicy::Random; break;
      case 1: cfg.policy = vm::SchedPolicy::RoundRobin; break;
      case 2:
        cfg.policy = vm::SchedPolicy::Pct;
        cfg.pctDepth = 2 + seed % 3;
        cfg.pctHorizon = 500 + seed % 1500;
        break;
      default:
        cfg.policy = vm::SchedPolicy::PreemptBound;
        cfg.preemptBound = 1 + seed % 3;
        break;
    }
    return cfg;
}

/** Everything semantic a run reports, including the scheduling-tick
 *  count (engine-internal counters like decodedInsts/fusedSteps/
 *  memCache* are excluded — they describe how the engine ran). */
void
expectIdenticalRun(const vm::RunResult &a, const vm::RunResult &b,
                   const std::string &ctx)
{
    EXPECT_EQ(a.outcome, b.outcome) << ctx;
    EXPECT_EQ(a.exitCode, b.exitCode) << ctx;
    EXPECT_EQ(a.output, b.output) << ctx;
    EXPECT_EQ(a.failureMsg, b.failureMsg) << ctx;
    EXPECT_EQ(a.failureTag, b.failureTag) << ctx;
    EXPECT_EQ(a.clock, b.clock) << ctx;
    EXPECT_EQ(a.memDigest, b.memDigest) << ctx;
    EXPECT_EQ(a.stats.steps, b.stats.steps) << ctx;
    EXPECT_EQ(a.stats.schedTicks, b.stats.schedTicks) << ctx;
    EXPECT_EQ(a.stats.threadsSpawned, b.stats.threadsSpawned) << ctx;
    EXPECT_EQ(a.stats.checkpointsExecuted, b.stats.checkpointsExecuted)
        << ctx;
    EXPECT_EQ(a.stats.rollbacks, b.stats.rollbacks) << ctx;
    EXPECT_EQ(a.stats.backoffs, b.stats.backoffs) << ctx;
    EXPECT_EQ(a.stats.chaosRollbacks, b.stats.chaosRollbacks) << ctx;
    ASSERT_EQ(a.stats.recoveries.size(), b.stats.recoveries.size())
        << ctx;
    for (size_t i = 0; i < a.stats.recoveries.size(); ++i) {
        EXPECT_EQ(a.stats.recoveries[i].siteTag,
                  b.stats.recoveries[i].siteTag)
            << ctx << " recovery " << i;
        EXPECT_EQ(a.stats.recoveries[i].retries,
                  b.stats.recoveries[i].retries)
            << ctx << " recovery " << i;
    }
}

/** Runs @p m on both engines and requires identical runs. */
void
diffEngines(const ir::Module &m, vm::VmConfig cfg,
            const std::string &ctx)
{
    cfg.engine = vm::ExecEngine::Reference;
    vm::RunResult ref = vm::runProgram(m, cfg);
    cfg.engine = vm::ExecEngine::Fused;
    vm::RunResult fus = vm::runProgram(m, cfg);
    expectIdenticalRun(ref, fus, ctx + " [fused vs reference]");
}

TEST(EngineFuzz, AllEnginesAgreeOnRandomPrograms)
{
    uint64_t seeds = seedCount();
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
        GenOptions gopts = optionsFor(seed);
        std::string src = generateProgram(seed, gopts);
        std::string ctx = strfmt("fuzz seed %llu\n--- source ---\n%s",
                                 (unsigned long long)seed, src.c_str());

        DiagEngine d;
        auto plain = fe::compileMiniC(src, d);
        ASSERT_TRUE(plain) << d.str() << "\n" << ctx;
        DiagEngine d2;
        auto hardened = fe::compileMiniC(src, d2);
        ASSERT_TRUE(hardened) << d2.str();
        ca::ConAirReport rep = ca::applyConAir(*hardened);
        EXPECT_GT(rep.identified.total(), 0u) << ctx;

        vm::VmConfig cfg = configFor(seed);
        diffEngines(*plain, cfg, "plain " + ctx);
        diffEngines(*hardened, cfg, "hardened " + ctx);

        // Every third seed also fuzzes the rollback machinery: chaos
        // injection forces checkpoint/restore traffic through both
        // engines on the hardened build.
        if (seed % 3 == 0) {
            vm::VmConfig chaos = cfg;
            chaos.chaosRollbackEveryN = 64;
            diffEngines(*hardened, chaos, "chaos " + ctx);
        }
    }
}

} // namespace
} // namespace conair::proptest
