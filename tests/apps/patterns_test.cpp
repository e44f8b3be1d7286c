/**
 * @file
 * Fig 2 pattern verdicts as tests (the bench prints the same data):
 * idempotent reexecution recovers WAW and RAR atomicity violations and
 * provably cannot recover RAW and WAR (§2.2).
 */
#include <gtest/gtest.h>

#include "apps/patterns.h"
#include "conair/driver.h"
#include "frontend/compile.h"
#include "vm/interp.h"

namespace conair::apps {
namespace {

class Fig2 : public ::testing::TestWithParam<std::string>
{
  protected:
    const PatternSpec &
    pattern() const
    {
        for (const PatternSpec &p : fig2Patterns())
            if (p.name == GetParam())
                return p;
        ADD_FAILURE() << "unknown pattern";
        static PatternSpec dummy;
        return dummy;
    }

    static std::unique_ptr<ir::Module>
    compile(const std::string &src)
    {
        DiagEngine d;
        auto m = fe::compileMiniC(src, d);
        EXPECT_TRUE(m) << d.str();
        return m;
    }
};

TEST_P(Fig2, OriginalFailsAsDescribed)
{
    const PatternSpec &p = pattern();
    auto m = compile(p.source);
    vm::VmConfig cfg = p.buggyConfig;
    cfg.seed = 1;
    EXPECT_EQ(vm::runProgram(*m, cfg).outcome, p.expectedFailure);
}

TEST_P(Fig2, RecoverabilityMatchesSection22)
{
    const PatternSpec &p = pattern();
    unsigned ok = 0;
    const unsigned runs = 10;
    for (unsigned seed = 1; seed <= runs; ++seed) {
        auto m = compile(p.source);
        ca::applyConAir(*m);
        vm::VmConfig cfg = p.buggyConfig;
        cfg.seed = seed;
        ok += vm::runProgram(*m, cfg).outcome == vm::Outcome::Success;
    }
    if (p.recoverableByConAir)
        EXPECT_EQ(ok, runs) << p.name << " should always recover";
    else
        EXPECT_EQ(ok, 0u) << p.name << " should never recover";
}

/** The unrecoverable patterns only (§2.2: RAW and WAR). */
class Fig2Unrecoverable : public Fig2
{};

TEST_P(Fig2Unrecoverable, UnrecoverablePatternsSurfaceTheOriginalFailure)
{
    const PatternSpec &p = pattern();
    ASSERT_FALSE(p.recoverableByConAir) << p.name;
    auto m = compile(p.source);
    ca::applyConAir(*m);
    vm::VmConfig cfg = p.buggyConfig;
    cfg.seed = 1;
    vm::RunResult r = vm::runProgram(*m, cfg);
    // After the retry budget exhausts, the failure must be the
    // original one (correctness: ConAir never invents new outcomes).
    EXPECT_EQ(r.outcome, p.expectedFailure);
    EXPECT_GT(r.stats.rollbacks, 0u); // it did try
}

INSTANTIATE_TEST_SUITE_P(Patterns, Fig2,
                         ::testing::Values("WAW", "RAW", "RAR", "WAR"),
                         [](const auto &info) { return info.param; });
INSTANTIATE_TEST_SUITE_P(Patterns, Fig2Unrecoverable,
                         ::testing::Values("RAW", "WAR"),
                         [](const auto &info) { return info.param; });

} // namespace
} // namespace conair::apps
