/**
 * @file
 * Paper §4.3 footnote 5: when a site is promoted to inter-procedural
 * recovery, the reexecution point at its function's entry is removed —
 * and any *other* site that relied on that entry point silently rides
 * along, rolling back to the caller's checkpoint ("which is fine").
 */
#include "tests/conair/conair_test_util.h"

namespace conair::ca {
namespace {

using ir::Builtin;
using testutil::countBuiltinCalls;
using testutil::parseIR;
using testutil::siteByTag;

// foo has two failure sites: the parameter dereference (promoted to
// inter-procedural recovery) and an assert on a global (ordinarily
// intra-procedural with the entry as its reexecution point).
const char *module_text = R"(
global @p : ptr[1]
global @ok : i64[1]

func @foo(ptr %x) -> i64 {
entry:
    %v = load i64, %x #"site_deref"
    %g = load i64, @ok
    %c = icmp.eq %g, 1
    condbr %c, good, fail2
good:
    ret %v
fail2:
    call $assert_fail("not ok") #"site_assert"
    unreachable
}

func @setter(i64 %unused) -> i64 {
entry:
    sched_hint 1
    %b = call $malloc(2)
    store 9, %b
    store %b, @p
    store 1, @ok
    ret 0
}

func @main() -> i64 {
entry:
    %t = call $thread_create(@setter, 0)
    %ptr = load ptr, @p
    %r = call @foo(%ptr)
    call $thread_join(%t)
    ret %r
}
)";

TEST(Footnote5, EntryPointRemovedSiblingRidesAlong)
{
    auto m = parseIR(module_text);
    ConAirReport report = applyConAir(*m);

    const SiteReport *deref = siteByTag(report, "site_deref");
    const SiteReport *assrt = siteByTag(report, "site_assert");
    ASSERT_NE(deref, nullptr);
    ASSERT_NE(assrt, nullptr);
    EXPECT_TRUE(deref->interproc);
    EXPECT_TRUE(deref->recoverable);
    // The assert stays formally intra-procedural and recoverable...
    EXPECT_FALSE(assrt->interproc);
    EXPECT_TRUE(assrt->recoverable);

    // ...but its foo-entry checkpoint is gone: every checkpoint lives
    // in the caller now.
    for (auto &f : m->functions()) {
        unsigned ckpts = 0;
        for (auto &bb : f->blocks())
            for (auto &inst : bb->insts())
                ckpts += inst->opcode() == ir::Opcode::Call &&
                         inst->builtin() == Builtin::CaCheckpoint;
        if (f->name() == "foo") {
            EXPECT_EQ(ckpts, 0u) << "entry checkpoint must be removed";
        }
        if (f->name() == "main") {
            EXPECT_GE(ckpts, 1u);
        }
    }
}

TEST(Footnote5, BothSitesRecoverThroughTheCallerCheckpoint)
{
    auto m = parseIR(module_text);
    applyConAir(*m);
    vm::VmConfig cfg;
    cfg.delays = {{1, 4'000}};
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        cfg.seed = seed;
        vm::RunResult r = vm::runProgram(*m, cfg);
        EXPECT_EQ(r.outcome, vm::Outcome::Success)
            << "seed " << seed << ": " << r.failureMsg;
        EXPECT_EQ(r.exitCode, 9);
        EXPECT_GE(r.stats.rollbacks, 1u);
    }
}

TEST(Footnote5, WithoutInterprocTheEntryPointStays)
{
    auto m = parseIR(module_text);
    ConAirOptions opts;
    opts.interproc = false;
    ConAirReport report = applyConAir(*m, opts);
    const SiteReport *assrt = siteByTag(report, "site_assert");
    ASSERT_NE(assrt, nullptr);
    EXPECT_TRUE(assrt->recoverable);
    unsigned foo_ckpts = 0;
    for (auto &bb : m->findFunction("foo")->blocks())
        for (auto &inst : bb->insts())
            foo_ckpts += inst->opcode() == ir::Opcode::Call &&
                         inst->builtin() == Builtin::CaCheckpoint;
    EXPECT_EQ(foo_ckpts, 1u);
}

} // namespace
} // namespace conair::ca
