/**
 * @file
 * Golden identity test for the IR the static pipeline produces.
 *
 * One line per program pins the FNV-1a hash of the printed plain
 * module (compile + mem2reg), the hash of the printed hardened module
 * (after applyConAir with default options) and the ConAirReport
 * counters.  The programs are the 11 kernels, the 4 Fig 2 patterns and
 * the generated programs 1001..1100.  A change that only makes the
 * pipeline faster must leave every line as it is; an intended change to
 * the IR is re-blessed with `ir_golden_test --update`.
 *
 * A second test hardens every kernel and 50 generated programs twice in
 * one process, keeping both modules alive so their blocks sit at
 * different heap addresses, and expects byte-identical text: nothing in
 * the hardened IR may depend on pointer values.
 */
#include <gtest/gtest.h>

#include "apps/app_spec.h"
#include "apps/patterns.h"
#include "conair/driver.h"
#include "frontend/compile.h"
#include "ir/printer.h"
#include "support/str.h"
#include "tests/property/program_gen.h"
#include "tests/support/golden_util.h"

namespace conair {
namespace {

std::string
goldenPath()
{
    return std::string(GOLDEN_DIR) + "/ir.golden";
}

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::unique_ptr<ir::Module>
compileOrFail(const std::string &name, const std::string &src)
{
    DiagEngine d;
    fe::CompileOptions co;
    co.moduleName = name;
    auto m = fe::compileMiniC(src, d, co);
    EXPECT_TRUE(m) << name << ": " << d.str();
    return m;
}

/** Every program the golden covers, as (name, MiniC source). */
std::vector<std::pair<std::string, std::string>>
programs(unsigned generated)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const apps::AppSpec &app : apps::allApps())
        out.push_back({app.name, app.source});
    for (const apps::AppSpec &app : apps::challengeApps())
        out.push_back({app.name, app.source});
    for (const apps::PatternSpec &p : apps::fig2Patterns())
        out.push_back({"Fig2-" + p.name, p.source});
    for (unsigned i = 0; i < generated; ++i) {
        uint64_t seed = 1001 + i;
        out.push_back({strfmt("gen%llu", (unsigned long long)seed),
                       proptest::generateProgram(seed)});
    }
    return out;
}

std::string
irLine(const std::string &name, const std::string &src)
{
    auto plain = compileOrFail(name, src);
    auto hard = compileOrFail(name, src);
    if (!plain || !hard)
        return name + " compile-error";
    ca::ConAirReport r = ca::applyConAir(*hard);
    return strfmt("%s plain=%016llx hard=%016llx sites=%u recoverable=%u "
                  "points=%u interproc=%u",
                  name.c_str(),
                  (unsigned long long)fnv1a(ir::printModule(*plain)),
                  (unsigned long long)fnv1a(ir::printModule(*hard)),
                  r.identified.total(), r.recoverable.total(),
                  r.staticReexecPoints, r.interprocSites);
}

TEST(IrGolden, MatchesCheckedInHashes)
{
    std::string text;
    for (const auto &[name, src] : programs(100))
        text += irLine(name, src) + "\n";
    testutil::checkGolden(text, goldenPath());
}

TEST(IrGolden, HardeningIsDeterministicWithinOneProcess)
{
    for (const auto &[name, src] : programs(50)) {
        auto first = compileOrFail(name, src);
        auto second = compileOrFail(name, src);
        ASSERT_TRUE(first && second);
        ca::applyConAir(*first);
        ca::applyConAir(*second);
        EXPECT_EQ(ir::printModule(*first), ir::printModule(*second))
            << name;
    }
}

} // namespace
} // namespace conair

int
main(int argc, char **argv)
{
    return conair::testutil::goldenMain(argc, argv);
}
