#include <unordered_set>

#include "tests/conair/conair_test_util.h"

namespace conair::ca {
namespace {

using testutil::compileC;

const char *mixed_src = R"(
int shared;
int* table;
mutex m;

int worker(int n) {
    lock(m);
    shared += n;
    unlock(m);
    assert(shared >= 0);
    return table[n];
}

int main() {
    table = malloc(8);
    int t = spawn(worker, 3);
    print("shared=", shared, "\n");
    join(t);
    return 0;
}
)";

TEST(FailureSites, SurvivalModeFindsAllKinds)
{
    auto m = compileC(mixed_src);
    auto sites = identifyFailureSites(*m, {});
    SiteCounts c = countByKind(sites);
    EXPECT_EQ(c.assertion, 1u);
    // print("shared=", shared, "\n") = 2 string pieces + 1 int piece.
    EXPECT_EQ(c.wrongOutput, 3u);
    // table[n] load via the global pointer.
    EXPECT_GE(c.segfault, 1u);
    EXPECT_EQ(c.deadlock, 1u);
}

TEST(FailureSites, DirectGlobalAccessIsNotASegfaultSite)
{
    auto m = compileC(R"(
int g;
int main() {
    g = 1;
    return g;
}
)");
    auto sites = identifyFailureSites(*m, {});
    EXPECT_EQ(countByKind(sites).segfault, 0u);
}

TEST(FailureSites, PointerDerefsAreSegfaultSites)
{
    auto m = compileC(R"(
int* p;
int main() {
    p = malloc(2);
    p[0] = 1;        // store through pointer variable
    int v = p[1];    // load through pointer variable
    return v;
}
)");
    auto sites = identifyFailureSites(*m, {});
    EXPECT_EQ(countByKind(sites).segfault, 2u);
}

TEST(FailureSites, OracleSitesAreRecoverableWrongOutput)
{
    auto m = compileC(R"(
int x;
int main() {
    oracle(x == 0);
    print(x);
    return 0;
}
)");
    auto sites = identifyFailureSites(*m, {});
    unsigned with_oracle = 0, without = 0;
    for (const FailureSite &s : sites) {
        if (s.kind != FailureKind::WrongOutput)
            continue;
        (s.hasOracle ? with_oracle : without) += 1;
    }
    EXPECT_EQ(with_oracle, 1u);
    EXPECT_EQ(without, 1u);
}

TEST(FailureSites, FixModeSelectsByTag)
{
    auto m = compileC(mixed_src);
    FailureSiteOptions opts;
    opts.mode = Mode::Fix;
    opts.fixTags = {"assert.worker.10"};
    auto sites = identifyFailureSites(*m, opts);
    ASSERT_EQ(sites.size(), 1u);
    EXPECT_EQ(sites[0].kind, FailureKind::Assertion);
    EXPECT_EQ(sites[0].inst->tag(), "assert.worker.10");
}

TEST(FailureSites, FixModeUnknownTagSelectsNothing)
{
    auto m = compileC(mixed_src);
    FailureSiteOptions opts;
    opts.mode = Mode::Fix;
    opts.fixTags = {"assert.nowhere.1"};
    EXPECT_TRUE(identifyFailureSites(*m, opts).empty());
}

TEST(FailureSites, IdsAreDenseAndUnique)
{
    auto m = compileC(mixed_src);
    auto sites = identifyFailureSites(*m, {});
    std::unordered_set<int64_t> ids;
    for (const FailureSite &s : sites)
        EXPECT_TRUE(ids.insert(s.id).second);
    EXPECT_EQ(ids.size(), sites.size());
}

TEST(FailureSites, StackArrayAccessIsNotASite)
{
    auto m = compileC(R"(
int main() {
    int a[4];
    a[1] = 2;
    return a[1];
}
)");
    auto sites = identifyFailureSites(*m, {});
    EXPECT_EQ(countByKind(sites).segfault, 0u);
}

} // namespace
} // namespace conair::ca
